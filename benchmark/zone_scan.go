package main

import (
	"fmt"
	"reflect"

	"repro/internal/browser"
	"repro/internal/crawler"
	"repro/internal/fingerprint"
	"repro/internal/nocoin"
	"repro/internal/webgen"
)

const (
	zoneDomains = 120_000
	zoneShard   = 5_000
)

// shardTruth is what the corpus says a shard's crawl must report.
type shardTruth struct {
	reachable int            // sites the TLS fetch can reach
	miners    int            // sites that mine when executed
	wasm      int            // sites that instantiate any Wasm
	families  map[string]int // miner sites per family
}

// shardSeen is what the first pass over a shard reported; every later
// pass must report the same.
type shardSeen struct {
	hits     int
	scanFams map[string]int
	nocoin   int
}

// zoneScan is the paper's §3 pipeline: every domain of a zone through
// the static NoCoin scan (crawler.Scan) and then the instrumented
// browser crawl with Wasm fingerprinting (browser.Crawl), shard after
// shard, two workers each.
type zoneScan struct {
	shards  []*webgen.Corpus
	truth   []shardTruth
	seen    []*shardSeen
	fetcher *crawler.CorpusFetcher
	list    *nocoin.List
	db      *fingerprint.DB
}

func setupZoneScan(o options) (instance, error) {
	n, shard := o.scaled(zoneDomains, 1200), o.scaled(zoneShard, 100)
	corpus := webgen.Generate(webgen.DefaultConfig(webgen.TLDAlexa, n, o.seed))
	w := &zoneScan{
		fetcher: crawler.NewCorpusFetcher(corpus),
		list:    nocoin.Bundled(),
		db:      fingerprint.ReferenceDB(),
	}
	for at := 0; at+shard <= len(corpus.Sites); at += shard {
		sites := corpus.Sites[at : at+shard]
		w.shards = append(w.shards, &webgen.Corpus{Cfg: corpus.Cfg, Sites: sites})
		t := shardTruth{families: map[string]int{}}
		for _, s := range sites {
			if !s.Load.TLSBroken {
				t.reachable++
			}
			if s.Miner != nil {
				t.miners++
				t.wasm++
				t.families[s.Miner.Family]++
			} else if s.BenignWasm != nil {
				t.wasm++
			}
		}
		w.truth = append(w.truth, t)
	}
	w.seen = make([]*shardSeen, len(w.shards))
	return w, nil
}

func (w *zoneScan) drive(rec *recorder) {
	l := rec.lane()
	loopStart := now()
	for i := 0; !rec.stopped(); i = (i + 1) % len(w.shards) {
		c := w.shards[i]
		t0 := now()
		scan := crawler.Scan(c, w.fetcher, w.list, pinnedProcs)
		t1 := now()
		crawl := browser.Crawl(c, w.db, w.list, pinnedProcs)
		t2 := now()
		if note := w.verify(i, &scan, &crawl); note != "" {
			l.fail("shard %d: %s", i, note)
			continue
		}
		// One op per domain classified.
		l.attempted += int64(len(c.Sites)) - 1
		l.op(t0, t2, int64(len(c.Sites)))
		if rec.trace {
			l.nextOp++
			l.span("crawler.scan", "shard", l.nextOp, t0, t1)
			l.span("browser.crawl", "shard", l.nextOp, t1, t2)
			l.span("shard", "", l.nextOp, t0, t2)
			l.waitNs += t2 - t0
		}
	}
	l.wallNs += now() - loopStart
}

// verify holds one shard's reports against the corpus ground truth and
// against the first pass over the same shard.
func (w *zoneScan) verify(i int, scan *crawler.Report, crawl *browser.Report) string {
	t := w.truth[i]
	switch {
	case scan.Fetched != t.reachable:
		return fmt.Sprintf("static scan fetched %d pages, corpus has %d reachable", scan.Fetched, t.reachable)
	case crawl.MinerSites != t.miners || crawl.WasmSites != t.wasm:
		return fmt.Sprintf("browser crawl found %d miners / %d Wasm sites, corpus has %d / %d", crawl.MinerSites, crawl.WasmSites, t.miners, t.wasm)
	case len(t.families)+len(crawl.FamilyCounts) > 0 && !reflect.DeepEqual(crawl.FamilyCounts, t.families):
		return fmt.Sprintf("per-family verdicts %v, corpus ground truth %v", crawl.FamilyCounts, t.families)
	}
	now := &shardSeen{hits: len(scan.Hits), scanFams: scan.FamilyCounts, nocoin: crawl.NoCoinHits}
	if first := w.seen[i]; first == nil {
		w.seen[i] = now
	} else if first.hits != now.hits || first.nocoin != now.nocoin ||
		(len(first.scanFams)+len(now.scanFams) > 0 && !reflect.DeepEqual(first.scanFams, now.scanFams)) {
		return fmt.Sprintf("pass differs from the first: %+v then, %+v now", *first, *now)
	}
	return ""
}

func (w *zoneScan) check() []string { return nil } // every shard is verified as it completes

func (w *zoneScan) layers(o options, m map[string]float64) error { return measureZoneLayers(o, m) }

func (w *zoneScan) close() {}
