// Package browser simulates the paper's instrumented Chrome (§3.2): it
// "visits" a page with an http://www. prefix, executes its scripts
// (revealing dynamically injected miners), dumps every instantiated
// WebAssembly module, records Websocket endpoints, applies the paper's
// page-load heuristic, and saves the first 65 kB of the final HTML so the
// NoCoin list can be re-applied post-execution.
package browser

import (
	"sync"
	"unsafe"

	"repro/internal/crawler"
	"repro/internal/fingerprint"
	"repro/internal/nocoin"
	"repro/internal/parallel"
	"repro/internal/wasm"
	"repro/internal/webgen"
)

// Load-heuristic constants from the paper: "we wait for the page's load
// event and set a 2 s timer on every DOM change but wait no longer than
// additional 5 s ... In case of no load event, we wait no longer than 15 s".
const (
	domQuietMs    = 2000
	extraCapMs    = 5000
	hardTimeoutMs = 15000
	// finalHTMLCap is the 65 kB of post-execution HTML the paper saved.
	finalHTMLCap = 65 << 10
)

// Page is the instrumented result of one visit.
type Page struct {
	domain    string
	finalHTML string
	Wasm      [][]byte
	WSHosts   []string
	loadMs    int
	timedOut  bool
}

// loadCompletion evaluates the paper's heuristic for a load profile,
// returning the completion time in ms and whether the visit timed out.
func loadCompletion(p webgen.LoadProfile) (int, bool) {
	if !p.HasLoadEvent {
		return hardTimeoutMs, true
	}
	complete := p.LoadEventMs + domQuietMs
	cap := p.LoadEventMs + extraCapMs
	for _, d := range p.DOMChangeMs {
		at := p.LoadEventMs + d
		if at+domQuietMs > complete {
			complete = at + domQuietMs
		}
	}
	if complete > cap {
		complete = cap
	}
	if complete > hardTimeoutMs {
		return hardTimeoutMs, true
	}
	return complete, false
}

// Visit executes a synthetic site.
func Visit(s *webgen.Site) Page {
	html, p := appendVisit(nil, s)
	p.finalHTML = unsafe.String(unsafe.SliceData(html), len(html))
	return p
}

// appendVisit is Visit in append form: it appends the final HTML, capped at
// finalHTMLCap, to dst and returns it with the rest of the Page, whose
// finalHTML it leaves "".
func appendVisit(dst []byte, s *webgen.Site) ([]byte, Page) {
	loadMs, timedOut := loadCompletion(s.Load)
	n := len(dst)
	dst, art := webgen.AppendExecuted(dst, s)
	if len(dst)-n > finalHTMLCap {
		dst = dst[:n+finalHTMLCap]
	}
	return dst, Page{
		domain:   s.Domain,
		Wasm:     art.Wasm,
		WSHosts:  art.WSHosts,
		loadMs:   loadMs,
		timedOut: timedOut,
	}
}

// SiteVerdict is the per-site outcome of the instrumented crawl.
type SiteVerdict struct {
	Domain    string
	hasWasm   bool
	MinerWasm bool
	family    string
	knownSig  bool
	NoCoinHit bool
	timedOut  bool
}

// Report aggregates an instrumented crawl — the numbers behind Tables 1
// and 2.
type Report struct {
	tld      webgen.TLD
	Total    int
	TimedOut int
	// WasmSites counts sites that instantiated any Wasm ("Total
	// WebAssembly" row of Table 1).
	WasmSites int
	// MinerSites counts sites whose Wasm is mining code.
	MinerSites int
	// FamilyCounts tallies miner sites by attributed family (Table 1 rows).
	FamilyCounts map[string]int
	// NoCoinHits counts sites the list flags on post-execution HTML.
	NoCoinHits int
	// NoCoinHitsWithMinerWasm is Table 2's "having Wasm Miner" column.
	NoCoinHitsWithMinerWasm int
	// MinersBlockedByNoCoin / MinersMissedByNoCoin split the Wasm-detected
	// miners by block-list visibility (Table 2's right half).
	MinersBlockedByNoCoin int
	MinersMissedByNoCoin  int
	Verdicts              []SiteVerdict
}

// MissRate returns the fraction of Wasm-detected miners the block list
// missed (82% Alexa / 67% .org in the paper).
func (r Report) MissRate() float64 {
	if r.MinerSites == 0 {
		return 0
	}
	return float64(r.MinersMissedByNoCoin) / float64(r.MinerSites)
}

// Crawl visits every site of a corpus with the given parallelism,
// classifying Wasm against db and re-applying the NoCoin list to the final
// HTML. Each worker reuses one page buffer and one crawler.PageScanner from
// site to site.
func Crawl(c *webgen.Corpus, db *fingerprint.DB, list *nocoin.List, workers int) Report {
	if workers <= 0 {
		workers = 8
	}
	rep := Report{tld: c.Cfg.TLD, Total: len(c.Sites), FamilyCounts: map[string]int{}}
	scratches := make([]scratch, workers)
	for w := range scratches {
		scratches[w].scan = crawler.NewPageScanner(list)
	}
	var mu sync.Mutex
	parallel.ForEach(len(c.Sites), workers, func(w, i int) {
		v := scratches[w].classify(c.Sites[i], db)
		mu.Lock()
		defer mu.Unlock()
		if v.timedOut {
			rep.TimedOut++
		}
		if v.hasWasm {
			rep.WasmSites++
		}
		if v.MinerWasm {
			rep.MinerSites++
			rep.FamilyCounts[v.family]++
			if v.NoCoinHit {
				rep.MinersBlockedByNoCoin++
			} else {
				rep.MinersMissedByNoCoin++
			}
		}
		if v.NoCoinHit {
			rep.NoCoinHits++
			if v.MinerWasm {
				rep.NoCoinHitsWithMinerWasm++
			}
		}
		if v.MinerWasm || v.NoCoinHit || v.hasWasm {
			rep.Verdicts = append(rep.Verdicts, v)
		}
	})
	return rep
}

// scratch is what one Crawl worker reuses from site to site.
type scratch struct {
	page []byte
	scan *crawler.PageScanner
}

func (sc *scratch) classify(s *webgen.Site, db *fingerprint.DB) SiteVerdict {
	var page Page
	sc.page, page = appendVisit(sc.page[:0], s)
	v := SiteVerdict{Domain: s.Domain, timedOut: page.timedOut}

	// NoCoin over the post-execution HTML, a view of the buffer the next
	// site overwrites; the verdict keeps only whether anything matched.
	v.NoCoinHit = len(sc.scan.Scan(unsafe.String(unsafe.SliceData(sc.page), len(sc.page)))) > 0

	// Wasm fingerprinting over every dumped module.
	for _, bin := range page.Wasm {
		m, err := wasm.Decode(bin)
		if err != nil {
			continue
		}
		v.hasWasm = true
		verdict := db.Classify(m, page.WSHosts)
		if verdict.Miner {
			v.MinerWasm = true
			v.family = verdict.Family
			v.knownSig = verdict.Known
		}
	}
	return v
}
