// Package browser simulates the paper's instrumented Chrome (§3.2): it
// "visits" a page with an http://www. prefix, executes its scripts
// (revealing dynamically injected miners), dumps every instantiated
// WebAssembly module, records Websocket endpoints, applies the paper's
// page-load heuristic, and saves the first 65 kB of the final HTML so the
// NoCoin list can be re-applied post-execution.
package browser

import (
	"sync"

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
	DOMQuietMs    = 2000
	ExtraCapMs    = 5000
	HardTimeoutMs = 15000
	// FinalHTMLCap is the 65 kB of post-execution HTML the paper saved.
	FinalHTMLCap = 65 << 10
)

// Page is the instrumented result of one visit.
type Page struct {
	Domain    string
	FinalHTML string
	Wasm      [][]byte
	WSHosts   []string
	LoadMs    int
	TimedOut  bool
}

// LoadCompletion evaluates the paper's heuristic for a load profile,
// returning the completion time in ms and whether the visit timed out.
func LoadCompletion(p webgen.LoadProfile) (int, bool) {
	if !p.HasLoadEvent {
		return HardTimeoutMs, true
	}
	complete := p.LoadEventMs + DOMQuietMs
	cap := p.LoadEventMs + ExtraCapMs
	for _, d := range p.DOMChangeMs {
		at := p.LoadEventMs + d
		if at+DOMQuietMs > complete {
			complete = at + DOMQuietMs
		}
	}
	if complete > cap {
		complete = cap
	}
	if complete > HardTimeoutMs {
		return HardTimeoutMs, true
	}
	return complete, false
}

// Visit executes a synthetic site.
func Visit(s *webgen.Site) Page {
	loadMs, timedOut := LoadCompletion(s.Load)
	art := webgen.Execute(s)
	html := art.FinalHTML
	if len(html) > FinalHTMLCap {
		html = html[:FinalHTMLCap]
	}
	return Page{
		Domain:    s.Domain,
		FinalHTML: html,
		Wasm:      art.Wasm,
		WSHosts:   art.WSHosts,
		LoadMs:    loadMs,
		TimedOut:  timedOut,
	}
}

// SiteVerdict is the per-site outcome of the instrumented crawl.
type SiteVerdict struct {
	Domain     string
	HasWasm    bool
	MinerWasm  bool
	Family     string
	KnownSig   bool
	NoCoinHit  bool
	TimedOut   bool
	Categories []string // filled by the experiment layer
}

// Report aggregates an instrumented crawl — the numbers behind Tables 1
// and 2.
type Report struct {
	TLD      webgen.TLD
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
// HTML.
func Crawl(c *webgen.Corpus, db *fingerprint.DB, list *nocoin.List, workers int) Report {
	if workers <= 0 {
		workers = 8
	}
	rep := Report{TLD: c.Cfg.TLD, Total: len(c.Sites), FamilyCounts: map[string]int{}}
	var mu sync.Mutex
	parallel.ForEach(len(c.Sites), workers, func(i int) {
		s := c.Sites[i]
		v := classify(s, db, list)
		mu.Lock()
		defer mu.Unlock()
		if v.TimedOut {
			rep.TimedOut++
		}
		if v.HasWasm {
			rep.WasmSites++
		}
		if v.MinerWasm {
			rep.MinerSites++
			rep.FamilyCounts[v.Family]++
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
		if v.MinerWasm || v.NoCoinHit || v.HasWasm {
			rep.Verdicts = append(rep.Verdicts, v)
		}
	})
	return rep
}

func classify(s *webgen.Site, db *fingerprint.DB, list *nocoin.List) SiteVerdict {
	page := Visit(s)
	v := SiteVerdict{Domain: s.Domain, TimedOut: page.TimedOut}

	// NoCoin over the post-execution HTML.
	v.NoCoinHit = len(crawler.ScanPage(list, page.FinalHTML)) > 0

	// Wasm fingerprinting over every dumped module.
	for _, bin := range page.Wasm {
		m, err := wasm.Decode(bin)
		if err != nil {
			continue
		}
		v.HasWasm = true
		verdict := db.Classify(m, page.WSHosts)
		if verdict.Miner {
			v.MinerWasm = true
			v.Family = verdict.Family
			v.KnownSig = verdict.Known
		}
	}
	return v
}
