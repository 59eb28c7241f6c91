package experiments

import (
	"fmt"
	"strings"

	"repro/internal/analysis"
	"repro/internal/browser"
	"repro/internal/crawler"
	"repro/internal/fingerprint"
	"repro/internal/nocoin"
	"repro/internal/rulespace"
	"repro/internal/webgen"
)

// ---------------------------------------------------------------------------
// Figure 2 — NoCoin-detected miners across the TLD populations.
// ---------------------------------------------------------------------------

// Fig2Scan is one (population, scan date) bar of Figure 2.
type Fig2Scan struct {
	tld          webgen.TLD
	scanLabel    string
	Probed       int
	Hits         int
	zoneHits     float64 // extrapolated to real zone size
	familyShares map[string]float64
}

// Fig2Result aggregates all bars.
type Fig2Result struct {
	Scans []Fig2Scan
}

// RunFig2 performs the §3.1 static TLS scan over every population, twice
// (the paper scanned each zone on two dates; we use two corpus seeds).
func RunFig2(scale Scale, workers int) Fig2Result {
	var res Fig2Result
	list := nocoin.Bundled()
	sizes := scale.corpusSizes()
	for _, tld := range []webgen.TLD{webgen.TLDAlexa, webgen.TLDCom, webgen.TLDNet, webgen.TLDOrg} {
		for scan, seed := range []uint64{20180111, 20180503} {
			corpus := webgen.Generate(webgen.DefaultConfig(tld, sizes[tld], seed))
			rep := crawler.Scan(corpus, crawler.NewCorpusFetcher(corpus), list, workers)
			shares := map[string]float64{}
			for fam, n := range rep.FamilyCounts {
				shares[fam] = float64(n) / float64(len(rep.Hits))
			}
			res.Scans = append(res.Scans, Fig2Scan{
				tld:          tld,
				scanLabel:    fmt.Sprintf("scan-%d", scan+1),
				Probed:       rep.Total,
				Hits:         len(rep.Hits),
				zoneHits:     float64(len(rep.Hits)) * scale.extrapolationFactor(tld),
				familyShares: shares,
			})
		}
	}
	return res
}

// Render prints the Figure 2 data as a table.
func (r Fig2Result) Render() string {
	rows := make([][]string, 0, len(r.Scans))
	for _, s := range r.Scans {
		order := analysis.RankDescending(toCounts(s.familyShares))
		var fams []string
		for i, e := range order {
			if i >= 5 {
				break
			}
			fams = append(fams, fmt.Sprintf("%s %.0f%%", e.Key, s.familyShares[e.Key]*100))
		}
		rows = append(rows, []string{
			string(s.tld), s.scanLabel,
			fmt.Sprintf("%d", s.Probed),
			fmt.Sprintf("%d", s.Hits),
			fmt.Sprintf("%.0f", s.zoneHits),
			fmt.Sprintf("%.4f%%", 100*float64(s.Hits)/float64(s.Probed)),
			strings.Join(fams, ", "),
		})
	}
	return "Figure 2 — NoCoin detected miners per population\n" +
		analysis.Table([]string{"pop", "scan", "probed", "hits", "zone-extrapolated", "share", "top families"}, rows)
}

func toCounts(shares map[string]float64) map[string]int {
	out := map[string]int{}
	for k, v := range shares {
		out[k] = int(v * 1e6)
	}
	return out
}

// ---------------------------------------------------------------------------
// Tables 1–3 — the instrumented browser crawl of Alexa and .org.
// ---------------------------------------------------------------------------

// CrawlOutcome bundles the Chrome-style crawl of one population along with
// the category engine set up for it.
type CrawlOutcome struct {
	tld    webgen.TLD
	report browser.Report
	corpus *webgen.Corpus
	engine *rulespace.Engine
}

// RunBrowserCrawls executes the §3.2 measurement for Alexa and .org.
func RunBrowserCrawls(scale Scale, workers int) []CrawlOutcome {
	db := fingerprint.ReferenceDB()
	list := nocoin.Bundled()
	sizes := scale.corpusSizes()
	var out []CrawlOutcome
	for _, tld := range []webgen.TLD{webgen.TLDAlexa, webgen.TLDOrg} {
		corpus := webgen.Generate(webgen.DefaultConfig(tld, sizes[tld], 20180501))
		engine := rulespace.NewEngine()
		corpus.RegisterCategories(engine)
		// Table 3's "Categorized" row: RuleSpace covered far more Alexa
		// domains than .org domains.
		engine.SetCoverage(string(webgen.TLDAlexa), 0.77)
		engine.SetCoverage(string(webgen.TLDOrg), 0.48)
		rep := browser.Crawl(corpus, db, list, workers)
		out = append(out, CrawlOutcome{tld: tld, report: rep, corpus: corpus, engine: engine})
	}
	return out
}

// Table1Result is the top-signature table.
type Table1Result struct {
	Columns []Table1Column
}

// Table1Column is one population's ranking.
type Table1Column struct {
	tld       webgen.TLD
	top       []analysis.RankEntry
	TotalWasm int
	minerWasm int
	minerFrac float64
}

// Table1From reduces crawl outcomes to Table 1.
func Table1From(crawls []CrawlOutcome) Table1Result {
	var res Table1Result
	for _, c := range crawls {
		ranked := analysis.RankDescending(c.report.FamilyCounts)
		col := Table1Column{
			tld:       c.tld,
			top:       ranked,
			TotalWasm: c.report.WasmSites,
			minerWasm: c.report.MinerSites,
		}
		if c.report.WasmSites > 0 {
			col.minerFrac = float64(c.report.MinerSites) / float64(c.report.WasmSites)
		}
		res.Columns = append(res.Columns, col)
	}
	return res
}

// Render prints Table 1.
func (r Table1Result) Render() string {
	var b strings.Builder
	b.WriteString("Table 1 — Top WebAssembly signatures\n")
	for _, col := range r.Columns {
		rows := [][]string{}
		for i, e := range col.top {
			if i >= 5 {
				break
			}
			rows = append(rows, []string{fmt.Sprintf("%d", i+1), e.Key, fmt.Sprintf("%d", e.Count)})
		}
		rows = append(rows, []string{"", "Total WebAssembly", fmt.Sprintf("%d", col.TotalWasm)})
		rows = append(rows, []string{"", "miner fraction", fmt.Sprintf("%.0f%%", col.minerFrac*100)})
		fmt.Fprintf(&b, "\n[%s]\n%s", col.tld,
			analysis.Table([]string{"#", "classification", "count"}, rows))
	}
	return b.String()
}

// Table2Result compares NoCoin and the Wasm signatures on the same crawl.
type Table2Result struct {
	Rows []Table2Row
}

// Table2Row is one population's comparison.
type Table2Row struct {
	tld        webgen.TLD
	noCoinHits int
	havingWasm int
	wasmHits   int
	blocked    int
	missed     int
	MissedFrac float64
}

// Table2From reduces crawl outcomes to Table 2.
func Table2From(crawls []CrawlOutcome) Table2Result {
	var res Table2Result
	for _, c := range crawls {
		r := c.report
		res.Rows = append(res.Rows, Table2Row{
			tld:        c.tld,
			noCoinHits: r.NoCoinHits,
			havingWasm: r.NoCoinHitsWithMinerWasm,
			wasmHits:   r.MinerSites,
			blocked:    r.MinersBlockedByNoCoin,
			missed:     r.MinersMissedByNoCoin,
			MissedFrac: r.MissRate(),
		})
	}
	return res
}

// Render prints Table 2.
func (r Table2Result) Render() string {
	rows := [][]string{}
	for _, row := range r.Rows {
		rows = append(rows, []string{
			string(row.tld),
			fmt.Sprintf("%d", row.noCoinHits),
			fmt.Sprintf("%d", row.havingWasm),
			fmt.Sprintf("%d", row.wasmHits),
			fmt.Sprintf("%d", row.blocked),
			fmt.Sprintf("%d (%.0f%%)", row.missed, row.MissedFrac*100),
		})
	}
	return "Table 2 — NoCoin vs Wasm-signature detection (post-execution HTML)\n" +
		analysis.Table([]string{"pop", "NoCoin hits", "having Wasm miner", "Wasm hits", "blocked by NoCoin", "missed by NoCoin"}, rows)
}

// Table3Result holds the category rankings.
type Table3Result struct {
	Blocks []Table3Block
}

// Table3Block is one (population, detector) category ranking.
type Table3Block struct {
	tld         webgen.TLD
	detector    string // "NoCoin" or "Signature"
	top         []analysis.RankEntry
	Categorized float64 // fraction of sites RuleSpace could classify
}

// Table3From categorises the detected site sets.
func Table3From(crawls []CrawlOutcome) Table3Result {
	var res Table3Result
	for _, c := range crawls {
		for _, detector := range []string{"NoCoin", "Signature"} {
			counts := map[string]int{}
			total, classified := 0, 0
			for _, v := range c.report.Verdicts {
				if detector == "NoCoin" && !v.NoCoinHit {
					continue
				}
				if detector == "Signature" && !v.MinerWasm {
					continue
				}
				total++
				cats, ok := c.engine.Classify(v.Domain)
				if !ok {
					continue
				}
				classified++
				for _, cat := range cats {
					counts[cat]++
				}
			}
			blk := Table3Block{tld: c.tld, detector: detector, top: analysis.RankDescending(counts)}
			if total > 0 {
				blk.Categorized = float64(classified) / float64(total)
			}
			res.Blocks = append(res.Blocks, blk)
		}
	}
	return res
}

// Render prints Table 3.
func (r Table3Result) Render() string {
	var b strings.Builder
	b.WriteString("Table 3 — Top categories (RuleSpace-equivalent engine)\n")
	for _, blk := range r.Blocks {
		rows := [][]string{}
		shareTotal := 0
		for _, e := range blk.top {
			shareTotal += e.Count
		}
		for i, e := range blk.top {
			if i >= 5 {
				break
			}
			rows = append(rows, []string{
				fmt.Sprintf("%d", i+1), e.Key,
				fmt.Sprintf("%.0f%%", 100*float64(e.Count)/float64(max(1, shareTotal))),
			})
		}
		rows = append(rows, []string{"", "Categorized", fmt.Sprintf("%.0f%%", blk.Categorized*100)})
		fmt.Fprintf(&b, "\n[%s / %s]\n%s", blk.tld, blk.detector,
			analysis.Table([]string{"#", "category", "share"}, rows))
	}
	return b.String()
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
