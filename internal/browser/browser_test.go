package browser

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/crawler"
	"repro/internal/fingerprint"
	"repro/internal/nocoin"
	"repro/internal/wasm"
	"repro/internal/webgen"
)

func TestLoadCompletionHeuristic(t *testing.T) {
	cases := []struct {
		name     string
		p        webgen.LoadProfile
		wantMs   int
		wantTOut bool
	}{
		{"no load event times out at 15s",
			webgen.LoadProfile{HasLoadEvent: false}, HardTimeoutMs, true},
		{"quiet page: load + 2s",
			webgen.LoadProfile{HasLoadEvent: true, LoadEventMs: 1000}, 3000, false},
		{"dom change restarts the 2s timer",
			webgen.LoadProfile{HasLoadEvent: true, LoadEventMs: 1000, DOMChangeMs: []int{1500}}, 4500, false},
		{"busy dom capped at load + 5s",
			webgen.LoadProfile{HasLoadEvent: true, LoadEventMs: 1000, DOMChangeMs: []int{1000, 2000, 3000, 4000, 4900}}, 6000, false},
		{"late load event capped by hard timeout",
			webgen.LoadProfile{HasLoadEvent: true, LoadEventMs: 14_500}, HardTimeoutMs, true},
	}
	for _, c := range cases {
		got, tout := LoadCompletion(c.p)
		if got != c.wantMs || tout != c.wantTOut {
			t.Errorf("%s: (%d, %v), want (%d, %v)", c.name, got, tout, c.wantMs, c.wantTOut)
		}
	}
}

func TestVisitCapturesArtifacts(t *testing.T) {
	site := &webgen.Site{
		Domain: "dyn.org", Rank: 3, TLD: webgen.TLDOrg,
		Categories: []string{"Business"},
		Miner: &webgen.MinerDeployment{
			Family: fingerprint.FamilyCoinhive, Version: 0,
			Token: "tok-dyn001", OfficialLoader: false,
		},
		Load: webgen.LoadProfile{HasLoadEvent: true, LoadEventMs: 500},
	}
	page := Visit(site)
	if len(page.Wasm) != 1 || len(page.WSHosts) != 1 {
		t.Fatalf("wasm=%d ws=%d", len(page.Wasm), len(page.WSHosts))
	}
	if page.TimedOut {
		t.Error("unexpected timeout")
	}
	if len(page.FinalHTML) == 0 || len(page.FinalHTML) > FinalHTMLCap {
		t.Errorf("final HTML len = %d", len(page.FinalHTML))
	}
}

func TestCrawlFindsDynamicMinersThatNoCoinMisses(t *testing.T) {
	if testing.Short() {
		t.Skip("full-corpus browser crawl")
	}
	cfg := webgen.DefaultConfig(webgen.TLDAlexa, 60_000, 42)
	corpus := webgen.Generate(cfg)
	db := fingerprint.ReferenceDB()
	rep := Crawl(corpus, db, nocoin.Bundled(), 4)

	if rep.MinerSites == 0 {
		t.Fatal("no miners found in a 60k Alexa corpus")
	}
	if rep.MinersMissedByNoCoin == 0 {
		t.Error("NoCoin missed nothing — dynamic injection is not working")
	}
	if rep.MissRate() < 0.6 || rep.MissRate() > 0.95 {
		t.Errorf("miss rate = %.2f, paper reports 0.82 for Alexa", rep.MissRate())
	}
	// Coinhive must dominate the family counts.
	top, topN := "", 0
	for f, n := range rep.FamilyCounts {
		if n > topN {
			top, topN = f, n
		}
	}
	if top != fingerprint.FamilyCoinhive {
		t.Errorf("top family = %s (%d), want coinhive; counts=%v", top, topN, rep.FamilyCounts)
	}
	// NoCoin flags more sites than actually carry mining Wasm (false
	// positives: the ad-network sites).
	if rep.NoCoinHits <= rep.NoCoinHitsWithMinerWasm {
		t.Errorf("NoCoin hits %d vs with-wasm %d: FP population missing",
			rep.NoCoinHits, rep.NoCoinHitsWithMinerWasm)
	}
	// Consistency identities.
	if rep.MinersBlockedByNoCoin+rep.MinersMissedByNoCoin != rep.MinerSites {
		t.Error("blocked+missed != miners")
	}
	if rep.WasmSites < rep.MinerSites {
		t.Error("wasm sites < miner sites")
	}
}

func TestCrawlTimeoutsAccounted(t *testing.T) {
	cfg := webgen.DefaultConfig(webgen.TLDOrg, 5_000, 9)
	cfg.TimeoutRate = 0.25
	corpus := webgen.Generate(cfg)
	rep := Crawl(corpus, fingerprint.ReferenceDB(), nocoin.Bundled(), 4)
	frac := float64(rep.TimedOut) / float64(rep.Total)
	if frac < 0.18 || frac > 0.32 {
		t.Errorf("timeout fraction = %.3f, want ~0.25", frac)
	}
}

// refClassify is the per-site path Crawl's reused buffers replace: a Visit
// with its own page, and ScanPage over that page's final HTML.
func refClassify(s *webgen.Site, db *fingerprint.DB, list *nocoin.List) SiteVerdict {
	page := Visit(s)
	v := SiteVerdict{Domain: s.Domain, TimedOut: page.TimedOut}
	v.NoCoinHit = len(crawler.ScanPage(list, page.FinalHTML)) > 0
	for _, bin := range page.Wasm {
		m, err := wasm.Decode(bin)
		if err != nil {
			continue
		}
		v.HasWasm = true
		if verdict := db.Classify(m, page.WSHosts); verdict.Miner {
			v.MinerWasm, v.Family, v.KnownSig = true, verdict.Family, verdict.Known
		}
	}
	return v
}

// TestCrawlMatchesPerSiteReference holds Crawl, whose two workers reuse
// their page and scan buffers across thousands of sites, to refClassify
// aggregated site by site.
func TestCrawlMatchesPerSiteReference(t *testing.T) {
	cfg := webgen.DefaultConfig(webgen.TLDAlexa, 4000, 23)
	cfg.MinerWasmRate = 0.3
	cfg.OfficialLoaderFrac = 0.5
	cfg.DeadMinerRate = 0.2
	cfg.AdNetworkRate = 0.1
	c := webgen.Generate(cfg)
	db, list := fingerprint.ReferenceDB(), nocoin.Bundled()
	got := Crawl(c, db, list, 2)

	want := Report{TLD: c.Cfg.TLD, Total: len(c.Sites), FamilyCounts: map[string]int{}}
	for _, s := range c.Sites {
		v := refClassify(s, db, list)
		if v.TimedOut {
			want.TimedOut++
		}
		if v.HasWasm {
			want.WasmSites++
		}
		if v.MinerWasm {
			want.MinerSites++
			want.FamilyCounts[v.Family]++
			if v.NoCoinHit {
				want.MinersBlockedByNoCoin++
			} else {
				want.MinersMissedByNoCoin++
			}
		}
		if v.NoCoinHit {
			want.NoCoinHits++
			if v.MinerWasm {
				want.NoCoinHitsWithMinerWasm++
			}
		}
		if v.MinerWasm || v.NoCoinHit || v.HasWasm {
			want.Verdicts = append(want.Verdicts, v)
		}
	}
	if want.NoCoinHits < 500 || want.MinersMissedByNoCoin == 0 {
		t.Fatalf("reference has %d NoCoin hits, %d missed miners: the corpus exercises too little", want.NoCoinHits, want.MinersMissedByNoCoin)
	}
	sort.Slice(got.Verdicts, func(i, j int) bool { return got.Verdicts[i].Domain < got.Verdicts[j].Domain })
	sort.Slice(want.Verdicts, func(i, j int) bool { return want.Verdicts[i].Domain < want.Verdicts[j].Domain })
	if !reflect.DeepEqual(got, want) {
		gv, wv := got.Verdicts, want.Verdicts
		got.Verdicts, want.Verdicts = nil, nil
		t.Errorf("Crawl report (verdicts aside):\n%+v\nwant:\n%+v", got, want)
		for i := 0; i < len(gv) && i < len(wv); i++ {
			if !reflect.DeepEqual(gv[i], wv[i]) {
				t.Fatalf("verdict %d = %+v, want %+v", i, gv[i], wv[i])
			}
		}
		t.Fatalf("%d verdicts, want %d", len(gv), len(wv))
	}
}

func TestCrawlAllocationsDoNotGrowWithTheShard(t *testing.T) {
	cfg := webgen.DefaultConfig(webgen.TLDAlexa, 5000, 29)
	cfg.MinerWasmRate, cfg.DeadMinerRate, cfg.AdNetworkRate, cfg.BenignWasmRate = 0, 0, 0, 0
	c := webgen.Generate(cfg)
	db, list := fingerprint.ReferenceDB(), nocoin.Bundled()
	if n := testing.AllocsPerRun(3, func() { Crawl(c, db, list, 2) }); n >= 100 {
		t.Errorf("Crawl of a %d-site miner-free shard: %v allocations, want < 100", len(c.Sites), n)
	}
}

func BenchmarkCrawlShard(b *testing.B) {
	c := webgen.Generate(webgen.DefaultConfig(webgen.TLDAlexa, 5000, 1))
	db, list := fingerprint.ReferenceDB(), nocoin.Bundled()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Crawl(c, db, list, 2)
	}
}
