package crawler

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/nocoin"
	"repro/internal/webgen"
)

func TestCorpusFetcherHonoursTLSBreakage(t *testing.T) {
	cfg := webgen.DefaultConfig(webgen.TLDOrg, 2, 5)
	c := webgen.Generate(cfg)
	c.Sites[0].Load.TLSBroken = true
	c.Sites[1].Load.TLSBroken = false
	f := NewCorpusFetcher(c)
	if body, err := f.Fetch(nil, c.Sites[0].Domain); !errors.Is(err, errTLS) || len(body) != 0 {
		t.Errorf("TLS-broken site fetch = %d bytes, %v", len(body), err)
	}
	if body, err := f.Fetch(nil, c.Sites[1].Domain); err != nil || len(body) == 0 {
		t.Errorf("healthy site fetch = %d bytes, %v", len(body), err)
	}
	if body, err := f.Fetch(nil, "nxdomain.example"); !errors.Is(err, errNXDomain) || err.Error() != "NXDOMAIN" || len(body) != 0 {
		t.Errorf("nxdomain fetch = %d bytes, %v", len(body), err)
	}
}

func TestScanPageFindsMinerLoader(t *testing.T) {
	site := &webgen.Site{
		Domain: "m.org", Rank: 1, Categories: []string{"Gaming"},
		Miner: &webgen.MinerDeployment{
			Family: "coinhive", Token: "tok-x", OfficialLoader: true,
		},
	}
	body := webgen.RenderStaticHTML(site)
	matches := ScanPage(nocoin.Bundled(), body)
	if len(matches) == 0 {
		t.Fatal("static coinhive loader not matched")
	}
	if fam := FamilyOfMatch(matches[0]); fam != "coinhive" {
		t.Errorf("family = %q", fam)
	}
}

func TestFamilyOfMatchLabels(t *testing.T) {
	list := nocoin.Bundled()
	cases := map[string]string{
		"https://coinhive.com/lib/coinhive.min.js":     "coinhive",
		"https://authedmine.com/lib/authedmine.min.js": "authedmine",
		"https://www.wp-monero-miner.com/js/miner.js":  "wp-monero",
		"https://crypto-loot.com/lib/miner.js":         "cryptoloot",
		"https://cdn.cpmstar.com/cached/js/cpmstar.js": "cpmstar",
		"https://deepminer.net/lib/deepminer.min.js":   "other",
	}
	for url, want := range cases {
		m, ok := list.MatchURL(url)
		if !ok {
			t.Errorf("no rule for %s", url)
			continue
		}
		if got := FamilyOfMatch(nocoin.Match{Rule: m, Target: url}); got != want {
			t.Errorf("FamilyOfMatch(%s) = %q, want %q", url, got, want)
		}
	}
}

func TestScanCorpusEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full-corpus static scan")
	}
	cfg := webgen.DefaultConfig(webgen.TLDAlexa, 80_000, 17)
	c := webgen.Generate(cfg)
	rep := Scan(c, NewCorpusFetcher(c), nocoin.Bundled(), 4)
	if rep.Total != 80_000 {
		t.Fatalf("total = %d", rep.Total)
	}
	if rep.Fetched >= rep.Total {
		t.Error("TLS-broken population missing: everything fetched")
	}
	if len(rep.Hits) == 0 {
		t.Fatal("no NoCoin hits in an Alexa-calibrated corpus")
	}
	// Alexa hit rate ≈ 0.07–0.08% of probed sites.
	rate := rep.HitRate()
	if rate < 0.0003 || rate > 0.002 {
		t.Errorf("hit rate = %.5f, want ~0.001 of fetched", rate)
	}
	if rep.FamilyCounts["coinhive"] == 0 {
		t.Error("no coinhive hits")
	}
	if rep.FamilyCounts["cpmstar"] == 0 {
		t.Error("no cpmstar false positives")
	}
}

func TestHTTPFetcherTruncatesAtCap(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// A page that never wants to stop.
		chunk := strings.Repeat("x", 64<<10)
		for i := 0; i < 10; i++ {
			fmt.Fprint(w, chunk)
		}
	}))
	defer srv.Close()
	f := &HTTPFetcher{BaseURL: srv.URL}
	body, err := f.Fetch(nil, "whatever.org")
	if err != nil {
		t.Fatalf("fetch failed: %v", err)
	}
	if len(body) != MaxBody {
		t.Errorf("body len = %d, want %d", len(body), MaxBody)
	}
}

func TestHTTPFetcherReportsErrors(t *testing.T) {
	f := &HTTPFetcher{BaseURL: "http://127.0.0.1:1"}
	if _, err := f.Fetch(nil, "x.org"); err == nil {
		t.Error("fetch against a closed port succeeded")
	}
}

// raisedCorpus is a corpus with miner, dead-miner and cpmstar rates raised
// until thousands of its pages carry NoCoin hits.
func raisedCorpus(n int) *webgen.Corpus {
	cfg := webgen.DefaultConfig(webgen.TLDAlexa, n, 23)
	cfg.MinerWasmRate = 0.3
	cfg.OfficialLoaderFrac = 0.5
	cfg.DeadMinerRate = 0.2
	cfg.AdNetworkRate = 0.1
	return webgen.Generate(cfg)
}

// describeHit renders what a Report holds of one hit: its domain, family
// and each match's rule and target.
func describeHit(domain, family string, matches []nocoin.Match) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s", domain, family)
	for _, m := range matches {
		fmt.Fprintf(&b, " | %s on %q", m.Rule.Raw, m.Target)
	}
	return b.String()
}

// TestScanMatchesPerSiteReference holds Scan, whose two workers reuse
// their page and match buffers across thousands of pages, to ScanPage on
// a freshly rendered page per site. A Target left viewing a reused buffer
// reads as a later page's bytes and fails the comparison.
func TestScanMatchesPerSiteReference(t *testing.T) {
	c := raisedCorpus(4000)
	list := nocoin.Bundled()
	rep := Scan(c, NewCorpusFetcher(c), list, 2)

	var want []string
	wantFams := map[string]int{}
	fetched := 0
	for _, s := range c.Sites {
		if s.Load.TLSBroken {
			continue
		}
		fetched++
		matches := ScanPage(list, webgen.RenderStaticHTML(s))
		if len(matches) == 0 {
			continue
		}
		want = append(want, describeHit(s.Domain, FamilyOfMatch(matches[0]), matches))
		seen := map[string]bool{}
		for _, m := range matches {
			if fam := FamilyOfMatch(m); !seen[fam] {
				seen[fam] = true
				wantFams[fam]++
			}
		}
	}
	var got []string
	for _, h := range rep.Hits {
		got = append(got, describeHit(h.Domain, h.Family, h.Matches))
	}
	sort.Strings(got)
	sort.Strings(want)
	if len(want) < 500 {
		t.Fatalf("only %d reference hits: the corpus does not reuse buffers across enough hit pages", len(want))
	}
	if rep.Total != len(c.Sites) || rep.Fetched != fetched {
		t.Errorf("Total, Fetched = %d, %d; want %d, %d", rep.Total, rep.Fetched, len(c.Sites), fetched)
	}
	if !reflect.DeepEqual(got, want) {
		for i := range got {
			if i >= len(want) || got[i] != want[i] {
				t.Fatalf("%d hits, want %d; first difference:\ngot  %s\nwant %s", len(got), len(want), got[i], want[min(i, len(want)-1)])
			}
		}
		t.Fatalf("%d hits, want %d", len(got), len(want))
	}
	if !reflect.DeepEqual(rep.FamilyCounts, wantFams) {
		t.Errorf("FamilyCounts = %v, want %v", rep.FamilyCounts, wantFams)
	}
}

// minerFreeShard is a zone-scan shard with no miner, dead miner, ad
// network or Wasm: no page has a hit, so nothing a Report keeps allocates.
func minerFreeShard() *webgen.Corpus {
	cfg := webgen.DefaultConfig(webgen.TLDAlexa, 5000, 29)
	cfg.MinerWasmRate, cfg.DeadMinerRate, cfg.AdNetworkRate, cfg.BenignWasmRate = 0, 0, 0, 0
	return webgen.Generate(cfg)
}

func TestScanAllocationsDoNotGrowWithTheShard(t *testing.T) {
	c := minerFreeShard()
	f, list := NewCorpusFetcher(c), nocoin.Bundled()
	if n := testing.AllocsPerRun(3, func() { Scan(c, f, list, 2) }); n >= 100 {
		t.Errorf("Scan of a %d-site miner-free shard: %v allocations, want < 100", len(c.Sites), n)
	}
}

func TestFetchersAppendToDst(t *testing.T) {
	c := webgen.Generate(webgen.DefaultConfig(webgen.TLDOrg, 1, 5))
	c.Sites[0].Load.TLSBroken = false
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, webgen.RenderStaticHTML(c.Sites[0]))
	}))
	defer srv.Close()
	want := "previous page|" + webgen.RenderStaticHTML(c.Sites[0])
	for _, f := range []Fetcher{NewCorpusFetcher(c), &HTTPFetcher{BaseURL: srv.URL}} {
		got, err := f.Fetch([]byte("previous page|"), c.Sites[0].Domain)
		if err != nil || string(got) != want {
			t.Errorf("%T: Fetch onto a used buffer = %q, %v; want %q", f, got, err, want)
		}
	}
}

func BenchmarkScanShard(b *testing.B) {
	c := webgen.Generate(webgen.DefaultConfig(webgen.TLDAlexa, 5000, 1))
	f, list := NewCorpusFetcher(c), nocoin.Bundled()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Scan(c, f, list, 2)
	}
}
