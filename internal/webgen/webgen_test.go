package webgen

import (
	"strings"
	"testing"

	"repro/internal/fingerprint"
	"repro/internal/wasm"
)

func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultConfig(TLDAlexa, 5000, 1)
	a := Generate(cfg)
	b := Generate(cfg)
	if len(a.Sites) != 5000 || len(b.Sites) != 5000 {
		t.Fatalf("sizes %d/%d", len(a.Sites), len(b.Sites))
	}
	for i := range a.Sites {
		sa, sb := a.Sites[i], b.Sites[i]
		if sa.Domain != sb.Domain || (sa.Miner == nil) != (sb.Miner == nil) {
			t.Fatalf("site %d differs between identical generations", i)
		}
		if sa.Miner != nil && (sa.Miner.Family != sb.Miner.Family || sa.Miner.Version != sb.Miner.Version) {
			t.Fatalf("site %d miner differs", i)
		}
	}
	c := Generate(DefaultConfig(TLDAlexa, 5000, 2))
	diff := 0
	for i := range a.Sites {
		if (a.Sites[i].Miner == nil) != (c.Sites[i].Miner == nil) {
			diff++
		}
	}
	if diff == 0 {
		t.Error("different seeds produced identical miner placement")
	}
}

func TestMinerRateApproximatesConfig(t *testing.T) {
	cfg := DefaultConfig(TLDAlexa, 400_000, 7)
	c := Generate(cfg)
	miners := 0
	for _, s := range c.Sites {
		if s.Miner != nil {
			miners++
		}
	}
	want := cfg.MinerWasmRate * float64(cfg.n)
	if float64(miners) < want*0.7 || float64(miners) > want*1.3 {
		t.Errorf("miners = %d, want ~%.0f", miners, want)
	}
}

func TestFamilyMixDominatedByCoinhive(t *testing.T) {
	if testing.Short() {
		t.Skip("zone-scale corpus statistics")
	}
	cfg := DefaultConfig(TLDOrg, 2_000_000, 3)
	cfg.MinerWasmRate = 0.001 // boost so the mix is statistically stable
	c := Generate(cfg)
	counts := map[string]int{}
	total := 0
	for _, s := range c.Sites {
		if s.Miner != nil {
			counts[s.Miner.Family]++
			total++
		}
	}
	if total == 0 {
		t.Fatal("no miners generated")
	}
	share := float64(counts[fingerprint.FamilyCoinhive]) / float64(total)
	if share < 0.45 || share > 0.60 {
		t.Errorf("coinhive share = %.2f, want ~0.52 (711/1372)", share)
	}
}

func TestStaticHTMLShape(t *testing.T) {
	cfg := DefaultConfig(TLDAlexa, 1, 1)
	site := &Site{
		Domain: "example-a.com", TLD: TLDAlexa, Rank: 1,
		Categories: []string{"Gaming"},
		Miner: &MinerDeployment{
			Family: fingerprint.FamilyCoinhive, Version: 0,
			Token: "tok-abc123", OfficialLoader: true,
		},
	}
	_ = cfg
	html := RenderStaticHTML(site)
	if !strings.Contains(html, "coinhive.min.js") {
		t.Error("static miner loader missing from HTML")
	}
	if !strings.Contains(html, "tok-abc123") {
		t.Error("site token missing from inline snippet")
	}
	// Self-hosted deployment must leave no miner trace in static HTML.
	site.Miner.OfficialLoader = false
	html = RenderStaticHTML(site)
	if strings.Contains(strings.ToLower(html), "coinhive") {
		t.Error("dynamic miner leaked into static HTML")
	}
}

func TestExecuteRevealsSelfHostedMiner(t *testing.T) {
	site := &Site{
		Domain: "hidden.org", TLD: TLDOrg, Rank: 9,
		Categories: []string{"Business"},
		Miner: &MinerDeployment{
			Family: fingerprint.FamilyCoinhive, Version: 1,
			Token: "tok-hidden", OfficialLoader: false,
		},
	}
	art := Execute(site)
	if !strings.Contains(art.FinalHTML, "__wk") {
		t.Error("executed HTML lacks the injected self-hosted loader")
	}
	if len(art.Wasm) != 1 || !wasm.IsWasm(art.Wasm[0]) {
		t.Fatalf("wasm dumps = %d", len(art.Wasm))
	}
	if len(art.WSHosts) != 1 || !strings.HasSuffix(art.WSHosts[0], "coinhive.com") {
		t.Errorf("ws hosts = %v", art.WSHosts)
	}
}

func TestMinerBinariesMatchSignatureDB(t *testing.T) {
	db := fingerprint.ReferenceDB()
	site := &Site{
		Domain: "x.org", Rank: 1, Categories: []string{"Tech"},
		Miner: &MinerDeployment{Family: fingerprint.FamilyCryptoloot, Version: 2, Token: "tok-zzzzzz"},
	}
	art := Execute(site)
	m, err := wasm.Decode(art.Wasm[0])
	if err != nil {
		t.Fatal(err)
	}
	v := db.Classify(m, art.WSHosts)
	if !v.Known || v.Family != fingerprint.FamilyCryptoloot {
		t.Errorf("verdict = %+v", v)
	}
}

func TestUnknownWSSBinaryEvadesSignatures(t *testing.T) {
	db := fingerprint.ReferenceDB()
	site := &Site{
		Domain: "rogue.org", Rank: 4, Categories: []string{"Tech"},
		Miner: &MinerDeployment{Family: "UnknownWSS", Version: 3, Token: "tok-rogue1"},
	}
	art := Execute(site)
	m, err := wasm.Decode(art.Wasm[0])
	if err != nil {
		t.Fatal(err)
	}
	v := db.Classify(m, art.WSHosts)
	if v.Known {
		t.Error("rogue assembly matched the signature DB")
	}
	if !v.Miner {
		t.Error("rogue assembly not detected as a miner heuristically")
	}
	if v.Family != fingerprint.FamilyUnknownWSS {
		t.Errorf("family = %q, want UnknownWSS", v.Family)
	}
	// Two different operators must have different signatures.
	site2 := &Site{
		Domain: "rogue2.org", Rank: 5, Categories: []string{"Tech"},
		Miner: &MinerDeployment{Family: "UnknownWSS", Version: 3, Token: "tok-zq9xk2"},
	}
	art2 := Execute(site2)
	m2, _ := wasm.Decode(art2.Wasm[0])
	if fingerprint.SignatureOf(m) == fingerprint.SignatureOf(m2) {
		t.Error("distinct rogue operators share a signature")
	}
}

func TestTruncationStillParses(t *testing.T) {
	site := Generate(DefaultConfig(TLDOrg, 1, 1)).Sites[0]
	html := RenderStaticHTML(site)
	if len(html) < 100 {
		t.Fatal("page too small to truncate meaningfully")
	}
	_ = html[:len(html)/2] // htmlx tolerance is covered in its own tests
}
