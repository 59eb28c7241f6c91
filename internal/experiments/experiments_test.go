package experiments

import (
	"strings"
	"testing"
	"time"

	"repro/internal/fingerprint"
	"repro/internal/rulespace"
	"repro/internal/webgen"
)

func TestFig2ShapeMatchesPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("8 zone-scale scans")
	}
	res := RunFig2(ScaleCI, 8)
	if len(res.Scans) != 8 { // 4 populations × 2 scan dates
		t.Fatalf("scans = %d", len(res.Scans))
	}
	for _, s := range res.Scans {
		if s.tld != webgen.TLDAlexa {
			continue
		}
		share := float64(s.Hits) / float64(s.Probed)
		// Paper: Alexa has the largest share, ~0.07%.
		if share < 0.0004 || share > 0.0012 {
			t.Errorf("%s %s: share = %.5f, want ~0.0007", s.tld, s.scanLabel, share)
		}
		if s.familyShares["coinhive"] < 0.5 {
			t.Errorf("%s %s: coinhive share %.2f, want dominant (paper >75%%)",
				s.tld, s.scanLabel, s.familyShares["coinhive"])
		}
	}
	if !strings.Contains(res.Render(), "coinhive") {
		t.Error("render lacks family shares")
	}
}

func TestBrowserCrawlTables(t *testing.T) {
	if testing.Short() {
		t.Skip("two instrumented-browser crawls")
	}
	crawls := RunBrowserCrawls(ScaleCI, 8)
	if len(crawls) != 2 {
		t.Fatalf("crawls = %d", len(crawls))
	}

	t1 := Table1From(crawls)
	for _, col := range t1.Columns {
		if len(col.top) == 0 || col.top[0].Key != fingerprint.FamilyCoinhive {
			t.Errorf("[%s] top family = %+v, want coinhive", col.tld, col.top[:1])
		}
		// Paper: ~96% Alexa / ~92% .org of Wasm sites are miners.
		if col.minerFrac < 0.80 {
			t.Errorf("[%s] miner fraction = %.2f, want > 0.80", col.tld, col.minerFrac)
		}
	}

	t2 := Table2From(crawls)
	for _, row := range t2.Rows {
		// Identities that must hold exactly.
		if row.blocked+row.missed != row.wasmHits {
			t.Errorf("[%s] blocked+missed != wasm hits", row.tld)
		}
		if row.havingWasm != row.blocked {
			t.Errorf("[%s] NoCoin∩Wasm %d != blocked %d", row.tld, row.havingWasm, row.blocked)
		}
		// Paper: 82% (Alexa) and 67% (.org) missed. CI-scale corpora carry
		// sampling noise; require the qualitative conclusion.
		lo, hi := 0.70, 0.95
		if row.tld == webgen.TLDOrg {
			lo, hi = 0.50, 0.85
		}
		if row.MissedFrac < lo || row.MissedFrac > hi {
			t.Errorf("[%s] missed = %.2f, want in [%.2f, %.2f]", row.tld, row.MissedFrac, lo, hi)
		}
		if row.noCoinHits <= row.havingWasm {
			t.Errorf("[%s] no NoCoin-only population (false positives missing)", row.tld)
		}
	}

	t3 := Table3From(crawls)
	if len(t3.Blocks) != 4 {
		t.Fatalf("table3 blocks = %d", len(t3.Blocks))
	}
	for _, blk := range t3.Blocks {
		if len(blk.top) == 0 {
			t.Errorf("[%s/%s] no categories", blk.tld, blk.detector)
			continue
		}
		switch {
		case blk.tld == webgen.TLDAlexa && blk.detector == "Signature":
			if blk.top[0].Key != rulespace.CatPorn {
				t.Errorf("alexa/signature top = %s, want Pornography", blk.top[0].Key)
			}
		case blk.tld == webgen.TLDAlexa && blk.detector == "NoCoin":
			if blk.top[0].Key != rulespace.CatGaming {
				t.Errorf("alexa/nocoin top = %s, want Gaming", blk.top[0].Key)
			}
		case blk.detector == "NoCoin":
			// The .org NoCoin population is tiny at CI scale (~16 sites);
			// require only that Gaming ranks among the leaders.
			found := false
			for i, e := range blk.top {
				if i < 5 && e.Key == rulespace.CatGaming {
					found = true
				}
			}
			if !found {
				t.Errorf("[%s]/nocoin top5 lacks Gaming: %+v", blk.tld, blk.top)
			}
		}
		// Coverage gap: .org categorisation must trail Alexa.
		if blk.tld == webgen.TLDOrg && blk.Categorized > 0.65 {
			t.Errorf("org categorized = %.2f, want < 0.65 (paper: 42-54%%)", blk.Categorized)
		}
	}
}

func TestFig3Shape(t *testing.T) {
	res := RunFig3(ScaleCI)
	if res.top1Share < 0.28 || res.top1Share > 0.38 {
		t.Errorf("top1 = %.3f, want ~1/3", res.top1Share)
	}
	if res.Top10Share < 0.80 || res.Top10Share > 0.90 {
		t.Errorf("top10 = %.3f, want ~0.85", res.Top10Share)
	}
	if res.totalTokens < 1000 {
		t.Errorf("tokens = %d, want a long tail", res.totalTokens)
	}
}

func TestFig4Shape(t *testing.T) {
	res := RunFig4(ScaleCI)
	if res.pAll1024 < 0.55 {
		t.Errorf("P[≤1024] all = %.2f, want majority", res.pAll1024)
	}
	if res.PUnbiased1024 < 0.60 {
		t.Errorf("P[≤1024] unbiased = %.2f, want > 2/3-ish", res.PUnbiased1024)
	}
	// The heavy-user bias must be visible: the biased CDF sits above the
	// unbiased one at the 512 spike.
	if res.infeasibleLnks == 0 {
		t.Error("no infeasible links")
	}
	if !strings.Contains(res.Render(), "Gyr") && !strings.Contains(res.Render(), "yr") {
		t.Log(res.Render())
	}
}

func TestResolveSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("mines a fleet of links end to end")
	}
	res, err := RunResolve(ScaleCI, 6, 40)
	if err != nil {
		t.Fatal(err)
	}
	if res.ResolvedTop < res.sampledTop*8/10 {
		t.Errorf("top resolution rate %d/%d", res.ResolvedTop, res.sampledTop)
	}
	// youtu.be must appear among the destinations (Table 4's top row).
	foundYoutube := false
	for _, e := range res.topDomains {
		if e.Key == "youtu.be" {
			foundYoutube = true
		}
	}
	if !foundYoutube {
		t.Errorf("youtu.be missing from top destinations: %+v", res.topDomains)
	}
	if res.ResolvedTail == 0 || len(res.tailCategories) == 0 {
		t.Error("tail resolution produced no categories")
	}
	if res.HashesComputed == 0 {
		t.Error("resolution did not hash — the mining path was bypassed")
	}
}

func TestNetworkSizeTopology(t *testing.T) {
	res, err := RunNetworkSize(3)
	if err != nil {
		t.Fatal(err)
	}
	if res.endpoints != 32 || res.inputsPerPoll != 8 || res.InputsPerBlock != 128 {
		t.Errorf("topology = %d endpoints / %d per-endpoint / %d per-block, want 32/8/128",
			res.endpoints, res.inputsPerPoll, res.InputsPerBlock)
	}
	if res.impliedPoolMHs < 4.5 || res.impliedPoolMHs > 6.5 {
		t.Errorf("pool rate = %.2f MH/s, want ~5.5", res.impliedPoolMHs)
	}
	if res.usersAt20Hs < 200_000 || res.usersAt100Hs > 80_000 {
		t.Errorf("user bounds = %.0f / %.0f, want ~292K / ~58K", res.usersAt20Hs, res.usersAt100Hs)
	}
}

func TestFig5FourWeeks(t *testing.T) {
	if testing.Short() {
		t.Skip("four virtual weeks of polling")
	}
	res, err := RunFig5(1, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.MedianPerDay < 6.5 || res.MedianPerDay > 11 {
		t.Errorf("median = %.1f blocks/day, want ~8.5", res.MedianPerDay)
	}
	// The 6 May disruption must show as a zero-block day.
	foundOutage := false
	for _, d := range res.outageDays {
		if d == "06.05.18" {
			foundOutage = true
		}
	}
	if !foundOutage {
		t.Errorf("outage days = %v, want 06.05.18 included", res.outageDays)
	}
	// Attribution is a tight lower bound on the pool's real production.
	if res.Attributed < res.PoolTruth*9/10 {
		t.Errorf("attributed %d of %d", res.Attributed, res.PoolTruth)
	}
	// Holiday boosts: 30 Apr (index 4) should exceed the 28-day median.
	if float64(res.dailyTotals[4]) < res.MedianPerDay {
		t.Logf("note: 30 Apr total %d not above median %.1f (stochastic)", res.dailyTotals[4], res.MedianPerDay)
	}
}

func TestFig5EnsembleMatchesSingleRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("two four-week campaigns")
	}
	// A coarse 15 s poll tick keeps the two campaigns cheap; at the 120 s
	// block target the watcher still samples every tip several times.
	seeds := []int64{1, 5}
	results, err := RunFig5Ensemble(seeds, 15*time.Second, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(seeds) {
		t.Fatalf("results = %d, want %d", len(results), len(seeds))
	}
	for i, r := range results {
		if r.MedianPerDay < 5 || r.MedianPerDay > 13 {
			t.Errorf("seed %d: median = %.1f blocks/day, want ~8.5", seeds[i], r.MedianPerDay)
		}
		if r.Attributed < r.PoolTruth*8/10 {
			t.Errorf("seed %d: attributed %d of %d", seeds[i], r.Attributed, r.PoolTruth)
		}
	}
	// Different seeds must produce genuinely different campaigns.
	if results[0].dailyTotals[0] == results[1].dailyTotals[0] &&
		results[0].dailyTotals[10] == results[1].dailyTotals[10] &&
		results[0].dailyTotals[20] == results[1].dailyTotals[20] {
		t.Error("ensemble runs look identical; worlds may share state")
	}
}

func TestCoinhiveActivityShape(t *testing.T) {
	if CoinhiveActivity(time.Date(2018, 5, 6, 10, 0, 0, 0, time.UTC)) != 0 {
		t.Error("May 6 outage missing")
	}
	if CoinhiveActivity(time.Date(2018, 5, 7, 3, 0, 0, 0, time.UTC)) != 0 {
		t.Error("May 7 morning outage missing")
	}
	if CoinhiveActivity(time.Date(2018, 5, 7, 18, 0, 0, 0, time.UTC)) != 1 {
		t.Error("May 7 evening should be back up")
	}
	if CoinhiveActivity(time.Date(2018, 4, 30, 12, 0, 0, 0, time.UTC)) <= 1 {
		t.Error("Labor Day eve boost missing")
	}
	if CoinhiveActivity(time.Date(2018, 6, 15, 12, 0, 0, 0, time.UTC)) <= 1 {
		t.Error("June growth missing")
	}
}

func TestScaleExtrapolation(t *testing.T) {
	f := ScaleCI.extrapolationFactor(webgen.TLDCom)
	if f < 100 { // 116M over a CI corpus must scale up heavily
		t.Errorf("com extrapolation = %.0f", f)
	}
	if p := ScalePaper.extrapolationFactor(webgen.TLDAlexa); p != 1 {
		t.Errorf("paper-scale alexa extrapolation = %.2f, want 1", p)
	}
}

func TestEconomicsModel(t *testing.T) {
	res := RunEconomics(PaperEconomics())
	// The paper's headline: the whole service turns over ~150K USD/month.
	if res.poolMonthlyUSD < 100_000 || res.poolMonthlyUSD > 220_000 {
		t.Errorf("pool monthly = %.0f USD, want ~150K", res.poolMonthlyUSD)
	}
	// And the scepticism: per-impression mining revenue is far below ad RPM
	// at laptop hash rates (the "huge hurdle" of §6).
	if res.advantageRatio >= 1 {
		t.Errorf("advantage ratio = %.3f; the paper's conclusion implies << 1", res.advantageRatio)
	}
	if res.usdPerVisitorHour <= 0 {
		t.Error("visitor-hour revenue must be positive")
	}
	// Sanity: more hash power, more revenue, linearly.
	in := PaperEconomics()
	in.visitorHashRate = 100
	res100 := RunEconomics(in)
	ratio := res100.usdPerVisitorHour / res.usdPerVisitorHour
	if ratio < 4.9 || ratio > 5.1 {
		t.Errorf("revenue not linear in hash rate: ×%.2f for ×5 rate", ratio)
	}
}
