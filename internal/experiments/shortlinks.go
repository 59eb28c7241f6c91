package experiments

import (
	"fmt"
	"net/http/httptest"
	"sort"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/blockchain"
	"repro/internal/coinhive"
	"repro/internal/cryptonight"
	"repro/internal/linkgen"
	"repro/internal/rulespace"
	"repro/internal/simclock"
	"repro/internal/webminer"
)

// linkCorpusSize returns the enumerated link-space size per scale.
func (s Scale) linkCorpusSize() int {
	if s == ScalePaper {
		return linkgen.PaperTotalLinks
	}
	return 200_000
}

// ---------------------------------------------------------------------------
// Figure 3 — links per token.
// ---------------------------------------------------------------------------

// Fig3Result captures the links-per-token distribution.
type Fig3Result struct {
	totalLinks  int
	totalTokens int
	ranked      []analysis.RankEntry // token -> link count, descending
	top1Share   float64
	Top10Share  float64
}

// RunFig3 enumerates the link space and ranks creators.
func RunFig3(scale Scale) Fig3Result { return RunFig3Links(scale.linkCorpusSize()) }

// RunFig3Links is RunFig3 over a custom link-space size.
func RunFig3Links(n int) Fig3Result {
	specs := linkgen.Generate(linkgen.Default(n))
	counts := map[string]int{}
	for _, s := range specs {
		counts[s.Token]++
	}
	ranked := analysis.RankDescending(counts)
	return Fig3Result{
		totalLinks:  len(specs),
		totalTokens: len(ranked),
		ranked:      ranked,
		top1Share:   analysis.TopShare(ranked, 1),
		Top10Share:  analysis.TopShare(ranked, 10),
	}
}

// Render prints the Figure 3 summary and the head of the rank curve.
func (r Fig3Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3 — links per token\n")
	fmt.Fprintf(&b, "total links %d across %d tokens\n", r.totalLinks, r.totalTokens)
	fmt.Fprintf(&b, "top-1 user owns %.1f%% of links (paper: ~33%%)\n", r.top1Share*100)
	fmt.Fprintf(&b, "top-10 users own %.1f%% of links (paper: ~85%%)\n", r.Top10Share*100)
	rows := [][]string{}
	for i, e := range r.ranked {
		if i >= 10 {
			break
		}
		rows = append(rows, []string{fmt.Sprintf("%d", i+1), e.Key, fmt.Sprintf("%d", e.Count)})
	}
	b.WriteString(analysis.Table([]string{"rank", "token", "links"}, rows))
	return b.String()
}

// ---------------------------------------------------------------------------
// Figure 4 — required hashes per link.
// ---------------------------------------------------------------------------

// Fig4Result captures both CDFs of Figure 4.
type Fig4Result struct {
	histogram      []analysis.LogBin
	allCDF         []analysis.CDFPoint
	unbiasedCDF    []analysis.CDFPoint
	pAll1024       float64
	PUnbiased1024  float64
	infeasibleLnks int
}

// RunFig4 computes the hash-price distribution, biased and user-bias-free.
func RunFig4(scale Scale) Fig4Result { return RunFig4Links(scale.linkCorpusSize()) }

// RunFig4Links is RunFig4 over a custom link-space size.
func RunFig4Links(n int) Fig4Result {
	specs := linkgen.Generate(linkgen.Default(n))
	var all []float64
	var allU64 []uint64
	seen := map[string]map[uint64]bool{}
	var unbiased []float64
	infeasible := 0
	for _, s := range specs {
		if s.Hashes == linkgen.InfeasibleHashes {
			infeasible++
			continue
		}
		all = append(all, float64(s.Hashes))
		allU64 = append(allU64, s.Hashes)
		m := seen[s.Token]
		if m == nil {
			m = map[uint64]bool{}
			seen[s.Token] = m
		}
		if !m[s.Hashes] {
			m[s.Hashes] = true
			unbiased = append(unbiased, float64(s.Hashes))
		}
	}
	allCDF := analysis.CDF(all)
	unbCDF := analysis.CDF(unbiased)
	return Fig4Result{
		histogram:      analysis.LogHistogram(allU64),
		allCDF:         allCDF,
		unbiasedCDF:    unbCDF,
		pAll1024:       analysis.PAt(allCDF, 1024),
		PUnbiased1024:  analysis.PAt(unbCDF, 1024),
		infeasibleLnks: infeasible,
	}
}

// Render prints the Figure 4 series with the duration-at-20 H/s top axis.
func (r Fig4Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 4 — required hashes per link (duration @20 H/s)\n")
	rows := [][]string{}
	for _, bin := range r.histogram {
		if bin.Count == 0 {
			continue
		}
		rows = append(rows, []string{
			fmt.Sprintf("2^%d", log2(bin.Lo)),
			analysis.Duration20Hs(float64(bin.Lo)),
			fmt.Sprintf("%d", bin.Count),
		})
	}
	b.WriteString(analysis.Table([]string{"hashes", "@20H/s", "links"}, rows))
	fmt.Fprintf(&b, "P[hashes ≤ 1024] all links:       %.2f (paper: majority <51s)\n", r.pAll1024)
	fmt.Fprintf(&b, "P[hashes ≤ 1024] user-bias freed: %.2f (paper: >2/3)\n", r.PUnbiased1024)
	fmt.Fprintf(&b, "links priced at 10^19 hashes (never resolvable): %d\n", r.infeasibleLnks)
	return b.String()
}

func log2(v uint64) int {
	n := 0
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// ---------------------------------------------------------------------------
// Tables 4 & 5 — resolving links with the non-browser miner.
// ---------------------------------------------------------------------------

// ResolveResult covers both destination tables.
type ResolveResult struct {
	sampledTop     int
	feasibleTop    int // sampled minus the InfeasibleHashes-priced links
	ResolvedTop    int
	topDomains     []analysis.RankEntry // Table 4
	sampledTail    int
	ResolvedTail   int
	tailCategories []analysis.RankEntry // Table 5
	Uncategorized  float64
	// requiredHashes sums the resolved links' prices: what the header
	// prints, a function of the corpus alone. HashesComputed, the miners'
	// actual work, depends on how the concurrent fleet is scheduled.
	requiredHashes uint64
	HashesComputed int64
}

// RunResolve spins up a live Coinhive clone, creates the link corpus
// against it, and resolves samples by actually mining — the paper's "we
// replicate the working principle of the web miner in a non-web
// implementation" (their run took 61.5M hashes / two days; ours scales the
// hash prices down by HashScale and uses the reduced PoW profile so the
// same pipeline finishes in seconds).
func RunResolve(scale Scale, perUserSample, tailSample int) (ResolveResult, error) {
	var res ResolveResult

	// A live service: chain (difficulty pinned high so shares never mint
	// blocks), pool, HTTP front.
	params := blockchain.SimParams()
	params.MinDifficulty = 1 << 40
	chain, err := blockchain.NewChain(params, 1_525_000_000, blockchain.AddressFromString("genesis"))
	if err != nil {
		return res, err
	}
	pool, err := coinhive.NewPool(coinhive.PoolConfig{
		Chain:               chain,
		Wallet:              blockchain.AddressFromString("coinhive-wallet"),
		Clock:               simclock.New(time.Date(2018, 2, 1, 0, 0, 0, 0, time.UTC)),
		LinkShareDifficulty: 8,
	})
	if err != nil {
		return res, err
	}
	srv := httptest.NewServer(coinhive.NewServer(pool))
	defer srv.Close()

	cfg := linkgen.Default(scale.linkCorpusSize() / 10)
	cfg.HashScale = 64 // hash-budget scaling, documented in DESIGN.md
	specs := linkgen.Generate(cfg)
	ids := make([]string, len(specs))
	for i, s := range specs {
		ids[i] = pool.Links().Create(s.Token, s.URL, s.Hashes)
	}

	engine := rulespace.NewEngine()
	linkgen.RegisterTailDestinations(engine)
	engine.SetCoverage("external", 0.66) // "for roughly 1/3 of the URLs RuleSpace has no classification"

	wsBase := "ws" + strings.TrimPrefix(srv.URL, "http")

	// Sampling happens up front; resolution — the mining — then runs as one
	// concurrent fleet over the pool's endpoints, exactly the shape of the
	// paper's parallel resolver. Links priced at InfeasibleHashes count as
	// sampled but are never mined (several billion years; the paper skipped
	// them too).
	const (
		kindTop = iota
		kindTail
	)
	type sample struct {
		idx  int // index into specs
		kind int
	}
	var samples []sample

	// Table 4: sample links of the top 10 users.
	perUser := map[string][]int{}
	for i, s := range specs {
		if strings.HasPrefix(s.Token, "heavy-") {
			perUser[s.Token] = append(perUser[s.Token], i)
		}
	}
	users := make([]string, 0, len(perUser))
	for u := range perUser {
		users = append(users, u)
	}
	sort.Strings(users)
	for _, u := range users {
		idxs := perUser[u]
		for k := 0; k < perUserSample && k < len(idxs); k++ {
			res.sampledTop++
			samples = append(samples, sample{idx: idxs[k*len(idxs)/perUserSample], kind: kindTop})
		}
	}

	// Table 5: the unbiased (per-user deduplicated) tail below 10K hashes.
	taken := 0
	seen := map[string]map[uint64]bool{}
	for i, s := range specs {
		if taken >= tailSample {
			break
		}
		if strings.HasPrefix(s.Token, "heavy-") || s.Hashes >= 10_000/cfg.HashScale+1 {
			continue
		}
		m := seen[s.Token]
		if m == nil {
			m = map[uint64]bool{}
			seen[s.Token] = m
		}
		if m[s.Hashes] {
			continue // user-bias removal
		}
		m[s.Hashes] = true
		taken++
		res.sampledTail++
		samples = append(samples, sample{idx: i, kind: kindTail})
	}

	var tasks []webminer.Task
	var minable []sample
	for _, sm := range samples {
		spec := specs[sm.idx]
		if spec.Hashes == linkgen.InfeasibleHashes {
			continue
		}
		if sm.kind == kindTop {
			res.feasibleTop++
		}
		minable = append(minable, sm)
		tasks = append(tasks, webminer.Task{
			URL:     wsBase + "/proxy" + fmt.Sprintf("%d", sm.idx%pool.NumEndpoints()),
			SiteKey: spec.Token,
			LinkID:  ids[sm.idx],
		})
	}
	fleet := &webminer.Fleet{Variant: cryptonight.Test}
	outcomes := fleet.Run(tasks)

	domainCounts := map[string]int{}
	catCounts := map[string]int{}
	classified := 0
	for i, out := range outcomes {
		res.HashesComputed += out.Result.HashesComputed
		if out.Err != nil || out.Result.ResolvedURL == "" {
			continue
		}
		url := out.Result.ResolvedURL
		res.requiredHashes += specs[minable[i].idx].Hashes
		switch minable[i].kind {
		case kindTop:
			res.ResolvedTop++
			domainCounts[hostOf(url)]++
		case kindTail:
			res.ResolvedTail++
			cats, ok := engine.Classify(url)
			if !ok {
				continue
			}
			classified++
			for _, c := range cats {
				catCounts[c]++
			}
		}
	}
	res.topDomains = analysis.RankDescending(domainCounts)
	res.tailCategories = analysis.RankDescending(catCounts)
	if res.ResolvedTail > 0 {
		res.Uncategorized = 1 - float64(classified)/float64(res.ResolvedTail)
	}
	return res, nil
}

func hostOf(u string) string {
	s := strings.TrimPrefix(u, "https://")
	s = strings.TrimPrefix(s, "http://")
	if i := strings.IndexByte(s, '/'); i >= 0 {
		s = s[:i]
	}
	return s
}

// Render prints Tables 4 and 5.
func (r ResolveResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Tables 4 & 5 — link destinations (resolved by mining; %d hashes required)\n", r.requiredHashes)
	fmt.Fprintf(&b, "\n[Table 4] top-10 users: %d/%d links resolved\n", r.ResolvedTop, r.sampledTop)
	rows := [][]string{}
	for i, e := range r.topDomains {
		if i >= 10 {
			break
		}
		rows = append(rows, []string{e.Key, fmt.Sprintf("%.1f%%", 100*float64(e.Count)/float64(max(1, r.ResolvedTop)))})
	}
	b.WriteString(analysis.Table([]string{"domain", "freq"}, rows))
	fmt.Fprintf(&b, "\n[Table 5] unbiased tail: %d/%d resolved, %.0f%% uncategorized\n",
		r.ResolvedTail, r.sampledTail, r.Uncategorized*100)
	rows = rows[:0]
	for i, e := range r.tailCategories {
		if i >= 10 {
			break
		}
		rows = append(rows, []string{e.Key, fmt.Sprintf("%d", e.Count)})
	}
	b.WriteString(analysis.Table([]string{"category", "count"}, rows))
	return b.String()
}
