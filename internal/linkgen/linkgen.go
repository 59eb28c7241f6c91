// Package linkgen synthesises the Coinhive short-link corpus (§4.1): an
// enumerable ID space whose per-user link counts follow the heavy-tailed
// law the paper measured (one user owns ~1/3 of all links, ten users own
// ~85%), per-user hash-price habits (including the 512-hash spike and the
// absurd 10^19 outliers), and destination URLs matching Table 4 (top users
// point at filesharing/streaming) and Table 5 (the long tail is diverse).
package linkgen

import (
	"fmt"

	"repro/internal/keccak"
	"repro/internal/rulespace"
)

// PaperTotalLinks is the number of active short links the paper enumerated.
const PaperTotalLinks = 1_709_203

// InfeasibleHashes is the 10^19-class hash price some links carry — several
// billion years at browser speed ("16Gyr" on Fig. 4's top axis).
const InfeasibleHashes = uint64(10_000_000_000_000_000_019)

// Spec is one short link to be created.
type Spec struct {
	Token  string
	URL    string
	Hashes uint64
}

// Config controls corpus generation.
type Config struct {
	totalLinks int
	seed       uint64
	tailUsers  int // users beyond the top 10 (default 5000)
	// HashScale divides every (feasible) hash price, letting resolution
	// experiments run on reduced budgets while preserving the distribution
	// shape. 1 means paper-scale.
	HashScale uint64
	// infeasibleRate is the fraction of links priced at InfeasibleHashes.
	infeasibleRate float64
}

// Default returns the paper-shaped configuration at n links.
func Default(n int) Config {
	return Config{totalLinks: n, seed: 0x11A2, tailUsers: 5000, HashScale: 1, infeasibleRate: 0.0005}
}

// user is an internal generation profile.
type user struct {
	token   string
	weight  float64
	hashes  []uint64   // preferred hash prices, first is dominant
	domains []destPref // preferred destinations; empty domain = diverse tail
}

// destPref weights one destination choice.
type destPref struct {
	domain string // "" draws a Table 5-shaped tail destination
	weight float64
}

// topDomains reproduces Table 4's destinations.
var topDomains = []string{
	"youtu.be", "zippyshare.com", "icerbox.com", "hq-mirror.de",
	"andyspeedracing.com", "ftbucket.info", "getcoinfree.com",
	"ul.to", "share-online.biz", "oboom.com",
}

// tailCategories shapes Table 5 (counts in the paper's unbiased set).
var tailCategories = []struct {
	cat    string
	weight float64
}{
	{rulespace.CatTech, 1522}, {rulespace.CatGaming, 737},
	{rulespace.CatDynamic, 727}, {rulespace.CatBusiness, 578},
	{rulespace.CatPorn, 577}, {rulespace.CatShopping, 572},
	{rulespace.CatFinance, 502}, {rulespace.CatEntMusic, 313},
	{rulespace.CatEducation, 305}, {rulespace.CatHosting, 298},
}

// tailExponentWeights skews tail users toward cheap links: the paper's
// user-bias-freed CDF still has >2/3 of links at ≤1024 hashes.
var tailExponentWeights = []struct {
	exp    uint
	weight float64
}{
	{8, 0.18}, {9, 0.22}, {10, 0.28}, {11, 0.10}, {12, 0.07},
	{13, 0.05}, {14, 0.04}, {15, 0.03}, {16, 0.03},
}

func tailExponent(r *rng) uint {
	x := r.float()
	for _, tw := range tailExponentWeights {
		x -= tw.weight
		if x <= 0 {
			return tw.exp
		}
	}
	return 10
}

type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545F4914F6CDD1D
}
func (r *rng) float() float64 { return float64(r.next()>>11) / float64(1<<53) }
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func buildUsers(cfg Config) []user {
	users := make([]user, 0, 10+cfg.tailUsers)
	// Top 10: the heavy hitters. User 0 owns 1/3 of the space; users 1-9
	// split the rest of the 85%. Their hash prices are habitual — notably
	// user 1's flat 512, the spike in Fig. 4's biased CDF.
	heavyWeights := []float64{0.333, 0.120, 0.090, 0.070, 0.060, 0.050, 0.040, 0.030, 0.015, 0.012}
	heavyHashes := [][]uint64{
		{1024, 512}, {512}, {256, 1024}, {2048}, {1024},
		{4096, 512}, {256}, {65536, 1024}, {512, 256}, {16384},
	}
	// Destination habits shaped to Table 4: seven users glued to a single
	// service, the last three mixing their main service with diverse
	// destinations — which is how the paper's top-10 sample ends up ~89%
	// covered by ten domains with youtu.be leading at ~20%.
	heavyDomains := [][]destPref{
		{{"youtu.be", 1}},
		{{"zippyshare.com", 1}},
		{{"icerbox.com", 1}},
		{{"hq-mirror.de", 1}},
		{{"andyspeedracing.com", 1}},
		{{"ftbucket.info", 0.99}, {"", 0.01}},
		{{"getcoinfree.com", 0.92}, {"", 0.08}},
		{{"ul.to", 0.42}, {"youtu.be", 0.58}},
		{{"share-online.biz", 0.29}, {"", 0.71}},
		{{"oboom.com", 0.28}, {"", 0.72}},
	}
	for i := 0; i < 10; i++ {
		users = append(users, user{
			token:   fmt.Sprintf("heavy-%02d", i),
			weight:  heavyWeights[i],
			hashes:  heavyHashes[i],
			domains: heavyDomains[i],
		})
	}

	// The tail: Zipf-ish weights over tailUsers, diverse destinations.
	remaining := 0.15
	norm := 0.0
	for i := 0; i < cfg.tailUsers; i++ {
		norm += 1 / float64(i+2)
	}
	for i := 0; i < cfg.tailUsers; i++ {
		r := rng{s: cfg.seed*2654435761 + uint64(i) + 1}
		prices := []uint64{1 << tailExponent(&r)}
		if r.float() < 0.3 {
			prices = append(prices, 1<<tailExponent(&r))
		}
		users = append(users, user{
			token:  fmt.Sprintf("tail-%04d", i),
			weight: remaining * (1 / float64(i+2)) / norm,
			hashes: prices,
		})
	}
	return users
}

// tailDestination draws a destination for a non-heavy user, shaped by
// Table 5's category mix.
func tailDestination(r *rng) (domain, category string) {
	total := 0.0
	for _, tc := range tailCategories {
		total += tc.weight
	}
	x := r.float() * total
	for _, tc := range tailCategories {
		x -= tc.weight
		if x <= 0 {
			return fmt.Sprintf("dest-%s-%03d.example", slug(tc.cat), r.intn(400)), tc.cat
		}
	}
	last := tailCategories[len(tailCategories)-1]
	return fmt.Sprintf("dest-%s-%03d.example", slug(last.cat), r.intn(400)), last.cat
}

func slug(cat string) string {
	out := make([]byte, 0, len(cat))
	for i := 0; i < len(cat); i++ {
		c := cat[i]
		switch {
		case c >= 'a' && c <= 'z':
			out = append(out, c)
		case c >= 'A' && c <= 'Z':
			out = append(out, c+'a'-'A')
		}
	}
	return string(out)
}

// pickDest draws from a user's weighted destination preferences.
func pickDest(r *rng, prefs []destPref) string {
	total := 0.0
	for _, p := range prefs {
		total += p.weight
	}
	x := r.float() * total
	for _, p := range prefs {
		x -= p.weight
		if x <= 0 {
			return p.domain
		}
	}
	return prefs[len(prefs)-1].domain
}

// Generate produces the deterministic link corpus.
func Generate(cfg Config) []Spec {
	if cfg.HashScale == 0 {
		cfg.HashScale = 1
	}
	if cfg.tailUsers == 0 {
		cfg.tailUsers = 5000
	}
	users := buildUsers(cfg)
	// Cumulative weights for fast selection.
	cum := make([]float64, len(users))
	total := 0.0
	for i, u := range users {
		total += u.weight
		cum[i] = total
	}
	specs := make([]Spec, 0, cfg.totalLinks)
	for i := 0; i < cfg.totalLinks; i++ {
		h := keccak.Sum256([]byte(fmt.Sprintf("link:%d:%d", cfg.seed, i)))
		r := &rng{s: uint64(h[0]) | uint64(h[1])<<8 | uint64(h[2])<<16 | uint64(h[3])<<24 |
			uint64(h[4])<<32 | uint64(h[5])<<40 | uint64(h[6])<<48 | uint64(h[7])<<56}
		x := r.float() * total
		ui := 0
		for ui < len(cum) && cum[ui] < x {
			ui++
		}
		if ui >= len(users) {
			ui = len(users) - 1
		}
		u := users[ui]

		hashes := u.hashes[0]
		if len(u.hashes) > 1 && r.float() < 0.35 {
			hashes = u.hashes[1+r.intn(len(u.hashes)-1)]
		}
		if r.float() < cfg.infeasibleRate {
			// Misconfiguration or no desire to ever resolve (§4.1): the
			// 10^19 links scattered across many users.
			hashes = InfeasibleHashes
		} else if cfg.HashScale > 1 {
			hashes /= cfg.HashScale
			if hashes < 8 {
				hashes = 8
			}
		}

		var url string
		if ui < 10 {
			d := pickDest(r, u.domains)
			if d == "" {
				d, _ = tailDestination(r)
			}
			url = fmt.Sprintf("https://%s/%x", d, h[8:14])
		} else {
			d, _ := tailDestination(r)
			url = fmt.Sprintf("https://%s/%x", d, h[8:14])
		}
		specs = append(specs, Spec{Token: u.token, URL: url, Hashes: hashes})
	}
	return specs
}

// RegisterTailDestinations seeds a RuleSpace engine with every possible
// tail destination domain so Table 5 categorisation has a database to hit
// (coverage gaps are applied by the engine itself).
func RegisterTailDestinations(e *rulespace.Engine) {
	for _, tc := range tailCategories {
		for i := 0; i < 400; i++ {
			e.Register(fmt.Sprintf("dest-%s-%03d.example", slug(tc.cat), i), "external", []string{tc.cat})
		}
	}
	rulespace.WellKnownDestinations(e)
}
