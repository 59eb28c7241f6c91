// Package webgen synthesises the web corpora the crawler measures: per-TLD
// domain populations with configurable miner prevalence, family mix,
// loader visibility (static script tag vs dynamically injected — the
// difference between what the NoCoin scan and the browser scan can see),
// ad-network false positives, category labels and page-load behaviour.
//
// The 2018 web the paper crawled is gone; these corpora are its stand-in.
// Defaults are calibrated so the pipeline reproduces the paper's observed
// rates (Fig. 2 prevalence, Table 1 family mix, Table 2 NoCoin miss rates,
// Table 3 categories); the crawler/browser/fingerprint code paths are
// independent of where the corpus came from.
package webgen

import (
	"fmt"

	"repro/internal/keccak"
	"repro/internal/rulespace"
)

// TLD identifies a crawl population.
type TLD string

// Populations studied by the paper.
const (
	TLDAlexa TLD = "alexa"
	TLDCom   TLD = "com"
	TLDNet   TLD = "net"
	TLDOrg   TLD = "org"
)

// MinerDeployment describes mining code on a site.
type MinerDeployment struct {
	Family  string
	Version int
	Token   string
	// OfficialLoader: the site embeds the service's stock <script> tag
	// (coinhive.min.js and friends) that block lists key on. The rest
	// self-host a renamed copy and inject it at runtime — invisible to
	// NoCoin even on the post-execution HTML, which is why the paper finds
	// 82%/67% of Wasm-confirmed miners missing from the list.
	OfficialLoader bool
	Throttle       float64 // fraction of CPU left idle by the miner
}

// WasmDeployment is benign WebAssembly on a site.
type WasmDeployment struct {
	Family  string
	Version int
}

// DeadDeployment is a miner script that never executes: the stock loader
// tag is in the HTML (so block lists flag it) but no Wasm is ever
// instantiated — parked sites, wrong tokens, disabled accounts. These are
// the bulk of the paper's "NoCoin hits without mining Wasm" population.
type DeadDeployment struct {
	Family string
	Token  string
}

// LoadProfile drives the browser's page-load heuristic.
type LoadProfile struct {
	HasLoadEvent bool
	LoadEventMs  int   // when the load event fires
	DOMChangeMs  []int // post-load DOM mutations (relative ms)
	TLSBroken    bool  // www.+TLS fetch fails; only http:// browser crawl works
}

// Site is one synthetic website.
type Site struct {
	Domain     string
	TLD        TLD
	Rank       int
	Categories []string
	Miner      *MinerDeployment
	DeadMiner  *DeadDeployment
	BenignWasm *WasmDeployment
	AdNetwork  string // "cpmstar" for the gaming ad network FP sites
	Load       LoadProfile
}

// Weighted is a generic weighted choice entry.
type Weighted struct {
	Key    string
	Weight float64
}

// Config parameterises corpus generation. All rates are fractions of N.
type Config struct {
	TLD  TLD
	N    int
	Seed uint64

	MinerWasmRate      float64 // sites that mine when executed
	OfficialLoaderFrac float64 // of miners, fraction using the stock loader tag
	DeadMinerRate      float64 // sites with a stock loader but no execution
	AdNetworkRate      float64 // cpmstar-carrying sites
	BenignWasmRate     float64
	TLSBrokenRate      float64
	TimeoutRate        float64 // sites that never fire a load event

	FamilyMix     []Weighted // miner family mix (may include "UnknownWSS")
	DeadFamilyMix []Weighted // dead-deployment script families
	SiteCats      []Weighted // general population categories
	MinerCats     []Weighted // category prior for miner sites
	DeadCats      []Weighted // category prior for dead-deployment sites
	AdNetCats     []Weighted // category prior for ad-network sites
}

// Corpus is a generated population.
type Corpus struct {
	Cfg   Config
	Sites []*Site
}

// rng is the deterministic per-site generator (xorshift64*).
type rng struct{ s uint64 }

func newRng(seed uint64) *rng {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &rng{s: seed}
}

func (r *rng) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545F4914F6CDD1D
}

func (r *rng) float() float64 { return float64(r.next()>>11) / float64(1<<53) }
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) pick(w []Weighted) string {
	total := 0.0
	for _, e := range w {
		total += e.Weight
	}
	x := r.float() * total
	for _, e := range w {
		x -= e.Weight
		if x <= 0 {
			return e.Key
		}
	}
	return w[len(w)-1].Key
}

// Generate builds a deterministic corpus from cfg.
func Generate(cfg Config) *Corpus {
	c := &Corpus{Cfg: cfg, Sites: make([]*Site, 0, cfg.N)}
	for i := 0; i < cfg.N; i++ {
		domain := domainFor(cfg.TLD, i)
		h := keccak.Sum256([]byte(fmt.Sprintf("site:%d:%s", cfg.Seed, domain)))
		r := newRng(uint64(h[0]) | uint64(h[1])<<8 | uint64(h[2])<<16 | uint64(h[3])<<24 |
			uint64(h[4])<<32 | uint64(h[5])<<40 | uint64(h[6])<<48 | uint64(h[7])<<56)
		s := &Site{
			Domain: domain,
			TLD:    cfg.TLD,
			Rank:   i + 1,
		}
		roll := r.float()
		switch {
		case roll < cfg.MinerWasmRate:
			fam := r.pick(cfg.FamilyMix)
			s.Miner = &MinerDeployment{
				Family:         fam,
				Version:        r.intn(versionsOf(fam)),
				Token:          fmt.Sprintf("tok-%x", h[8:14]),
				OfficialLoader: r.float() < cfg.OfficialLoaderFrac,
				Throttle:       0.3 * r.float(),
			}
			s.Categories = []string{r.pick(cfg.MinerCats)}
		case roll < cfg.MinerWasmRate+cfg.DeadMinerRate:
			s.DeadMiner = &DeadDeployment{
				Family: r.pick(cfg.DeadFamilyMix),
				Token:  fmt.Sprintf("tok-%x", h[8:14]),
			}
			s.Categories = []string{r.pick(cfg.DeadCats)}
		case roll < cfg.MinerWasmRate+cfg.DeadMinerRate+cfg.AdNetworkRate:
			s.AdNetwork = "cpmstar"
			s.Categories = []string{r.pick(cfg.AdNetCats)}
		case roll < cfg.MinerWasmRate+cfg.DeadMinerRate+cfg.AdNetworkRate+cfg.BenignWasmRate:
			s.BenignWasm = &WasmDeployment{
				Family:  r.pick(benignFamilies),
				Version: r.intn(4),
			}
			s.Categories = []string{r.pick(cfg.SiteCats)}
		default:
			s.Categories = []string{r.pick(cfg.SiteCats)}
		}
		// Some sites carry a secondary category, as RuleSpace does.
		if r.float() < 0.2 {
			s.Categories = append(s.Categories, r.pick(cfg.SiteCats))
		}
		s.Load = LoadProfile{
			HasLoadEvent: r.float() >= cfg.TimeoutRate,
			LoadEventMs:  200 + r.intn(2800),
			TLSBroken:    r.float() < cfg.TLSBrokenRate,
		}
		for n := r.intn(3); n > 0; n-- {
			s.Load.DOMChangeMs = append(s.Load.DOMChangeMs, 100+r.intn(1500))
		}
		c.Sites = append(c.Sites, s)
	}
	return c
}

var benignFamilies = []Weighted{
	{Key: "game-engine", Weight: 0.4},
	{Key: "image-codec", Weight: 0.3},
	{Key: "math-kernel", Weight: 0.15},
	{Key: "crypto-lib", Weight: 0.15},
}

func domainFor(tld TLD, i int) string {
	switch tld {
	case TLDAlexa:
		return fmt.Sprintf("al%06d.com", i)
	case TLDCom:
		return fmt.Sprintf("cm%07d.com", i)
	case TLDNet:
		return fmt.Sprintf("nt%06d.net", i)
	default:
		return fmt.Sprintf("og%06d.org", i)
	}
}

// RegisterCategories loads the corpus ground truth into a RuleSpace engine
// under the corpus's population tag.
func (c *Corpus) RegisterCategories(e *rulespace.Engine) {
	for _, s := range c.Sites {
		e.Register(s.Domain, string(c.Cfg.TLD), s.Categories)
	}
}

func versionsOf(family string) int {
	if family == "UnknownWSS" {
		return 8
	}
	if l, ok := loaderFor(family); ok {
		return l.versions
	}
	return 1
}
