// Package rulespace stands in for the proprietary Symantec RuleSpace
// engine the paper uses to categorise websites (Tables 3–5). It is a
// domain-keyed category database with per-population coverage: RuleSpace
// could classify far more Alexa domains than .org domains, and roughly a
// third of short-link destinations not at all — gaps this engine reproduces
// with a deterministic per-domain dropout.
package rulespace

import (
	"strings"
	"sync"

	"repro/internal/keccak"
)

// Canonical category names as printed in the paper's tables.
const (
	CatGaming      = "Gaming"
	CatPorn        = "Pornography"
	CatEducation   = "Educational Site"
	CatShopping    = "Shopping"
	CatTech        = "Tech. & Telecomm."
	CatFilesharing = "Filesharing"
	CatEntMusic    = "Ent. & Music"
	CatBusiness    = "Business"
	CatReligion    = "Religion"
	CatHealth      = "Health Site"
	CatFinance     = "Finance and Investing"
	CatDynamic     = "Dynamic Site"
	CatHosting     = "Hosting"
	catMsgBoard    = "Msg. Board"
	catAutomotive  = "Automotive"
	CatNews        = "News"
	CatSports      = "Sports"
	CatTravel      = "Travel"
	catStreaming   = "Streaming Media"
	CatBlog        = "Blog"
)

// entry is one classified domain.
type entry struct {
	cats []string
	pop  string // population tag for coverage lookup
}

// Engine is a concurrency-safe category database.
type Engine struct {
	mu       sync.RWMutex
	db       map[string]entry
	coverage map[string]float64 // population tag -> probability of coverage
}

// NewEngine returns an engine with full coverage and an empty database.
func NewEngine() *Engine {
	return &Engine{
		db:       map[string]entry{},
		coverage: map[string]float64{},
	}
}

// Register adds (or replaces) a domain's categories under a population tag
// (e.g. "alexa", "org", "external").
func (e *Engine) Register(domain, population string, categories []string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.db[strings.ToLower(domain)] = entry{
		cats: append([]string(nil), categories...),
		pop:  population,
	}
}

// SetCoverage sets the fraction of a population's domains the engine can
// classify (e.g. "org" → 0.48). Dropped domains behave exactly like
// unknown ones.
func (e *Engine) SetCoverage(population string, p float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.coverage[population] = p
}

// covered applies the deterministic dropout for a domain.
func (e *Engine) covered(domain, pop string) bool {
	p, ok := e.coverage[pop]
	if !ok {
		return true
	}
	h := keccak.Sum256([]byte("rulespace-coverage:" + domain))
	v := uint32(h[0]) | uint32(h[1])<<8 | uint32(h[2])<<16
	return float64(v)/float64(1<<24) < p
}

// Classify returns the categories for a domain (host names and URLs both
// accepted), and whether the engine has any classification at all — the
// paper reports "Categorized" percentages precisely because RuleSpace often
// has none.
func (e *Engine) Classify(domainOrURL string) ([]string, bool) {
	domain := hostOf(domainOrURL)
	e.mu.RLock()
	defer e.mu.RUnlock()
	ent, ok := e.db[domain]
	if !ok || !e.covered(domain, ent.pop) {
		return nil, false
	}
	return append([]string(nil), ent.cats...), true
}

func hostOf(u string) string {
	s := strings.ToLower(u)
	if i := strings.Index(s, "://"); i >= 0 {
		s = s[i+3:]
	} else {
		s = strings.TrimPrefix(s, "//")
	}
	for _, cut := range []byte{'/', '?', '#', ':'} {
		if i := strings.IndexByte(s, cut); i >= 0 {
			s = s[:i]
		}
	}
	return strings.TrimPrefix(s, "www.")
}

// WellKnownDestinations seeds the engine with the external services the
// paper's Table 4 link destinations point at.
func WellKnownDestinations(e *Engine) {
	for domain, cats := range map[string][]string{
		"youtu.be":            {CatEntMusic, catStreaming},
		"youtube.com":         {CatEntMusic, catStreaming},
		"zippyshare.com":      {CatFilesharing},
		"icerbox.com":         {CatFilesharing},
		"hq-mirror.de":        {CatEntMusic},
		"andyspeedracing.com": {catAutomotive},
		"ftbucket.info":       {catMsgBoard},
		"getcoinfree.com":     {CatFinance},
		"ul.to":               {CatFilesharing},
		"share-online.biz":    {CatFilesharing},
		"oboom.com":           {CatFilesharing},
		"mega.nz":             {CatFilesharing},
		"dailymotion.com":     {CatEntMusic, catStreaming},
	} {
		e.Register(domain, "external", cats)
	}
}
