// Package crawler implements the paper's §3.1 measurement pipeline: fetch
// every domain's landing page www.-prefixed over TLS, keep only the first
// 256 kB, extract the script tags, and match them against the NoCoin
// filter list.
package crawler

import (
	"io"
	"net/http"
	"strings"
	"sync"

	"repro/internal/htmlx"
	"repro/internal/nocoin"
	"repro/internal/parallel"
	"repro/internal/webgen"
)

// MaxBody is the 256 kB download cap: "a good tradeoff between capturing
// most content ... and having a point where to stop downloading when pages
// do not stop sending data."
const MaxBody = 256 << 10

// FetchResult is one landing-page download.
type FetchResult struct {
	Domain string
	Body   string
	OK     bool
	Err    string
}

// Fetcher retrieves a landing page for a domain.
type Fetcher interface {
	Fetch(domain string) FetchResult
}

// CorpusFetcher serves pages straight from a synthetic corpus, honouring
// the TLS-broken population (sites the zgrab pass cannot reach but the
// http://-prefixed browser crawl later can).
type CorpusFetcher struct {
	byDomain map[string]*webgen.Site
}

// NewCorpusFetcher indexes a corpus.
func NewCorpusFetcher(c *webgen.Corpus) *CorpusFetcher {
	f := &CorpusFetcher{byDomain: make(map[string]*webgen.Site, len(c.Sites))}
	for _, s := range c.Sites {
		f.byDomain[s.Domain] = s
	}
	return f
}

// Fetch renders the site's static HTML, truncated to MaxBody.
func (f *CorpusFetcher) Fetch(domain string) FetchResult {
	s, ok := f.byDomain[domain]
	if !ok {
		return FetchResult{Domain: domain, Err: "NXDOMAIN"}
	}
	if s.Load.TLSBroken {
		return FetchResult{Domain: domain, Err: "tls: handshake failure"}
	}
	body := webgen.RenderStaticHTML(s)
	if len(body) > MaxBody {
		body = body[:MaxBody]
	}
	return FetchResult{Domain: domain, Body: body, OK: true}
}

// HTTPFetcher downloads real pages over the network (tests point it at
// httptest servers; a production deployment would point it at the web).
type HTTPFetcher struct {
	Client *http.Client
	// BaseURL overrides scheme+host resolution; the domain is appended as
	// a path ("" means https://www.<domain>/ semantics).
	BaseURL string
}

// Fetch downloads the first MaxBody bytes of a landing page.
func (f *HTTPFetcher) Fetch(domain string) FetchResult {
	client := f.Client
	if client == nil {
		client = http.DefaultClient
	}
	url := f.BaseURL + "/" + domain
	if f.BaseURL == "" {
		url = "https://www." + domain + "/"
	}
	resp, err := client.Get(url)
	if err != nil {
		return FetchResult{Domain: domain, Err: err.Error()}
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, MaxBody))
	if err != nil {
		return FetchResult{Domain: domain, Err: err.Error()}
	}
	return FetchResult{Domain: domain, Body: string(body), OK: true}
}

// Hit is one NoCoin-flagged domain.
type Hit struct {
	Domain  string
	Family  string // family label inferred from the matched rule
	Matches []nocoin.Match
}

// Report aggregates a static scan.
type Report struct {
	TLD     webgen.TLD
	Total   int
	Fetched int
	Hits    []Hit
	// FamilyCounts tallies hits by inferred script family (Fig. 2 bars).
	FamilyCounts map[string]int
}

// HitRate returns hits per fetched domain.
func (r Report) HitRate() float64 {
	if r.Fetched == 0 {
		return 0
	}
	return float64(len(r.Hits)) / float64(r.Fetched)
}

// ScanPage applies the list to one page body.
func ScanPage(list *nocoin.List, body string) []nocoin.Match {
	scripts := htmlx.ExtractScripts(body)
	refs := make([]nocoin.ScriptRef, len(scripts))
	for i, s := range scripts {
		refs[i] = nocoin.ScriptRef{Src: s.Src, Inline: s.Inline}
	}
	return list.MatchScripts(refs)
}

// FamilyOfMatch maps a matched rule to the script-family label used in
// Figure 2's legend.
func FamilyOfMatch(m nocoin.Match) string {
	probe := strings.ToLower(m.Rule.Raw + " " + m.Target)
	switch {
	case strings.Contains(probe, "authedmine"):
		return "authedmine"
	case strings.Contains(probe, "coinhive") || strings.Contains(probe, "coin-hive") ||
		strings.Contains(probe, "coinhive.min.js"):
		return "coinhive"
	case strings.Contains(probe, "wp-monero"):
		return "wp-monero"
	case strings.Contains(probe, "crypto-loot") || strings.Contains(probe, "cryptaloot") ||
		strings.Contains(probe, "cryptoloot"):
		return "cryptoloot"
	case strings.Contains(probe, "cpmstar"):
		return "cpmstar"
	default:
		return "other"
	}
}

// Scan fetches and scans every domain of a corpus with the given worker
// parallelism, aggregating a Report.
func Scan(c *webgen.Corpus, f Fetcher, list *nocoin.List, workers int) Report {
	if workers <= 0 {
		workers = 8
	}
	rep := Report{TLD: c.Cfg.TLD, Total: len(c.Sites), FamilyCounts: map[string]int{}}
	var mu sync.Mutex
	parallel.ForEach(len(c.Sites), workers, func(i int) {
		s := c.Sites[i]
		res := f.Fetch(s.Domain)
		if !res.OK {
			return
		}
		matches := ScanPage(list, res.Body)
		mu.Lock()
		defer mu.Unlock()
		rep.Fetched++
		if len(matches) == 0 {
			return
		}
		h := Hit{Domain: s.Domain, Matches: matches, Family: FamilyOfMatch(matches[0])}
		rep.Hits = append(rep.Hits, h)
		// A site can carry several matching scripts; Fig. 2 counts each
		// matched family once per site.
		seen := map[string]bool{}
		for _, m := range matches {
			fam := FamilyOfMatch(m)
			if !seen[fam] {
				seen[fam] = true
				rep.FamilyCounts[fam]++
			}
		}
	})
	return rep
}
