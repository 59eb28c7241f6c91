// Package crawler implements the paper's §3.1 measurement pipeline: fetch
// every domain's landing page www.-prefixed over TLS, keep only the first
// 256 kB, extract the script tags, and match them against the NoCoin
// filter list.
//
// Scan gives each worker a PageScanner and a page buffer that it reuses
// from domain to domain, so a shard allocates a fixed number of times
// rather than several times per domain. The page is read as a string
// through unsafe.String, and only inside the worker call that fetched it:
// every string that enters a Report is a copy (strings.Clone), never a
// view of a buffer the next page overwrites.
package crawler

import (
	"errors"
	"strings"
	"sync"
	"unsafe"

	"repro/internal/htmlx"
	"repro/internal/nocoin"
	"repro/internal/parallel"
	"repro/internal/webgen"
)

// maxBody is the 256 kB download cap: "a good tradeoff between capturing
// most content ... and having a point where to stop downloading when pages
// do not stop sending data."
const maxBody = 256 << 10

// The errors a CorpusFetcher reports, made once so a fetch that fails
// allocates nothing either.
var (
	errNXDomain = errors.New("NXDOMAIN")
	errTLS      = errors.New("tls: handshake failure")
)

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

// fetch appends the site's static HTML, truncated to maxBody, to dst and
// returns the extended buffer; on error it returns dst with no page
// appended, so a caller can keep reusing it.
func (f *CorpusFetcher) fetch(dst []byte, domain string) ([]byte, error) {
	s, ok := f.byDomain[domain]
	if !ok {
		return dst, errNXDomain
	}
	if s.Load.TLSBroken {
		return dst, errTLS
	}
	n := len(dst)
	dst = webgen.AppendStaticHTML(dst, s)
	if len(dst)-n > maxBody {
		dst = dst[:n+maxBody]
	}
	return dst, nil
}

// Hit is one NoCoin-flagged domain.
type Hit struct {
	domain  string
	family  string // family label inferred from the matched rule
	matches []nocoin.Match
}

// Report aggregates a static scan.
type Report struct {
	tld     webgen.TLD
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
	return NewPageScanner(list).Scan(body)
}

// PageScanner is ScanPage with buffers it reuses from page to page: the
// extracted scripts, their refs, the matches and the matcher's lower-case
// text. It is for one goroutine at a time.
type PageScanner struct {
	matcher nocoin.Matcher
	scripts []htmlx.Script
	refs    []nocoin.ScriptRef
	matches []nocoin.Match
}

// NewPageScanner returns a PageScanner applying list.
func NewPageScanner(list *nocoin.List) *PageScanner {
	return &PageScanner{matcher: nocoin.Matcher{List: list}}
}

// Scan applies the list to page. The matches are the scanner's buffer and
// their Targets substrings of page: both are good until the next Scan,
// and a caller keeping them past that copies them.
func (p *PageScanner) Scan(page string) []nocoin.Match {
	p.scripts = htmlx.AppendScripts(p.scripts[:0], page)
	if cap(p.refs) < len(p.scripts) {
		p.refs = make([]nocoin.ScriptRef, 0, cap(p.scripts))
	}
	p.refs = p.refs[:0]
	for _, s := range p.scripts {
		p.refs = append(p.refs, nocoin.ScriptRef{Src: s.Src, Inline: s.Inline})
	}
	p.matches = p.matcher.AppendMatches(p.matches[:0], p.refs)
	return p.matches
}

// familyOfMatch maps a matched rule to the script-family label used in
// Figure 2's legend.
func familyOfMatch(m nocoin.Match) string {
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
func Scan(c *webgen.Corpus, f *CorpusFetcher, list *nocoin.List, workers int) Report {
	if workers <= 0 {
		workers = 8
	}
	rep := Report{tld: c.Cfg.TLD, Total: len(c.Sites), FamilyCounts: map[string]int{}}
	scratches := make([]scratch, workers)
	for w := range scratches {
		scratches[w].scan = NewPageScanner(list)
	}
	var mu sync.Mutex
	parallel.ForEach(len(c.Sites), workers, func(w, i int) {
		sc := &scratches[w]
		s := c.Sites[i]
		var err error
		if sc.page, err = f.fetch(sc.page[:0], s.Domain); err != nil {
			return
		}
		// A view of the buffer the next page overwrites: what leaves this
		// call is cloned by ownedMatches.
		matches := sc.scan.Scan(unsafe.String(unsafe.SliceData(sc.page), len(sc.page)))
		var h Hit
		if len(matches) > 0 {
			h = Hit{domain: s.Domain, matches: ownedMatches(matches), family: familyOfMatch(matches[0])}
		}
		mu.Lock()
		defer mu.Unlock()
		rep.Fetched++
		if len(matches) == 0 {
			return
		}
		rep.Hits = append(rep.Hits, h)
		// A site can carry several matching scripts; Fig. 2 counts each
		// matched family once per site.
		seen := map[string]bool{}
		for _, m := range h.matches {
			fam := familyOfMatch(m)
			if !seen[fam] {
				seen[fam] = true
				rep.FamilyCounts[fam]++
			}
		}
	})
	return rep
}

// scratch is what one Scan worker reuses from domain to domain.
type scratch struct {
	page []byte
	scan *PageScanner
}

// ownedMatches copies matches, and each Target, out of a scanner's
// buffers and the page they were found on.
func ownedMatches(matches []nocoin.Match) []nocoin.Match {
	out := make([]nocoin.Match, len(matches))
	for i, m := range matches {
		out[i] = nocoin.Match{Rule: m.Rule, Target: strings.Clone(m.Target)}
	}
	return out
}
