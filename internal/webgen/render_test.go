package webgen

import (
	"fmt"
	"strings"
	"testing"
)

// refRenderStaticHTML is the fmt-based renderer RenderStaticHTML replaced,
// kept as the definition of the bytes a page must have.
func refRenderStaticHTML(s *Site) string {
	var b strings.Builder
	cat := "site"
	if len(s.Categories) > 0 {
		cat = s.Categories[0]
	}
	fmt.Fprintf(&b, "<!doctype html>\n<html><head>\n<title>%s — a %s website</title>\n", s.Domain, cat)
	b.WriteString(`<meta charset="utf-8">` + "\n")
	b.WriteString(`<script src="https://code.jquery.com/jquery-3.3.1.min.js"></script>` + "\n")
	b.WriteString(`<script>window.dataLayer=window.dataLayer||[];function gtag(){dataLayer.push(arguments);}</script>` + "\n")
	if s.DeadMiner != nil {
		if ls, ok := familySpec(s.DeadMiner.Family); ok {
			fmt.Fprintf(&b, "<script src=%q></script>\n", ls.scriptURL)
			fmt.Fprintf(&b, "<script>"+ls.inline+"</script>\n", s.DeadMiner.Token)
		}
	}
	if s.AdNetwork == "cpmstar" {
		b.WriteString(`<script src="https://cdn.cpmstar.com/cached/js/cpmstar.js"></script>` + "\n")
	}
	if s.Miner != nil && s.Miner.OfficialLoader {
		if ls, ok := familySpec(s.Miner.Family); ok {
			fmt.Fprintf(&b, "<script src=%q></script>\n", ls.scriptURL)
			fmt.Fprintf(&b, "<script>"+ls.inline+"</script>\n", s.Miner.Token)
		} else {
			fmt.Fprintf(&b, "<script src=\"/js/app.%x.js\"></script>\n", s.Rank)
		}
	}
	if s.Miner != nil && !s.Miner.OfficialLoader {
		fmt.Fprintf(&b, "<script src=\"/js/main.%x.bundle.js\"></script>\n", s.Rank)
	}
	b.WriteString("</head><body>\n")
	fmt.Fprintf(&b, "<h1>Welcome to %s</h1>\n", s.Domain)
	for i := 0; i < 5; i++ {
		fmt.Fprintf(&b, "<p>Lorem ipsum %s content block %d for rank %d.</p>\n", cat, i, s.Rank)
	}
	b.WriteString("</body></html>\n")
	return b.String()
}

// refExecutedHTML is the final DOM the fmt-based Execute produced.
func refExecutedHTML(s *Site) string {
	html := refRenderStaticHTML(s)
	if s.Miner != nil && !s.Miner.OfficialLoader {
		inject := fmt.Sprintf("<script src=\"/js/wk.%x.js\"></script><script>window.__wk&&window.__wk.init('%s');</script>",
			s.Rank, s.Miner.Token)
		html = strings.Replace(html, "</body>", inject+"</body>", 1)
	}
	return html
}

// branchCorpus is a corpus of one TLD profile with miner, dead-miner and
// ad rates raised until every branch of the renderer runs.
func branchCorpus(tld TLD, n int) *Corpus {
	cfg := DefaultConfig(tld, n, 11)
	cfg.MinerWasmRate = 0.3
	cfg.OfficialLoaderFrac = 0.5
	cfg.DeadMinerRate = 0.2
	cfg.AdNetworkRate = 0.1
	return Generate(cfg)
}

func TestRenderMatchesFmtReference(t *testing.T) {
	n := 4000
	if testing.Short() {
		n = 1000
	}
	branches := map[string]int{}
	for _, tld := range []TLD{TLDAlexa, TLDCom, TLDNet, TLDOrg} {
		for _, s := range branchCorpus(tld, n).Sites {
			if got, want := RenderStaticHTML(s), refRenderStaticHTML(s); got != want {
				t.Fatalf("%s: RenderStaticHTML differs from the fmt reference\ngot:\n%s\nwant:\n%s", s.Domain, got, want)
			}
			if got, want := Execute(s).FinalHTML, refExecutedHTML(s); got != want {
				t.Fatalf("%s: Execute HTML differs from the fmt reference\ngot:\n%s\nwant:\n%s", s.Domain, got, want)
			}
			switch {
			case s.DeadMiner != nil:
				branches["dead"]++
			case s.AdNetwork == "cpmstar":
				branches["cpmstar"]++
			case s.Miner == nil:
			case !s.Miner.OfficialLoader:
				branches["self-hosted"]++
			case s.Miner.Family == "UnknownWSS":
				branches["official, uncatalogued"]++
			case strings.Contains(RenderStaticHTML(s), "/assets/js/"):
				branches["official, non-NoCoin family"]++
			default:
				branches["official, stock loader"]++
			}
		}
	}
	for _, b := range []string{"dead", "cpmstar", "self-hosted", "official, uncatalogued", "official, non-NoCoin family", "official, stock loader"} {
		if branches[b] == 0 {
			t.Errorf("no page took the %q branch: %v", b, branches)
		}
	}
}

func TestRenderAllocatesOnlyThePage(t *testing.T) {
	for _, s := range branchCorpus(TLDOrg, 200).Sites {
		if n := testing.AllocsPerRun(20, func() { RenderStaticHTML(s) }); n != 1 {
			t.Fatalf("%s: %v allocations per render, want 1 (the page)", s.Domain, n)
		}
	}
}

func BenchmarkRenderStaticHTML(b *testing.B) {
	sites := Generate(DefaultConfig(TLDAlexa, 1000, 1)).Sites
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RenderStaticHTML(sites[i%len(sites)])
	}
}
