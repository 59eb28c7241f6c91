package nocoin

import (
	"reflect"
	"strings"
	"testing"
	"unicode"
	"unsafe"

	"repro/internal/htmlx"
	"repro/internal/webgen"
)

func TestParseRuleKinds(t *testing.T) {
	cases := []struct {
		line string
		kind RuleKind
	}{
		{"! a comment", KindComment},
		{"", KindComment},
		{"[Adblock Plus 2.0]", KindComment},
		{"||coinhive.com^", KindDomain},
		{"coinhive.min.js", KindSubstring},
		{`/CoinHive\.Anonymous/`, KindRegex},
		{"||cpmstar.com^$script,third-party", KindDomain},
	}
	for _, c := range cases {
		r, err := ParseRule(c.line)
		if err != nil {
			t.Errorf("ParseRule(%q): %v", c.line, err)
			continue
		}
		if r.Kind != c.kind {
			t.Errorf("ParseRule(%q).Kind = %v, want %v", c.line, r.Kind, c.kind)
		}
	}
}

func TestParseRuleErrors(t *testing.T) {
	if _, err := ParseRule(`/bad[regex/`); err == nil {
		t.Error("invalid regex accepted")
	}
	if _, err := ParseRule(`||^`); err == nil {
		t.Error("empty domain accepted")
	}
}

func TestDomainRuleMatching(t *testing.T) {
	l, err := ParseList("||coinhive.com^")
	if err != nil {
		t.Fatal(err)
	}
	hits := []string{
		"https://coinhive.com/lib/coinhive.min.js",
		"http://ws001.coinhive.com/proxy",
		"//coinhive.com/x",
		"https://COINHIVE.com/lib.js",
	}
	for _, u := range hits {
		if _, ok := l.MatchURL(u); !ok {
			t.Errorf("no match for %q", u)
		}
	}
	misses := []string{
		"https://notcoinhive.com/lib.js", // suffix must respect label boundary
		"https://coinhive.com.evil.org/x",
		"https://example.org/coinhive.html", // domain rules do not match paths
	}
	for _, u := range misses {
		if r, ok := l.MatchURL(u); ok {
			t.Errorf("unexpected match for %q (rule %q)", u, r.Raw)
		}
	}
}

func TestMatchURLLowersOnce(t *testing.T) {
	l := Bundled()
	for u, want := range map[string]string{
		"HTTPS://WWW.CoinHive.COM:443/x": "||coinhive.com^",
		"//Sub.CPMSTAR.com/a.js":         "||cpmstar.com^",
	} {
		if r, ok := l.MatchURL(u); !ok || r.Raw != want {
			t.Errorf("MatchURL(%q) = %q, %v; want %q", u, r.Raw, ok, want)
		}
	}
	if r, ok := l.MatchURL("https://notcoinhive.com/lib.js"); ok {
		t.Errorf("notcoinhive.com matched %q", r.Raw)
	}
}

func TestDomainRuleTestsTheLabelBoundaryInPlace(t *testing.T) {
	// The long rule outgrows the 32-byte stack buffer a "."+domain
	// concatenation may use, so building that string would allocate.
	l, err := ParseList("||coinhive.com^\n||a-rather-long-mining-pool-domain.example^")
	if err != nil {
		t.Fatal(err)
	}
	for u, want := range map[string]bool{
		"https://coinhive.com/lib.js":          true,
		"https://www.coinhive.com/lib.js":      true,
		"https://notcoinhive.com/lib.js":       false,
		"https://coinhive.com.evil.net/lib.js": false,
	} {
		if _, ok := l.MatchURL(u); ok != want {
			t.Errorf("MatchURL(%q) matched = %v, want %v", u, ok, want)
		}
	}
	bundled := Bundled()
	for _, u := range []string{"https://www.coinhive.com/lib/coinhive.min.js", "https://code.jquery.com/jquery-3.3.1.min.js"} {
		if n := testing.AllocsPerRun(100, func() { l.MatchURL(u); bundled.MatchURL(u) }); n != 0 {
			t.Errorf("MatchURL(%q): %v allocations, want 0", u, n)
		}
	}
}

func TestSubstringAndRegexMatching(t *testing.T) {
	l, err := ParseList("coinhive.min.js\n/CoinHive\\.(Anonymous|User)/")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := l.MatchURL("https://cdn.example.com/vendor/CoinHive.MIN.js"); !ok {
		t.Error("substring match should be case-insensitive")
	}
	if _, ok := l.MatchInline("var m = new CoinHive.Anonymous('k');"); !ok {
		t.Error("regex inline match failed")
	}
	if _, ok := l.MatchInline("console.log('nothing to see')"); ok {
		t.Error("benign inline matched")
	}
}

func TestMatchScriptsMixed(t *testing.T) {
	l := Bundled()
	matches := l.MatchScripts([]ScriptRef{
		{Src: "https://coinhive.com/lib/coinhive.min.js"},
		{Inline: "var miner=new CoinHive.Anonymous('SITEKEY');miner.start();"},
		{Src: "https://code.jquery.com/jquery-3.3.1.min.js"},
		{Inline: "function initCarousel(){}"},
	})
	if len(matches) != 2 {
		t.Fatalf("matches = %d, want 2", len(matches))
	}
}

func TestBundledListParsesAndCoversFamilies(t *testing.T) {
	l := Bundled()
	if len(l.Rules) < 10 {
		t.Fatalf("bundled list has only %d rules", len(l.Rules))
	}
	mustMatch := []string{
		"https://coinhive.com/lib/coinhive.min.js",
		"https://authedmine.com/lib/authedmine.min.js",
		"https://crypto-loot.com/lib/miner.js",
		"https://www.wp-monero-miner.com/js/miner.js",
	}
	for _, u := range mustMatch {
		if _, ok := l.MatchURL(u); !ok {
			t.Errorf("bundled list misses %q", u)
		}
	}
}

func TestBundledListHasTheCpmstarFalsePositive(t *testing.T) {
	// The paper: "we find false positives, e.g., cpmstar is a gaming
	// ad-network that we could not verify to contain mining code."
	l := Bundled()
	r, ok := l.MatchURL("https://cdn.cpmstar.com/cached/js/ad.js")
	if !ok {
		t.Fatal("cpmstar rule missing — the false-positive reproduction depends on it")
	}
	if !strings.Contains(r.Raw, "cpmstar") {
		t.Errorf("matched rule %q", r.Raw)
	}
}

func TestBundledDoesNotMatchPlainSites(t *testing.T) {
	l := Bundled()
	benign := []ScriptRef{
		{Src: "https://www.googletagmanager.com/gtag.js"},
		{Src: "/assets/app.bundle.js"},
		{Inline: "window.dataLayer=window.dataLayer||[];"},
	}
	if m := l.MatchScripts(benign); len(m) != 0 {
		t.Errorf("benign page matched: %+v", m)
	}
}

func TestRequiredLiteral(t *testing.T) {
	want := map[string]string{
		`/coin-?hive(\.min)?\.js/`:     "coin",
		`/wp-monero-miner/`:            "wp-monero-miner",
		`/CoinHive\.(Anonymous|User)/`: "coinhive.",
		`/new\s+CryptoLoot/`:           "cryptoloot",
		`/deepMiner\.Anonymous/`:       "deepminer.anonymou",
	}
	for _, r := range Bundled().Rules {
		if r.Kind != KindRegex {
			continue
		}
		lit, ok := want[r.Raw]
		if !ok {
			t.Errorf("bundled regex rule %q has no expected literal", r.Raw)
		}
		if r.lit != lit {
			t.Errorf("%s: lit = %q, want %q", r.Raw, r.lit, lit)
		}
		delete(want, r.Raw)
	}
	for raw := range want {
		t.Errorf("bundled list lost regex rule %q", raw)
	}
	for raw, lit := range map[string]string{
		`/cryptoloot|deepminer/`:   "",                // top-level alternation
		`/miner\s+wallet/`:         "wallet",          // \s+ breaks the run
		`/abc(def)?ghij/`:          "ghij",            // so does an optional group
		`/coinhive\.miner\.start/`: "coinhive.miner.", // cut at s
		`/monerokiller/`:           "monero",          // cut at k
		`/minería/`:                "miner",           // cut at non-ASCII
		`/xk/`:                     "x",
		`/sk/`:                     "",
	} {
		r, err := ParseRule(raw)
		if err != nil {
			t.Fatal(err)
		}
		if r.lit != lit {
			t.Errorf("%s: lit = %q, want %q", raw, r.lit, lit)
		}
	}
}

// TestFoldCutIsExactlyKS derives the cut set: the ASCII letters whose
// simple case-fold orbit leaves ASCII, where strings.ToLower may not map an
// orbit member onto the letter's own lower case.
func TestFoldCutIsExactlyKS(t *testing.T) {
	var leave []rune
	for c := 'a'; c <= 'z'; c++ {
		for f := unicode.SimpleFold(c); f != c; f = unicode.SimpleFold(f) {
			if f >= 0x80 {
				leave = append(leave, c)
				break
			}
		}
	}
	if string(leave) != "ks" {
		t.Fatalf("letters whose fold orbit leaves ASCII = %q, want \"ks\"", string(leave))
	}
}

// ungated returns a copy of l with every regex rule's literal cleared, so
// each regex rule runs its regexp unconditionally.
func ungated(l *List) *List {
	u := &List{Rules: append([]Rule(nil), l.Rules...)}
	for i := range u.Rules {
		u.Rules[i].lit = ""
	}
	return u
}

func FuzzGateAgreesWithRegex(f *testing.F) {
	for _, s := range []string{
		"deepMiner.Anonymou\u017f",
		"new\tCryptoLooT",
		"COIN-HIVE.MIN.JS",
		"CoinHive.User",
		"coinh\u0130ve.User \u212a wp-monero-miner",
		"coin\xffhive.js new \xc0CryptoLoot",
	} {
		f.Add(s)
	}
	gated := Bundled()
	plain := ungated(gated)
	f.Fuzz(func(t *testing.T, s string) {
		for _, m := range []func(*List, string) (Rule, bool){(*List).MatchInline, (*List).MatchURL} {
			g, gok := m(gated, s)
			p, pok := m(plain, s)
			if g.Raw != p.Raw || gok != pok {
				t.Fatalf("%q: gated (%q, %v), ungated (%q, %v)", s, g.Raw, gok, p.Raw, pok)
			}
		}
	})
}

func TestGateAgreesOnCorpus(t *testing.T) {
	gated := Bundled()
	plain := ungated(gated)
	// One Matcher across the whole corpus, so its lower-case buffer is
	// reused from script to script and page to page.
	reused := &Matcher{List: gated}
	var buf []Match
	matchers := []func([]ScriptRef) []Match{
		gated.MatchScripts,
		plain.MatchScripts,
		func(refs []ScriptRef) []Match { buf = reused.AppendMatches(buf[:0], refs); return buf },
	}
	regexHits := 0
	scan := func(match func([]ScriptRef) []Match, page string) (hits []string, regex int) {
		scripts := htmlx.ExtractScripts(page)
		refs := make([]ScriptRef, len(scripts))
		for i, s := range scripts {
			refs[i] = ScriptRef{Src: s.Src, Inline: s.Inline}
		}
		for _, m := range match(refs) {
			if m.Rule.Kind == KindRegex {
				regex++
			}
			hits = append(hits, m.Rule.Raw+" on "+m.Target)
		}
		return hits, regex
	}
	c := webgen.Generate(webgen.DefaultConfig(webgen.TLDAlexa, 20_000, 1))
	for _, s := range c.Sites {
		for _, page := range []string{webgen.RenderStaticHTML(s), webgen.Execute(s).FinalHTML} {
			g, regex := scan(matchers[0], page)
			regexHits += regex
			for _, m := range matchers[1:] {
				if p, _ := scan(m, page); !reflect.DeepEqual(g, p) {
					t.Fatalf("%s: gated matches %q, other matcher %q", s.Domain, g, p)
				}
			}
		}
	}
	if regexHits == 0 {
		t.Fatal("no regex rule matched the corpus: the comparison proves nothing")
	}
}

func FuzzLowerAgreesWithToLower(f *testing.F) {
	for _, s := range []string{
		"",
		"already lower",
		"Window.DataLayer",
		"CoinHive.Anonymous('TOK')",
		"K\u212aelvin \u017f",
		"caf\u00c9",
		"bad \xff byte",
		"@AZ[`az{ ABCDEFGHIJKLMNOPQRSTUVWXYZ 0123456789\x7f",
		"eight by\u00c9tes, then more",
	} {
		f.Add(s)
	}
	var buf []byte
	f.Fuzz(func(t *testing.T, s string) {
		want := strings.ToLower(s)
		got := lowerASCII(&buf, s)
		if got != want {
			t.Fatalf("lowerASCII(%q) = %q, strings.ToLower %q", s, got, want)
		}
		if want == s && len(s) > 0 && unsafe.StringData(got) != unsafe.StringData(s) {
			t.Fatalf("lowerASCII(%q) copied a text with nothing to lower", s)
		}
	})
}

func BenchmarkMatchScriptsBundled(b *testing.B) {
	l := Bundled()
	scripts := []ScriptRef{
		{Src: "https://code.jquery.com/jquery.min.js"},
		{Src: "/assets/main.js"},
		{Inline: "var x = 42; render(x);"},
		{Inline: "var coins = 3; bitcoin.render(coins);"}, // holds "coin", matches no rule
		{Src: "https://coinhive.com/lib/coinhive.min.js"},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.MatchScripts(scripts)
	}
}
