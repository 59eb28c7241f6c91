package htmlx

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestExtractBasicScripts(t *testing.T) {
	doc := `<!doctype html><html><head>
<script src="https://coinhive.com/lib/coinhive.min.js"></script>
<SCRIPT TYPE="text/javascript">var miner = new CoinHive.Anonymous('KEY');</SCRIPT>
</head><body><p>hi</p></body></html>`
	scripts := ExtractScripts(doc)
	if len(scripts) != 2 {
		t.Fatalf("extracted %d scripts, want 2", len(scripts))
	}
	if scripts[0].Src != "https://coinhive.com/lib/coinhive.min.js" {
		t.Errorf("src = %q", scripts[0].Src)
	}
	if scripts[0].Inline != "" {
		t.Error("src script has inline body")
	}
	if !strings.Contains(scripts[1].Inline, "CoinHive.Anonymous") {
		t.Errorf("inline = %q", scripts[1].Inline)
	}
	if attrs := parseAttrs(` TYPE="text/javascript"`); attrs["type"] != "text/javascript" {
		t.Errorf("attrs = %v", attrs)
	}
}

func TestAttributeQuotingVariants(t *testing.T) {
	doc := `<script src='single.js'></script><script src=unquoted.js async></script>`
	s := ExtractScripts(doc)
	if len(s) != 2 {
		t.Fatalf("got %d scripts", len(s))
	}
	if s[0].Src != "single.js" || s[1].Src != "unquoted.js" {
		t.Errorf("srcs = %q, %q", s[0].Src, s[1].Src)
	}
	if _, ok := parseAttrs(` src=unquoted.js async`)["async"]; !ok {
		t.Error("boolean attribute lost")
	}
}

func TestTruncatedDocument(t *testing.T) {
	// Cut off mid-script, as a 256 kB capped download routinely is.
	doc := `<html><head><script>var a = 1; fetch("/lib/cryptonight.wasm"`
	s := ExtractScripts(doc)
	if len(s) != 1 {
		t.Fatalf("got %d scripts", len(s))
	}
	if !strings.Contains(s[0].Inline, "cryptonight.wasm") {
		t.Errorf("inline = %q", s[0].Inline)
	}
	// Truncated inside the opening tag: no usable script.
	if got := ExtractScripts(`<html><script src="x.js`); len(got) != 0 {
		t.Errorf("truncated open tag yielded %d scripts", len(got))
	}
}

func TestDoesNotMatchScriptPrefixTags(t *testing.T) {
	doc := `<scripted>nope</scripted><script>yes()</script>`
	s := ExtractScripts(doc)
	if len(s) != 1 || !strings.Contains(s[0].Inline, "yes()") {
		t.Errorf("scripts = %+v", s)
	}
}

func TestManyScriptsAndBodiesDoNotBleed(t *testing.T) {
	doc := strings.Repeat(`<script>a()</script><script src="b.js"></script>`, 50)
	s := ExtractScripts(doc)
	if len(s) != 100 {
		t.Fatalf("got %d scripts, want 100", len(s))
	}
	for i, sc := range s {
		if i%2 == 0 && sc.Inline != "a()" {
			t.Fatalf("script %d inline = %q", i, sc.Inline)
		}
		if i%2 == 1 && sc.Src != "b.js" {
			t.Fatalf("script %d src = %q", i, sc.Src)
		}
	}
}

func TestExtractTitle(t *testing.T) {
	if got := ExtractTitle(`<html><head><title>My Site</title></head>`); got != "My Site" {
		t.Errorf("title = %q", got)
	}
	if got := ExtractTitle(`<TITLE lang="en"> padded `); got != "padded" {
		t.Errorf("truncated title = %q", got)
	}
	if got := ExtractTitle(`<html><body>no title`); got != "" {
		t.Errorf("missing title = %q", got)
	}
}

func TestQuickNeverPanicsOnArbitraryInput(t *testing.T) {
	f := func(doc string) bool {
		ExtractScripts(doc)
		ExtractTitle(doc)
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickExtractFindsPlantedScript(t *testing.T) {
	f := func(prefix, suffix string) bool {
		// Keep the noise from containing script tags itself.
		clean := func(s string) string {
			return strings.NewReplacer("<", "(", ">", ")").Replace(s)
		}
		doc := clean(prefix) + `<script src="planted.js"></script>` + clean(suffix)
		for _, s := range ExtractScripts(doc) {
			if s.Src == "planted.js" {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkExtractScripts256K(b *testing.B) {
	page := strings.Repeat(`<div class="x">text</div><script src="/js/app.js"></script>`, 4500)
	b.SetBytes(int64(len(page)))
	for i := 0; i < b.N; i++ {
		ExtractScripts(page)
	}
}

func TestExtractScriptsSurvivesLengthChangingCaseFolds(t *testing.T) {
	// Ɱ (U+2C6E, 3 bytes) lowercases to ɱ (U+0271, 2 bytes); K (U+212A)
	// to k (1 byte). A scanner that indexes the original document with
	// offsets computed on a strings.ToLower copy drifts after such runes
	// and misparses everything behind them.
	for _, noise := range []string{"Ɱ", "K", "ɱȾⱾ İİİ", "plain ascii PREFIX"} {
		doc := noise + `<SCRIPT SRC="planted.js"></SCRIPT><title>T</title>`
		scripts := ExtractScripts(doc)
		if len(scripts) != 1 || scripts[0].Src != "planted.js" {
			t.Errorf("noise %q: scripts = %+v, want one with src planted.js", noise, scripts)
		}
		if got := ExtractTitle(doc); got != "T" {
			t.Errorf("noise %q: title = %q, want T", noise, got)
		}
	}
}

// TestIndexTagIsIndexOnAnASCIILoweredCopy holds indexTag to the definition
// it replaced: strings.Index on a copy of the document with A–Z lowered.
func TestIndexTagIsIndexOnAnASCIILoweredCopy(t *testing.T) {
	lowered := func(s string) string {
		b := []byte(s)
		for i, c := range b {
			if c >= 'A' && c <= 'Z' {
				b[i] = c + 'a' - 'A'
			}
		}
		return string(b)
	}
	// Documents drawn from the tags' own letters in both cases, so near and
	// full matches are common, plus multi-byte runes whose case folds
	// change length.
	alphabet := []string{"<", "</", "/", ">", "s", "S", "c", "C", "r", "i", "I", "p", "P", "t", "T", "title", "K", "Ɱ", " "}
	f := func(picks []uint8) bool {
		var b strings.Builder
		for _, p := range picks {
			b.WriteString(alphabet[int(p)%len(alphabet)])
		}
		doc := b.String()
		for _, tag := range []string{"<script", "</script", "<title", "</title"} {
			if got, want := indexTag(doc, tag), strings.Index(lowered(doc), tag); got != want {
				t.Logf("indexTag(%q, %q) = %d, want %d", doc, tag, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestScanningAPageWithoutScriptsAllocatesNothing(t *testing.T) {
	doc := strings.Repeat(`<DIV class="x">Text <span>more</span></DIV>`, 200) + `<TITLE>t</TITLE>`
	if n := testing.AllocsPerRun(100, func() {
		ExtractScripts(doc)
		ExtractTitle(doc)
	}); n != 0 {
		t.Errorf("%v allocations scanning a page with no script tag, want 0", n)
	}
}
