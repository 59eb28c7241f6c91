package htmlx

import (
	"reflect"
	"strings"
	"testing"
	"unicode"
)

// parseAttrs is the map-building attribute parser srcAttr replaced, kept
// as the definition srcAttr must agree with.
func parseAttrs(s string) map[string]string {
	attrs := map[string]string{}
	i := 0
	n := len(s)
	for i < n {
		// Skip whitespace and stray slashes.
		for i < n && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' || s[i] == '\r' || s[i] == '/') {
			i++
		}
		if i >= n {
			break
		}
		// Attribute name.
		start := i
		for i < n && s[i] != '=' && s[i] != ' ' && s[i] != '\t' && s[i] != '\n' && s[i] != '\r' && s[i] != '/' {
			i++
		}
		name := strings.ToLower(s[start:i])
		if name == "" {
			i++
			continue
		}
		// Skip whitespace before a possible '='.
		for i < n && (s[i] == ' ' || s[i] == '\t') {
			i++
		}
		if i >= n || s[i] != '=' {
			attrs[name] = "" // boolean attribute (async, defer)
			continue
		}
		i++ // consume '='
		for i < n && (s[i] == ' ' || s[i] == '\t') {
			i++
		}
		if i >= n {
			attrs[name] = ""
			break
		}
		var val string
		switch s[i] {
		case '"', '\'':
			q := s[i]
			i++
			end := strings.IndexByte(s[i:], q)
			if end < 0 {
				val = s[i:] // truncated quoted value
				i = n
			} else {
				val = s[i : i+end]
				i += end + 1
			}
		default:
			start := i
			for i < n && s[i] != ' ' && s[i] != '\t' && s[i] != '\n' && s[i] != '\r' {
				i++
			}
			val = s[start:i]
		}
		attrs[name] = val
	}
	return attrs
}

func FuzzSrcAgreesWithMap(f *testing.F) {
	for _, seed := range []string{
		` ſrc=x`, ` SRC=a src=b`, ` src`, ` src='x`, ` src = "a b"`, " src=\xff\xfe", " \xc5src=x",
		` src="a" async src`, ` type="text/javascript" src=x.js defer`, ` =src=x`, ` /src/=y`, ` Src=`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, region string) {
		if got, want := srcAttr(region), parseAttrs(region)["src"]; got != want {
			t.Errorf("srcAttr(%q) = %q, the attribute map reads %q", region, got, want)
		}
	})
}

// TestOnlyASCIILowersToSrcLetters is why srcAttr's ASCII folding equals
// the reference's strings.ToLower: no other rune lowers to s, r or c.
func TestOnlyASCIILowersToSrcLetters(t *testing.T) {
	for r := rune(0x80); r <= unicode.MaxRune; r++ {
		if l := unicode.ToLower(r); l == 's' || l == 'r' || l == 'c' {
			t.Errorf("%U lowers to %q", r, l)
		}
	}
}

func TestExtractingAFourScriptPageAllocatesOnce(t *testing.T) {
	doc := `<html><head><script src="https://code.jquery.com/jquery-3.3.1.min.js"></script>
<script>window.dataLayer=[];</script>
<script src="https://coinhive.com/lib/coinhive.min.js" async></script>
<script>var miner=new CoinHive.Anonymous('tok');miner.start();</script>
</head><body></body></html>`
	if got := len(ExtractScripts(doc)); got != 4 {
		t.Fatalf("extracted %d scripts, want 4", got)
	}
	if n := testing.AllocsPerRun(100, func() { ExtractScripts(doc) }); n > 1 {
		t.Errorf("%v allocations extracting four scripts, want at most 1", n)
	}
}

func TestAppendScriptsReusesItsBuffer(t *testing.T) {
	doc := `<script src="/a.js"></script><script>go()</script><SCRIPT src='/b.js' async></SCRIPT>`
	want := ExtractScripts(doc)
	got := AppendScripts([]Script{{Src: "kept"}}, doc)
	if len(got) != 1+len(want) || got[0].Src != "kept" || !reflect.DeepEqual(got[1:], want) {
		t.Fatalf("AppendScripts onto one script = %+v, want kept + %+v", got, want)
	}
	buf := AppendScripts(nil, doc)
	if n := testing.AllocsPerRun(100, func() { buf = AppendScripts(buf[:0], doc) }); n != 0 {
		t.Errorf("%v allocations extracting into a reused buffer, want 0", n)
	}
}
