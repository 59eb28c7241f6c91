package webgen

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"unsafe"

	"repro/internal/fingerprint"
	"repro/internal/wasm"
)

// loaderSpec is how a miner family appears in page source.
type loaderSpec struct {
	scriptURL string // external loader script
	inline    string // inline start snippet; %s is the site token
	versions  int
}

// familySpec returns the loader shape for a catalog family; pages read it
// through loaders.
func familySpec(family string) (loaderSpec, bool) {
	spec, ok := fingerprint.SpecByName(family)
	if !ok {
		return loaderSpec{}, false
	}
	ls := loaderSpec{versions: spec.Versions}
	switch family {
	case fingerprint.FamilyCoinhive:
		ls.scriptURL = "https://coinhive.com/lib/coinhive.min.js"
		ls.inline = `var miner=new CoinHive.Anonymous('%s');miner.start();`
	case fingerprint.FamilyAuthedmine:
		ls.scriptURL = "https://authedmine.com/lib/authedmine.min.js"
		ls.inline = `var miner=new CoinHive.Anonymous('%s',{forceASMJS:false});miner.start();`
	case fingerprint.FamilyCryptoloot:
		ls.scriptURL = "https://crypto-loot.com/lib/miner.js"
		ls.inline = `var m=new CryptoLoot.Anonymous('%s');m.start();`
	case fingerprint.FamilyWpMonero:
		ls.scriptURL = "https://www.wp-monero-miner.com/js/wp-monero-miner.js"
		ls.inline = `wpMoneroMiner.start('%s');`
	case fingerprint.FamilyDeepMiner:
		ls.scriptURL = "https://deepminer.net/lib/deepminer.min.js"
		ls.inline = `var m=new deepMiner.Anonymous('%s');m.start();`
	default:
		// Families below the NoCoin radar ship self-hosted loaders with
		// unremarkable names — the reason block lists miss them even when
		// the tag is static.
		ls.scriptURL = "/assets/js/" + shortName(family) + "-loader.js"
		ls.inline = `window.__wk&&window.__wk.init('%s');`
	}
	return ls, true
}

func shortName(family string) string {
	s := strings.Map(func(r rune) rune {
		if r >= 'a' && r <= 'z' || r >= '0' && r <= '9' {
			return r
		}
		return -1
	}, strings.ToLower(family))
	if len(s) > 10 {
		s = s[:10]
	}
	return s
}

// loader is a family's loader as a page carries it: both <script>
// tags with the URL already quoted, split where the site token goes.
type loader struct {
	family     string
	head, tail string
	versions   int
}

// loaders holds one entry per catalogue family, built once from familySpec
// and only read after package init.
var loaders = func() []loader {
	var out []loader
	for _, spec := range fingerprint.Catalog() {
		ls, _ := familySpec(spec.Name)
		pre, post, _ := strings.Cut(ls.inline, "%s")
		out = append(out, loader{
			family:   spec.Name,
			head:     "<script src=" + strconv.Quote(ls.scriptURL) + "></script>\n<script>" + pre,
			tail:     post + "</script>\n",
			versions: ls.versions,
		})
	}
	return out
}()

func loaderFor(family string) (*loader, bool) {
	for i := range loaders {
		if loaders[i].family == family {
			return &loaders[i], true
		}
	}
	return nil, false
}

func (l *loader) appendTo(dst []byte, token string) []byte {
	dst = append(dst, l.head...)
	dst = append(dst, token...)
	return append(dst, l.tail...)
}

// pageSizeHint pre-sizes a rendered landing page's buffer: pages come out at
// 0.6–0.85 kB, and growing a buffer there by doubling allocates and copies
// twice that.
const pageSizeHint = 896

// RenderStaticHTML produces the landing page as the HTTP server would send
// it — what the zgrab-style fetcher downloads and the NoCoin list scans.
// One allocation, the page, viewed as a string the way strings.Builder
// does: nothing writes the buffer after AppendStaticHTML returns it.
func RenderStaticHTML(s *Site) string {
	b := AppendStaticHTML(nil, s)
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// AppendStaticHTML appends the page RenderStaticHTML returns to dst and
// returns the extended buffer. Numbers go through a stack array, not fmt.
// A dst with less than pageSizeHint bytes of room is replaced once, here,
// by one with that room, so a reused buffer stops allocating after its
// first page and a nil one allocates exactly once — on the heap, as this
// function is too large to inline into a caller that could keep the
// buffer on its stack.
func AppendStaticHTML(dst []byte, s *Site) []byte {
	var num [20]byte
	cat := "site"
	if len(s.Categories) > 0 {
		cat = s.Categories[0]
	}
	b := dst
	if cap(b)-len(b) < pageSizeHint {
		// Not slices.Grow: built with -race, its append of a make
		// allocates twice, and make check counts allocations under -race.
		b = append(make([]byte, 0, len(dst)+pageSizeHint), dst...)
	}
	b = append(b, "<!doctype html>\n<html><head>\n<title>"...)
	b = append(b, s.Domain...)
	b = append(b, " — a "...)
	b = append(b, cat...)
	b = append(b, " website</title>\n"+`<meta charset="utf-8">`+"\n"...)
	// Ordinary supporting scripts every site has.
	b = append(b, `<script src="https://code.jquery.com/jquery-3.3.1.min.js"></script>`+"\n"...)
	b = append(b, `<script>window.dataLayer=window.dataLayer||[];function gtag(){dataLayer.push(arguments);}</script>`+"\n"...)

	if s.deadMiner != nil {
		// The stock loader is there for any list to match; nothing will
		// ever run it.
		if l, ok := loaderFor(s.deadMiner.family); ok {
			b = l.appendTo(b, s.deadMiner.token)
		}
	}
	if s.adNetwork == "cpmstar" {
		b = append(b, `<script src="https://cdn.cpmstar.com/cached/js/cpmstar.js"></script>`+"\n"...)
	}
	if s.Miner != nil && s.Miner.OfficialLoader {
		if l, ok := loaderFor(s.Miner.Family); ok {
			b = l.appendTo(b, s.Miner.Token)
		} else {
			b = append(b, `<script src="/js/app.`...)
			b = strconv.AppendInt(b, int64(s.Rank), 16)
			b = append(b, `.js"></script>`+"\n"...)
		}
	}
	if s.Miner != nil && !s.Miner.OfficialLoader {
		// Self-hosted deployment: nothing list-matchable in the static
		// HTML, just an opaque application bundle that drops the renamed
		// miner at runtime.
		b = append(b, `<script src="/js/main.`...)
		b = strconv.AppendInt(b, int64(s.Rank), 16)
		b = append(b, `.bundle.js"></script>`+"\n"...)
	}
	b = append(b, "</head><body>\n<h1>Welcome to "...)
	b = append(b, s.Domain...)
	b = append(b, "</h1>\n"...)
	rank10 := strconv.AppendInt(num[:0], int64(s.Rank), 10)
	for i := 0; i < 5; i++ {
		b = append(b, "<p>Lorem ipsum "...)
		b = append(b, cat...)
		b = append(b, " content block "...)
		b = append(b, byte('0'+i))
		b = append(b, " for rank "...)
		b = append(b, rank10...)
		b = append(b, ".</p>\n"...)
	}
	return append(b, "</body></html>\n"...)
}

// ExecutedArtifacts is what running the page in a browser additionally
// surfaces: the final DOM, instantiated Wasm modules and dialled Websocket
// backends. The browser package drives this.
type ExecutedArtifacts struct {
	FinalHTML string
	Wasm      [][]byte
	WSHosts   []string
}

// Execute simulates script execution for a site: dynamic loaders inject
// their miner tags into the DOM, miners instantiate their Wasm payload and
// dial their pool backend. The final HTML is viewed as RenderStaticHTML's
// page is.
func Execute(s *Site) ExecutedArtifacts {
	b, art := AppendExecuted(nil, s)
	art.FinalHTML = unsafe.String(unsafe.SliceData(b), len(b))
	return art
}

// The self-hosted miner's runtime injection, around the site's rank in hex
// and its token.
const (
	wkHead = `<script src="/js/wk.`
	wkMid  = `.js"></script><script>window.__wk&&window.__wk.init('`
	wkTail = `');</script>`
)

// AppendExecuted is Execute in append form: it appends the final HTML to
// dst and returns the extended buffer with the other artifacts, whose
// FinalHTML it leaves "". A self-hosted miner's injection goes in front of
// the first </body> of the appended page, moved there in place.
func AppendExecuted(dst []byte, s *Site) ([]byte, ExecutedArtifacts) {
	start := len(dst)
	b := AppendStaticHTML(dst, s)
	var art ExecutedArtifacts
	if s.Miner != nil {
		if !s.Miner.OfficialLoader {
			// Runtime injection of the *renamed, self-hosted* miner: the
			// final HTML gains a script tag, but one that matches no block
			// list rule. Only the Wasm dump betrays it.
			if at := bytes.Index(b[start:], []byte("</body>")); at >= 0 {
				at += start
				n := len(b)
				b = append(b, wkHead...)
				b = strconv.AppendInt(b, int64(s.Rank), 16)
				b = append(b, wkMid...)
				b = append(b, s.Miner.Token...)
				b = append(b, wkTail...)
				// b[at:n] is "</body>" and what follows it, b[n:] the
				// injection: three reversals swap the two in place.
				slices.Reverse(b[at:n])
				slices.Reverse(b[n:])
				slices.Reverse(b[at:])
			}
		}
		art.Wasm = append(art.Wasm, minerBinary(s))
		art.WSHosts = append(art.WSHosts, backendHost(s))
	}
	if s.BenignWasm != nil {
		if spec, ok := fingerprint.SpecByName(s.BenignWasm.family); ok {
			art.Wasm = append(art.Wasm, cachedBinary(spec, s.BenignWasm.version%spec.Versions))
		}
	}
	return b, art
}

// minerBinary returns the Wasm payload a site's miner instantiates.
// UnknownWSS sites run an assembly that is *not* in anyone's signature
// database: a per-operator variant of a known kernel, mutated
// deterministically per token.
func minerBinary(s *Site) []byte {
	if s.Miner.Family == "UnknownWSS" {
		base, _ := fingerprint.SpecByName(fingerprint.FamilyCryptoloot)
		m, err := wasm.Decode(cachedBinary(base, s.Miner.Version%base.Versions))
		if err != nil {
			panic("webgen: reference binary does not decode: " + err.Error())
		}
		// Pad the first body with operator-specific NOPs: still a valid
		// module with miner-shaped features, but a signature nobody has.
		pad := make([]byte, 1+int(s.Miner.Token[4]%7))
		for i := range pad {
			pad[i] = 0x01 // nop
		}
		m.Codes[0].Body = append(pad, m.Codes[0].Body...)
		m.Names = nil // strip symbol hints too
		return wasm.Encode(m)
	}
	spec, ok := fingerprint.SpecByName(s.Miner.Family)
	if !ok {
		spec, _ = fingerprint.SpecByName(fingerprint.FamilyCoinhive)
	}
	return cachedBinary(spec, s.Miner.Version%spec.Versions)
}

// backendHost returns the Websocket endpoint a site's miner dials.
func backendHost(s *Site) string {
	if s.Miner.Family == "UnknownWSS" {
		return fmt.Sprintf("ws.pool-%s.io", s.Miner.Token[4:10])
	}
	spec, ok := fingerprint.SpecByName(s.Miner.Family)
	if !ok || spec.Backend == "" {
		return "ws.unknown.example"
	}
	return fmt.Sprintf("ws%03d.%s", s.Rank%32, spec.Backend)
}
