package webgen

import (
	"fmt"
	"strconv"
	"strings"

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

func (l *loader) write(b *strings.Builder, token string) {
	b.WriteString(l.head)
	b.WriteString(token)
	b.WriteString(l.tail)
}

// pageSizeHint pre-sizes a rendered landing page's buffer: pages come out at
// 0.6–0.85 kB, and growing a Builder there by doubling allocates and copies
// twice that.
const pageSizeHint = 896

// RenderStaticHTML produces the landing page as the HTTP server would send
// it — what the zgrab-style fetcher downloads and the NoCoin list scans.
// One allocation, the page: numbers go through a stack array, not fmt.
func RenderStaticHTML(s *Site) string {
	var b strings.Builder
	var num [20]byte
	b.Grow(pageSizeHint)
	cat := "site"
	if len(s.Categories) > 0 {
		cat = s.Categories[0]
	}
	b.WriteString("<!doctype html>\n<html><head>\n<title>")
	b.WriteString(s.Domain)
	b.WriteString(" — a ")
	b.WriteString(cat)
	b.WriteString(" website</title>\n" + `<meta charset="utf-8">` + "\n")
	// Ordinary supporting scripts every site has.
	b.WriteString(`<script src="https://code.jquery.com/jquery-3.3.1.min.js"></script>` + "\n")
	b.WriteString(`<script>window.dataLayer=window.dataLayer||[];function gtag(){dataLayer.push(arguments);}</script>` + "\n")

	if s.DeadMiner != nil {
		// The stock loader is there for any list to match; nothing will
		// ever run it.
		if l, ok := loaderFor(s.DeadMiner.Family); ok {
			l.write(&b, s.DeadMiner.Token)
		}
	}
	if s.AdNetwork == "cpmstar" {
		b.WriteString(`<script src="https://cdn.cpmstar.com/cached/js/cpmstar.js"></script>` + "\n")
	}
	if s.Miner != nil && s.Miner.OfficialLoader {
		if l, ok := loaderFor(s.Miner.Family); ok {
			l.write(&b, s.Miner.Token)
		} else {
			b.WriteString(`<script src="/js/app.`)
			b.Write(strconv.AppendInt(num[:0], int64(s.Rank), 16))
			b.WriteString(`.js"></script>` + "\n")
		}
	}
	if s.Miner != nil && !s.Miner.OfficialLoader {
		// Self-hosted deployment: nothing list-matchable in the static
		// HTML, just an opaque application bundle that drops the renamed
		// miner at runtime.
		b.WriteString(`<script src="/js/main.`)
		b.Write(strconv.AppendInt(num[:0], int64(s.Rank), 16))
		b.WriteString(`.bundle.js"></script>` + "\n")
	}
	b.WriteString("</head><body>\n<h1>Welcome to ")
	b.WriteString(s.Domain)
	b.WriteString("</h1>\n")
	rank10 := strconv.AppendInt(num[:0], int64(s.Rank), 10)
	for i := 0; i < 5; i++ {
		b.WriteString("<p>Lorem ipsum ")
		b.WriteString(cat)
		b.WriteString(" content block ")
		b.WriteByte(byte('0' + i))
		b.WriteString(" for rank ")
		b.Write(rank10)
		b.WriteString(".</p>\n")
	}
	b.WriteString("</body></html>\n")
	return b.String()
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
// dial their pool backend.
func Execute(s *Site) ExecutedArtifacts {
	html := RenderStaticHTML(s)
	var art ExecutedArtifacts
	if s.Miner != nil {
		if !s.Miner.OfficialLoader {
			// Runtime injection of the *renamed, self-hosted* miner: the
			// final HTML gains a script tag, but one that matches no block
			// list rule. Only the Wasm dump betrays it.
			inject := `<script src="/js/wk.` + strconv.FormatInt(int64(s.Rank), 16) +
				`.js"></script><script>window.__wk&&window.__wk.init('` + s.Miner.Token + `');</script>`
			html = strings.Replace(html, "</body>", inject+"</body>", 1)
		}
		art.Wasm = append(art.Wasm, minerBinary(s))
		art.WSHosts = append(art.WSHosts, backendHost(s))
	}
	if s.BenignWasm != nil {
		if spec, ok := fingerprint.SpecByName(s.BenignWasm.Family); ok {
			art.Wasm = append(art.Wasm, cachedBinary(spec, s.BenignWasm.Version%spec.Versions))
		}
	}
	art.FinalHTML = html
	return art
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
