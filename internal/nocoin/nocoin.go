// Package nocoin implements an Adblock-filter-syntax subset sufficient for
// the NoCoin block list ("Block lists to prevent JavaScript miners") the
// paper evaluates in §3.1, plus a bundled list equivalent to the 2018
// snapshot. Supported rule forms:
//
//	! comment
//	||domain.tld^        domain-anchored match
//	plainsubstring       substring match on URLs
//	/regex/              regular-expression match (URLs and inline script text)
//	rule$options         options are parsed and retained but not enforced
//
// The engine matches script URLs and inline script bodies, which is exactly
// how the paper applied the list to extracted javascript tags.
//
// Each regex rule carries a literal that any match must contain, derived at
// parse time from the longest run of literal runes in its top-level
// concatenation. The matchers check it with strings.Contains on the
// lower-cased text they already hold and run the regexp only on a hit, so a
// script holding none of the literals never reaches a backtracker. The run
// is cut at non-ASCII runes and at k and s, the only ASCII letters whose
// case-fold orbit leaves ASCII (U+212A KELVIN SIGN, U+017F LONG S): every
// other literal rune the case-insensitive regexp matches lower-cases to the
// literal's own rune, so the check never rejects a text the regexp accepts.
package nocoin

import (
	"encoding/binary"
	"fmt"
	"regexp"
	"regexp/syntax"
	"strings"
	"unsafe"
)

// RuleKind discriminates the supported syntaxes.
type RuleKind int

// Rule kinds.
const (
	KindComment RuleKind = iota
	KindDomain
	KindSubstring
	KindRegex
)

// Rule is one parsed filter rule.
type Rule struct {
	Raw     string
	Kind    RuleKind
	Domain  string // KindDomain
	Needle  string // KindSubstring
	Re      *regexp.Regexp
	Options []string
	lit     string // KindRegex: lower-cased literal every match contains, or ""
}

// ParseRule parses a single filter line.
func ParseRule(line string) (Rule, error) {
	r := Rule{Raw: line}
	line = strings.TrimSpace(line)
	if line == "" || strings.HasPrefix(line, "!") || strings.HasPrefix(line, "[") {
		r.Kind = KindComment
		return r, nil
	}
	// Split $options (not inside a regex).
	body := line
	if !strings.HasPrefix(line, "/") {
		if i := strings.LastIndexByte(line, '$'); i >= 0 {
			body = line[:i]
			r.Options = strings.Split(line[i+1:], ",")
		}
	}
	switch {
	case strings.HasPrefix(body, "||"):
		r.Kind = KindDomain
		r.Domain = strings.ToLower(strings.TrimSuffix(strings.TrimPrefix(body, "||"), "^"))
		if r.Domain == "" {
			return r, fmt.Errorf("nocoin: empty domain rule %q", line)
		}
	case strings.HasPrefix(body, "/") && strings.HasSuffix(body, "/") && len(body) > 2:
		expr := "(?i)" + body[1:len(body)-1]
		re, err := regexp.Compile(expr)
		if err != nil {
			return r, fmt.Errorf("nocoin: bad regex rule %q: %w", line, err)
		}
		r.Kind = KindRegex
		r.Re = re
		r.lit = requiredLiteral(expr)
	default:
		r.Kind = KindSubstring
		r.Needle = strings.ToLower(body)
		if r.Needle == "" {
			return r, fmt.Errorf("nocoin: empty rule")
		}
	}
	return r, nil
}

// requiredLiteral returns the longest fold-safe run of literal runes in
// expr's top-level concatenation, lower-cased: text the expression matches
// contains it once lower-cased. It returns "" when there is no such run.
func requiredLiteral(expr string) string {
	re, err := syntax.Parse(expr, syntax.Perl)
	if err != nil {
		return ""
	}
	re = re.Simplify()
	subs := []*syntax.Regexp{re}
	if re.Op == syntax.OpConcat {
		subs = re.Sub
	}
	var best, run []byte
	cut := func() {
		if len(run) > len(best) {
			best = run
		}
		run = nil
	}
	for _, sub := range subs {
		if sub.Op != syntax.OpLiteral {
			cut()
			continue
		}
		for _, c := range sub.Rune {
			switch {
			case c >= 0x80, c == 'k', c == 'K', c == 's', c == 'S':
				cut()
			default:
				run = append(run, byte(c))
			}
		}
	}
	cut()
	return strings.ToLower(string(best))
}

// matchRegex runs a regex rule on text, whose lower-cased form is low,
// once low holds the rule's literal.
func (r *Rule) matchRegex(text, low string) bool {
	return (r.lit == "" || strings.Contains(low, r.lit)) && r.Re.MatchString(text)
}

// List is a parsed filter list.
type List struct {
	Rules []Rule
}

// ParseList parses a complete filter-list document, skipping comments.
// Malformed lines abort with an error (a corrupted block list silently
// matching nothing is worse than failing loudly).
func ParseList(text string) (*List, error) {
	var l List
	for ln, line := range strings.Split(text, "\n") {
		r, err := ParseRule(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", ln+1, err)
		}
		if r.Kind == KindComment {
			continue
		}
		l.Rules = append(l.Rules, r)
	}
	return &l, nil
}

// hostOf extracts the host portion of an already lower-cased URL-ish string.
func hostOf(s string) string {
	if i := strings.Index(s, "://"); i >= 0 {
		s = s[i+3:]
	} else {
		s = strings.TrimPrefix(s, "//") // protocol-relative URL
	}
	for _, cut := range []byte{'/', '?', '#', ':'} {
		if i := strings.IndexByte(s, cut); i >= 0 {
			s = s[:i]
		}
	}
	return s
}

// MatchURL checks a script URL against the list.
func (l *List) MatchURL(url string) (Rule, bool) {
	return l.matchURL(url, strings.ToLower(url))
}

// matchURL is MatchURL given low, url lower-cased.
func (l *List) matchURL(url, low string) (Rule, bool) {
	host := hostOf(low)
	for i := range l.Rules {
		r := &l.Rules[i] // a Rule is 13 words: ranging by value copies each
		switch r.Kind {
		case KindDomain:
			// host == r.Domain or ends in "."+r.Domain, tested in place.
			if k := len(host) - len(r.Domain); k >= 0 && host[k:] == r.Domain && (k == 0 || host[k-1] == '.') {
				return *r, true
			}
		case KindSubstring:
			if strings.Contains(low, r.Needle) {
				return *r, true
			}
		case KindRegex:
			if r.matchRegex(url, low) {
				return *r, true
			}
		}
	}
	return Rule{}, false
}

// MatchInline checks inline script text against the list's regex and
// substring rules (domain rules are URL-only by construction).
func (l *List) MatchInline(body string) (Rule, bool) {
	return l.matchInline(body, strings.ToLower(body))
}

// matchInline is MatchInline given low, body lower-cased.
func (l *List) matchInline(body, low string) (Rule, bool) {
	for i := range l.Rules {
		r := &l.Rules[i]
		switch r.Kind {
		case KindSubstring:
			if strings.Contains(low, r.Needle) {
				return *r, true
			}
		case KindRegex:
			if r.matchRegex(body, low) {
				return *r, true
			}
		}
	}
	return Rule{}, false
}

// ScriptRef is the minimal view of an extracted script tag the matcher
// needs (decoupled from the HTML scanner).
type ScriptRef struct {
	Src    string
	Inline string
}

// Match is a rule hit on a page.
type Match struct {
	Rule   Rule
	Target string // the matched URL or a snippet of inline text
}

// MatchScripts applies the list to all scripts of a page.
func (l *List) MatchScripts(scripts []ScriptRef) []Match {
	m := Matcher{List: l}
	return m.AppendMatches(nil, scripts)
}

// Matcher applies a List script after script, lowering each text into a
// buffer it reuses where MatchURL and MatchInline make a strings.ToLower
// copy. The lowered text is exactly strings.ToLower's, so the literal gate
// decides as it does there. A Matcher is for one goroutine at a time.
type Matcher struct {
	List *List
	low  []byte
}

// AppendMatches appends the list's matches on scripts to dst, as
// MatchScripts finds them, and returns the extended slice. Each Target is a
// substring of a script's Src or Inline.
func (m *Matcher) AppendMatches(dst []Match, scripts []ScriptRef) []Match {
	for _, s := range scripts {
		if s.Src != "" {
			if r, ok := m.List.matchURL(s.Src, lowerASCII(&m.low, s.Src)); ok {
				dst = append(dst, Match{Rule: r, Target: s.Src})
			}
			continue
		}
		if r, ok := m.List.matchInline(s.Inline, lowerASCII(&m.low, s.Inline)); ok {
			snippet := s.Inline
			if len(snippet) > 64 {
				snippet = snippet[:64]
			}
			dst = append(dst, Match{Rule: r, Target: snippet})
		}
	}
	return dst
}

// lowerASCII returns strings.ToLower(s). It returns s itself when s is
// ASCII with no upper-case letter, and otherwise lowers ASCII s into *buf,
// grown as needed, returning a view of it that the next call with the same
// buf overwrites. Text with any non-ASCII byte goes to strings.ToLower,
// whose Unicode mapping (and U+FFFD for invalid bytes) it does not repeat.
// It reads and lowers eight bytes at a time, without a branch on the
// bytes: whether a byte is a capital letter follows no pattern a branch
// predictor could learn.
func lowerASCII(buf *[]byte, s string) string {
	var high, upper uint64
	i := 0
	for ; i+8 <= len(s); i += 8 {
		w := word(s, i)
		high |= w
		upper |= upperBits(w)
	}
	for ; i < len(s); i++ {
		high |= uint64(s[i])
		upper |= upperBits(uint64(s[i]))
	}
	switch {
	case high&msbs != 0:
		return strings.ToLower(s)
	case upper == 0:
		return s
	}
	b := append((*buf)[:0], s...)
	i = 0
	for ; i+8 <= len(b); i += 8 {
		w := binary.LittleEndian.Uint64(b[i:])
		binary.LittleEndian.PutUint64(b[i:], w|upperBits(w)>>2)
	}
	for ; i < len(b); i++ {
		b[i] |= byte(upperBits(uint64(b[i])) >> 2)
	}
	*buf = b
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// Eight copies of a byte's low and high bit.
const (
	lsbs = 0x0101010101010101
	msbs = 0x8080808080808080
)

// word reads s[i:i+8] little-endian, one load once the compiler has
// combined the byte loads.
func word(s string, i int) uint64 {
	_ = s[i+7]
	return uint64(s[i]) | uint64(s[i+1])<<8 | uint64(s[i+2])<<16 | uint64(s[i+3])<<24 |
		uint64(s[i+4])<<32 | uint64(s[i+5])<<40 | uint64(s[i+6])<<48 | uint64(s[i+7])<<56
}

// upperBits sets bit 7 of each byte of w that is 'A' through 'Z', when no
// byte of w has bit 7 set itself (otherwise a carry may cross bytes, and
// the caller never reads the result). Adding 0x3f to such a byte sets its
// bit 7 from 'A' (0x41) up; adding 0x25, from 'Z'+1 (0x5b) up. Bit 7 moved
// down two is the 0x20 that lowers a capital.
func upperBits(w uint64) uint64 {
	return (w + 0x3f*lsbs) &^ (w + 0x25*lsbs) & msbs
}

// BundledText is our equivalent of the 2018 NoCoin snapshot: it covers the
// big mining services by script URL and backend domain, carries a few
// generic keyword rules — and, like the original, contains an overly broad
// entry (the cpmstar gaming ad network) that produces the false positives
// the paper documents.
const BundledText = `! NoCoin-equivalent filter list (2018-05 snapshot shape)
! --- mining services, by serving domain ---
||coinhive.com^
||authedmine.com^
||crypto-loot.com^
||webmine.cz^
||coinimp.com^
||monerise.com^
||deepminer.net^
||wp-monero-miner.com^
! --- common script names ---
coinhive.min.js
authedmine.min.js
cryptaloot.pro/lib
jsminer.js
/coin-?hive(\.min)?\.js/
/wp-monero-miner/
! --- generic miner symbols in inline code ---
/CoinHive\.(Anonymous|User)/
/new\s+CryptoLoot/
/deepMiner\.Anonymous/
! --- overbroad entries (source of the paper's false positives) ---
||cpmstar.com^
cpmstar.js
`

// Bundled parses BundledText; it panics on error because the constant is
// compiled in and covered by tests.
func Bundled() *List {
	l, err := ParseList(BundledText)
	if err != nil {
		panic(err)
	}
	return l
}
