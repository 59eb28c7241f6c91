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
	"fmt"
	"regexp"
	"regexp/syntax"
	"strings"
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
	low := strings.ToLower(url)
	host := hostOf(low)
	for _, r := range l.Rules {
		switch r.Kind {
		case KindDomain:
			// host == r.Domain or ends in "."+r.Domain, tested in place.
			if k := len(host) - len(r.Domain); k >= 0 && host[k:] == r.Domain && (k == 0 || host[k-1] == '.') {
				return r, true
			}
		case KindSubstring:
			if strings.Contains(low, r.Needle) {
				return r, true
			}
		case KindRegex:
			if r.matchRegex(url, low) {
				return r, true
			}
		}
	}
	return Rule{}, false
}

// MatchInline checks inline script text against the list's regex and
// substring rules (domain rules are URL-only by construction).
func (l *List) MatchInline(body string) (Rule, bool) {
	low := strings.ToLower(body)
	for _, r := range l.Rules {
		switch r.Kind {
		case KindSubstring:
			if strings.Contains(low, r.Needle) {
				return r, true
			}
		case KindRegex:
			if r.matchRegex(body, low) {
				return r, true
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
	var out []Match
	for _, s := range scripts {
		if s.Src != "" {
			if r, ok := l.MatchURL(s.Src); ok {
				out = append(out, Match{Rule: r, Target: s.Src})
			}
			continue
		}
		if r, ok := l.MatchInline(s.Inline); ok {
			snippet := s.Inline
			if len(snippet) > 64 {
				snippet = snippet[:64]
			}
			out = append(out, Match{Rule: r, Target: snippet})
		}
	}
	return out
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
