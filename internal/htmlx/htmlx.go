// Package htmlx is a small, truncation-tolerant HTML scanner that extracts
// <script> tags — the role lxml plays in the paper's §3.1 pipeline. The
// zgrab-style fetcher downloads only the first 256 kB of a landing page, so
// the parser must cope with documents cut off mid-tag and mid-script.
package htmlx

import "strings"

// Script is one extracted <script> element: only what the NoCoin match
// reads. Other attributes (type, async) are parsed past, never stored.
type Script struct {
	// Src is the value of the src attribute ("" for inline scripts).
	Src string
	// Inline is the script body for inline scripts.
	Inline string
}

// ExtractScripts scans doc for script tags. It is case-insensitive,
// tolerates unquoted/single-/double-quoted attributes, skips HTML comments,
// and treats an unterminated final script as inline content running to the
// end of the (possibly truncated) document.
func ExtractScripts(doc string) []Script {
	var out []Script // made at the first tag, with room for a landing page's 2–4
	pos := 0
	for {
		i := indexTag(doc[pos:], "<script")
		if i < 0 {
			break
		}
		i += pos
		// Guard against matching "<scriptx"; require delimiter after name.
		after := i + len("<script")
		if after < len(doc) && !isTagDelim(doc[after]) {
			pos = after
			continue
		}
		// Find the end of the opening tag.
		gt := strings.IndexByte(doc[after:], '>')
		if gt < 0 {
			// Truncated inside the opening tag: attributes unusable.
			break
		}
		tagEnd := after + gt
		if out == nil {
			out = make([]Script, 0, 8)
		}
		s := Script{Src: srcAttr(doc[after:tagEnd])}
		// Find the closing tag.
		close := indexTag(doc[tagEnd+1:], "</script")
		if close < 0 {
			s.Inline = doc[tagEnd+1:]
			out = append(out, s)
			break
		}
		bodyEnd := tagEnd + 1 + close
		if s.Src == "" {
			s.Inline = doc[tagEnd+1 : bodyEnd]
		}
		out = append(out, s)
		pos = bodyEnd + len("</script")
	}
	return out
}

func isTagDelim(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '>' || c == '/'
}

// indexTag returns the index of the first occurrence of tag in s, ASCII
// letters compared case-insensitively, or -1. tag is lower-case and starts
// with '<'. It reads s in place: a lowered copy of the document would cost
// two page-sized allocations per call, and strings.ToLower would also fold
// multi-byte characters whose lower form has a different encoded length
// (Ɱ→ɱ, K→k), desynchronising indices from the original — tag names are
// ASCII, so ASCII folding is all case-insensitivity requires.
func indexTag(s, tag string) int {
	for at := 0; ; at++ {
		i := strings.IndexByte(s[at:], '<')
		if i < 0 {
			return -1
		}
		at += i
		if hasPrefixFold(s[at:], tag) {
			return at
		}
	}
}

// hasPrefixFold reports whether s begins with the lower-case prefix, ASCII
// upper-case letters in s counting as their lower-case forms.
func hasPrefixFold(s, prefix string) bool {
	if len(s) < len(prefix) {
		return false
	}
	for i := 0; i < len(prefix); i++ {
		c := s[i]
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != prefix[i] {
			return false
		}
	}
	return true
}

// srcAttr returns the src attribute's value in the attribute region of a
// tag: the last occurrence wins, and a bare or truncated src reads "". It
// scans in place and stores no attribute. Names compare with ASCII
// folding, which for "src" equals strings.ToLower then ==; EqualFold
// would not, as Unicode folds ſ (U+017F) to s.
func srcAttr(s string) string {
	src := ""
	i, n := 0, len(s)
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
		if i == start {
			i++
			continue
		}
		isSrc := i-start == len("src") && hasPrefixFold(s[start:i], "src")
		// Skip whitespace before a possible '='.
		for i < n && (s[i] == ' ' || s[i] == '\t') {
			i++
		}
		val := "" // boolean attribute (async, defer) unless an '=' follows
		if i < n && s[i] == '=' {
			i++ // consume '='
			for i < n && (s[i] == ' ' || s[i] == '\t') {
				i++
			}
			switch {
			case i >= n:
			case s[i] == '"' || s[i] == '\'':
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
		}
		if isSrc {
			src = val
		}
	}
	return src
}

// ExtractTitle returns the document title, or "".
func ExtractTitle(doc string) string {
	i := indexTag(doc, "<title")
	if i < 0 {
		return ""
	}
	gt := strings.IndexByte(doc[i:], '>')
	if gt < 0 {
		return ""
	}
	start := i + gt + 1
	end := indexTag(doc[start:], "</title")
	if end < 0 {
		return strings.TrimSpace(doc[start:])
	}
	return strings.TrimSpace(doc[start : start+end])
}
