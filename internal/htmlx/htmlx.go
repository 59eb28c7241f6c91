// Package htmlx is a small, truncation-tolerant HTML scanner that extracts
// <script> tags — the role lxml plays in the paper's §3.1 pipeline. The
// zgrab-style fetcher downloads only the first 256 kB of a landing page, so
// the parser must cope with documents cut off mid-tag and mid-script.
package htmlx

import "strings"

// Script is one extracted <script> element.
type Script struct {
	// Src is the value of the src attribute ("" for inline scripts).
	Src string
	// Inline is the script body for inline scripts.
	Inline string
	// Attrs holds all attributes (lower-case keys).
	Attrs map[string]string
}

// ExtractScripts scans doc for script tags. It is case-insensitive,
// tolerates unquoted/single-/double-quoted attributes, skips HTML comments,
// and treats an unterminated final script as inline content running to the
// end of the (possibly truncated) document.
func ExtractScripts(doc string) []Script {
	var out []Script
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
		attrs := parseAttrs(doc[after:tagEnd])
		s := Script{Attrs: attrs, Src: attrs["src"]}
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

// parseAttrs parses the attribute region of a tag.
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
