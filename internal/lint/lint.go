// Package lint is the repo's project-specific static-analysis suite: a
// small framework (stdlib only — go/parser, go/ast, go/types with a
// source importer) plus six analyzers. lockscope, hotpath, atomicfield,
// metricname and layering machine-check the invariants the concurrent
// pool core's correctness rests on; exportuse keeps the exported surface
// down to what other packages (their tests and benchmark/ included) use.
// The rules were each motivated by a real PR and are documented in
// DESIGN.md ("Enforced invariants", "The exported surface"); `make lint`
// (cmd/repolint) runs them over every package and `make check` gates on
// a clean run.
//
// Findings are suppressable only with an explicit, reasoned waiver:
//
//	//lint:ignore <analyzer> <reason>
//
// on the offending line or the line directly above it. A directive
// without a reason is itself a finding.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Finding is one analyzer diagnostic.
type Finding struct {
	Analyzer string         `json:"analyzer"`
	Pos      token.Position `json:"-"`
	File     string         `json:"file"`
	Line     int            `json:"line"`
	Col      int            `json:"col"`
	Message  string         `json:"message"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
}

// Analyzer is one pass over the program. Run inspects every package it
// cares about and returns raw findings; the driver applies the ignore
// directives afterwards, so analyzers never see suppression logic.
type Analyzer struct {
	Name string
	Doc  string
	run  func(prog *Program) []Finding
}

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		lockscope(),
		hotpath(),
		atomicfield(),
		metricname(),
		layering(),
		exportuse(),
	}
}

// Run executes the given analyzers over prog, applies the //lint:ignore
// directives and returns the surviving findings sorted by position.
// Malformed directives (unknown analyzer name or missing reason) are
// reported as findings of the pseudo-analyzer "lint".
func Run(prog *Program, analyzers []*Analyzer) []Finding {
	known := map[string]bool{"lint": true}
	for _, a := range analyzers {
		known[a.Name] = true
	}
	ignores, bad := collectIgnores(prog, known)

	var out []Finding
	out = append(out, bad...)
	for _, a := range analyzers {
		for _, f := range a.run(prog) {
			if !ignores.covers(a.Name, f.Pos) {
				out = append(out, f)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		if out[i].Line != out[j].Line {
			return out[i].Line < out[j].Line
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out
}

// ignoreSet records, per file and analyzer, the source lines a
// //lint:ignore directive covers (its own line and the next line, so the
// directive can ride above or at the end of the offending statement).
type ignoreSet map[string]map[int]bool // "file\x00analyzer" -> lines

func (s ignoreSet) add(file, analyzer string, line int) {
	key := file + "\x00" + analyzer
	if s[key] == nil {
		s[key] = map[int]bool{}
	}
	s[key][line] = true
	s[key][line+1] = true
}

func (s ignoreSet) covers(analyzer string, pos token.Position) bool {
	if lines, ok := s[pos.Filename+"\x00"+analyzer]; ok && lines[pos.Line] {
		return true
	}
	return false
}

const ignorePrefix = "//lint:ignore"

// collectIgnores scans every comment in the program's packages for ignore
// directives. Each must name a known analyzer and carry a non-empty
// reason — an unexplained waiver defeats the point of machine-checking.
func collectIgnores(prog *Program, known map[string]bool) (ignoreSet, []Finding) {
	set := ignoreSet{}
	var bad []Finding
	for _, pkg := range prog.Packages {
		for _, file := range pkg.files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					if !strings.HasPrefix(c.Text, ignorePrefix) {
						continue
					}
					rest := strings.TrimPrefix(c.Text, ignorePrefix)
					pos := prog.fset.Position(c.Pos())
					if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
						continue // some other //lint:ignoreX token
					}
					fields := strings.Fields(rest)
					switch {
					case len(fields) == 0 || !known[fields[0]]:
						bad = append(bad, finding("lint", pos,
							"malformed ignore directive: want //lint:ignore <analyzer> <reason>"))
					case len(fields) < 2:
						bad = append(bad, finding("lint", pos,
							"ignore directive for %q has no reason; waivers must say why", fields[0]))
					default:
						set.add(pos.Filename, fields[0], pos.Line)
					}
				}
			}
		}
	}
	return set, bad
}

func finding(analyzer string, pos token.Position, format string, args ...interface{}) Finding {
	return Finding{
		Analyzer: analyzer,
		Pos:      pos,
		File:     pos.Filename,
		Line:     pos.Line,
		Col:      pos.Column,
		Message:  fmt.Sprintf(format, args...),
	}
}

// docHasDirective reports whether a function's doc comment (or a line
// comment group directly above it) carries the given //lint:* directive.
func docHasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		text := strings.TrimSpace(c.Text)
		if text == directive || strings.HasPrefix(text, directive+" ") {
			return true
		}
	}
	return false
}

// exprString renders a simple expression (identifiers and selectors) the
// way it appears in source — good enough to key held locks by.
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.ParenExpr:
		return exprString(e.X)
	case *ast.StarExpr:
		return "*" + exprString(e.X)
	case *ast.IndexExpr:
		return exprString(e.X) + "[" + exprString(e.Index) + "]"
	case *ast.BasicLit:
		return e.Value
	default:
		return fmt.Sprintf("%T", e)
	}
}
