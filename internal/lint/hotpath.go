package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// hotpathDirective marks a function whose body must stay free of obvious
// allocation sites. PRs 2–3 pinned the keccak/cryptonight/metrics paths
// at 0 allocs with AllocsPerRun tests; the marks make the *reason* those
// tests pass machine-checked at the source level, so a stray fmt.Sprintf
// or closure fails `make lint` before it fails a benchmark.
const hotpathDirective = "//lint:hotpath"

// hotpath flags, inside functions whose doc comment carries
// //lint:hotpath: fmt.* calls, string concatenation, closures, map and
// slice composite literals, &composite literals, new/make, and
// string<->[]byte conversions.
func hotpath() *Analyzer {
	return &Analyzer{
		Name: "hotpath",
		Doc:  "//lint:hotpath functions must not contain obvious allocation sites",
		run:  runHotpath,
	}
}

func runHotpath(prog *Program) []Finding {
	var out []Finding
	for _, pkg := range prog.Packages {
		for _, file := range pkg.files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil || !docHasDirective(fn.Doc, hotpathDirective) {
					continue
				}
				out = append(out, checkHotBody(prog, pkg, fn)...)
			}
		}
	}
	return out
}

func checkHotBody(prog *Program, pkg *Package, fn *ast.FuncDecl) []Finding {
	var out []Finding
	report := func(pos token.Pos, format string, args ...interface{}) {
		out = append(out, finding("hotpath", prog.fset.Position(pos),
			"hot function %s: "+format, append([]interface{}{fn.Name.Name}, args...)...))
	}
	info := pkg.info
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				if ident, ok := sel.X.(*ast.Ident); ok {
					if pn, ok := info.Uses[ident].(*types.PkgName); ok && pn.Imported().Path() == "fmt" {
						report(n.Pos(), "fmt.%s allocates (reflection + boxing)", sel.Sel.Name)
					}
				}
			}
			if ident, ok := n.Fun.(*ast.Ident); ok {
				switch ident.Name {
				case "make", "new":
					if _, isBuiltin := info.Uses[ident].(*types.Builtin); isBuiltin {
						report(n.Pos(), "%s allocates", ident.Name)
					}
				}
			}
			if conv, bad := stringByteConversion(info, n); bad {
				report(n.Pos(), "%s conversion allocates a copy", conv)
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isStringType(info.TypeOf(n)) {
				report(n.Pos(), "string concatenation allocates")
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isStringType(info.TypeOf(n.Lhs[0])) {
				report(n.Pos(), "string += allocates")
			}
		case *ast.CompositeLit:
			switch info.TypeOf(n).Underlying().(type) {
			case *types.Map:
				report(n.Pos(), "map literal allocates")
				return false
			case *types.Slice:
				report(n.Pos(), "slice literal allocates")
				return false
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, isLit := n.X.(*ast.CompositeLit); isLit {
					report(n.Pos(), "&composite literal escapes to the heap")
				}
			}
		case *ast.FuncLit:
			report(n.Pos(), "closure allocates (captured variables escape)")
			return false
		case *ast.GoStmt:
			report(n.Pos(), "goroutine launch on a hot path")
		}
		return true
	})
	return out
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	basic, ok := t.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsString != 0
}

func isByteSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	slice, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	basic, ok := slice.Elem().Underlying().(*types.Basic)
	return ok && (basic.Kind() == types.Byte || basic.Kind() == types.Rune)
}

// stringByteConversion detects string([]byte) / []byte(string) style
// conversions, each of which copies.
func stringByteConversion(info *types.Info, call *ast.CallExpr) (string, bool) {
	tv, ok := info.Types[call.Fun]
	if !ok || !tv.IsType() || len(call.Args) != 1 {
		return "", false
	}
	dst := tv.Type
	src := info.TypeOf(call.Args[0])
	switch {
	case isStringType(dst) && isByteSlice(src):
		return "[]byte -> string", true
	case isByteSlice(dst) && isStringType(src):
		return "string -> []byte", true
	}
	return "", false
}
