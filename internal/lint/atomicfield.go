package lint

import (
	"go/ast"
	"go/types"
)

// atomicfield enforces the all-or-nothing rule for sync/atomic: once any
// code accesses a struct field through the sync/atomic functions
// (atomic.AddUint64(&s.f, …)), every other access anywhere in the repo
// must also go through sync/atomic — a plain read races with the atomic
// writers, and the race detector only catches it on the schedules the
// tests happen to exercise. (Fields of type atomic.Uint64 etc. are safe
// by construction and outside this analyzer's scope.)
func atomicfield() *Analyzer {
	return &Analyzer{
		Name: "atomicfield",
		Doc:  "a field accessed via sync/atomic may never be plainly read or written",
		run:  runAtomicfield,
	}
}

func runAtomicfield(prog *Program) []Finding {
	// Pass 1: collect every field that is the &-target of a sync/atomic
	// call, and the exact selector nodes inside those calls (exempt from
	// pass 2). Object identity is program-wide because all packages are
	// type-checked through one loader.
	atomicFields := map[*types.Var]ast.Node{} // field -> first atomic site
	exempt := map[ast.Expr]bool{}
	for _, pkg := range prog.Packages {
		info := pkg.info
		for _, file := range pkg.files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || !isSyncAtomicCall(info, call) || len(call.Args) == 0 {
					return true
				}
				unary, ok := call.Args[0].(*ast.UnaryExpr)
				if !ok {
					return true
				}
				if fld := fieldOf(info, unary.X); fld != nil {
					if _, seen := atomicFields[fld]; !seen {
						atomicFields[fld] = call
					}
					exempt[unary.X] = true
				}
				return true
			})
		}
	}
	if len(atomicFields) == 0 {
		return nil
	}

	// Pass 2: any other access to those fields is a plain (racy) access.
	var out []Finding
	for _, pkg := range prog.Packages {
		info := pkg.info
		for _, file := range pkg.files {
			ast.Inspect(file, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok || exempt[sel] {
					return true
				}
				fld := fieldOf(info, sel)
				if fld == nil {
					return true
				}
				if site, isAtomic := atomicFields[fld]; isAtomic {
					out = append(out, finding("atomicfield", prog.fset.Position(sel.Pos()),
						"plain access to %s.%s, which is accessed atomically at %s — use sync/atomic here too",
						fld.Pkg().Name(), fld.Name(), prog.fset.Position(site.Pos())))
				}
				return true
			})
		}
	}
	return out
}

// isSyncAtomicCall reports whether call is atomic.AddXxx/LoadXxx/etc.
func isSyncAtomicCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	ident, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := info.Uses[ident].(*types.PkgName)
	return ok && pn.Imported().Path() == "sync/atomic"
}

// fieldOf resolves expr to a struct field object, or nil.
func fieldOf(info *types.Info, expr ast.Expr) *types.Var {
	sel, ok := expr.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if selection, ok := info.Selections[sel]; ok && selection.Kind() == types.FieldVal {
		if v, ok := selection.Obj().(*types.Var); ok {
			return v
		}
	}
	return nil
}
