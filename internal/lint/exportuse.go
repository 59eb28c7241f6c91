package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// exportuse keeps the exported surface down to what other packages use.
// It flags an exported package-level func, var, const or type, or an
// exported method or field, declared in a non-main package, that no other
// package refers to. Other packages' test files, a package's own external
// _test package and benchmark/ all count as other packages. A reference
// is a types.Info Uses entry, mapped through Origin so a generic type's
// methods and fields are found through their instances. (Unkeyed struct
// literals would name fields without one, but vet's composites check
// keeps them off imported types.)
//
// Exempt, because lower-casing them would break a contract no reference
// shows:
//   - methods that satisfy an interface (fmt.Stringer, http.Handler,
//     net.Conn, a module interface, ...);
//   - methods of a module interface that a type in another package
//     implements;
//   - embedded fields, and fields with struct tags (encoding/json reads
//     an untagged field's name by reflection, so a wire-format field
//     gets a tag);
//   - type names in the type or signature of a name another package uses.
func exportuse() *Analyzer {
	return &Analyzer{
		Name: "exportuse",
		Doc:  "an exported name must be referred to by another package (tests and benchmark/ count)",
		run:  runExportuse,
	}
}

type exportDecl struct {
	obj  types.Object
	kind string // func, var, const, type, method, field
	name string // Name, or Owner.Name for methods and fields
}

func runExportuse(prog *Program) []Finding {
	decls := map[token.Pos]*exportDecl{}
	ifaces := map[*types.TypeName]bool{} // module interfaces with exported methods
	for _, pkg := range prog.Packages {
		if pkg.types.Name() != "main" {
			collectExports(pkg, decls, ifaces)
		}
	}
	units := append(append([]*Package{}, prog.Packages...), prog.tests...)
	used := map[token.Pos]bool{}   // referred to by another package
	inProd := map[token.Pos]bool{} // referred to by any non-test code
	for i, u := range units {
		for _, obj := range u.info.Uses {
			switch o := obj.(type) {
			case *types.Func:
				obj = o.Origin()
			case *types.Var:
				obj = o.Origin()
			}
			if obj.Pkg() == nil || decls[obj.Pos()] == nil {
				continue
			}
			if obj.Pkg().Path() != u.types.Path() {
				used[obj.Pos()] = true
			}
			if i < len(prog.Packages) {
				inProd[obj.Pos()] = true
			}
		}
	}
	exempt := map[token.Pos]bool{}
	exemptIfaceMethods(prog, units, decls, ifaces, used, exempt)
	exemptSignatureTypes(decls, used, exempt)

	var out []Finding
	for pos, d := range decls {
		if used[pos] || exempt[pos] {
			continue
		}
		msg := "exported %s %s is used by no other package; unexport it"
		if !inProd[pos] && d.kind != "type" {
			msg = "exported %s %s is used by no other package and by no non-test code; delete it"
		}
		out = append(out, finding("exportuse", prog.fset.Position(pos), msg, d.kind, d.name))
	}
	return out
}

// collectExports records the exported names a package declares at
// package level: funcs, methods, vars, consts, types, and the untagged,
// named fields and the interface methods inside its type declarations.
func collectExports(pkg *Package, decls map[token.Pos]*exportDecl, ifaces map[*types.TypeName]bool) {
	add := func(id *ast.Ident, kind, name string) {
		if obj := pkg.info.Defs[id]; obj != nil && id.IsExported() {
			decls[obj.Pos()] = &exportDecl{obj: obj, kind: kind, name: name}
		}
	}
	for _, file := range pkg.files {
		for _, d := range file.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add(d.Name, "func", d.Name.Name)
				} else if fn, ok := pkg.info.Defs[d.Name].(*types.Func); ok {
					recv := namedOf(fn.Type().(*types.Signature).Recv().Type())
					add(d.Name, "method", recv.Obj().Name()+"."+d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.ValueSpec:
						for _, id := range s.Names {
							add(id, d.Tok.String(), id.Name)
						}
					case *ast.TypeSpec:
						add(s.Name, "type", s.Name.Name)
						ast.Inspect(s.Type, func(n ast.Node) bool {
							switch n := n.(type) {
							case *ast.StructType:
								for _, f := range n.Fields.List {
									for _, id := range f.Names {
										if f.Tag == nil {
											add(id, "field", s.Name.Name+"."+id.Name)
										}
									}
								}
							case *ast.InterfaceType:
								for _, m := range n.Methods.List {
									for _, id := range m.Names {
										add(id, "method", s.Name.Name+"."+id.Name)
										if id.IsExported() {
											ifaces[pkg.info.Defs[s.Name].(*types.TypeName)] = true
										}
									}
								}
							}
							return true
						})
					}
				}
			}
		}
	}
}

// exemptIfaceMethods exempts every concrete method that satisfies some
// interface the program or its dependencies declare, and marks a module
// interface's methods used when a type in another package implements it.
func exemptIfaceMethods(prog *Program, units []*Package, decls map[token.Pos]*exportDecl,
	ifaces map[*types.TypeName]bool, used, exempt map[token.Pos]bool) {
	byMethod := map[string][]*types.Interface{}
	addIface := func(t types.Type) {
		if it, ok := t.(*types.Interface); ok && it.IsMethodSet() {
			for i := 0; i < it.NumMethods(); i++ {
				byMethod[it.Method(i).Name()] = append(byMethod[it.Method(i).Name()], it)
			}
		}
	}
	scopes := []*types.Scope{types.Universe}
	for _, tp := range prog.loader.deps {
		scopes = append(scopes, tp.Scope())
	}
	for _, u := range units {
		scopes = append(scopes, u.types.Scope())
		for _, file := range u.files {
			ast.Inspect(file, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					addIface(u.info.TypeOf(it))
				}
				return true
			})
		}
	}
	var named []*types.TypeName // non-generic, non-interface
	for _, sc := range scopes {
		for _, name := range sc.Names() {
			if tn, ok := sc.Lookup(name).(*types.TypeName); ok {
				if types.IsInterface(tn.Type()) {
					addIface(tn.Type().Underlying())
				} else if nt := namedOf(tn.Type()); nt != nil && nt.TypeParams() == nil {
					named = append(named, tn)
				}
			}
		}
	}
	implements := func(t types.Type, it *types.Interface) bool {
		return types.Implements(t, it) || types.Implements(types.NewPointer(t), it)
	}
	for _, d := range decls {
		fn, ok := d.obj.(*types.Func)
		if !ok || fn.Type().(*types.Signature).Recv() == nil {
			continue
		}
		rt := namedOf(fn.Type().(*types.Signature).Recv().Type())
		if types.IsInterface(rt) || rt.TypeParams() != nil {
			continue
		}
		for _, it := range byMethod[fn.Name()] {
			if implements(rt, it) {
				exempt[fn.Pos()] = true
				break
			}
		}
	}
	for tn := range ifaces {
		it := tn.Type().Underlying().(*types.Interface)
		for _, impl := range named {
			if impl.Pkg() != nil && impl.Pkg().Path() != tn.Pkg().Path() && implements(impl.Type(), it) {
				for i := 0; i < it.NumExplicitMethods(); i++ {
					used[it.ExplicitMethod(i).Pos()] = true
				}
				break
			}
		}
	}
}

// exemptSignatureTypes exempts, to a fixed point, every module type named
// in the type or signature of a used or exempt name: another package
// already handles values of it.
func exemptSignatureTypes(decls map[token.Pos]*exportDecl, used, exempt map[token.Pos]bool) {
	var work []types.Object
	for pos, d := range decls {
		if used[pos] || exempt[pos] {
			work = append(work, d.obj)
		}
	}
	seen := map[types.Type]bool{}
	var walk func(t types.Type)
	walk = func(t types.Type) {
		if seen[t] {
			return
		}
		seen[t] = true
		switch t := t.(type) {
		case *types.Named:
			if tn := t.Origin().Obj(); decls[tn.Pos()] != nil && !used[tn.Pos()] && !exempt[tn.Pos()] {
				exempt[tn.Pos()] = true
				work = append(work, tn)
			}
			for i := 0; i < t.TypeArgs().Len(); i++ {
				walk(t.TypeArgs().At(i))
			}
		case *types.Pointer:
			walk(t.Elem())
		case *types.Slice:
			walk(t.Elem())
		case *types.Array:
			walk(t.Elem())
		case *types.Chan:
			walk(t.Elem())
		case *types.Map:
			walk(t.Key())
			walk(t.Elem())
		case *types.Signature:
			for _, tup := range []*types.Tuple{t.Params(), t.Results()} {
				for i := 0; i < tup.Len(); i++ {
					walk(tup.At(i).Type())
				}
			}
		}
	}
	for len(work) > 0 {
		obj := work[len(work)-1]
		work = work[:len(work)-1]
		if _, ok := obj.(*types.TypeName); !ok {
			walk(obj.Type())
			continue
		}
		// Fields and interface methods are judged on their own; any
		// other underlying type is part of the type name's contract.
		switch u := obj.Type().Underlying().(type) {
		case *types.Struct, *types.Interface:
		default:
			walk(u)
		}
	}
}

// namedOf returns t, or the type t points to, as a named type, or nil.
func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	nt, _ := t.(*types.Named)
	return nt
}
