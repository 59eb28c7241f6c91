package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Package is one type-checked package under analysis.
type Package struct {
	path  string // import path ("repro/internal/coinhive")
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// Program is the analysis unit: every repo package, fully type-checked,
// over one shared FileSet (so types.Object identities are comparable
// across packages).
type Program struct {
	fset     *token.FileSet
	Packages []*Package
	// tests holds each package's test files, type-checked only for what
	// they refer to: the in-package tests together with the package's
	// sources (a second copy of it, path unchanged), and the external
	// _test package on its own. Only exportuse reads them.
	tests []*Package

	loader *Loader
}

// depPackage resolves a dependency package (stdlib or repo) by import
// path, for analyzers that need foreign types — e.g. net.Conn. Returns
// nil if the path was never loaded and cannot be.
func (p *Program) depPackage(path string) *types.Package {
	tp, err := p.loader.importPath(path)
	if err != nil {
		return nil
	}
	return tp
}

// Loader loads and type-checks packages from source using only the
// standard library: repo-internal import paths resolve through go.mod's
// module line to directories under the module root, everything else to
// GOROOT/src. Cgo is disabled so go/build selects the pure-Go file set —
// the same closure `CGO_ENABLED=0 go build` compiles. Dependencies are
// type-checked without function bodies (API only); packages under
// analysis get full bodies plus a populated types.Info.
type Loader struct {
	fset *token.FileSet

	ctx        build.Context
	moduleDir  string
	modulePath string

	full map[string]*Package       // repo packages: parsed with comments + Info
	deps map[string]*types.Package // dependency packages: API only
	busy map[string]bool           // import-cycle guard
}

// NewLoader builds a loader for the module rooted at moduleDir (the
// directory holding go.mod).
func NewLoader(moduleDir string) (*Loader, error) {
	modPath, err := modulePathOf(filepath.Join(moduleDir, "go.mod"))
	if err != nil {
		return nil, err
	}
	ctx := build.Default
	ctx.CgoEnabled = false
	ctx.Dir = moduleDir
	return &Loader{
		fset:       token.NewFileSet(),
		ctx:        ctx,
		moduleDir:  moduleDir,
		modulePath: modPath,
		full:       map[string]*Package{},
		deps:       map[string]*types.Package{},
		busy:       map[string]bool{},
	}, nil
}

// modulePathOf extracts the module path from a go.mod file.
func modulePathOf(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("lint: no module line in %s", gomod)
}

// LoadModule discovers every buildable package under the module root
// (skipping testdata, vendor and dot-directories), loads each fully and
// returns the Program. Test files are loaded into Program.tests only.
func (l *Loader) LoadModule() (*Program, error) {
	var dirs []string
	err := filepath.WalkDir(l.moduleDir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.moduleDir && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)

	prog := &Program{fset: l.fset, loader: l}
	for _, dir := range dirs {
		bp, err := l.ctx.ImportDir(dir, 0)
		if err != nil {
			if _, ok := err.(*build.NoGoError); ok {
				continue
			}
			return nil, fmt.Errorf("lint: %s: %v", dir, err)
		}
		rel, err := filepath.Rel(l.moduleDir, dir)
		if err != nil {
			return nil, err
		}
		ipath := l.modulePath
		if rel != "." {
			ipath = l.modulePath + "/" + filepath.ToSlash(rel)
		}
		if err := l.loadInto(prog, ipath, dir, bp); err != nil {
			return nil, err
		}
	}
	return prog, nil
}

// loadInto adds one directory's package to prog.Packages and its test
// files, if any, to prog.tests. The external _test package imports the
// in-package test copy, as `go test` builds it, so it sees what an
// export_test.go file declares.
func (l *Loader) loadInto(prog *Program, ipath, dir string, bp *build.Package) error {
	var files []*ast.File
	if len(bp.GoFiles) > 0 {
		pkg, err := l.loadFull(ipath, dir, bp.GoFiles)
		if err != nil {
			return err
		}
		prog.Packages = append(prog.Packages, pkg)
		files = pkg.files
	}
	var self *types.Package
	for _, t := range []struct {
		path  string
		files []*ast.File
		names []string
	}{{ipath, files, bp.TestGoFiles}, {ipath + "_test", nil, bp.XTestGoFiles}} {
		if len(t.names) == 0 {
			continue
		}
		tf, err := l.parseFiles(dir, t.names)
		if err != nil {
			return err
		}
		pkg, err := l.check(t.path, append(t.files[:len(t.files):len(t.files)], tf...), self)
		if err != nil {
			return err
		}
		prog.tests = append(prog.tests, pkg)
		self = pkg.types
	}
	return nil
}

// loadFull parses (with comments) and fully type-checks one package,
// memoizing it so repo packages that import each other share one
// types.Package — object identities stay comparable program-wide.
func (l *Loader) loadFull(ipath, dir string, goFiles []string) (*Package, error) {
	if pkg, ok := l.full[ipath]; ok {
		return pkg, nil
	}
	files, err := l.parseFiles(dir, goFiles)
	if err != nil {
		return nil, err
	}
	pkg, err := l.check(ipath, files, nil)
	if err != nil {
		return nil, err
	}
	l.full[ipath] = pkg
	return pkg, nil
}

func (l *Loader) parseFiles(dir string, names []string) ([]*ast.File, error) {
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// check fully type-checks files as the package ipath. Imports of module
// packages resolve to the shared, non-test copies, except that self, when
// not nil, stands in for its own path.
func (l *Loader) check(ipath string, files []*ast.File, self *types.Package) (*Package, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	var tcErrs []error
	cfg := types.Config{
		Importer: importerFunc(func(path string) (*types.Package, error) {
			if self != nil && path == self.Path() {
				return self, nil
			}
			return l.importPath(path)
		}),
		Error: func(err error) { tcErrs = append(tcErrs, err) },
	}
	tpkg, _ := cfg.Check(ipath, l.fset, files, info)
	if len(tcErrs) > 0 {
		return nil, fmt.Errorf("lint: type errors in %s: %v", ipath, tcErrs[0])
	}
	return &Package{path: ipath, files: files, types: tpkg, info: info}, nil
}

// importPath resolves one import: repo paths load fully (shared with the
// analysis), stdlib paths load API-only from GOROOT/src.
func (l *Loader) importPath(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	// Anything already loaded fully wins — this is how fixture packages
	// (loaded under fake paths) resolve imports of one another.
	if pkg, ok := l.full[path]; ok {
		return pkg.types, nil
	}
	if path == l.modulePath || strings.HasPrefix(path, l.modulePath+"/") {
		if pkg, ok := l.full[path]; ok {
			return pkg.types, nil
		}
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.modulePath), "/")
		dir := filepath.Join(l.moduleDir, filepath.FromSlash(rel))
		bp, err := l.ctx.ImportDir(dir, 0)
		if err != nil {
			return nil, err
		}
		pkg, err := l.loadFull(path, dir, bp.GoFiles)
		if err != nil {
			return nil, err
		}
		return pkg.types, nil
	}
	return l.importDep(path)
}

// importDep type-checks a non-module package (stdlib) from GOROOT/src,
// bodies ignored, memoized.
func (l *Loader) importDep(path string) (*types.Package, error) {
	if tp, ok := l.deps[path]; ok {
		return tp, nil
	}
	if l.busy[path] {
		return nil, fmt.Errorf("lint: import cycle through %q", path)
	}
	l.busy[path] = true
	defer delete(l.busy, path)

	// Stdlib first; golang.org/x/* dependencies of the stdlib live under
	// GOROOT/src/vendor.
	dir := filepath.Join(runtime.GOROOT(), "src", filepath.FromSlash(path))
	bp, err := l.ctx.ImportDir(dir, 0)
	if err != nil {
		vdir := filepath.Join(runtime.GOROOT(), "src", "vendor", filepath.FromSlash(path))
		if vbp, verr := l.ctx.ImportDir(vdir, 0); verr == nil {
			dir, bp, err = vdir, vbp, nil
		}
	}
	if err != nil {
		return nil, fmt.Errorf("lint: resolve %q: %v", path, err)
	}
	files := make([]*ast.File, 0, len(bp.GoFiles))
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	var tcErrs []error
	cfg := types.Config{
		IgnoreFuncBodies: true,
		Importer:         importerFunc(func(p string) (*types.Package, error) { return l.importPath(p) }),
		Error:            func(err error) { tcErrs = append(tcErrs, err) },
	}
	tpkg, _ := cfg.Check(path, l.fset, files, nil)
	if len(tcErrs) > 0 {
		return nil, fmt.Errorf("lint: type errors importing %s: %v", path, tcErrs[0])
	}
	l.deps[path] = tpkg
	return tpkg, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
