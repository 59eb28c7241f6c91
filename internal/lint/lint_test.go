package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The fixture self-tests load each testdata/src fixture under a fake
// "fix/..." import path and push it through the real driver (Run), so the
// //lint:ignore machinery is exercised alongside the analyzers.
// Expectations ride in the fixture source as trailing
//
//	// want "regexp"
//
// comments matched against findings on that line, or
//
//	// want-below "regexp"
//
// for findings on the following line (needed when the offending line is
// itself a //lint: directive and cannot carry a second comment).

func TestLockscopeFixture(t *testing.T)   { runFixture(t, []string{"lockscope"}, All()) }
func TestHotpathFixture(t *testing.T)     { runFixture(t, []string{"hotpath"}, All()) }
func TestAtomicfieldFixture(t *testing.T) { runFixture(t, []string{"atomicfield"}, All()) }
func TestMetricnameFixture(t *testing.T)  { runFixture(t, []string{"metricname"}, All()) }
func TestDirectiveFixture(t *testing.T)   { runFixture(t, []string{"directive"}, All()) }

// TestExportuseFixture pins the exportuse rule over four packages: a
// declares the names, and b, c's test file, a's external test package and
// bench (the stand-in for benchmark/, a main package) use some of them.
func TestExportuseFixture(t *testing.T) {
	runFixture(t, []string{"exportuse/a", "exportuse/b", "exportuse/c", "exportuse/bench"}, All())
}

func TestLayeringFixture(t *testing.T) {
	rules := []layerRule{
		{pkg: "fix/b", allow: []string{}, reason: "b is a leaf by decree"},
		{pkg: "fix/c", allow: []string{"fix/b"}, deny: []string{"fix/a"}, reason: "c must not reach a"},
	}
	runFixture(t, []string{"layering/a", "layering/b", "layering/c"},
		[]*Analyzer{layeringWith(rules)})
}

// TestRepoIsClean is `make lint` as a unit test: the whole module must
// stay free of findings, so a re-introduced violation fails plain
// `go test ./...` too, not just the lint tier.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module type-check is slow; covered by make lint")
	}
	loader, err := NewLoader(filepath.Join("..", ".."))
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	prog, err := loader.LoadModule()
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	for _, f := range Run(prog, All()) {
		t.Errorf("finding: %s", f)
	}
}

var (
	wantRE      = regexp.MustCompile(`// want "([^"]+)"`)
	wantBelowRE = regexp.MustCompile(`// want-below "([^"]+)"`)
)

type wantExpect struct {
	re      *regexp.Regexp
	matched bool
}

func runFixture(t *testing.T, dirs []string, analyzers []*Analyzer) {
	t.Helper()
	loader, err := NewLoader(filepath.Join("..", ".."))
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	prog := &Program{fset: loader.fset, loader: loader}
	for _, d := range dirs {
		sub, err := loadDir(loader, filepath.Join("testdata", "src", d), "fix/"+filepath.Base(d))
		if err != nil {
			t.Fatalf("load fixture %s: %v", d, err)
		}
		prog.Packages = append(prog.Packages, sub.Packages...)
		prog.tests = append(prog.tests, sub.tests...)
	}

	wants := map[string][]*wantExpect{} // "file.go:line" -> expectations
	for _, d := range dirs {
		dir := filepath.Join("testdata", "src", d)
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if !strings.HasSuffix(e.Name(), ".go") {
				continue
			}
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			for i, line := range strings.Split(string(data), "\n") {
				for _, m := range wantRE.FindAllStringSubmatch(line, -1) {
					key := fmt.Sprintf("%s:%d", e.Name(), i+1)
					wants[key] = append(wants[key], &wantExpect{re: regexp.MustCompile(m[1])})
				}
				for _, m := range wantBelowRE.FindAllStringSubmatch(line, -1) {
					key := fmt.Sprintf("%s:%d", e.Name(), i+2)
					wants[key] = append(wants[key], &wantExpect{re: regexp.MustCompile(m[1])})
				}
			}
		}
	}

	for _, f := range Run(prog, analyzers) {
		key := fmt.Sprintf("%s:%d", filepath.Base(f.File), f.Line)
		var hit *wantExpect
		for _, w := range wants[key] {
			if !w.matched && w.re.MatchString(f.Message) {
				hit = w
				break
			}
		}
		if hit == nil {
			t.Errorf("unexpected finding at %s: [%s] %s", key, f.Analyzer, f.Message)
			continue
		}
		hit.matched = true
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("missing finding at %s matching %q", key, w.re)
			}
		}
	}
}

// loadDir loads one fixture directory, its test files included, as the
// package asPath: a fake path ("fix/lockscope") for files under testdata.
func loadDir(l *Loader, dir, asPath string) (*Program, error) {
	bp, err := l.ctx.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("lint: %s: %v", dir, err)
	}
	prog := &Program{fset: l.fset, loader: l}
	if err := l.loadInto(prog, asPath, dir, bp); err != nil {
		return nil, err
	}
	return prog, nil
}
