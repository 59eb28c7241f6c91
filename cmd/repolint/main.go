// Command repolint runs the repo's project-specific static-analysis
// suite (internal/lint) over every package in the module: the lockscope,
// hotpath, atomicfield, metricname and layering analyzers that
// machine-check the invariants DESIGN.md's "Enforced invariants" section
// documents, and exportuse, which flags an exported name no other package
// uses. `make lint` runs it; `make check` gates on a clean run.
//
// Usage:
//
//	repolint [-C dir] [-json] [-list]
//
// Exit status is 1 when findings remain after //lint:ignore waivers, 2 on
// load/type-check failure. -json emits the findings as a JSON array so
// future tooling can diff runs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("repolint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("C", "", "module directory to lint (default: nearest go.mod at or above the working directory)")
	asJSON := fs.Bool("json", false, "emit findings as a JSON array")
	list := fs.Bool("list", false, "list the analyzers and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := lint.All()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	root := *dir
	if root == "" {
		var err error
		root, err = findModuleRoot()
		if err != nil {
			fmt.Fprintln(stderr, "repolint:", err)
			return 2
		}
	}
	loader, err := lint.NewLoader(root)
	if err != nil {
		fmt.Fprintln(stderr, "repolint:", err)
		return 2
	}
	prog, err := loader.LoadModule()
	if err != nil {
		fmt.Fprintln(stderr, "repolint:", err)
		return 2
	}
	findings := lint.Run(prog, analyzers)

	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []lint.Finding{}
		}
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(stderr, "repolint:", err)
			return 2
		}
	} else {
		for _, f := range findings {
			rel, err := filepath.Rel(root, f.File)
			if err == nil {
				f.File = rel
			}
			fmt.Fprintln(stdout, f.String())
		}
		if len(findings) > 0 {
			fmt.Fprintf(stdout, "repolint: %d finding(s) in %d package(s)\n", len(findings), len(prog.Packages))
		}
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}

// findModuleRoot walks up from the working directory to the nearest
// go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod at or above the working directory")
		}
		dir = parent
	}
}
