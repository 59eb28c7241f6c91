package lint

import (
	"go/ast"
	"strconv"
	"strings"
)

// LayerRule is one entry of the import-graph rule table. Allow, when
// non-nil, is the complete set of module-internal imports the package may
// have (direct); Deny lists packages it must not reach even transitively
// through other module packages.
type LayerRule struct {
	Pkg    string   // import path the rule applies to
	Allow  []string // exhaustive allowlist of module-internal direct imports (nil = unconstrained)
	Deny   []string // module-internal packages that must be unreachable
	Reason string
}

// DefaultLayerRules is the repo's architecture, as decided across PRs
// 1–5. The load-bearing seam is PR 5's SessionTransport split: dialect
// and client plumbing (session, stratum, ws) must stay ignorant of the
// pool engine, and the engine must not grow dependencies on clients.
var DefaultLayerRules = []LayerRule{
	{
		Pkg: "repro/internal/stratum", Allow: []string{},
		Deny:   []string{"repro/internal/coinhive"},
		Reason: "stratum is the pure wire vocabulary both sides compile against",
	},
	{
		Pkg: "repro/internal/ws", Allow: []string{},
		Deny:   []string{"repro/internal/coinhive"},
		Reason: "ws is a generic RFC6455 codec with no knowledge of the pool",
	},
	{
		Pkg: "repro/internal/session",
		Allow:  []string{"repro/internal/stratum", "repro/internal/ws"},
		Deny:   []string{"repro/internal/coinhive"},
		Reason: "the client dial/login/decode layer speaks dialects, never the engine",
	},
	{
		Pkg: "repro/internal/metrics", Allow: []string{},
		Reason: "the measurement plane depends on nothing it might measure",
	},
	{
		Pkg: "repro/internal/memconn", Allow: []string{},
		Reason: "the in-memory transport is a leaf: a net.Conn stand-in with no protocol knowledge",
	},
	{
		Pkg: "repro/internal/netpark", Allow: []string{},
		Reason: "the conn parker sees readiness sources (epoll, ArmReadWaker) through local interfaces only",
	},
	{
		Pkg: "repro/internal/keccak", Allow: []string{},
		Reason: "the hash core is a leaf",
	},
	{
		Pkg:    "repro/internal/cryptonight",
		Allow:  []string{"repro/internal/keccak"},
		Reason: "the PoW core depends only on its hash primitive",
	},
	{
		Pkg:    "repro/internal/coinhive",
		Deny:   []string{"repro/internal/session", "repro/internal/loadgen", "repro/internal/webminer"},
		Reason: "the service core must not depend on its own clients or load harness",
	},
	{
		Pkg:    "repro/internal/handoff",
		Allow:  []string{"repro/internal/metrics"},
		Reason: "the hand-off queue is a leaf under archive, p2p and coinhive: it counts its drops and knows nothing of what it carries",
	},
	{
		Pkg:    "repro/internal/archive",
		Allow:  []string{"repro/internal/handoff", "repro/internal/metrics"},
		Deny:   []string{"repro/internal/coinhive"},
		Reason: "the archive is a passive sink: events flow in via the pool's hook, never by reaching back",
	},
	{
		Pkg:    "repro/internal/sharechain",
		Allow:  []string{"repro/internal/blockchain", "repro/internal/metrics"},
		Deny:   []string{"repro/internal/coinhive", "repro/internal/ws", "repro/internal/stratum"},
		Reason: "the share-chain is a passive deterministic data structure: PoW verification is injected, service layers stay out of reach",
	},
	{
		Pkg:    "repro/internal/p2p",
		Allow:  []string{"repro/internal/sharechain", "repro/internal/handoff", "repro/internal/metrics", "repro/internal/memconn"},
		Deny:   []string{"repro/internal/coinhive", "repro/internal/ws", "repro/internal/stratum"},
		Reason: "the peer layer moves share-chain entries over net.Conns; it must not know the pool engine or the miner-facing protocols",
	},
	{
		Pkg:    "repro/internal/statsapi",
		Allow:  []string{"repro/internal/archive", "repro/internal/metrics"},
		Deny:   []string{"repro/internal/coinhive"},
		Reason: "the stats API serves archived history only; live pool state stays behind /api/stats",
	},
}

// Layering checks the import-graph rule table over every module package.
func Layering() *Analyzer { return LayeringWith(DefaultLayerRules) }

// LayeringWith builds the layering analyzer over a specific rule table
// (the fixture self-test injects one scoped to the fixture package).
func LayeringWith(rules []LayerRule) *Analyzer {
	return &Analyzer{
		Name: "layering",
		Doc:  "package imports must respect the architecture rule table",
		Run:  func(prog *Program) []Finding { return runLayering(prog, rules) },
	}
}

func runLayering(prog *Program, rules []LayerRule) []Finding {
	// Direct module-internal import graph over the loaded packages.
	moduleOf := func(path string) string {
		if i := strings.Index(path, "/"); i > 0 {
			return path[:i]
		}
		return path
	}
	inModule := map[string]bool{}
	for _, pkg := range prog.Packages {
		inModule[pkg.Path] = true
	}
	graph := map[string][]string{}
	for _, pkg := range prog.Packages {
		mod := moduleOf(pkg.Path)
		for _, file := range pkg.Files {
			for _, imp := range file.Imports {
				path, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					continue
				}
				if moduleOf(path) == mod {
					graph[pkg.Path] = append(graph[pkg.Path], path)
				}
			}
		}
	}
	reaches := func(from, target string) []string { return findPath(graph, from, target) }

	byPath := map[string]*Package{}
	for _, pkg := range prog.Packages {
		byPath[pkg.Path] = pkg
	}

	var out []Finding
	for _, rule := range rules {
		pkg, loaded := byPath[rule.Pkg]
		if !loaded {
			continue
		}
		allowed := map[string]bool{}
		for _, a := range rule.Allow {
			allowed[a] = true
		}
		mod := moduleOf(pkg.Path)
		for _, file := range pkg.Files {
			for _, imp := range file.Imports {
				path, err := strconv.Unquote(imp.Path.Value)
				if err != nil || moduleOf(path) != mod {
					continue
				}
				if rule.Allow != nil && !allowed[path] {
					out = append(out, findingAt(prog, imp, rule,
						"%s may not import %s (allowed: %s)", rule.Pkg, path, allowList(rule.Allow)))
					continue
				}
				for _, denied := range rule.Deny {
					if chain := reaches(path, denied); chain != nil {
						via := ""
						if len(chain) > 1 {
							via = " (via " + strings.Join(chain[:len(chain)-1], " -> ") + ")"
						}
						out = append(out, findingAt(prog, imp, rule,
							"%s must not reach %s, but imports %s%s", rule.Pkg, denied, path, via))
					}
				}
			}
		}
	}
	return out
}

func findingAt(prog *Program, imp *ast.ImportSpec, rule LayerRule, format string, args ...interface{}) Finding {
	f := finding("layering", prog.Fset.Position(imp.Pos()), format, args...)
	if rule.Reason != "" {
		f.Message += " — " + rule.Reason
	}
	return f
}

func allowList(allow []string) string {
	if len(allow) == 0 {
		return "none"
	}
	return strings.Join(allow, ", ")
}

// findPath returns the import chain from from to target ([from ... target])
// or nil; from == target is the 1-element chain.
func findPath(graph map[string][]string, from, target string) []string {
	if from == target {
		return []string{target}
	}
	seen := map[string]bool{from: true}
	type node struct {
		path string
		prev *node
	}
	queue := []*node{{path: from}}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, next := range graph[n.path] {
			if seen[next] {
				continue
			}
			seen[next] = true
			nn := &node{path: next, prev: n}
			if next == target {
				var chain []string
				for m := nn; m != nil; m = m.prev {
					chain = append([]string{m.path}, chain...)
				}
				return chain
			}
			queue = append(queue, nn)
		}
	}
	return nil
}
