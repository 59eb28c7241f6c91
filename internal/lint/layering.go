package lint

import (
	"go/ast"
	"strconv"
	"strings"
)

// layerRule is one entry of the import-graph rule table. allow, when
// non-nil, is the complete set of module-internal imports the package may
// have (direct); deny lists packages it must not reach even transitively
// through other module packages.
type layerRule struct {
	pkg    string   // import path the rule applies to
	allow  []string // exhaustive allowlist of module-internal direct imports (nil = unconstrained)
	deny   []string // module-internal packages that must be unreachable
	reason string
}

// defaultLayerRules is the repo's architecture, as decided across PRs
// 1–5. The load-bearing seam is PR 5's SessionTransport split: dialect
// and client plumbing (session, stratum, ws) must stay ignorant of the
// pool engine, and the engine must not grow dependencies on clients.
var defaultLayerRules = []layerRule{
	{
		pkg: "repro/internal/stratum", allow: []string{},
		deny:   []string{"repro/internal/coinhive"},
		reason: "stratum is the pure wire vocabulary both sides compile against",
	},
	{
		pkg: "repro/internal/ws", allow: []string{},
		deny:   []string{"repro/internal/coinhive"},
		reason: "ws is a generic RFC6455 codec with no knowledge of the pool",
	},
	{
		pkg:    "repro/internal/session",
		allow:  []string{"repro/internal/stratum", "repro/internal/ws"},
		deny:   []string{"repro/internal/coinhive"},
		reason: "the client dial/login/decode layer speaks dialects, never the engine",
	},
	{
		pkg: "repro/internal/metrics", allow: []string{},
		reason: "the measurement plane depends on nothing it might measure",
	},
	{
		pkg: "repro/internal/memconn", allow: []string{},
		reason: "the in-memory transport is a leaf: a net.Conn stand-in with no protocol knowledge",
	},
	{
		pkg: "repro/internal/netpark", allow: []string{},
		reason: "the conn parker sees readiness sources (epoll, ArmReadWaker) through local interfaces only",
	},
	{
		pkg: "repro/internal/keccak", allow: []string{},
		reason: "the hash core is a leaf",
	},
	{
		pkg:    "repro/internal/cryptonight",
		allow:  []string{"repro/internal/keccak"},
		reason: "the PoW core depends only on its hash primitive",
	},
	{
		pkg:    "repro/internal/coinhive",
		deny:   []string{"repro/internal/session", "repro/internal/loadgen", "repro/internal/webminer"},
		reason: "the service core must not depend on its own clients or the in-process target built on it",
	},
	{
		pkg:    "repro/internal/handoff",
		allow:  []string{"repro/internal/metrics"},
		reason: "the hand-off queue is a leaf under archive, p2p and coinhive: it counts its drops and knows nothing of what it carries",
	},
	{
		pkg:    "repro/internal/archive",
		allow:  []string{"repro/internal/handoff", "repro/internal/metrics"},
		deny:   []string{"repro/internal/coinhive"},
		reason: "the archive is a passive sink: events flow in via the pool's hook, never by reaching back",
	},
	{
		pkg:    "repro/internal/sharechain",
		allow:  []string{"repro/internal/blockchain", "repro/internal/metrics"},
		deny:   []string{"repro/internal/coinhive", "repro/internal/ws", "repro/internal/stratum"},
		reason: "the share-chain is a passive deterministic data structure: PoW verification is injected, service layers stay out of reach",
	},
	{
		pkg:    "repro/internal/p2p",
		allow:  []string{"repro/internal/sharechain", "repro/internal/handoff", "repro/internal/metrics", "repro/internal/memconn"},
		deny:   []string{"repro/internal/coinhive", "repro/internal/ws", "repro/internal/stratum"},
		reason: "the peer layer moves share-chain entries over net.Conns; it must not know the pool engine or the miner-facing protocols",
	},
	{
		pkg:    "repro/internal/statsapi",
		allow:  []string{"repro/internal/archive", "repro/internal/metrics"},
		deny:   []string{"repro/internal/coinhive"},
		reason: "the stats API serves archived history only; live pool state stays behind /api/stats",
	},
}

// layering checks the import-graph rule table over every module package.
func layering() *Analyzer { return layeringWith(defaultLayerRules) }

// layeringWith builds the layering analyzer over a specific rule table
// (the fixture self-test injects one scoped to the fixture package).
func layeringWith(rules []layerRule) *Analyzer {
	return &Analyzer{
		Name: "layering",
		Doc:  "package imports must respect the architecture rule table",
		run:  func(prog *Program) []Finding { return runLayering(prog, rules) },
	}
}

func runLayering(prog *Program, rules []layerRule) []Finding {
	// Direct module-internal import graph over the loaded packages.
	moduleOf := func(path string) string {
		if i := strings.Index(path, "/"); i > 0 {
			return path[:i]
		}
		return path
	}
	inModule := map[string]bool{}
	for _, pkg := range prog.Packages {
		inModule[pkg.path] = true
	}
	graph := map[string][]string{}
	for _, pkg := range prog.Packages {
		mod := moduleOf(pkg.path)
		for _, file := range pkg.files {
			for _, imp := range file.Imports {
				path, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					continue
				}
				if moduleOf(path) == mod {
					graph[pkg.path] = append(graph[pkg.path], path)
				}
			}
		}
	}
	reaches := func(from, target string) []string { return findPath(graph, from, target) }

	byPath := map[string]*Package{}
	for _, pkg := range prog.Packages {
		byPath[pkg.path] = pkg
	}

	var out []Finding
	for _, rule := range rules {
		pkg, loaded := byPath[rule.pkg]
		if !loaded {
			continue
		}
		allowed := map[string]bool{}
		for _, a := range rule.allow {
			allowed[a] = true
		}
		mod := moduleOf(pkg.path)
		for _, file := range pkg.files {
			for _, imp := range file.Imports {
				path, err := strconv.Unquote(imp.Path.Value)
				if err != nil || moduleOf(path) != mod {
					continue
				}
				if rule.allow != nil && !allowed[path] {
					out = append(out, findingAt(prog, imp, rule,
						"%s may not import %s (allowed: %s)", rule.pkg, path, allowList(rule.allow)))
					continue
				}
				for _, denied := range rule.deny {
					if chain := reaches(path, denied); chain != nil {
						via := ""
						if len(chain) > 1 {
							via = " (via " + strings.Join(chain[:len(chain)-1], " -> ") + ")"
						}
						out = append(out, findingAt(prog, imp, rule,
							"%s must not reach %s, but imports %s%s", rule.pkg, denied, path, via))
					}
				}
			}
		}
	}
	return out
}

func findingAt(prog *Program, imp *ast.ImportSpec, rule layerRule, format string, args ...interface{}) Finding {
	f := finding("layering", prog.fset.Position(imp.Pos()), format, args...)
	if rule.reason != "" {
		f.Message += " — " + rule.reason
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
