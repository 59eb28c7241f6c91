package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
	"regexp"
	"strings"
)

// metricname polices the metrics registry PR 4 introduced. Instrument
// names must be compile-time constants — a name computed at runtime (per
// session, per job, per token…) explodes registry cardinality, which is
// exactly the failure mode that makes "zero-cost telemetry" stop being
// zero-cost. Names must follow the dotted lower_snake convention under a
// known top-level namespace, and each name may be registered from only
// one call site: two sites sharing a name silently merge two meanings
// into one time series (sharing an instrument across components is done
// by passing the instrument, not by name collision).
func metricname() *Analyzer {
	return &Analyzer{
		Name: "metricname",
		Doc:  "metric names are literal, namespaced, lower_snake, and registered at one site",
		run:  runMetricname,
	}
}

// metricNameRE matches "pool.shares_ok", "server.submit_ns", etc.
var metricNameRE = regexp.MustCompile(`^(pool|server|stratum|p2p)(\.[a-z0-9_]+)+$`)

var registryMethods = map[string]bool{"Counter": true, "Gauge": true, "Histogram": true}

func runMetricname(prog *Program) []Finding {
	var out []Finding
	firstSite := map[string]ast.Node{}
	for _, pkg := range prog.Packages {
		info := pkg.info
		for _, file := range pkg.files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) == 0 {
					return true
				}
				method, isReg := registryCall(info, call)
				if !isReg {
					return true
				}
				tv := info.Types[call.Args[0]]
				if tv.Value == nil || tv.Value.Kind() != constant.String {
					out = append(out, finding("metricname", prog.fset.Position(call.Args[0].Pos()),
						"dynamic metric name in Registry.%s — names must be compile-time string constants (cardinality is fixed at build time)",
						method))
					return true
				}
				name := constant.StringVal(tv.Value)
				if !metricNameRE.MatchString(name) {
					out = append(out, finding("metricname", prog.fset.Position(call.Args[0].Pos()),
						"metric name %q does not match <namespace>.<lower_snake> with namespace in {pool, server, stratum, p2p}",
						name))
					return true
				}
				if prev, dup := firstSite[name]; dup {
					out = append(out, finding("metricname", prog.fset.Position(call.Args[0].Pos()),
						"metric %q is also registered at %s — register at one site and share the instrument",
						name, prog.fset.Position(prev.Pos())))
				} else {
					firstSite[name] = call
				}
				return true
			})
		}
	}
	return out
}

// registryCall reports whether call is metrics.Registry.Counter/Gauge/
// Histogram, by receiver type.
func registryCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !registryMethods[sel.Sel.Name] {
		return "", false
	}
	selection, ok := info.Selections[sel]
	if !ok {
		return "", false
	}
	recv := selection.Recv()
	if ptr, isPtr := recv.(*types.Pointer); isPtr {
		recv = ptr.Elem()
	}
	named, isNamed := recv.(*types.Named)
	if !isNamed {
		return "", false
	}
	obj := named.Obj()
	if obj.Name() != "Registry" || obj.Pkg() == nil || !strings.HasSuffix(obj.Pkg().Path(), "internal/metrics") {
		return "", false
	}
	return sel.Sel.Name, true
}
