// Command benchmark is the repo's one repeatable benchmark: four long
// closed-loop workloads driven through the service's wire protocols and
// public Go functions, five uniform end-to-end metrics per workload, and
// per-layer numbers measured from outside in a separate traced run. See
// README.md for why each workload exists and how to read the output.
//
// Three ways to run it:
//
//	benchmark --workload NAME --seed N --seconds S --trace 0|1
//	    one run in this process; the last line of standard output is the
//	    JSON object the benchmark contract (BENCHMARK.json) describes.
//	benchmark [-seed N] [-seconds S] [-trace 0|1]
//	    every workload, each in its own child process, one table.
//	benchmark -repeat N
//	    the full set N times: medians, quartiles, worst pairwise
//	    disagreement; non-zero exit when a pair of runs disagrees by more
//	    than the bound BENCHMARK.json fixes for the metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

var workloads = []*workload{
	{
		name:  "share-accept",
		why:   "the paper's browser dialect: ws submit to accept, ~70% CryptoNight verify; bypasses archive, federation and push",
		unit:  "shares accepted",
		hops:  "client→pool: ws over loopback TCP (2 connections)",
		setup: setupShareAccept,
	},
	{
		name:  "share-federated",
		why:   "ROADMAP path 1: socket read to credited, archived, gossiped on 3 nodes; verify cost ×3, out-of-order share-chain inserts",
		unit:  "shares present on all 3 nodes",
		hops:  "client→pool: raw-TCP stratum over loopback TCP (1 connection each to nodes A and B); node↔node gossip: memconn",
		setup: setupShareFederated,
	},
	{
		name:  "tip-fanout",
		why:   "ROADMAP path 2: tip event to last byte at the last of 4,096 parked sessions; no CryptoNight at all",
		unit:  "job pushes read by clients",
		hops:  "client→pool: stratum over memconn (4,096 parked sessions, drained by 2 goroutines)",
		setup: setupTipFanout,
	},
	{
		name:  "zone-scan",
		why:   "the paper's §3 pipeline over an Alexa-profile corpus; shares no layer with the pool, so pool changes predict no change here",
		unit:  "domains classified",
		hops:  "none: in-process calls (corpus fetcher, no sockets)",
		setup: setupZoneScan,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func main() {
	var (
		name    = flag.String("workload", "", "run this one workload in-process and end with the contract's JSON line")
		seed    = flag.Uint64("seed", 1, "selects site keys, corpus and deck nonces")
		seconds = flag.Float64("seconds", 0, "measured window (default: run_seconds of BENCHMARK.json; 10 when tracing every workload)")
		trace   = flag.Int("trace", 0, "1: traced run, per-layer metrics and out/trace-<workload>.json")
		repeat  = flag.Int("repeat", 0, "run the full set N times and check run-to-run agreement against the bounds")
	)
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: bad arguments; see -h")
		os.Exit(2)
	}
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	// Traces and the federated nodes' archives go under benchmark/out,
	// whether the binary was started from the repo root or from benchmark/.
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, scale: 1, outDir: "out"}
	if st, err := os.Stat("benchmark"); err == nil && st.IsDir() {
		o.outDir = "benchmark/out"
	}
	if o.seconds <= 0 {
		o.seconds = float64(spec.RunSeconds)
		if o.trace && *name == "" {
			o.seconds = 10
		}
	}

	switch {
	case *name != "":
		w := workloadByName(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
			os.Exit(2)
		}
		os.Exit(runOne(w, o))
	case *repeat > 0:
		os.Exit(runRepeat(spec, o, *repeat))
	default:
		_, code := runAll(spec, o, os.Stdout)
		os.Exit(code)
	}
}

// runOne is the contract's entry: one workload in this process, a
// report for people, then the JSON line for the driver.
func runOne(w *workload, o options) int {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	printEnv(w, o)
	res, err := runWorkload(w, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	printReport(w, o, res)
	metrics := res.e2e
	if o.trace {
		metrics = res.layer
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.correct(), res.attempted, res.failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.correct() {
		return 1
	}
	return 0
}

// printReport prints every metric by name with its unit, the sample
// counts behind them, and the outcome of the output checks.
func printReport(w *workload, o options, res *result) {
	fmt.Printf("\n%s — %d ops attempted, %d failed; %d latency samples in a %.0f s window (slices of %.1f s)\n",
		w.name, res.attempted, res.failed, res.samples, o.seconds, o.seconds/sliceCount)
	fmt.Printf("  one throughput unit = one of: %s\n", w.unit)
	for _, name := range sortedKeys(res.e2e) {
		fmt.Printf("  %-24s %14.4f %s\n", name, res.e2e[name].Value, res.e2e[name].Unit)
	}
	fmt.Println("  the time-based metrics above are in reference seconds (measured × box speed); as measured:")
	fmt.Printf("  slice throughputs [1/s]: %s\n", fmtFloats(res.sliceRates, "%.1f"))
	fmt.Printf("  slice CPU [ms/kop]:      %s\n", fmtFloats(res.sliceCPU, "%.3f"))
	fmt.Printf("  slice latency p50 [us]:  %s\n", fmtFloats(res.sliceP50, "%.1f"))
	fmt.Printf("  slice box speed:         %s\n", fmtFloats(res.sliceSpeed, "%.3f"))
	fmt.Printf("  set-up rounds [s]:       %s\n", fmtFloats(res.setups, "%.3f"))
	fmt.Printf("  set-up box speed:        %s\n", fmtFloats(res.setupSpeed, "%.3f"))
	fmt.Printf("  resident: %.1f MB after set-up, %.1f MB after the drained run, at box speed %.3f in between\n",
		res.baseMB, res.heldMB, res.driveSpeed)
	fmt.Printf("  latency over the whole window: p50 %.1f us; tail (not gated): p99 %.1f us, max %.1f us over %d samples\n",
		res.rawP50, res.p99, res.max, res.samples)
	fmt.Printf("  harness: the latest slice edge was read %.0f us late\n", res.lateness)
	if o.trace {
		fmt.Println("  latency budget, as measured (stage p50s + residual = end-to-end p50):")
		for _, s := range res.stages {
			fmt.Printf("    %-34s %12.2f us  %s\n", s.name, s.p50, s.source)
		}
		fmt.Println("  per-layer metrics:")
		for _, lm := range layerMetrics {
			fmt.Printf("    %-34s %14.4f %s\n", lm.name, res.layer[lm.name].Value, lm.unit)
		}
	}
	if res.correct() {
		fmt.Println("  output checks: pass")
		return
	}
	fmt.Println("  output checks: FAIL")
	for i, f := range res.fails {
		if i == 8 {
			fmt.Printf("    … and %d more\n", len(res.fails)-i)
			break
		}
		fmt.Println("    " + f)
	}
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func fmtFloats(v []float64, verb string) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf(verb, x)
	}
	return strings.Join(parts, " ")
}
