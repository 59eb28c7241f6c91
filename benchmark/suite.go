package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"syscall"
)

// benchSpec is BENCHMARK.json: the contract the driver holds this
// benchmark to, and the one place metric names, units and regression
// bounds live. The suite reads it rather than repeating it.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadSpec finds BENCHMARK.json from the repo root or from benchmark/.
func loadSpec() (*benchSpec, error) {
	var (
		data []byte
		err  error
	)
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		if data, err = os.ReadFile(p); err == nil {
			break
		}
	}
	if err != nil {
		return nil, fmt.Errorf("BENCHMARK.json not found from the working directory: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// fsName names the filesystem holding dir from its statfs magic.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext2/3/4"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return "magic 0x" + strconv.FormatUint(uint64(uint32(st.Type)), 16)
}

// printEnv is the block a number is never read without: what code, what
// toolchain, how many cores, which hops were sockets.
func printEnv(w *workload, o options) {
	commit := os.Getenv("BENCH_COMMIT") // run.sh asks git
	if bi, ok := debug.ReadBuildInfo(); ok && commit == "" {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	if commit == "" {
		commit = "unknown"
	}
	fmt.Printf("environment: commit %s; %s %s/%s; nproc %d, GOMAXPROCS pinned to %d\n",
		commit, runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), pinnedProcs)
	fmt.Printf("  workload %s, seed %d, scale 1/%d, window %.0f s after %.1f s warm-up, traced: %v\n",
		w.name, o.seed, o.scale, o.seconds, o.warmup().Seconds(), o.trace)
	fmt.Printf("  box speed: a %d-iteration loop of dependent loads from a 64 KiB table every %v, on its thread's CPU clock; 1.0 = %.3f iterations/ns\n",
		calIters, calPeriod, nominalSpeed)
	fmt.Printf("  why: %s\n  hops: %s\n", w.why, w.hops)
	fmt.Printf("  out dir %s on %s\n", o.outDir, fsName(o.outDir))
}

// childResult is the contract's JSON line as the suite reads it back.
type childResult struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runChild runs one workload in a child process of this same binary —
// so memory and CPU time are per workload — passing its report
// through to out and returning its JSON line.
func runChild(w *workload, o options, trace bool, out io.Writer) (*childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	t := "0"
	if trace {
		t = "1"
	}
	cmd := exec.Command(exe,
		"--workload", w.name,
		"--seed", strconv.FormatUint(o.seed, 10),
		"--seconds", strconv.FormatFloat(o.seconds, 'f', -1, 64),
		"--trace", t)
	var buf bytes.Buffer
	cmd.Stdout, cmd.Stderr = &buf, os.Stderr
	runErr := cmd.Run()
	var last []byte
	sc := bufio.NewScanner(&buf)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if last != nil {
			fmt.Fprintln(out, string(last))
		}
		last = append(last[:0], sc.Bytes()...)
	}
	var res childResult
	if err := json.Unmarshal(last, &res); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", w.name, runErr)
		}
		return nil, fmt.Errorf("%s: last line is not the result object: %w", w.name, err)
	}
	return &res, nil
}

// suiteRun is one pass over every workload: metric values keyed
// "workload/metric".
type suiteRun map[string]float64

// runAll runs every workload untraced (and, when o.trace, again traced:
// the difference in throughput is the tracing overhead), prints one
// table, and reports 1 when any check or operation failed.
func runAll(spec *benchSpec, o options, out io.Writer) (suiteRun, int) {
	values := suiteRun{}
	code := 0
	for _, w := range workloads {
		res, err := runChild(w, o, false, out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return nil, 1
		}
		if !res.Correct {
			code = 1
		}
		for name, m := range res.Metrics {
			values[w.name+"/"+name] = m.Value
		}
		if !o.trace {
			continue
		}
		traced, err := runChild(w, o, true, out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return nil, 1
		}
		if !traced.Correct {
			code = 1
		}
		un, tr := res.Metrics["throughput_per_s"].Value, traced.Metrics["trace.throughput_per_s"].Value
		fmt.Fprintf(out, "  tracing overhead on %s: %.1f 1/s untraced − %.1f 1/s traced = %.1f 1/s (%.2f%%)\n",
			w.name, un, tr, un-tr, 100*(un-tr)/un)
	}
	fmt.Fprintf(out, "\n%-18s", "end-to-end")
	for _, m := range spec.EndToEnd {
		fmt.Fprintf(out, " %18s", m.Name+" ["+m.Unit+"]")
	}
	fmt.Fprintln(out)
	for _, w := range workloads {
		fmt.Fprintf(out, "%-18s", w.name)
		for _, m := range spec.EndToEnd {
			fmt.Fprintf(out, " %18.4f", values[w.name+"/"+m.Name])
		}
		fmt.Fprintln(out)
	}
	if code != 0 {
		fmt.Fprintln(out, "FAILED: an output check or an operation failed; see the workload reports above")
	}
	return values, code
}

// runRepeat is the self-check: n full passes, then for every end-to-end
// metric on every workload the median, the quartiles and the worst
// disagreement between any two passes (relative to the median, in the
// direction that counts as worse — which for a pair is just the
// absolute gap). Exit 1 when a gap exceeds the metric's bound.
func runRepeat(spec *benchSpec, o options, n int) int {
	var runs []suiteRun
	code := 0
	for i := 0; i < n; i++ {
		fmt.Printf("=== pass %d of %d ===\n", i+1, n)
		values, c := runAll(spec, o, os.Stdout)
		if values == nil {
			return 1
		}
		if c != 0 {
			code = c
		}
		runs = append(runs, values)
	}
	fmt.Printf("\n%-18s %-18s %12s %12s %12s %10s %7s\n", "workload", "metric", "q1", "median", "q3", "worst gap", "bound")
	for _, w := range workloads {
		for _, m := range spec.EndToEnd {
			var v []float64
			for _, r := range runs {
				v = append(v, r[w.name+"/"+m.Name])
			}
			q1, q2, q3 := quartiles(v)
			s := sortedCopy(v)
			gap := 0.0
			if q2 != 0 {
				gap = math.Abs(s[len(s)-1]-s[0]) / q2
			}
			verdict := ""
			if gap > m.Bound {
				verdict = "  DISAGREE"
				code = 1
			}
			fmt.Printf("%-18s %-18s %12.4f %12.4f %12.4f %9.2f%% %6.0f%%%s\n",
				w.name, m.Name, q1, q2, q3, 100*gap, 100*m.Bound, verdict)
		}
	}
	return code
}
