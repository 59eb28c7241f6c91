package main

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/loadgen"
)

func TestRunSmokeSmall(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-gate", "smoke", "-sessions", "64"}, &out); err != nil {
		t.Fatalf("%v\noutput: %s", err, out.String())
	}
	// The gate runs both dialects, each at the full session count.
	if !strings.Contains(out.String(), "smoke OK — 64 concurrent ws sessions") ||
		!strings.Contains(out.String(), "tcp-smoke OK — 64 concurrent tcp sessions") {
		t.Errorf("output = %q", out.String())
	}
}

// TestRunTCPScenarioWithRefresh drives the server-clocked dialect (the
// TCP half of the mixed swarm) with tip refreshes on, against the
// in-process target wired through InprocTarget.Config: the printed row
// must show every share accepted with a measured accept tail, job pushes
// fanned out, and still zero protocol errors (stale submits are
// re-jobbed, not errored).
func TestRunTCPScenarioWithRefresh(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-scenario", "mixed", "-sessions", "32"}, &out)
	if err != nil {
		t.Fatalf("%v\noutput: %s", err, out.String())
	}
	row := rowFields(t, out.String(), "mixed")
	for key, want := range map[string]string{"": "[mixed]", "sessions": "32", "shares_ok": "96", "proto_errors": "0"} {
		if row[key] != want {
			t.Errorf("%s = %q, want %q (row %v)", key, row[key], want, row)
		}
	}
	if n, err := strconv.Atoi(row["pushes"]); err != nil || n <= 0 {
		t.Errorf("pushes = %q, want > 0: push fan-out not exercised", row["pushes"])
	}
	for _, key := range []string{"p99", "push_p99"} {
		if d, err := time.ParseDuration(row[key]); err != nil || d <= 0 {
			t.Errorf("%s = %q, want a positive duration", key, row[key])
		}
	}
}

// TestRunWritesReport pins the ws steady scenario's printed report row:
// one row for the scenario, every session's shares accepted, and a
// measured accept tail.
func TestRunWritesReport(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-scenario", "steady", "-sessions", "32"}, &out)
	if err != nil {
		t.Fatalf("%v\noutput: %s", err, out.String())
	}
	if n := strings.Count(out.String(), "loadd: steady "); n != 1 {
		t.Fatalf("%d steady rows, want 1:\n%s", n, out.String())
	}
	row := rowFields(t, out.String(), "steady")
	for key, want := range map[string]string{"sessions": "32", "shares_ok": "96", "proto_errors": "0"} {
		if row[key] != want {
			t.Errorf("%s = %q, want %q (row %v)", key, row[key], want, row)
		}
	}
	if d, err := time.ParseDuration(row["p99"]); err != nil || d <= 0 {
		t.Errorf("accept p99 = %q, want a positive duration", row["p99"])
	}
}

// rowFields finds the printed result row of a scenario and splits it into
// its key=value fields; the bracketed transport is stored under "".
func rowFields(t *testing.T, out, scenario string) map[string]string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) < 3 || f[0] != "loadd:" || f[1] != scenario || !strings.HasPrefix(f[2], "[") {
			continue
		}
		row := map[string]string{"": f[2]}
		for _, kv := range f[3:] {
			if k, v, ok := strings.Cut(kv, "="); ok {
				row[k] = v
			}
		}
		return row
	}
	t.Fatalf("no %s row in output:\n%s", scenario, out)
	return nil
}

// TestRunSkipsTCPScenariosWithoutTCPTarget pins the remote-target
// behavior: a ws-only target skips (not aborts) tcp-dependent scenarios.
func TestRunSkipsTCPScenariosWithoutTCPTarget(t *testing.T) {
	var out strings.Builder
	// The target is never dialed: the only requested scenario is skipped.
	if err := run([]string{"-target", "ws://127.0.0.1:9", "-scenario", "mixed"}, &out); err != nil {
		t.Fatalf("%v\noutput: %s", err, out.String())
	}
	if !strings.Contains(out.String(), "skipping mixed") {
		t.Errorf("output = %q", out.String())
	}
}

// TestGateTable: every gate resolves by name to a runnable row list —
// catalogue scenarios or scale tiers — with an assertion behind it, and
// the Makefile's load-% rule has exactly these names to expand to.
func TestGateTable(t *testing.T) {
	for _, want := range []string{"smoke", "hostile", "scale", "api"} {
		g, err := gateByName(want)
		if err != nil {
			t.Fatal(err)
		}
		if g.name != want || g.assert == nil || len(g.scenarios)+len(g.tiers) == 0 {
			t.Errorf("gate %s = %+v", want, g)
		}
		for _, name := range g.scenarios {
			if _, err := loadgen.ScenarioByName(name); err != nil {
				t.Errorf("gate %s: %v", want, err)
			}
		}
		if g.baseline != "" && (len(g.scenarios) < 2 || g.scenarios[0] != g.baseline) {
			t.Errorf("gate %s: baseline %q must run first and not alone, have %v", want, g.baseline, g.scenarios)
		}
	}
	if len(gates) != 4 {
		t.Errorf("%d gates in the table, 4 named here", len(gates))
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-not-a-flag"}, &out); err == nil {
		t.Error("bad flag accepted")
	}
	// The retired federation gate is an unknown name like any other; the
	// error lists the four that remain.
	for _, name := range []string{"nope", "federation"} {
		err := run([]string{"-gate", name}, &out)
		if err == nil || !strings.Contains(err.Error(), "unknown gate") ||
			!strings.Contains(err.Error(), "(have: smoke, hostile, scale, api)") {
			t.Errorf("-gate %s: err = %v", name, err)
		}
	}
	// Retired flags: the per-gate booleans, the report file and its scale
	// tiers (performance is the benchmark module's job), and the sizing
	// and target knobs that only ever took one value.
	for _, retired := range [][]string{
		{"-smoke"}, {"-out", "x"}, {"-scale"},
		{"-workers", "8"}, {"-endpoints", "32"}, {"-share-diff", "2"}, {"-variant", "test"},
	} {
		if err := run(retired, &out); err == nil || !strings.Contains(err.Error(), "not defined") {
			t.Errorf("retired flag %v: err = %v", retired, err)
		}
	}
	// Unknown scenarios, including the retired shapes no gate ran.
	for _, name := range []string{"nope", "churn", "storm", "malformed", "tcp-steady", "dup-submit"} {
		if err := run([]string{"-scenario", name}, &out); err == nil || !strings.Contains(err.Error(), "unknown scenario") {
			t.Errorf("-scenario %s: err = %v", name, err)
		}
	}
}
