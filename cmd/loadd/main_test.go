package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/loadgen"
)

func TestRunSmokeSmall(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-gate", "smoke", "-sessions", "64", "-workers", "32"}, &out); err != nil {
		t.Fatalf("%v\noutput: %s", err, out.String())
	}
	// The gate runs both dialects, each at the full session count.
	if !strings.Contains(out.String(), "smoke OK — 64 concurrent ws sessions") ||
		!strings.Contains(out.String(), "tcp-smoke OK — 64 concurrent tcp sessions") {
		t.Errorf("output = %q", out.String())
	}
}

// TestRunTCPScenarioWithRefresh drives the server-clocked dialect with
// tip refreshes on: the report row must show job pushes fanned out and
// still zero protocol errors (stale submits are re-jobbed, not errored).
func TestRunTCPScenarioWithRefresh(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_load.json")
	var out strings.Builder
	err := run([]string{"-scenario", "tcp-steady", "-sessions", "32", "-workers", "16", "-out", path}, &out)
	if err != nil {
		t.Fatalf("%v\noutput: %s", err, out.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report does not parse: %v", err)
	}
	r := rep.Results[0]
	if r.Transport != "tcp" || r.ProtocolErrors != 0 {
		t.Fatalf("result row = %+v (samples %v)", r, r.ErrorSamples)
	}
	if r.SharesOK != 96 {
		t.Errorf("SharesOK = %d, want 96", r.SharesOK)
	}
	if r.TipRefreshes == 0 || r.JobPushes == 0 || r.PushP99Ns <= 0 {
		t.Errorf("push fan-out not exercised: refreshes=%d pushes=%d p99=%d",
			r.TipRefreshes, r.JobPushes, r.PushP99Ns)
	}
}

func TestRunWritesReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_load.json")
	var out strings.Builder
	err := run([]string{"-scenario", "steady", "-sessions", "32", "-workers", "16", "-out", path}, &out)
	if err != nil {
		t.Fatalf("%v\noutput: %s", err, out.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report does not parse: %v", err)
	}
	if rep.Kind != "bench-load" || len(rep.Results) != 1 {
		t.Fatalf("report = %+v", rep)
	}
	r := rep.Results[0]
	if r.Scenario != "steady" || r.Sessions != 32 || r.SharesOK != 96 || r.AcceptP99Ns <= 0 {
		t.Errorf("result row = %+v", r)
	}
}

// TestRunSkipsTCPScenariosWithoutTCPTarget pins the remote-target
// behavior: a ws-only target skips (not aborts) tcp-dependent scenarios.
func TestRunSkipsTCPScenariosWithoutTCPTarget(t *testing.T) {
	var out strings.Builder
	// The target is never dialed: the only requested scenario is skipped.
	if err := run([]string{"-target", "ws://127.0.0.1:9", "-scenario", "tcp-steady"}, &out); err != nil {
		t.Fatalf("%v\noutput: %s", err, out.String())
	}
	if !strings.Contains(out.String(), "skipping tcp-steady") {
		t.Errorf("output = %q", out.String())
	}
}

// TestGateTable: every gate resolves by name to a runnable row list —
// catalogue scenarios or scale tiers — with an assertion behind it, and
// the Makefile's load-% rule has exactly these names to expand to.
func TestGateTable(t *testing.T) {
	for _, want := range []string{"smoke", "hostile", "scale", "api", "federation"} {
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
	if len(gates) != 5 {
		t.Errorf("%d gates in the table, 5 named here", len(gates))
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-not-a-flag"}, &out); err == nil {
		t.Error("bad flag accepted")
	}
	if err := run([]string{"-gate", "nope"}, &out); err == nil || !strings.Contains(err.Error(), "unknown gate") {
		t.Errorf("unknown gate: err = %v", err)
	}
	if err := run([]string{"-smoke"}, &out); err == nil {
		t.Error("a retired per-gate boolean was accepted")
	}
	if err := run([]string{"-scenario", "nope"}, &out); err == nil {
		t.Error("unknown scenario accepted")
	}
	if err := run([]string{"-variant", "nope"}, &out); err == nil {
		t.Error("unknown variant accepted")
	}
}
