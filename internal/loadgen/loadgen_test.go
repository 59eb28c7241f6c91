package loadgen

import (
	"net/http"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/blockchain"
	"repro/internal/metrics"
	"repro/internal/session"
)

// runScenarioAgainst drives a small swarm against the given in-process
// service and returns the run's trajectory point.
func runScenarioAgainst(t *testing.T, target *InprocTarget, reg *metrics.Registry, name string, sessions int) Result {
	t.Helper()
	sc, err := ScenarioByName(name)
	if err != nil {
		t.Fatal(err)
	}
	// Compress the shapes so the catalogue stays test-sized.
	sc.Ramp = 200 * time.Millisecond
	if sc.RefreshEvery > 0 {
		sc.RefreshEvery = 150 * time.Millisecond
	}
	cfg := target.Config()
	cfg.Sessions = sessions
	cfg.Scenario = sc
	cfg.Variant = target.Pool.Chain().Params().PowVariant
	cfg.Registry = reg
	cfg.Deadline = 30 * time.Second
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("%s: %v (samples: %v)", name, err, res.ErrorSamples)
	}
	if res.ProtocolErrors != 0 {
		t.Fatalf("%s: %d protocol errors: %v", name, res.ProtocolErrors, res.ErrorSamples)
	}
	return res
}

// runScenario is runScenarioAgainst with a throwaway service.
func runScenario(t *testing.T, name string, sessions int) Result {
	t.Helper()
	reg := metrics.NewRegistry()
	target, err := StartInproc(2, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer target.Close()
	return runScenarioAgainst(t, target, reg, name, sessions)
}

// TestArchivedTargetMountsAPI: a target started with an archive serves
// the stats API on /api/v1, as the api scenarios and the loadd api gate
// assume; without this check a lost mount shows only as that gate's
// failed queries.
func TestArchivedTargetMountsAPI(t *testing.T) {
	target, err := StartInprocOpts(InprocOptions{
		ShareDifficulty: 2,
		Registry:        metrics.NewRegistry(),
		Archive:         archive.NewMemStore(1 << 10),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer target.Close()
	resp, err := http.Get(target.HTTPURL() + "/api/v1/top")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /api/v1/top = %d, want 200", resp.StatusCode)
	}
}

func TestSteadyScenario(t *testing.T) {
	const n = 48
	res := runScenario(t, "steady", n)
	if res.PeakConcurrent != n || res.EndConcurrent != n {
		t.Errorf("concurrency peak/end = %d/%d, want %d", res.PeakConcurrent, res.EndConcurrent, n)
	}
	if want := uint64(n * 3); res.SharesOK != want {
		t.Errorf("SharesOK = %d, want %d", res.SharesOK, want)
	}
	if res.Reconnects != 0 {
		t.Errorf("steady scenario reconnected %d times", res.Reconnects)
	}
	// The oracle is the point: solutions are shared across every session
	// that lands on the same PoW input. Since the duplicate-share memos
	// reject replayed nonces, each session needs a *distinct* solution
	// per share (sequence-indexed in the oracle), so the grind count is
	// bounded by shares-per-session × distinct inputs — and can never
	// exceed the accepted shares themselves (one grind per share worst
	// case, fewer whenever sessions overlap on an input).
	if res.OracleGrinds == 0 || res.OracleGrinds > uint64(n*3) {
		t.Errorf("OracleGrinds = %d, want within [1, %d]", res.OracleGrinds, n*3)
	}
	if res.OracleGrinds > res.SharesOK {
		t.Errorf("OracleGrinds = %d exceeds %d accepted shares — the oracle re-ground a replay", res.OracleGrinds, res.SharesOK)
	}
	if res.AcceptP99Ns <= 0 || res.AcceptMaxNs < res.AcceptP99Ns {
		t.Errorf("latency snapshot inconsistent: p99=%d max=%d", res.AcceptP99Ns, res.AcceptMaxNs)
	}
}

// TestMixedScenario runs both dialects against one pool in one swarm:
// the cross-transport story under load, with tip refreshes pushing jobs
// to the TCP half and silently re-jobbing the ws half.
func TestMixedScenario(t *testing.T) {
	const n = 32
	reg := metrics.NewRegistry()
	target, err := StartInproc(2, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer target.Close()
	res := runScenarioAgainst(t, target, reg, "mixed", n)
	if res.Transport != "mixed" {
		t.Fatalf("Transport = %q", res.Transport)
	}
	if res.PeakConcurrent != n || res.EndConcurrent != n {
		t.Errorf("concurrency peak/end = %d/%d, want %d", res.PeakConcurrent, res.EndConcurrent, n)
	}
	if want := uint64(n * 3); res.SharesOK != want {
		t.Errorf("SharesOK = %d, want %d", res.SharesOK, want)
	}
	// Both dialects really hit one accounting plane.
	if st := target.Pool.StatsSnapshot(); st.SharesOK != uint64(n*3) {
		t.Errorf("pool SharesOK = %d, want %d", st.SharesOK, n*3)
	}
}

// TestOracleDedupesGrinds pins what makes swarms cheap: the oracle keys
// solutions by PoW input (wire blob + target), not by job ID, so two job
// IDs over one input share a grind, and each further sequence slot costs
// exactly one more.
func TestOracleDedupesGrinds(t *testing.T) {
	o := NewOracle(blockchain.SimParams().PowVariant)
	a := session.Job{
		ID:          "0-1-0",
		Blob:        make([]byte, 76),
		NonceOffset: 39,
		Target:      1 << 31, // difficulty 2
		WireBlob:    "blob",
		WireTarget:  "00000080",
	}
	b := a
	b.ID = "1-1-0" // a re-issue of the same template under another ID
	n1, s1, err := o.SolveSeq(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	n2, s2, err := o.SolveSeq(b, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n1 != n2 || s1 != s2 {
		t.Errorf("seq 0 differs across job IDs: nonce %d vs %d", n1, n2)
	}
	if g := o.Grinds(); g != 1 {
		t.Errorf("Grinds = %d after one input at one seq, want 1", g)
	}
	n3, _, err := o.SolveSeq(b, 1)
	if err != nil {
		t.Fatal(err)
	}
	if n3 <= n1 {
		t.Errorf("seq 1 nonce %d, want past seq 0's %d", n3, n1)
	}
	if g := o.Grinds(); g != 2 {
		t.Errorf("Grinds = %d after the next seq, want 2", g)
	}

	if _, err := ScenarioByName("definitely-not-a-scenario"); err == nil {
		t.Error("unknown scenario accepted")
	}
	if _, err := NewSwarm(Config{URL: "ws://x"}); err == nil {
		t.Error("missing scenario accepted")
	}
	if _, err := NewSwarm(Config{Scenario: Scenario{Name: "steady"}}); err == nil {
		t.Error("missing URL accepted")
	}
}
