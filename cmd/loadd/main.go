// Command loadd runs a named load-generation scenario against a
// coinhive service and prints one row per run: a live service under
// thousands of protocol-faithful ws+stratum miner sessions, with
// client-observed accept latency. Its job is correctness under load —
// the four -gate runs are CI gates; performance is recorded by the
// benchmark module (benchmark/, BENCHMARK.json), not here.
//
// Usage:
//
//	loadd -gate smoke         # CI gate: 500 ws + 500 TCP sessions, zero protocol errors
//	loadd -gate api           # CI gate: api-readers page /api/v1 while the swarm mines
//	                          # (also: hostile, scale — `make load-<gate>`)
//	loadd -scenario all       # the whole catalogue (the gates' shapes) against an in-process service
//	loadd -scenario tcp-scale -sessions 50000 -deadline 200s   # one big in-memory tier
//	loadd -target ws://host:8080 -target-tcp host:3333 -scenario mixed -sessions 2000
//
// Without -target, loadd boots an in-process coinhived on loopback
// ports — both the ws front and the raw-TCP stratum front — and wires
// the tip-refresh hook the mixed, api-readers, mixed-hostile and
// tcp-scale scenarios use to exercise job push fan-out; the swarm still
// crosses real TCP and the real protocol stacks. A remote target must
// run the simulation chain's PoW profile, as every coinhived does.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/archive"
	"repro/internal/blockchain"
	"repro/internal/loadgen"
	"repro/internal/metrics"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return // -h: usage already printed, exit 0
		}
		log.Fatal(err)
	}
}

// gate is one CI gate: a fixed run list against in-process targets this
// process boots and configures, and an assertion over the resulting rows.
type gate struct {
	name string
	doc  string
	// scenarios run in order, each at the gate's swarm size; tiers are
	// tcp-scale runs appended after them at these sizes.
	scenarios []string
	tiers     []int
	// sessions is the default swarm size (0: the -sessions default); an
	// explicit -sessions wins.
	sessions int
	// baseline names the scenario whose accept p99 the assertion is
	// measured against. That row is not itself asserted.
	baseline string
	// assert runs after every other row, with all rows so far and the
	// target's counter deltas over the last one. It returns the gate's OK
	// line, or "" while rows it needs are still to come.
	assert func(rows []loadgen.Result, baselineP99 int64, srvDelta func(string) uint64) (string, error)
}

var gates = []gate{
	{
		// One full-size swarm over each transport, all sessions asserted.
		name:      "smoke",
		doc:       "in-process smoke over both transports; full concurrency and zero protocol errors",
		scenarios: []string{"smoke", "tcp-smoke"},
		sessions:  500,
		assert:    assertSmoke,
	},
	{
		// An honest steady run fixes the latency baseline, then the
		// mixed-hostile population (80% honest, four attacker kinds) runs
		// against the defended target.
		name:      "hostile",
		doc:       "steady baseline then mixed-hostile against a defended target; containment, vardiff convergence and the honest-latency bound",
		scenarios: []string{"steady", "mixed-hostile"},
		sessions:  300,
		baseline:  "steady",
		assert:    assertHostile,
	},
	{
		name:   "scale",
		doc:    "tcp-scale at 1k then 10k sessions; zero protocol errors, bounded fan-out p99 and the goroutine diet",
		tiers:  []int{1000, 10000},
		assert: assertScale,
	},
	{
		// The baseline is "mixed" — the same transport blend, turn count and
		// tip-refresh cadence as api-readers, minus the archive and the
		// readers — so the submit p99 comparison isolates exactly what the
		// gate is about: the archive hook plus reader contention, not push
		// fan-out cost.
		name:      "api",
		doc:       "mixed baseline then api-readers against an archived target; zero API errors, the query-latency bound and an unperturbed submit p99",
		scenarios: []string{"mixed", "api-readers"},
		baseline:  "mixed",
		assert:    assertAPI,
	},
}

func gateByName(name string) (*gate, error) {
	var names []string
	for i := range gates {
		if gates[i].name == name {
			return &gates[i], nil
		}
		names = append(names, gates[i].name)
	}
	return nil, fmt.Errorf("loadd: unknown gate %q (have: %s)", name, strings.Join(names, ", "))
}

// inprocs boots the in-process services a run needs, each on first use
// and each with its own registry (the pool's, cumulative across scenarios,
// so rows report deltas): the plain one; the defended one (vardiff +
// banscore on), kept apart so the defense layer cannot perturb the
// baseline scenarios' numbers; and the archived one (file-backed event
// archive + stats API on /api/v1), whose archive directory is scratch —
// the gate measures durability cost, not the history itself.
type inprocs struct {
	out     io.Writer
	byKind  map[string]*loadgen.InprocTarget
	scratch []string
}

// inprocShareDiff is the in-process services' share difficulty: low, so
// the swarm oracle's pre-grind is a handful of hashes per PoW input (the
// defended target raises it to its own floor).
const inprocShareDiff = 2

func (ts *inprocs) get(sc loadgen.Scenario) (*loadgen.InprocTarget, error) {
	kind := "in-process"
	switch {
	case sc.Archived:
		kind = "archived"
	case sc.Defended:
		kind = "defended"
	}
	if t := ts.byKind[kind]; t != nil {
		return t, nil
	}
	reg := metrics.NewRegistry()
	opts := loadgen.InprocOptions{ShareDifficulty: inprocShareDiff, Registry: reg}
	blurb := fmt.Sprintf("share difficulty %d", inprocShareDiff)
	switch kind {
	case "defended":
		opts = loadgen.DefendedInprocOptions(inprocShareDiff, reg)
		blurb = "vardiff + banscore on"
	case "archived":
		dir, err := os.MkdirTemp("", "loadd-archive-")
		if err != nil {
			return nil, err
		}
		ts.scratch = append(ts.scratch, dir)
		store, err := archive.OpenFileStore(dir, archive.FileStoreOptions{})
		if err != nil {
			return nil, err
		}
		opts.Archive = store
		blurb = "file-backed archive + stats API on"
	}
	t, err := loadgen.StartInprocOpts(opts)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(ts.out, "loadd: %s coinhived on %s (stratum %s, %s)\n", kind, t.URL, t.TCPAddr, blurb)
	ts.byKind[kind] = t
	return t, nil
}

func (ts *inprocs) close() {
	for _, t := range ts.byKind {
		t.Close()
	}
	for _, dir := range ts.scratch {
		os.RemoveAll(dir)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("loadd", flag.ContinueOnError)
	target := fs.String("target", "", "ws:// base of a live service (empty: boot one in-process)")
	targetTCP := fs.String("target-tcp", "", "host:port of a live service's raw-TCP stratum listener")
	scenario := fs.String("scenario", "steady",
		fmt.Sprintf(`scenario name (%s), or "all" for the catalogue`, strings.Join(loadgen.ScenarioNames(), ", ")))
	sessions := fs.Int("sessions", 1000, "swarm size")
	deadline := fs.Duration("deadline", 60*time.Second, "per-scenario time budget")
	var gateDoc strings.Builder
	for _, g := range gates {
		fmt.Fprintf(&gateDoc, "\n  %s: %s", g.name, g.doc)
	}
	gateName := fs.String("gate", "", "run a CI gate in-process instead of -scenario, and assert its invariants:"+gateDoc.String())
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the whole run here (pprof)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var g *gate
	names := []string{*scenario}
	var tiers []int
	switch {
	case *gateName != "":
		var err error
		if g, err = gateByName(*gateName); err != nil {
			return err
		}
		names, tiers, *target = g.scenarios, g.tiers, ""
		sessionsSet := false
		fs.Visit(func(f *flag.Flag) { sessionsSet = sessionsSet || f.Name == "sessions" })
		if g.sessions != 0 && !sessionsSet {
			*sessions = g.sessions
		}
	case *scenario == "all":
		names = loadgen.ScenarioNames()
	}

	// Each run is a (scenario, swarm size) pair; a gate's scale tiers reuse
	// the tcp-scale shape at growing sizes.
	type runSpec struct {
		name     string
		sessions int
	}
	specs := make([]runSpec, 0, len(names)+len(tiers))
	for _, n := range names {
		specs = append(specs, runSpec{n, *sessions})
	}
	for _, tier := range tiers {
		specs = append(specs, runSpec{"tcp-scale", tier})
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	if *target == "" && *targetTCP != "" {
		// An orphan -target-tcp would be silently replaced by the
		// in-process listener below, load-testing the wrong server while
		// the printed rows claim otherwise.
		return fmt.Errorf("loadd: -target-tcp requires -target (without -target the run boots its own in-process service)")
	}
	targets := &inprocs{out: out, byKind: map[string]*loadgen.InprocTarget{}}
	defer targets.close()

	var rows []loadgen.Result
	var baselineP99 int64 // the gate's baseline scenario's accept p99
	for _, spec := range specs {
		name := spec.name
		sc, err := loadgen.ScenarioByName(name)
		if err != nil {
			return err
		}
		// Scenarios that assert the behaviour of a target this process
		// configured (or, for the in-memory tiers, dial its fd-less
		// listener) have nothing to run against a remote one; they are
		// skipped (announced) instead of aborting a catalogue run halfway
		// through and discarding the finished rows.
		if *target != "" {
			why := ""
			switch {
			case sc.Mem:
				why = "in-memory scale tiers need the in-process target; drop -target"
			case sc.Transport != loadgen.TransportWS && *targetTCP == "":
				why = "target has no raw-TCP stratum listener; pass -target-tcp"
			case sc.Defended:
				why = "hostile scenarios need the in-process defended target; drop -target"
			case sc.Archived:
				why = "archived scenarios need the in-process archived target; drop -target"
			}
			if why != "" {
				fmt.Fprintf(out, "loadd: skipping %s (%s)\n", name, why)
				continue
			}
		}
		cfg := loadgen.Config{URL: *target, TCPAddr: *targetTCP}
		var pushCursor metrics.HistCursor
		var srvBefore map[string]uint64
		var t *loadgen.InprocTarget
		if *target == "" {
			if t, err = targets.get(sc); err != nil {
				return err
			}
			st, reg := t.Stratum, t.Pool.Metrics()
			cfg = t.Config()
			cfg.ParkedFn = func() int64 { return st.Parked() }
			// The server-side counters and the job-push histogram are
			// cumulative; the cursor and the baseline scope them to this
			// row. Scale rows measure fan-out over the hold window only:
			// re-scoping both at the all-parked barrier drops ramp-phase
			// pushes (partial swarm, contended with login/grind work)
			// from the percentiles, and keeps bytes-per-push and
			// encodes-per-tip honest for the same window.
			rescope := func() { pushCursor, srvBefore = st.PushCursor(), counterValues(reg) }
			rescope()
			if sc.Mem {
				cfg.AtBarrier = rescope
			}
		}
		cfg.Sessions, cfg.Scenario, cfg.Deadline = spec.sessions, sc, *deadline
		cfg.Variant = blockchain.SimParams().PowVariant
		cfg.Registry = metrics.NewRegistry() // fresh per run: every row is per-scenario
		res, err := loadgen.Run(cfg)
		var srvDelta func(string) uint64
		if err == nil && t != nil {
			pushes, lat := t.Stratum.PushStatsSince(pushCursor)
			res.JobPushes = pushes
			if pushes > 0 {
				res.PushP99Ns = int64(lat.P99)
			}
			after := counterValues(t.Pool.Metrics())
			srvDelta = func(name string) uint64 { return after[name] - srvBefore[name] }
			res.PushBytes = srvDelta("server.push_bytes")
			res.JobEncodes = srvDelta("pool.job_encodes")
			if sc.Defended {
				res.SrvBans = srvDelta("server.bans")
				res.SrvRetargets = srvDelta("server.retargets")
				res.SrvSharesForged = srvDelta("server.shares_forged")
				res.SrvStaleFloods = srvDelta("server.stale_flood")
				res.SrvRateLimited = srvDelta("server.rate_limited")
				res.SrvLoginsBanned = srvDelta("server.logins_banned")
				res.PoolDupShares = srvDelta("pool.shares_duplicate")
			}
		}
		if err != nil {
			return fmt.Errorf("scenario %s: %w (samples: %v)", name, err, res.ErrorSamples)
		}
		rows = append(rows, res)
		printRow(out, sc, res, srvDelta)

		if g == nil {
			continue
		}
		if name == g.baseline {
			baselineP99 = res.AcceptP99Ns
			continue
		}
		ok, err := g.assert(rows, baselineP99, srvDelta)
		if err != nil {
			return err
		}
		if ok != "" {
			fmt.Fprintln(out, "loadd:", ok)
		}
	}
	return nil
}

// printRow prints one result row in human form: the common line, then the
// lines only some scenario shapes have numbers for.
func printRow(out io.Writer, sc loadgen.Scenario, res loadgen.Result, srvDelta func(string) uint64) {
	fmt.Fprintf(out, "loadd: %-10s [%s] sessions=%d peak=%d shares_ok=%d shares/s=%.0f accept p50=%s p99=%s max=%s reconnects=%d pushes=%d push_p99=%s proto_errors=%d\n",
		res.Scenario, res.Transport, res.Sessions, res.PeakConcurrent, res.SharesOK, res.SharesPerSec,
		time.Duration(res.AcceptP50Ns), time.Duration(res.AcceptP99Ns), time.Duration(res.AcceptMaxNs),
		res.Reconnects, res.JobPushes, time.Duration(res.PushP99Ns), res.ProtocolErrors)
	if sc.Mem {
		var bytesPerPush uint64
		if res.JobPushes > 0 {
			bytesPerPush = res.PushBytes / res.JobPushes
		}
		fmt.Fprintf(out, "loadd: %-10s scale: server_parked=%d goroutines_at_park=%d job_encodes=%d bytes/push=%d\n",
			res.Scenario, res.ServerParked, res.GoroutinesAtPark, res.JobEncodes, bytesPerPush)
	}
	if sc.APIReaders > 0 { // Archived scenarios only ever run in-process, so srvDelta is set
		fmt.Fprintf(out, "loadd: %-10s api: queries=%d errors=%d query p50=%s p99=%s | archive appends=%d dropped=%d fsyncs=%d api_requests=%d\n",
			res.Scenario, res.APIQueries, res.APIErrors,
			time.Duration(res.APIQueryP50Ns), time.Duration(res.APIQueryP99Ns),
			srvDelta("pool.archive_appends"), srvDelta("pool.archive_dropped"),
			srvDelta("pool.archive_fsyncs"), srvDelta("server.api_requests"))
	}
	if sc.Attack != loadgen.AttackNone {
		fmt.Fprintf(out, "loadd: %-10s contained: banned=%d (srv %d) dup_rejected=%d dup_credited=%d rate_limited=%d stale_flood=%d retargets=%d honest=%d cadence=%.0f/min @diff=%d\n",
			res.Scenario, res.SessionsBanned, res.SrvBans, res.RejectedDuplicate, res.DuplicateCredited,
			res.RejectedRateLimit, res.RejectedStaleFlood, res.SrvRetargets,
			res.HonestSessions, res.HonestCadencePerMin, res.ConvergedDifficulty)
	}
}

// assertSmoke is the CI gate: the full swarm must be connected
// simultaneously at the all-parked barrier, every expected share must
// have been accepted, and nothing may have deviated from the dialect.
func assertSmoke(rows []loadgen.Result, _ int64, _ func(string) uint64) (string, error) {
	res := rows[len(rows)-1]
	sessions := res.Sessions
	if res.ProtocolErrors != 0 {
		return "", fmt.Errorf("smoke: %d protocol errors: %v", res.ProtocolErrors, res.ErrorSamples)
	}
	if res.EndConcurrent != int64(sessions) || res.PeakConcurrent < int64(sessions) {
		return "", fmt.Errorf("smoke: concurrency end=%d peak=%d, want %d sustained",
			res.EndConcurrent, res.PeakConcurrent, sessions)
	}
	if want := uint64(sessions * 2); res.SharesOK != want { // smoke scenario: 2 turns
		return "", fmt.Errorf("smoke: SharesOK = %d, want %d", res.SharesOK, want)
	}
	return fmt.Sprintf("%s OK — %d concurrent %s sessions sustained, zero protocol errors",
		res.Scenario, res.EndConcurrent, res.Transport), nil
}

// assertHostile is the abuse gate: the defended pool must have contained
// the attackers (at least one ban, zero duplicate credit), steered the
// honest population to the vardiff goal (±25%), and kept honest accept
// latency within 2× the steady baseline (plus a small absolute floor so
// a sub-millisecond baseline doesn't make scheduler jitter a failure).
func assertHostile(rows []loadgen.Result, baselineP99 int64, _ func(string) uint64) (string, error) {
	res := rows[len(rows)-1]
	if res.ProtocolErrors != 0 {
		return "", fmt.Errorf("hostile: %d protocol errors: %v", res.ProtocolErrors, res.ErrorSamples)
	}
	if res.DuplicateCredited != 0 {
		return "", fmt.Errorf("hostile: pool credited %d duplicate shares (must be zero)", res.DuplicateCredited)
	}
	if res.SessionsBanned == 0 || res.SrvBans == 0 {
		return "", fmt.Errorf("hostile: no attacker was banned (client saw %d, server counted %d)",
			res.SessionsBanned, res.SrvBans)
	}
	const goal = 12.0 // DefendedInprocOptions vardiff target
	if res.HonestCadencePerMin < goal*0.75 || res.HonestCadencePerMin > goal*1.25 {
		return "", fmt.Errorf("hostile: honest cadence %.1f shares/min, want within ±25%% of %.0f (converged difficulty %d over %d sessions)",
			res.HonestCadencePerMin, goal, res.ConvergedDifficulty, res.HonestSessions)
	}
	// Compared at the histogram's power-of-2 bucket resolution (see
	// histBucketCeil): both p99s are bucket upper bounds, so a raw
	// cutoff between edges turns quantisation into a gate failure — a
	// fast-baseline run (524µs) would demand ≤6.05ms of a measurement
	// that can only read 4.19ms or 8.39ms.
	if bound := histBucketCeil(2*baselineP99 + int64(5*time.Millisecond)); baselineP99 > 0 && res.AcceptP99Ns > bound {
		return "", fmt.Errorf("hostile: honest accept p99 %s exceeds 2× steady baseline %s (+5ms floor, bucket-ceiled to %s)",
			time.Duration(res.AcceptP99Ns), time.Duration(baselineP99), time.Duration(bound))
	}
	return fmt.Sprintf("mixed-hostile OK — %d attackers contained, honest cadence %.0f/min at difficulty %d, p99 within bound",
		res.SessionsBanned, res.HonestCadencePerMin, res.ConvergedDifficulty), nil
}

// assertAPI is the observability gate: the stats API must have answered
// every reader page clean (no 5xx, no transport failure, no broken
// cursor) with a bounded query tail, the archive instruments must show
// events really flowed to disk (appends and fsyncs non-zero, since the
// archived target is file-backed), and — the perturbation bound the
// tentpole's non-blocking hook exists for — the miners' accept p99 must
// stay within 2× the no-archive steady baseline (+5ms scheduler floor,
// compared at the histogram's power-of-2 bucket resolution like the
// hostile gate).
func assertAPI(rows []loadgen.Result, baselineP99 int64, srvDelta func(string) uint64) (string, error) {
	res := rows[len(rows)-1]
	if res.ProtocolErrors != 0 {
		return "", fmt.Errorf("api: %d protocol errors: %v", res.ProtocolErrors, res.ErrorSamples)
	}
	if res.APIErrors != 0 {
		return "", fmt.Errorf("api: %d failed stats-API queries: %v", res.APIErrors, res.ErrorSamples)
	}
	if res.APIQueries == 0 {
		return "", fmt.Errorf("api: readers issued no queries (stats API unreachable?)")
	}
	if bound := histBucketCeil(int64(100 * time.Millisecond)); res.APIQueryP99Ns > bound {
		return "", fmt.Errorf("api: query p99 %s exceeds the %s responsiveness bound",
			time.Duration(res.APIQueryP99Ns), time.Duration(bound))
	}
	// The submit-tail tripwire targets order-of-magnitude perturbation —
	// the failure mode where archiving leaks synchronous I/O into the
	// submit path (the Recorder is non-blocking by construction, so any
	// such stall is a bug, not backpressure). It is NOT a tight ratio:
	// the readers are real CPU load sharing one box with the swarm, so
	// the whole accept distribution legitimately shifts under them (the
	// p50 moves too — scheduler contention, not archive cost), and both
	// sides of a ratio are power-of-2 bucketed, which makes a 2× bound
	// flap one bucket either way. Hence 4× the no-archive baseline with
	// a 100ms absolute floor, bucket-ceiled.
	allowed := 4*baselineP99 + int64(5*time.Millisecond)
	if floor := int64(100 * time.Millisecond); allowed < floor {
		allowed = floor
	}
	if bound := histBucketCeil(allowed); baselineP99 > 0 && res.AcceptP99Ns > bound {
		return "", fmt.Errorf("api: submit p99 %s exceeds 4× the no-archive baseline %s (100ms floor, bucket-ceiled to %s) — archiving is leaking synchronous work into the submit path",
			time.Duration(res.AcceptP99Ns), time.Duration(baselineP99), time.Duration(bound))
	}
	if srvDelta("pool.archive_appends") == 0 {
		return "", fmt.Errorf("api: pool.archive_appends is zero — no events reached the archive")
	}
	if srvDelta("pool.archive_fsyncs") == 0 {
		return "", fmt.Errorf("api: pool.archive_fsyncs is zero — the file-backed archive never synced")
	}
	if srvDelta("server.api_requests") == 0 {
		return "", fmt.Errorf("api: server.api_requests is zero — reader queries bypassed the stats API")
	}
	return fmt.Sprintf("api-readers OK — %d queries answered clean, query p99 %s, submit p99 within the stall tripwire",
		res.APIQueries, time.Duration(res.APIQueryP99Ns)), nil
}

// assertScale is the scaling gate: every tcp-scale tier must have run
// clean at full concurrency, the last (largest) tier's server-side
// fan-out p99 must stay within 2× the first (baseline) tier's plus a 5ms
// scheduler-jitter floor, parked sessions must not cost goroutines
// (< sessions/4 process-wide, client AND server included), and the
// encode-once invariant must hold: encodes are bounded per tip event
// (shards × job slots × vardiff tiers in use — ~36 here), independent of
// how many sessions each encode fanned out to.
// scaleAnchorP99 is the 1k-session fan-out p99 the seed recorded before
// the parking/encode-once work (a steady TCP swarm over real sockets, this
// class of box) — the fixed yardstick the scale gate's "held flat"
// claim is measured against.
const scaleAnchorP99 = 16800 * time.Microsecond

func assertScale(rows []loadgen.Result, _ int64, _ func(string) uint64) (string, error) {
	if len(rows) < 2 {
		return "", nil // the baseline tier alone proves nothing yet
	}
	var base, top *loadgen.Result
	for i := range rows {
		r := &rows[i]
		if r.Scenario != "tcp-scale" {
			continue
		}
		if r.ProtocolErrors != 0 {
			return "", fmt.Errorf("scale %d: %d protocol errors: %v", r.Sessions, r.ProtocolErrors, r.ErrorSamples)
		}
		if r.EndConcurrent != int64(r.Sessions) {
			return "", fmt.Errorf("scale %d: concurrency end=%d, want all sessions live at the barrier", r.Sessions, r.EndConcurrent)
		}
		if r.JobPushes == 0 {
			return "", fmt.Errorf("scale %d: no job pushes measured (tip refreshes not reaching the stratum front?)", r.Sessions)
		}
		if base == nil {
			base = r
		}
		top = r
	}
	if base == nil || top == base {
		return "", fmt.Errorf("scale: need at least two tcp-scale tiers, got %d rows", len(rows))
	}
	// The fan-out tail bound. Fan-out is O(sessions) work on however many
	// cores the box has, so the tail at 10× the sessions cannot be held
	// to 2× a same-shaped small-tier measurement on a 1-CPU box — that
	// would demand sub-microsecond per-push cost through a queue, a
	// bounded write deadline and three instruments. The claim the curve
	// makes is anchored the way the seed's numbers were: the pre-parking
	// stack measured ~16.8ms push p99 at 1k sessions, and the scaled
	// stack must serve 10× the sessions within 2× that tail. The measured
	// small-tier baseline still participates so a regression there (which
	// would sail under a fixed anchor) fails the gate too.
	baseline := base.PushP99Ns
	if baseline < int64(scaleAnchorP99) {
		baseline = int64(scaleAnchorP99)
	}
	// The histogram reports p99 as its power-of-2 bucket's upper bound,
	// so a measured value can read up to 2× its true latency; compare at
	// bucket resolution (round the bound up to the next bucket edge) or
	// the gate flaps whenever the true p99 sits near an edge — 2×16.8ms
	// = 33.6ms is 46µs above the 2^25ns bucket, so an honest ~33ms tail
	// would fail on quantisation alone roughly half the time.
	if bound := histBucketCeil(2 * baseline); top.PushP99Ns > bound {
		return "", fmt.Errorf("scale: push p99 %s at %d sessions exceeds 2× the 1k fan-out baseline %s (bucket-ceiled bound %s)",
			time.Duration(top.PushP99Ns), top.Sessions, time.Duration(baseline), time.Duration(bound))
	}
	if top.GoroutinesAtPark >= top.Sessions/4 {
		return "", fmt.Errorf("scale: %d goroutines for %d parked sessions (want < sessions/4 — parked sessions must not hold stacks)",
			top.GoroutinesAtPark, top.Sessions)
	}
	if top.ServerParked < int64(top.Sessions)*95/100 {
		return "", fmt.Errorf("scale: server reports %d parked of %d sessions at the barrier", top.ServerParked, top.Sessions)
	}
	if bound := (top.TipRefreshes + 2) * 128; top.JobEncodes > bound {
		return "", fmt.Errorf("scale: %d job encodes over %d tip refreshes (bound %d) — encode-once fan-out is not amortising",
			top.JobEncodes, top.TipRefreshes, bound)
	}
	return fmt.Sprintf("scale OK — %d sessions parked on %d goroutines, push p99 %s within 2× the 1k baseline, zero protocol errors",
		top.Sessions, top.GoroutinesAtPark, time.Duration(top.PushP99Ns)), nil
}

// histBucketCeil rounds ns up to the metrics histogram's bucket edge
// (the next power of two), the smallest bound the log2-bucketed p99 can
// actually be compared against.
func histBucketCeil(ns int64) int64 {
	edge := int64(1)
	for edge < ns {
		edge <<= 1
	}
	return edge
}

// counterValues reads every counter in a registry by name, for
// before/after deltas (reads go through Snapshots, not re-registration).
func counterValues(reg *metrics.Registry) map[string]uint64 {
	m := map[string]uint64{}
	for _, s := range reg.Snapshots() {
		if s.Kind == "counter" {
			m[s.Name] = s.Value
		}
	}
	return m
}
