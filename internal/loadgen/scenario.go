package loadgen

import (
	"fmt"
	"sort"
	"time"
)

// Transport selectors for Scenario.Transport.
const (
	// TransportWS is the browser dialect: stratum envelopes over ws
	// frames, strictly client-clocked. The zero value.
	TransportWS = ""
	// TransportTCP is the raw-TCP JSON-RPC stratum dialect native miners
	// use — server-clocked job pushes.
	TransportTCP = "tcp"
	// TransportMixed alternates the two dialects session by session
	// against one pool.
	TransportMixed = "mixed"
)

// Attack selectors for Scenario.Attack. Each names one hostile miner
// behaviour the defended pool must contain; AttackMix blends them into a
// mostly-honest population.
const (
	// AttackNone is the honest zero value.
	AttackNone = ""
	// AttackDup earns one legitimate credit, then replays the identical
	// (job, nonce) share forever — the CPU-burn/free-credit attack the
	// duplicate memos exist for.
	AttackDup = "dup-submit"
	// AttackStale keeps resubmitting a job the chain tip has outrun,
	// riding the stale re-job loop — bounded by the too-many-stale error.
	AttackStale = "stale-flood"
	// AttackDiff submits shares under forged job IDs claiming a
	// difficulty tier the session was never served — the credit-inflation
	// attack the served-tier check rejects.
	AttackDiff = "diff-game"
	// AttackHammer redials and logs in as fast as possible on one shared
	// site key, exhausting the identity's login bucket into a ban.
	AttackHammer = "reconnect-hammer"
	// AttackMix assigns ~80% of sessions honest vardiff-paced mining and
	// rotates the other 20% across the four attacker kinds.
	AttackMix = "mix"
)

// Scenario is one load shape. The schedules are open-loop: arrivals
// follow the ramp regardless of how the service keeps up, the way
// short-link visitors arrived at cnhv.co pages whether or not the pool
// was fast — backlog is part of the measurement, not an error.
type Scenario struct {
	Name        string
	Description string

	// Transport picks the dialect(s): TransportWS, TransportTCP or
	// TransportMixed.
	Transport string
	// RefreshEvery, when >0, asks the driver to move the target's chain
	// tip on this cadence mid-run (via Config.Refresh) — the event that
	// makes the TCP dialect push jobs and both dialects field stale
	// shares.
	RefreshEvery time.Duration

	// Turns is the number of share-submission exchanges per session.
	Turns int
	// Ramp spreads session arrivals uniformly over this window.
	Ramp time.Duration

	// Hold keeps the fully-ramped swarm parked for this long before the
	// drain, with tip refreshes still firing. This is where the scale
	// tiers actually measure fan-out: every refresh pushes one job to
	// the ENTIRE parked swarm, so the push p99 reflects the full tier,
	// not whatever fraction had connected when a refresh happened to
	// fire mid-ramp.
	Hold time.Duration

	// Mem routes the scenario's TCP sessions over in-memory conns
	// (Config.DialTCP, wired to the in-process target's memconn
	// listener) instead of loopback sockets. Same bytes, same codec
	// stack, zero file descriptors — the only way a 20k-fd box can
	// carry the 10k/25k/50k scale tiers.
	Mem bool

	// APIReaders, when >0, runs this many HTTP clients paging the
	// archived-history stats API (/api/v1) for the whole run — readers
	// and miners contend for the same service, which is exactly the
	// operating condition the stats API must stay responsive under.
	// Requires Config.HTTPURL.
	APIReaders int
	// Archived marks a scenario that must run against a target with the
	// event archive + stats API enabled (drivers boot or select such a
	// target; see InprocOptions.Archive).
	Archived bool

	// Attack picks the hostile behaviour (Attack* constants). Non-honest
	// sessions verify the server's containment replies — an accepted
	// duplicate, for instance, is a protocol error.
	Attack string
	// Defended marks a scenario that must run against a target with the
	// vardiff + banscore defense layer enabled (drivers boot or select
	// such a target; see DefendedInprocOptions).
	Defended bool
	// SimHashrate, when >0, paces honest sessions like a miner of this
	// many hashes/second: the think time after each share is the served
	// difficulty divided by it, so accepted-share cadence is difficulty-
	// dependent and the vardiff retargeter has a real signal to steer.
	SimHashrate float64
}

// scenarios is the named catalogue: the shapes the loadd gates run. The
// swarm size is a sizing knob on Config, not part of the shape.
var scenarios = map[string]Scenario{
	"steady": {
		Name:        "steady",
		Description: "uniform ramp-in, every session mines then parks",
		Turns:       3,
		Ramp:        2 * time.Second,
	},
	"smoke": {
		Name:        "smoke",
		Description: "CI gate: fast ramp, two turns, park, assert zero protocol errors",
		Turns:       2,
		Ramp:        1500 * time.Millisecond,
	},
	"tcp-scale": {
		Name: "tcp-scale",
		Description: "scaling-curve tier: tens of thousands of stratum sessions over in-memory conns, " +
			"one share each, then parked under 1Hz tip-refresh job pushes",
		Transport: TransportTCP,
		Mem:       true,
		Turns:     1,
		// Ramp is per-1000-sessions: Run stretches it linearly with the
		// swarm size, so arrival rate (not ramp length) is what stays
		// fixed across the 10k/25k/50k tiers.
		Ramp:         500 * time.Millisecond,
		RefreshEvery: time.Second,
		Hold:         3 * time.Second,
	},
	"tcp-smoke": {
		Name:        "tcp-smoke",
		Description: "CI gate over raw-TCP stratum: fast ramp, two turns, park",
		Transport:   TransportTCP,
		Turns:       2,
		Ramp:        1500 * time.Millisecond,
	},
	"mixed": {
		Name:         "mixed",
		Description:  "ws and TCP sessions interleaved against one pool, tip refreshes on",
		Transport:    TransportMixed,
		Turns:        3,
		Ramp:         2 * time.Second,
		RefreshEvery: 500 * time.Millisecond,
	},
	"api-readers": {
		Name: "api-readers",
		Description: "mixed mining swarm with concurrent HTTP clients paging the archived-history stats API, " +
			"tips moving; readers and miners contend for one service",
		Transport:    TransportMixed,
		Archived:     true,
		APIReaders:   8,
		Turns:        3,
		Ramp:         2 * time.Second,
		RefreshEvery: 500 * time.Millisecond,
		// The hold keeps the swarm parked while the readers continue
		// paging, so the query percentiles cover both the contended ramp
		// and the steady state.
		Hold: 2 * time.Second,
	},
	"mixed-hostile": {
		Name:        "mixed-hostile",
		Description: "~80% honest vardiff-paced miners with all four attacker kinds interleaved, both dialects, tips moving",
		Transport:   TransportMixed,
		Defended:    true,
		Attack:      AttackMix,
		// 8 turns: honest sessions spend the first retarget window (4
		// accepts) at the starting difficulty and park with 4 accepts on
		// the converged tier — the sample the cadence acceptance bound
		// measures. More turns at the equilibrium think time would push
		// the run into the per-scenario deadline for no extra signal.
		Turns:        8,
		Ramp:         2 * time.Second,
		RefreshEvery: 400 * time.Millisecond,
		// 2 H/s: the swarm really grinds, so total client CPU is honest
		// sessions × hashrate × ~100µs/attempt — at catalogue scale
		// anything faster starves the service it is measuring.
		SimHashrate: 2,
	},
}

// TransportName names the scenario's dialect mix for reports.
func (s Scenario) TransportName() string {
	if s.Transport == TransportWS {
		return "ws"
	}
	if s.Mem {
		return s.Transport + "+mem"
	}
	return s.Transport
}

// ScenarioByName resolves a named scenario.
func ScenarioByName(name string) (Scenario, error) {
	s, ok := scenarios[name]
	if !ok {
		return Scenario{}, fmt.Errorf("loadgen: unknown scenario %q (have %v)", name, ScenarioNames())
	}
	return s, nil
}

// ScenarioNames lists the catalogue in stable order.
func ScenarioNames() []string {
	names := make([]string, 0, len(scenarios))
	for n := range scenarios {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
