package poolwatch

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/blockchain"
	"repro/internal/coinhive"
	"repro/internal/simclock"
	"repro/internal/simnet"
)

func newWorld(t *testing.T, poolRate, netRate float64, activity func(time.Time) float64, seed int64) (*simclock.Sim, *blockchain.Chain, *coinhive.Pool, *simnet.Network) {
	t.Helper()
	sim := simclock.New(time.Date(2018, 4, 20, 0, 0, 0, 0, time.UTC))
	params := blockchain.SimParams()
	params.MinDifficulty = uint64(netRate * 120)
	chain, err := blockchain.NewChain(params, uint64(sim.Now().Unix()), blockchain.AddressFromString("genesis"))
	if err != nil {
		t.Fatal(err)
	}
	chain.PreloadEmission(15_600_000 * blockchain.AtomicPerXMR)
	pool, err := coinhive.NewPool(coinhive.PoolConfig{
		Chain:  chain,
		Wallet: blockchain.AddressFromString("coinhive"),
		Clock:  sim,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := simnet.Bootstrap(chain, sim); err != nil {
		t.Fatal(err)
	}
	net, err := simnet.New(simnet.Config{
		Sim: sim, Chain: chain, Pool: pool,
		PoolHashRate: poolRate, NetworkHashRate: netRate,
		PoolActivity: activity, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sim, chain, pool, net
}

func TestWatcherAttributesExactlyThePoolBlocks(t *testing.T) {
	sim, chain, pool, net := newWorld(t, 50e6, 500e6, nil, 11)
	w := New(Config{Source: net, Chain: chain})
	net.Start()
	stop := w.Run(sim, time.Second)
	sim.RunFor(24 * time.Hour)
	stop()
	w.Sweep()

	attributed := w.Attributed()
	poolFound := pool.FoundBlocks()
	if len(poolFound) == 0 {
		t.Fatal("pool found no blocks in a day at 10% share")
	}
	// The method yields a *lower bound* (the paper's framing): every
	// attribution must be a real pool block, and recall must be near-total.
	// The only structural misses are back-to-back pool blocks inside one
	// tick window, where the watcher never saw the intermediate tip's jobs.
	found := map[uint64]bool{}
	for _, fb := range poolFound {
		found[fb.Height] = true
	}
	for _, ab := range attributed {
		if !found[ab.height] {
			t.Fatalf("attributed height %d is not a pool block — false positive", ab.height)
		}
	}
	if recall := float64(len(attributed)) / float64(len(poolFound)); recall < 0.95 {
		t.Errorf("recall = %.3f (%d/%d), want ≥ 0.95", recall, len(attributed), len(poolFound))
	}
}

func TestWatcherNeverAttributesForeignBlocks(t *testing.T) {
	sim, chain, pool, net := newWorld(t, 50e6, 500e6, nil, 12)
	w := New(Config{Source: net, Chain: chain})
	net.Start()
	stop := w.Run(sim, time.Second)
	sim.RunFor(12 * time.Hour)
	stop()
	w.Sweep()

	wallet := blockchain.AddressFromString("coinhive")
	for _, ab := range w.Attributed() {
		b := chain.Blocks(ab.height, ab.height+1)
		if len(b) == 0 || b[0].Coinbase.To != wallet {
			t.Fatalf("attributed block %d does not pay the pool wallet — false positive", ab.height)
		}
	}
	_ = pool
}

func TestMaxInputsPerPrevIs128(t *testing.T) {
	sim, chain, _, net := newWorld(t, 50e6, 500e6, nil, 13)
	w := New(Config{Source: net, Chain: chain})
	net.Start()
	stop := w.Run(sim, time.Second)
	sim.RunFor(3 * time.Hour)
	stop()
	st := w.StatsSnapshot()
	if st.MaxInputsPerPrev != 128 {
		t.Errorf("max inputs per prev = %d, want 128 (16 backends × 8 templates)", st.MaxInputsPerPrev)
	}
}

func TestSingleEndpointSeesAtMostEightInputs(t *testing.T) {
	sim, chain, _, net := newWorld(t, 50e6, 500e6, nil, 14)
	w := New(Config{Source: net, Chain: chain, Endpoints: 1, SlotsPerEndpoint: 20})
	net.Start()
	stop := w.Run(sim, time.Second)
	sim.RunFor(2 * time.Hour)
	stop()
	st := w.StatsSnapshot()
	if st.MaxInputsPerPrev != 8 {
		t.Errorf("one endpoint revealed %d inputs per prev, want 8", st.MaxInputsPerPrev)
	}
}

func TestOutageProducesPollFailuresAndNoFalseNegativesOutside(t *testing.T) {
	day := time.Date(2018, 4, 21, 0, 0, 0, 0, time.UTC)
	activity := func(tm time.Time) float64 {
		if !tm.Before(day) && tm.Before(day.Add(12*time.Hour)) {
			return 0
		}
		return 1
	}
	sim, chain, pool, net := newWorld(t, 50e6, 500e6, activity, 15)
	w := New(Config{Source: net, Chain: chain})
	net.Start()
	stop := w.Run(sim, time.Second)
	sim.RunFor(48 * time.Hour)
	stop()
	w.Sweep()
	st := w.StatsSnapshot()
	if st.PollFailures == 0 {
		t.Error("no poll failures recorded across a 12h outage")
	}
	// Outside the outage the pool mined; attribution still matches exactly
	// the pool's record (it found nothing during the outage anyway).
	if got, want := st.Attributed, len(pool.FoundBlocks()); float64(got) < 0.95*float64(want) {
		t.Errorf("attributed %d, pool found %d; want ≥95%% recall", got, want)
	}
}

func TestPartialEndpointCoverageLosesBlocks(t *testing.T) {
	// Ablation: polling only 2 endpoints (1/16 of backends) must attribute
	// roughly 1/16 of the pool's blocks — the paper needed *all* endpoints
	// for a tight bound.
	sim, chain, pool, net := newWorld(t, 100e6, 500e6, nil, 16)
	w := New(Config{Source: net, Chain: chain, Endpoints: 2})
	net.Start()
	stop := w.Run(sim, time.Second)
	sim.RunFor(48 * time.Hour)
	stop()
	w.Sweep()
	got := len(w.Attributed())
	total := len(pool.FoundBlocks())
	if total < 50 {
		t.Fatalf("too few pool blocks (%d) for a meaningful ratio", total)
	}
	frac := float64(got) / float64(total)
	if frac < 0.01 || frac > 0.20 {
		t.Errorf("2-endpoint coverage attributed %.3f of blocks, want ~1/16", frac)
	}
}

// TestEventDrivenRunMatchesTickLoopBitIdentical pins the event-driven Run
// to the historical fixed-tick polling loop: two worlds with the same seed
// evolve identically (the watcher never influences the simulation), so the
// attributed blocks — and even the poll counters — must match exactly.
func TestEventDrivenRunMatchesTickLoopBitIdentical(t *testing.T) {
	const seed = 29
	tick := 2 * time.Second

	// Reference: the seed's O(ticks) loop, reconstructed verbatim.
	simA, chainA, _, netA := newWorld(t, 50e6, 500e6, nil, seed)
	wA := New(Config{Source: netA, Chain: chainA})
	netA.Start()
	var lastTip [32]byte
	stopA := every(simA, tick, func() {
		tip := chainA.TipID()
		if tip != lastTip {
			lastTip = tip
			wA.PollAllEndpoints()
			wA.Sweep()
		}
	})

	// Event-driven Run under test.
	simB, chainB, _, netB := newWorld(t, 50e6, 500e6, nil, seed)
	wB := New(Config{Source: netB, Chain: chainB})
	netB.Start()
	stopB := wB.Run(simB, tick)

	simA.RunFor(36 * time.Hour)
	simB.RunFor(36 * time.Hour)
	stopA()
	stopB()
	wA.Sweep()
	wB.Sweep()

	a, b := wA.Attributed(), wB.Attributed()
	if len(a) == 0 {
		t.Fatal("reference loop attributed nothing; test is vacuous")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("attributed blocks diverge: tick loop %d, event-driven %d\n tick: %+v\n evnt: %+v",
			len(a), len(b), a, b)
	}
	sa, sb := wA.StatsSnapshot(), wB.StatsSnapshot()
	if sa != sb {
		t.Errorf("stats diverge: tick %+v, event-driven %+v", sa, sb)
	}
}

func TestPruneBoundsMemory(t *testing.T) {
	sim, chain, _, net := newWorld(t, 50e6, 500e6, nil, 17)
	w := New(Config{Source: net, Chain: chain})
	start := chain.Height()
	net.Start()
	// Poll but never sweep: clusters would grow unboundedly without pruning.
	stop := every(sim, 10*time.Second, func() { w.PollAllEndpoints() })
	sim.RunFor(6 * time.Hour)
	stop()
	// Every block moves the prev pointer the 10 s polls cluster on, so
	// more blocks than the bound means more clusters than it were opened.
	if blocks := chain.Height() - start; blocks <= maxPendingClusters {
		t.Fatalf("only %d blocks in the run; the bound of %d was never reached", blocks, maxPendingClusters)
	}
	w.mu.Lock()
	n := len(w.clusters)
	w.mu.Unlock()
	if n > maxPendingClusters {
		t.Errorf("%d clusters retained, want ≤ %d", n, maxPendingClusters)
	}
}

// every runs fn at the fixed interval d from d after now until stop is
// called: the fixed-tick poll loop the event-driven Run replaced.
func every(s *simclock.Sim, d time.Duration, fn func()) (stop func()) {
	stopped := false
	var tick func()
	tick = func() {
		if !stopped {
			fn()
			s.ScheduleAfter(d, tick)
		}
	}
	s.ScheduleAfter(d, tick)
	return func() { stopped = true }
}
