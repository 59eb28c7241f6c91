// Package simnet is the discrete-event simulation of the Monero network
// surrounding the observed pool: background miners holding the bulk of the
// hash power, Poisson block arrivals at the difficulty-implied rate, and a
// pool-activity modulation hook that reproduces the diurnal/holiday/outage
// structure visible in the paper's Figure 5.
//
// Block winners are sampled in proportion to hash rate, so the pool's
// long-run block share converges to PoolHashRate/NetworkHashRate — the
// quantity (1.18%) the paper's §4.2 methodology estimates from the other
// direction.
package simnet

import (
	"errors"
	"math"
	"math/rand"
	"time"

	"repro/internal/blockchain"
	"repro/internal/coinhive"
	"repro/internal/simclock"
	"repro/internal/stratum"
)

// Config parameterises a network simulation.
type Config struct {
	Sim   *simclock.Sim
	Chain *blockchain.Chain
	Pool  *coinhive.Pool
	// PoolHashRate is the pool's nominal aggregate H/s (paper: 5.5 MH/s).
	PoolHashRate float64
	// NetworkHashRate is the total network H/s including the pool
	// (paper: 462 MH/s at the median 55.4G difficulty).
	NetworkHashRate float64
	// PoolActivity modulates the pool's hash rate over time (holidays,
	// time zones, outages). nil means a constant 1.0. A return of 0 also
	// takes the pool's endpoints offline for job polling.
	PoolActivity func(t time.Time) float64
	Seed         int64
}

// Network drives the simulation.
type Network struct {
	cfg       Config
	rng       *rand.Rand
	netWallet blockchain.Address
	seq       uint64
	produceFn func() // bound produceBlock, created once so scheduling never allocates

	// counters
	totalBlocks int
	poolBlocks  int
}

// New validates the configuration and builds a Network.
func New(cfg Config) (*Network, error) {
	if cfg.Sim == nil || cfg.Chain == nil || cfg.Pool == nil {
		return nil, errors.New("simnet: Sim, Chain and Pool are required")
	}
	if cfg.PoolHashRate <= 0 || cfg.NetworkHashRate <= cfg.PoolHashRate {
		return nil, errors.New("simnet: need 0 < PoolHashRate < NetworkHashRate")
	}
	if cfg.PoolActivity == nil {
		cfg.PoolActivity = func(time.Time) float64 { return 1 }
	}
	n := &Network{
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		netWallet: blockchain.AddressFromString("background-miners"),
	}
	n.produceFn = n.produceBlock
	return n, nil
}

// Bootstrap fills the difficulty window with on-target blocks so the
// retarget starts from steady state instead of difficulty 1. It appends
// window+1 blocks spaced at the target interval.
func Bootstrap(chain *blockchain.Chain, sim *simclock.Sim) error {
	p := chain.Params()
	interval := p.TargetBlockTime
	for i := 0; i <= p.DifficultyWindow; i++ {
		// Advance the clock first: consecutive blocks must carry spaced
		// timestamps or the retarget sees a zero-length window and spikes.
		sim.RunFor(interval)
		ts := uint64(sim.Now().Unix())
		b := chain.NewTemplate(ts, blockchain.AddressFromString("bootstrap"), []byte{0xB0, byte(i), byte(i >> 8)}, nil)
		if err := chain.AppendUnchecked(b); err != nil {
			return err
		}
	}
	return nil
}

// Start schedules the first block arrival; subsequent arrivals reschedule
// themselves. Call before Sim.RunUntil.
func (n *Network) Start() { n.scheduleNext() }

// rates returns (pool, total) hash rate at time t, after modulation.
func (n *Network) rates(t time.Time) (float64, float64) {
	act := n.cfg.PoolActivity(t)
	if act < 0 {
		act = 0
	}
	pool := n.cfg.PoolHashRate * act
	background := n.cfg.NetworkHashRate - n.cfg.PoolHashRate
	return pool, background + pool
}

func (n *Network) scheduleNext() {
	now := n.cfg.Sim.Now()
	_, total := n.rates(now)
	diff := n.cfg.Chain.NextDifficulty()
	mean := float64(diff) / total // seconds until the next block, on average
	if mean < 0.001 {
		mean = 0.001
	}
	dt := -mean * math.Log(1-n.rng.Float64())
	n.cfg.Sim.ScheduleAfter(time.Duration(dt*float64(time.Second))+time.Nanosecond, n.produceFn)
}

func (n *Network) produceBlock() {
	now := n.cfg.Sim.Now()
	ts := uint64(now.Unix())
	pool, total := n.rates(now)
	n.totalBlocks++
	if n.rng.Float64() < pool/total {
		// The pool's visitors found it: promote one of the live templates.
		backend := n.rng.Intn(coinhive.DefaultNumBackends)
		if _, err := n.cfg.Pool.ProduceWinningBlock(ts, backend, n.rng.Uint32()); err == nil {
			n.poolBlocks++
		}
	} else {
		// A background miner found it.
		n.seq++
		extra := []byte{0xBB, byte(n.seq), byte(n.seq >> 8), byte(n.seq >> 16), byte(n.seq >> 24)}
		b := n.cfg.Chain.NewTemplate(ts, n.netWallet, extra, nil)
		b.Nonce = n.rng.Uint32()
		_ = n.cfg.Chain.AppendUnchecked(b)
		n.cfg.Pool.RefreshIfStale()
	}
	n.scheduleNext()
}

// PollJob implements the watcher-facing job source: it returns the pool's
// current PoW input for an endpoint/slot, or ok=false when the service is
// unreachable (activity 0 — the May 6/7 outage in Figure 5).
func (n *Network) PollJob(endpoint, slot int) (stratum.Job, bool) {
	if n.cfg.PoolActivity(n.cfg.Sim.Now()) <= 0 {
		return stratum.Job{}, false
	}
	return n.cfg.Pool.Job(endpoint, slot, false), true
}
