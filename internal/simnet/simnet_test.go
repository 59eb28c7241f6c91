package simnet

import (
	"math"
	"testing"
	"time"

	"repro/internal/blockchain"
	"repro/internal/coinhive"
	"repro/internal/simclock"
)

func newSimWorld(t *testing.T, poolRate, netRate float64, activity func(time.Time) float64, seed int64) (*simclock.Sim, *blockchain.Chain, *coinhive.Pool, *Network) {
	t.Helper()
	sim := simclock.New(time.Date(2018, 4, 20, 0, 0, 0, 0, time.UTC))
	params := blockchain.SimParams()
	// Steady-state difficulty = netRate × 120 s. Floor it there so the
	// bootstrap starts at realistic difficulty immediately.
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
	if err := Bootstrap(chain, sim); err != nil {
		t.Fatal(err)
	}
	net, err := New(Config{
		Sim: sim, Chain: chain, Pool: pool,
		PoolHashRate: poolRate, NetworkHashRate: netRate,
		PoolActivity: activity, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sim, chain, pool, net
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	sim := simclock.New(time.Unix(0, 0))
	chain, _ := blockchain.NewChain(blockchain.SimParams(), 0, blockchain.AddressFromString("g"))
	pool, _ := coinhive.NewPool(coinhive.PoolConfig{Chain: chain})
	if _, err := New(Config{Sim: sim, Chain: chain, Pool: pool, PoolHashRate: 10, NetworkHashRate: 5}); err == nil {
		t.Error("pool rate above network rate accepted")
	}
}

func TestBlockRateApproximatesTarget(t *testing.T) {
	sim, chain, _, net := newSimWorld(t, 5.5e6, 462e6, nil, 1)
	h0 := chain.Height()
	net.Start()
	days := 2.0
	sim.RunFor(time.Duration(days * 24 * float64(time.Hour)))
	got := float64(chain.Height() - h0)
	want := days * 720 // 720 blocks/day at the 2-minute target
	if got < want*0.9 || got > want*1.1 {
		t.Errorf("blocks over %v days = %v, want ~%v", days, got, want)
	}
}

func TestPoolShareConvergesToHashRateShare(t *testing.T) {
	if testing.Short() {
		t.Skip("two virtual weeks of block arrivals")
	}
	sim, _, pool, net := newSimWorld(t, 5.5e6, 462e6, nil, 2)
	net.Start()
	sim.RunFor(14 * 24 * time.Hour)
	total := net.totalBlocks
	poolBlocks := net.poolBlocks
	share := float64(poolBlocks) / float64(total)
	want := 5.5 / 462 // 1.19%
	if math.Abs(share-want) > 0.006 {
		t.Errorf("pool share = %.4f over %d blocks, want ~%.4f", share, total, want)
	}
	if got := pool.StatsSnapshot().BlocksFound; got != poolBlocks {
		t.Errorf("pool recorded %d blocks, network says %d", got, poolBlocks)
	}
}

func TestOutageSuppressesPoolBlocksAndJobs(t *testing.T) {
	outageStart := time.Date(2018, 4, 21, 0, 0, 0, 0, time.UTC)
	outageEnd := outageStart.Add(24 * time.Hour)
	activity := func(tm time.Time) float64 {
		if !tm.Before(outageStart) && tm.Before(outageEnd) {
			return 0
		}
		return 1
	}
	// Large pool share (20%) so suppression is statistically obvious.
	sim, _, pool, net := newSimWorld(t, 100e6, 500e6, activity, 3)
	net.Start()

	// Day before the outage: pool wins blocks, jobs poll fine. Stop one
	// second shy of the boundary — the outage interval is half-open.
	sim.RunUntil(outageStart.Add(-time.Second))
	if _, ok := net.PollJob(0, 0); !ok {
		t.Error("job poll failed before outage")
	}
	before := pool.StatsSnapshot().BlocksFound
	if before == 0 {
		t.Fatal("pool found no blocks before the outage")
	}
	// During the outage: no jobs, no new pool blocks.
	sim.RunFor(time.Hour + time.Second)
	if _, ok := net.PollJob(0, 0); ok {
		t.Error("job poll succeeded during outage")
	}
	sim.RunUntil(outageEnd)
	during := pool.StatsSnapshot().BlocksFound - before
	if during != 0 {
		t.Errorf("pool found %d blocks during its outage", during)
	}
	// After: service back.
	sim.RunFor(12 * time.Hour)
	if _, ok := net.PollJob(0, 0); !ok {
		t.Error("job poll failed after outage")
	}
	if pool.StatsSnapshot().BlocksFound == before {
		t.Error("pool found no blocks after the outage ended")
	}
}

func TestDifficultyStaysNearSteadyState(t *testing.T) {
	sim, chain, _, net := newSimWorld(t, 5.5e6, 462e6, nil, 4)
	net.Start()
	sim.RunFor(3 * 24 * time.Hour)
	diff := float64(chain.NextDifficulty())
	want := 462e6 * 120 // 55.44G
	if diff < want*0.85 || diff > want*1.3 {
		t.Errorf("difficulty = %.3g, want ~%.3g", diff, want)
	}
}

func TestPoolBlocksPayThePoolWallet(t *testing.T) {
	sim, chain, _, net := newSimWorld(t, 100e6, 200e6, nil, 5)
	net.Start()
	sim.RunFor(6 * time.Hour)
	wallet := blockchain.AddressFromString("coinhive")
	poolPaid, otherPaid := 0, 0
	for _, b := range chain.Blocks(0, chain.Height()+1) {
		if b.Coinbase.To == wallet {
			poolPaid++
		} else {
			otherPaid++
		}
	}
	if poolPaid == 0 || otherPaid == 0 {
		t.Errorf("coinbase split pool=%d other=%d; want both nonzero", poolPaid, otherPaid)
	}
	if poolPaid != net.poolBlocks {
		t.Errorf("wallet-attributed blocks %d != network count %d", poolPaid, net.poolBlocks)
	}
}

func TestTimestampsNonDecreasing(t *testing.T) {
	sim, chain, _, net := newSimWorld(t, 5.5e6, 462e6, nil, 6)
	net.Start()
	sim.RunFor(12 * time.Hour)
	blocks := chain.Blocks(0, chain.Height()+1)
	for i := 1; i < len(blocks); i++ {
		if blocks[i].Timestamp < blocks[i-1].Timestamp {
			t.Fatalf("timestamp regression at height %d", i)
		}
	}
}
