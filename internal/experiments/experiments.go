// Package experiments regenerates every table and figure of the paper's
// evaluation. Each Run* function returns a structured result with a
// Render method producing the paper-style text artefact; cmd/experiments
// runs them all and EXPERIMENTS.md records paper-vs-measured values.
package experiments

import (
	"time"

	"repro/internal/blockchain"
	"repro/internal/coinhive"
	"repro/internal/simclock"
	"repro/internal/simnet"
	"repro/internal/webgen"
)

// Scale selects corpus sizes and observation windows.
type Scale int

// Scales.
const (
	// ScaleCI is sized for test suites (seconds).
	ScaleCI Scale = iota
	// ScalePaper runs populations and durations proportional to the paper
	// (minutes).
	ScalePaper
)

// corpusSizes returns per-TLD corpus sizes. The paper's absolute zone
// sizes (116M .com) are infeasible to simulate site-by-site; populations
// are scaled down uniformly and results report both raw counts and
// zone-extrapolated counts.
func (s Scale) corpusSizes() map[webgen.TLD]int {
	if s == ScalePaper {
		return map[webgen.TLD]int{
			webgen.TLDAlexa: 950_000,
			webgen.TLDCom:   2_000_000,
			webgen.TLDNet:   1_000_000,
			webgen.TLDOrg:   2_000_000,
		}
	}
	return map[webgen.TLD]int{
		webgen.TLDAlexa: 120_000,
		webgen.TLDCom:   150_000,
		webgen.TLDNet:   80_000,
		webgen.TLDOrg:   150_000,
	}
}

// zoneSizes are the real populations the paper probed.
var zoneSizes = map[webgen.TLD]float64{
	webgen.TLDAlexa: 950_000,
	webgen.TLDCom:   116_000_000,
	webgen.TLDNet:   12_000_000,
	webgen.TLDOrg:   9_000_000,
}

// extrapolationFactor converts a scaled-corpus count to a zone-level count.
func (s Scale) extrapolationFactor(tld webgen.TLD) float64 {
	return zoneSizes[tld] / float64(s.corpusSizes()[tld])
}

// World bundles the §4 simulation stack: virtual clock, chain, pool and
// surrounding network.
type World struct {
	Sim   *simclock.Sim
	Chain *blockchain.Chain
	pool  *coinhive.Pool
	Net   *simnet.Network
}

// Paper-calibrated network constants (§4.2): median difficulty 55.4G at
// the 120 s block target → 462 MH/s network rate; Coinhive ~5.5 MH/s.
const (
	NetworkHashRate = 462e6
	PoolHashRate    = 5.5e6
	// emissionPreload fixes the block reward in the ~4.7 XMR regime of
	// mid-2018 (Table 6's 1215–1293 XMR/month at 9-10 blocks/day).
	emissionPreload = 15_980_000 * blockchain.AtomicPerXMR
)

// NewWorld builds a bootstrapped simulation starting at start.
func NewWorld(start time.Time, poolRate, netRate float64, activity func(time.Time) float64, seed int64) (*World, error) {
	sim := simclock.New(start)
	params := blockchain.SimParams()
	params.MinDifficulty = uint64(netRate * 120)
	chain, err := blockchain.NewChain(params, uint64(sim.Now().Unix()), blockchain.AddressFromString("genesis"))
	if err != nil {
		return nil, err
	}
	chain.PreloadEmission(emissionPreload)
	pool, err := coinhive.NewPool(coinhive.PoolConfig{
		Chain:  chain,
		Wallet: blockchain.AddressFromString("coinhive-wallet"),
		Clock:  sim,
	})
	if err != nil {
		return nil, err
	}
	if err := simnet.Bootstrap(chain, sim); err != nil {
		return nil, err
	}
	net, err := simnet.New(simnet.Config{
		Sim: sim, Chain: chain, Pool: pool,
		PoolHashRate: poolRate, NetworkHashRate: netRate,
		PoolActivity: activity, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	return &World{Sim: sim, Chain: chain, pool: pool, Net: net}, nil
}

// CoinhiveActivity reproduces the temporal structure of Figure 5: a flat
// diurnal baseline (global audience), holiday boosts (30 Apr before Labor
// Day, 10 May Ascension, 21/22 May Pentecost), and the 6–7 May service
// disruption. In June the userbase grows slightly (Table 6's 10 blocks/day
// median).
func CoinhiveActivity(t time.Time) float64 {
	// Branch on numeric date components: this runs for every poll and every
	// block arrival, and a time.Format here once dominated the simulation's
	// allocation profile.
	d := t.UTC()
	year, month, day := d.Date()
	if year == 2018 {
		switch {
		case month == time.April && day == 30,
			month == time.May && (day == 10 || day == 21 || day == 22):
			return 1.5 // public holidays: more browsers open
		case month == time.May && day == 6:
			return 0 // service disruption
		case month == time.May && day == 7:
			if d.Hour() < 12 {
				return 0 // disruption tail
			}
			return 1
		}
	}
	if month == time.June {
		return 1.12
	}
	return 1.0
}
