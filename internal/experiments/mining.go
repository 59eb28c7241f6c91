package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/blockchain"
	"repro/internal/parallel"
	"repro/internal/poolwatch"
)

// ---------------------------------------------------------------------------
// Figure 5 — Coinhive-mined blocks over four weeks.
// ---------------------------------------------------------------------------

// Fig5Result is the hour-of-day × day block matrix plus daily statistics.
type Fig5Result struct {
	days          []string
	matrix        [][24]int
	dailyTotals   []int
	MedianPerDay  float64
	AveragePerDay float64
	outageDays    []string
	Attributed    int
	PoolTruth     int // pool-side ground truth (not observable in the paper)
}

// RunFig5 runs the §4.2 watcher for four virtual weeks (26 Apr – 24 May
// 2018) against the simulated network with the paper's temporal structure.
func RunFig5(seed int64, tick time.Duration) (Fig5Result, error) {
	var res Fig5Result
	start := time.Date(2018, 4, 26, 0, 0, 0, 0, time.UTC)
	// Lead time covers the difficulty bootstrap so day 1 starts clean.
	w, err := NewWorld(start.Add(-3*time.Hour), PoolHashRate, NetworkHashRate, CoinhiveActivity, seed)
	if err != nil {
		return res, err
	}
	watcher := poolwatch.New(poolwatch.Config{Source: w.Net, Chain: w.Chain})
	w.Net.Start()
	stop := watcher.Run(w.Sim, tick)
	w.Sim.RunUntil(start)

	const days = 28
	for d := 0; d < days; d++ {
		w.Sim.RunFor(24 * time.Hour)
	}
	stop()
	watcher.Sweep()

	attributed := watcher.Attributed()
	res.Attributed = len(attributed)
	res.PoolTruth = len(w.pool.FoundBlocks())
	res.days = make([]string, days)
	res.matrix = make([][24]int, days)
	res.dailyTotals = make([]int, days)
	for d := 0; d < days; d++ {
		res.days[d] = start.AddDate(0, 0, d).Format("02.01.06")
	}
	for _, ab := range attributed {
		t := time.Unix(int64(ab.Timestamp), 0).UTC()
		d := int(t.Sub(start).Hours() / 24)
		if d < 0 || d >= days {
			continue
		}
		res.matrix[d][t.Hour()]++
		res.dailyTotals[d]++
	}
	var daily []float64
	for d, n := range res.dailyTotals {
		daily = append(daily, float64(n))
		if n == 0 {
			res.outageDays = append(res.outageDays, res.days[d])
		}
	}
	res.MedianPerDay = analysis.Median(daily)
	res.AveragePerDay = analysis.Mean(daily)
	return res, nil
}

// RunFig5Ensemble runs independent Figure-5 observation campaigns — one
// fully isolated world per seed — on a bounded worker pool. Each world has
// its own clock, chain, pool and watcher, so the runs parallelise
// perfectly; the ensemble quantifies the seed-to-seed variance of the
// stochastic block-arrival process behind the paper's single four-week
// observation.
func RunFig5Ensemble(seeds []int64, tick time.Duration, workers int) ([]Fig5Result, error) {
	results := make([]Fig5Result, len(seeds))
	errs := make([]error, len(seeds))
	parallel.ForEach(len(seeds), workers, func(_, i int) {
		results[i], errs[i] = RunFig5(seeds[i], tick)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// Render prints the Figure 5 heat map.
func (r Fig5Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 5 — blocks mined by the pool, hour-of-day × day\n")
	b.WriteString(analysis.Heatmap(r.days, r.matrix))
	fmt.Fprintf(&b, "median %.1f blocks/day, average %.1f (paper: 8.5 / 9.0)\n",
		r.MedianPerDay, r.AveragePerDay)
	fmt.Fprintf(&b, "attributed %d of %d pool blocks (lower bound, as in the paper)\n",
		r.Attributed, r.PoolTruth)
	if len(r.outageDays) > 0 {
		fmt.Fprintf(&b, "zero-block days (service disruption): %s\n", strings.Join(r.outageDays, ", "))
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Table 6 — monthly mining statistics.
// ---------------------------------------------------------------------------

// MonthStats is one Table 6 row.
type MonthStats struct {
	month        string
	medianPerDay float64
	avgPerDay    float64
	HashRateMHs  float64
	XMR          float64
	shareOfChain float64
}

// Table6Result is the three-month summary.
type Table6Result struct {
	Months []MonthStats
}

// RunTable6 watches the pool over May–July 2018 and derives the monthly
// block counts, implied hash rate and earned XMR.
func RunTable6(seed int64, tick time.Duration) (Table6Result, error) {
	var res Table6Result
	start := time.Date(2018, 5, 1, 0, 0, 0, 0, time.UTC)
	end := time.Date(2018, 8, 1, 0, 0, 0, 0, time.UTC)
	w, err := NewWorld(start.Add(-3*time.Hour), PoolHashRate, NetworkHashRate, CoinhiveActivity, seed)
	if err != nil {
		return res, err
	}
	watcher := poolwatch.New(poolwatch.Config{Source: w.Net, Chain: w.Chain})
	w.Net.Start()
	stop := watcher.Run(w.Sim, tick)
	w.Sim.RunUntil(start)
	heightAtStart := w.Chain.Height()
	w.Sim.RunUntil(end)
	stop()
	watcher.Sweep()

	attributed := watcher.Attributed()
	type agg struct {
		daily       map[int]int
		rewards     uint64
		days        int
		chainBlocks float64
	}
	months := map[string]*agg{}
	order := []string{"May", "June", "July"}
	daysIn := map[string]int{"May": 31, "June": 30, "July": 31}
	for _, m := range order {
		months[m] = &agg{daily: map[int]int{}, days: daysIn[m]}
	}
	for _, ab := range attributed {
		t := time.Unix(int64(ab.Timestamp), 0).UTC()
		name := t.Month().String()
		a, ok := months[name]
		if !ok {
			continue
		}
		a.daily[t.Day()]++
		a.rewards += ab.Reward
	}
	// Per-month chain-wide totals for the share column.
	for _, b := range w.Chain.Blocks(heightAtStart+1, w.Chain.Height()+1) {
		t := time.Unix(int64(b.Timestamp), 0).UTC()
		if a, ok := months[t.Month().String()]; ok {
			a.chainBlocks++
		}
	}
	// Hash rate from the difficulty, as the paper derives it: network rate
	// = difficulty / target; pool rate = share × network rate.
	medianDiff := float64(w.Chain.NextDifficulty())
	networkRate := medianDiff / 120
	for _, m := range order {
		a := months[m]
		var daily []float64
		for d := 1; d <= a.days; d++ {
			daily = append(daily, float64(a.daily[d]))
		}
		blocks := 0.0
		for _, v := range daily {
			blocks += v
		}
		share := 0.0
		if a.chainBlocks > 0 {
			share = blocks / a.chainBlocks
		}
		res.Months = append(res.Months, MonthStats{
			month:        m,
			medianPerDay: analysis.Median(daily),
			avgPerDay:    analysis.Mean(daily),
			HashRateMHs:  share * networkRate / 1e6,
			XMR:          float64(a.rewards) / blockchain.AtomicPerXMR,
			shareOfChain: share,
		})
	}
	return res, nil
}

// Render prints Table 6.
func (r Table6Result) Render() string {
	rows := [][]string{}
	for _, m := range r.Months {
		rows = append(rows, []string{
			m.month,
			fmt.Sprintf("%.1f", m.medianPerDay),
			fmt.Sprintf("%.1f", m.avgPerDay),
			fmt.Sprintf("%.1f", m.HashRateMHs),
			fmt.Sprintf("%.0f", m.XMR),
			fmt.Sprintf("%.2f%%", m.shareOfChain*100),
		})
	}
	return "Table 6 — monthly mining statistics\n" +
		analysis.Table([]string{"month", "med [blocks/day]", "avg [blocks/day]", "hashrate [MH/s]", "currency [XMR]", "chain share"}, rows)
}

// ---------------------------------------------------------------------------
// §4.2 network-size estimate.
// ---------------------------------------------------------------------------

// NetworkSizeResult covers the in-text §4.2 numbers.
type NetworkSizeResult struct {
	endpoints        int
	inputsPerPoll    int // distinct PoW inputs seen on one endpoint
	InputsPerBlock   int // distinct PoW inputs across all endpoints
	impliedPoolMHs   float64
	usersAt20Hs      float64
	usersAt100Hs     float64
	difficultyMedian float64
}

// RunNetworkSize measures the endpoint topology and derives the
// constantly-mining-user bounds.
func RunNetworkSize(seed int64) (NetworkSizeResult, error) {
	var res NetworkSizeResult
	start := time.Date(2018, 5, 1, 0, 0, 0, 0, time.UTC)
	w, err := NewWorld(start, PoolHashRate, NetworkHashRate, nil, seed)
	if err != nil {
		return res, err
	}
	full := poolwatch.New(poolwatch.Config{Source: w.Net, Chain: w.Chain})
	one := poolwatch.New(poolwatch.Config{Source: w.Net, Chain: w.Chain, Endpoints: 1, SlotsPerEndpoint: 32})
	w.Net.Start()
	stopA := full.Run(w.Sim, time.Second)
	stopB := one.Run(w.Sim, time.Second)
	w.Sim.RunFor(6 * time.Hour)
	stopA()
	stopB()

	res.endpoints = w.pool.NumEndpoints()
	res.InputsPerBlock = full.StatsSnapshot().MaxInputsPerPrev
	res.inputsPerPoll = one.StatsSnapshot().MaxInputsPerPrev
	res.difficultyMedian = float64(w.Chain.NextDifficulty())
	networkRate := res.difficultyMedian / 120
	share := PoolHashRate / NetworkHashRate
	res.impliedPoolMHs = share * networkRate / 1e6
	res.usersAt20Hs = res.impliedPoolMHs * 1e6 / 20
	res.usersAt100Hs = res.impliedPoolMHs * 1e6 / 100
	return res, nil
}

// Render prints the §4.2 topology and user-bound numbers.
func (r NetworkSizeResult) Render() string {
	var b strings.Builder
	b.WriteString("§4.2 — network size estimation\n")
	fmt.Fprintf(&b, "pool endpoints: %d (paper: 32)\n", r.endpoints)
	fmt.Fprintf(&b, "distinct PoW inputs, single endpoint: %d (paper: ≤8)\n", r.inputsPerPoll)
	fmt.Fprintf(&b, "distinct PoW inputs, all endpoints:   %d (paper: ≤128)\n", r.InputsPerBlock)
	fmt.Fprintf(&b, "median difficulty: %.3g (paper: 55.4G)\n", r.difficultyMedian)
	fmt.Fprintf(&b, "implied pool rate: %.1f MH/s (paper: 5.5)\n", r.impliedPoolMHs)
	fmt.Fprintf(&b, "constantly mining users: %.0fK @20 H/s … %.0fK @100 H/s (paper: 292K…58K)\n",
		r.usersAt20Hs/1000, r.usersAt100Hs/1000)
	return b.String()
}
