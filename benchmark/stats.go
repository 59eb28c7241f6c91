package main

import (
	"sort"

	"repro/internal/analysis"
)

// pct is analysis.Percentile (0 ≤ p ≤ 1, interpolating) with an empty
// slice reading 0: NaN does not survive the JSON result line.
func pct(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return analysis.Percentile(v, p)
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// quartiles reproduces Python's statistics.quantiles(v, n=4) (the
// "exclusive" method) — the rule the benchmark contract measures
// run-to-run spread with — so the -repeat report and the acceptance
// protocol print the same numbers.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sortedCopy(v)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	const n = 4
	m := ld + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}
