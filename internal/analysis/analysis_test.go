package analysis

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestCDFBasics(t *testing.T) {
	cdf := CDF([]float64{3, 1, 2, 2})
	if len(cdf) != 3 {
		t.Fatalf("steps = %d", len(cdf))
	}
	if cdf[0].x != 1 || math.Abs(cdf[0].p-0.25) > 1e-9 {
		t.Errorf("first step = %+v", cdf[0])
	}
	if cdf[1].x != 2 || math.Abs(cdf[1].p-0.75) > 1e-9 {
		t.Errorf("second step = %+v", cdf[1])
	}
	if cdf[2].p != 1 {
		t.Errorf("last step = %+v", cdf[2])
	}
	if got := PAt(cdf, 2.5); math.Abs(got-0.75) > 1e-9 {
		t.Errorf("PAt(2.5) = %v", got)
	}
	if got := PAt(cdf, 0.5); got != 0 {
		t.Errorf("PAt below min = %v", got)
	}
}

func TestQuickCDFMonotone(t *testing.T) {
	f := func(vals []float64) bool {
		clean := vals[:0]
		for _, v := range vals {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				clean = append(clean, v)
			}
		}
		cdf := CDF(clean)
		last := 0.0
		for _, pt := range cdf {
			if pt.p < last {
				return false
			}
			last = pt.p
		}
		return len(cdf) == 0 || math.Abs(last-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPercentileAndMedian(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5}
	if Median(v) != 3 {
		t.Errorf("median = %v", Median(v))
	}
	if Percentile(v, 0) != 1 || Percentile(v, 1) != 5 {
		t.Error("extreme percentiles wrong")
	}
	if got := Percentile(v, 0.25); got != 2 {
		t.Errorf("p25 = %v", got)
	}
	if !math.IsNaN(Percentile(nil, 0.5)) {
		t.Error("empty percentile not NaN")
	}
}

func TestMean(t *testing.T) {
	if got := Mean([]float64{2, 4, 9}); math.Abs(got-5) > 1e-9 {
		t.Errorf("mean = %v", got)
	}
}

func TestLogHistogram(t *testing.T) {
	bins := LogHistogram([]uint64{1, 2, 3, 4, 1024, 1500})
	count := func(lo uint64) int {
		for _, b := range bins {
			if b.Lo == lo {
				return b.Count
			}
		}
		return -1
	}
	if count(1) != 1 || count(2) != 2 || count(4) != 1 || count(1024) != 2 {
		t.Errorf("bins = %+v", bins)
	}
	total := 0
	for _, b := range bins {
		total += b.Count
	}
	if total != 6 {
		t.Errorf("total binned = %d", total)
	}
}

func TestRankAndTopShare(t *testing.T) {
	ranked := RankDescending(map[string]int{"a": 10, "b": 30, "c": 5, "d": 5})
	if ranked[0].Key != "b" || ranked[1].Key != "a" {
		t.Errorf("ranked = %+v", ranked)
	}
	// Ties broken lexicographically.
	if ranked[2].Key != "c" || ranked[3].Key != "d" {
		t.Errorf("tie order = %+v", ranked)
	}
	if got := TopShare(ranked, 1); math.Abs(got-0.6) > 1e-9 {
		t.Errorf("top1 share = %v", got)
	}
	if got := TopShare(ranked, 10); got != 1 {
		t.Errorf("topAll share = %v", got)
	}
}

func TestQuickTopShareMonotoneInK(t *testing.T) {
	f := func(counts map[string]int) bool {
		for k, v := range counts {
			if v < 0 {
				counts[k] = -v
			}
		}
		ranked := RankDescending(counts)
		last := 0.0
		for k := 1; k <= len(ranked); k++ {
			s := TopShare(ranked, k)
			if s+1e-9 < last {
				return false
			}
			last = s
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTableRendering(t *testing.T) {
	out := Table([]string{"Family", "Count"}, [][]string{
		{"coinhive", "311"},
		{"skencituer", "123"},
	})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "Family") || !strings.Contains(lines[2], "coinhive") {
		t.Errorf("table:\n%s", out)
	}
	// Columns aligned: header and rows share the count column offset.
	if strings.Index(lines[0], "Count") != strings.Index(lines[2], "311") {
		t.Errorf("misaligned:\n%s", out)
	}
}

func TestHeatmap(t *testing.T) {
	var rows [][24]int
	var r [24]int
	r[3] = 10
	r[12] = 5
	rows = append(rows, r)
	out := Heatmap([]string{"26.04.18"}, rows)
	if !strings.Contains(out, "26.04.18") || !strings.Contains(out, "15") {
		t.Errorf("heatmap:\n%s", out)
	}
}

func TestDuration20Hs(t *testing.T) {
	cases := map[float64]string{
		256:   "13s",
		1024:  "51s",
		65536: "55m",
		1e19:  "2e+10yr",
	}
	for hashes, want := range cases {
		if got := Duration20Hs(hashes); got != want {
			t.Errorf("Duration20Hs(%g) = %q, want %q", hashes, got, want)
		}
	}
}

func TestSortStabilityHelpersDoNotMutate(t *testing.T) {
	v := []float64{5, 1, 3}
	CDF(v)
	Percentile(v, 0.5)
	if !sort.Float64sAreSorted(v) && (v[0] != 5 || v[1] != 1 || v[2] != 3) {
		t.Error("input mutated")
	}
}
