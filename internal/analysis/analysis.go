// Package analysis provides the small statistics toolkit every experiment
// shares: empirical CDFs, log-binned histograms, percentiles, rank tables
// and fixed-width text rendering for the paper-style tables and figures.
package analysis

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// CDFPoint is one (x, P[X ≤ x]) step of an empirical CDF.
type CDFPoint struct {
	x float64
	p float64
}

// CDF computes the empirical distribution of values (input untouched).
func CDF(values []float64) []CDFPoint {
	if len(values) == 0 {
		return nil
	}
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	out := make([]CDFPoint, 0, len(v))
	n := float64(len(v))
	for i := 0; i < len(v); {
		j := i
		for j < len(v) && v[j] == v[i] {
			j++
		}
		out = append(out, CDFPoint{x: v[i], p: float64(j) / n})
		i = j
	}
	return out
}

// PAt evaluates an empirical CDF at x.
func PAt(cdf []CDFPoint, x float64) float64 {
	p := 0.0
	for _, pt := range cdf {
		if pt.x > x {
			break
		}
		p = pt.p
	}
	return p
}

// Percentile returns the p-quantile (0 ≤ p ≤ 1) of values.
func Percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	if p <= 0 {
		return v[0]
	}
	if p >= 1 {
		return v[len(v)-1]
	}
	idx := p * float64(len(v)-1)
	lo := int(idx)
	frac := idx - float64(lo)
	if lo+1 >= len(v) {
		return v[lo]
	}
	return v[lo]*(1-frac) + v[lo+1]*frac
}

// Median is Percentile(v, 0.5).
func Median(values []float64) float64 { return Percentile(values, 0.5) }

// Mean returns the arithmetic mean.
func Mean(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, v := range values {
		s += v
	}
	return s / float64(len(values))
}

// LogBin is one bin of a base-2 logarithmic histogram.
type LogBin struct {
	Lo, hi uint64 // [Lo, hi)
	Count  int
}

// LogHistogram bins values into powers of two starting at 1.
func LogHistogram(values []uint64) []LogBin {
	if len(values) == 0 {
		return nil
	}
	var maxV uint64
	for _, v := range values {
		if v > maxV {
			maxV = v
		}
	}
	var bins []LogBin
	for lo := uint64(1); ; lo <<= 1 {
		hi := lo << 1
		bins = append(bins, LogBin{Lo: lo, hi: hi})
		if hi > maxV || hi == 0 {
			break
		}
	}
	for _, v := range values {
		if v == 0 {
			v = 1
		}
		idx := 0
		for x := v; x > 1; x >>= 1 {
			idx++
		}
		if idx < len(bins) {
			bins[idx].Count++
		}
	}
	return bins
}

// RankEntry is one row of a descending rank table (Fig. 3's token ranking,
// Table 1's families, ...).
type RankEntry struct {
	Key   string
	Count int
}

// RankDescending sorts a count map by descending count (ties by key).
func RankDescending(counts map[string]int) []RankEntry {
	out := make([]RankEntry, 0, len(counts))
	for k, c := range counts {
		out = append(out, RankEntry{k, c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// TopShare returns the fraction of total mass held by the top k entries.
// Accumulation is in float64 so extreme counts cannot overflow.
func TopShare(ranked []RankEntry, k int) float64 {
	total, top := 0.0, 0.0
	for i, e := range ranked {
		total += float64(e.Count)
		if i < k {
			top += float64(e.Count)
		}
	}
	if total == 0 {
		return 0
	}
	return top / total
}

// Table renders an aligned fixed-width text table.
func Table(headers []string, rows [][]string) string {
	width := make([]int, len(headers))
	for i, h := range headers {
		width[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(width) && len(cell) > width[i] {
				width[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(headers)
	sep := make([]string, len(headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", width[i])
	}
	writeRow(sep)
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}

// Heatmap renders an hour-of-day × day matrix as text, using a density
// ramp — the shape of the paper's Figure 5.
func Heatmap(dayLabels []string, counts [][24]int) string {
	ramp := []byte(" .:-=+*#%@")
	maxC := 1
	for _, row := range counts {
		for _, c := range row {
			if c > maxC {
				maxC = c
			}
		}
	}
	var b strings.Builder
	b.WriteString(strings.Repeat(" ", 12) + "hour 0........11...........23  total\n")
	for i, row := range counts {
		total := 0
		fmt.Fprintf(&b, "%-12s      ", dayLabels[i])
		for _, c := range row {
			total += c
			idx := c * (len(ramp) - 1) / maxC
			b.WriteByte(ramp[idx])
		}
		fmt.Fprintf(&b, "  %d\n", total)
	}
	return b.String()
}

// Duration20Hs formats the Fig. 4 top-axis annotation: how long the given
// number of CryptoNight hashes takes at the paper's 20 H/s laptop rate.
func Duration20Hs(hashes float64) string {
	secs := hashes / 20
	switch {
	case secs < 120:
		return fmt.Sprintf("%.0fs", secs)
	case secs < 7200:
		return fmt.Sprintf("%.0fm", secs/60)
	case secs < 48*3600:
		return fmt.Sprintf("%.1fh", secs/3600)
	case secs < 2*365*86400:
		return fmt.Sprintf("%.0fd", secs/86400)
	default:
		return fmt.Sprintf("%.1gyr", secs/(365.25*86400))
	}
}
