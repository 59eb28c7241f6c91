package main

import (
	"regexp"
	"strings"
	"testing"
)

// TestSmoke runs every workload traced at 1/50 scale with a 1 s window
// and holds the code to BENCHMARK.json: same workload names, same metric
// names and units, names and counts inside the contract's limits, every
// output check passing. The four workloads run side by side — the smoke
// checks behaviour, not speed.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(spec.Workloads) != len(workloads) || len(workloads) > 4 {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code has %d (limit 4)", len(spec.Workloads), len(workloads))
	}
	if len(spec.EndToEnd) > 16 || len(spec.PerLayer) > 128 {
		t.Fatalf("%d end-to-end / %d per-layer metrics exceed the 16 / 128 limits", len(spec.EndToEnd), len(spec.PerLayer))
	}
	if len(spec.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, layerMetrics has %d", len(spec.PerLayer), len(layerMetrics))
	}
	for i, lm := range layerMetrics {
		if got := spec.PerLayer[i]; got.Name != lm.name || got.Unit != lm.unit || !name.MatchString(lm.name) {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %s [%s], layerMetrics has %s [%s]", i, got.Name, got.Unit, lm.name, lm.unit)
		}
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || !name.MatchString(w.name) {
			t.Errorf("workload %d: BENCHMARK.json has %q, the code has %q", i, spec.Workloads[i].Name, w.name)
		}
		w := w
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			res, err := runWorkload(w, options{seed: 1, seconds: 1, trace: true, scale: 50, outDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			if !res.correct() {
				t.Errorf("%d of %d ops failed; checks: %v", res.failed, res.attempted, res.fails)
			}
			if len(res.e2e) != len(spec.EndToEnd) || len(res.layer) != len(spec.PerLayer) {
				t.Errorf("run printed %d end-to-end / %d per-layer metrics, BENCHMARK.json lists %d / %d",
					len(res.e2e), len(res.layer), len(spec.EndToEnd), len(spec.PerLayer))
			}
			for _, m := range spec.EndToEnd {
				got, ok := res.e2e[m.Name]
				if !ok || got.Unit != m.Unit || !name.MatchString(m.Name) {
					t.Errorf("end-to-end metric %s [%s]: run printed %v [%s] (present: %v)", m.Name, m.Unit, got.Value, got.Unit, ok)
				}
			}
			for _, m := range spec.PerLayer {
				if got, ok := res.layer[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("per-layer metric %s [%s] missing from the traced run or in another unit", m.Name, m.Unit)
				}
			}
			// A workload measures the layers it reaches and no others.
			for _, it := range budgets[w.name] {
				if it.layer != "" && res.layer[it.layer].Value == 0 {
					t.Errorf("the latency budget names %s, which the traced run did not measure", it.layer)
				}
			}
			reaches := map[string]string{"cryptonight.verify_us": "share", "netpark.wake_us": "tip-fanout", "htmlx.extract_us": "zone-scan"}
			for layer, prefix := range reaches {
				if measured := res.layer[layer].Value != 0; measured != strings.HasPrefix(w.name, prefix) {
					t.Errorf("%s measured on this workload: %v", layer, measured)
				}
			}
		})
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 29, 2, 16, 4, 22, 7, 37, 11})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}
