package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
)

// Tracing is done from the benchmark's own files: spans around client
// calls (recorded by the generators into their lanes, in memory, written
// out when the run ends) plus direct calls into each layer's public
// functions (layers.go). Nothing in the program under test is touched.

// stage is one line of a workload's latency budget.
type stage struct {
	name   string
	p50    float64 // µs
	source string  // where the number came from
}

// budgetItem names one stage: a client-side span, or a layer metric
// measured by direct call.
type budgetItem struct{ span, layer string }

// budgets lists, per workload, the stages an operation crosses between
// the start and the end of its end-to-end latency sample. What the
// stages do not explain — socket hops, wake-ups, queueing behind the
// other in-flight operations, the scheduler — is the residual.
var budgets = map[string][]budgetItem{
	"share-accept": {
		{span: "client.submit_write"},
		{layer: "ws.frame_open_us"},
		{layer: "stratum.unmarshal_us"},
		{layer: "engine.step_us"}, // contains pool.submit_us, which contains cryptonight.verify_us
		{layer: "stratum.append_ok_us"},
		{layer: "ws.frame_seal_us"},
	},
	"share-federated": {
		{span: "client.submit_write"},
		{layer: "stratum.rpc_parse_us"},
		{layer: "engine.step_us"},
		{layer: "stratum.append_submit_ok_us"},
		{layer: "p2p.encode_us"},
		{layer: "p2p.decode_us"},
		{layer: "cryptonight.verify_us"}, // the remote nodes' ingest verify
		{layer: "sharechain.insert_mid_us"},
	},
	"tip-fanout": {
		{span: "pool.advance_tip"},
		{span: "fanout.first_read_wait"},
		{span: "fanout.last_read_wait"},
	},
	"zone-scan": {
		{span: "crawler.scan"},
		{span: "browser.crawl"},
	},
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	P50Us  float64 `json:"p50_us"`
	SelfMs float64 `json:"self_ms"` // duration not covered by child spans, summed
}

// spanTable folds spans by name. Self time relies on the recording
// order: an operation's children are appended before its root.
func spanTable(spans []span) []spanStat {
	durs := map[string][]float64{}
	self := map[string]float64{}
	var covered int64
	for _, s := range spans {
		d := s.EndNs - s.StartNs
		durs[s.Name] = append(durs[s.Name], float64(d)/1e3)
		if s.Parent != "" {
			self[s.Name] += float64(d) / 1e6
			covered += d
			continue
		}
		self[s.Name] += float64(d-covered) / 1e6
		covered = 0
	}
	var table []spanStat
	for name, d := range durs {
		table = append(table, spanStat{Name: name, Count: len(d), P50Us: pct(d, 0.5), SelfMs: self[name]})
	}
	sort.Slice(table, func(i, j int) bool { return table[i].Name < table[j].Name })
	return table
}

// latencyBudget builds the workload's stage list; the last stage is the
// residual, so the stage p50s sum to the end-to-end p50 by construction.
func latencyBudget(workload string, table []spanStat, layers map[string]float64, e2eP50 float64) []stage {
	byName := map[string]float64{}
	for _, st := range table {
		byName[st.Name] = st.P50Us
	}
	var (
		stages []stage
		sum    float64
	)
	for _, it := range budgets[workload] {
		st := stage{name: it.span, p50: byName[it.span], source: "client span"}
		if it.layer != "" {
			st = stage{name: it.layer, p50: layers[it.layer], source: "direct call"}
		}
		sum += st.p50
		stages = append(stages, st)
	}
	return append(stages, stage{name: "residual", p50: e2eP50 - sum, source: "end-to-end p50 − stages"})
}

// maxSpansWritten caps the trace file; the tables cover every span.
const maxSpansWritten = 20000

func writeTrace(dir string, res *result, table []spanStat, spans []span) error {
	type stageOut struct {
		Name   string  `json:"name"`
		P50Us  float64 `json:"p50_us"`
		Source string  `json:"source"`
	}
	out := struct {
		Workload string            `json:"workload"`
		E2EP50Us float64           `json:"end_to_end_p50_us"`
		Budget   []stageOut        `json:"latency_budget"`
		Spans    []spanStat        `json:"span_table"`
		Layers   map[string]metric `json:"per_layer"`
		Total    int               `json:"spans_recorded"`
		Sample   []span            `json:"spans"`
	}{
		Workload: res.workload,
		E2EP50Us: res.layer["trace.latency_p50_us"].Value,
		Spans:    table,
		Layers:   res.layer,
		Total:    len(spans),
		Sample:   spans[:min(len(spans), maxSpansWritten)],
	}
	for _, s := range res.stages {
		out.Budget = append(out.Budget, stageOut{s.name, s.p50, s.source})
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+res.workload+".json"), data, 0o644)
}
