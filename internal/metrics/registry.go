package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// Registry is a named, ordered set of instruments. Registration takes a
// lock; the returned instrument pointers are then used lock-free, so the
// registry itself is never on a hot path. Registering a name twice
// returns the existing instrument (so independently-wired components can
// share a counter), but re-registering a name as a different kind panics:
// that is a wiring bug, not a runtime condition.
type Registry struct {
	mu      sync.Mutex
	order   []string
	entries map[string]*entry
}

type entry struct {
	name string
	c    *Counter
	g    *Gauge
	h    *Histogram
}

func (e *entry) kind() string {
	switch {
	case e.c != nil:
		return "counter"
	case e.g != nil:
		return "gauge"
	default:
		return "histogram"
	}
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: map[string]*entry{}}
}

func (r *Registry) register(name string, make func() *entry) *entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[name]; ok {
		return e
	}
	e := make()
	e.name = name
	r.entries[name] = e
	r.order = append(r.order, name)
	return e
}

// Counter returns the counter registered under name, creating it if new.
func (r *Registry) Counter(name string) *Counter {
	e := r.register(name, func() *entry { return &entry{c: &Counter{}} })
	if e.c == nil {
		panic(fmt.Sprintf("metrics: %q already registered as %s", name, e.kind()))
	}
	return e.c
}

// Gauge returns the gauge registered under name, creating it if new.
func (r *Registry) Gauge(name string) *Gauge {
	e := r.register(name, func() *entry { return &entry{g: &Gauge{}} })
	if e.g == nil {
		panic(fmt.Sprintf("metrics: %q already registered as %s", name, e.kind()))
	}
	return e.g
}

// Histogram returns the histogram registered under name, creating it if
// new.
func (r *Registry) Histogram(name string) *Histogram {
	e := r.register(name, func() *entry { return &entry{h: &Histogram{}} })
	if e.h == nil {
		panic(fmt.Sprintf("metrics: %q already registered as %s", name, e.kind()))
	}
	return e.h
}

// Snapshot is one instrument's state at exposition time. Exactly the
// fields for its kind are meaningful; the rest are zero and omitted from
// JSON.
type Snapshot struct {
	Name  string `json:"name"`
	Kind  string `json:"kind"`
	Value uint64 `json:"value,omitempty"` // counter

	Level int64 `json:"level,omitempty"` // gauge
	Peak  int64 `json:"peak,omitempty"`  // gauge high-water mark

	Count  uint64 `json:"count,omitempty"` // histogram
	SumNs  int64  `json:"sum_ns,omitempty"`
	MeanNs int64  `json:"mean_ns,omitempty"`
	P50Ns  int64  `json:"p50_ns,omitempty"`
	P99Ns  int64  `json:"p99_ns,omitempty"`
	MaxNs  int64  `json:"max_ns,omitempty"`
}

// Snapshots returns every instrument's state in registration order.
func (r *Registry) Snapshots() []Snapshot {
	r.mu.Lock()
	entries := make([]*entry, 0, len(r.order))
	for _, name := range r.order {
		entries = append(entries, r.entries[name])
	}
	r.mu.Unlock()
	out := make([]Snapshot, 0, len(entries))
	for _, e := range entries {
		s := Snapshot{Name: e.name, Kind: e.kind()}
		switch {
		case e.c != nil:
			s.Value = e.c.Load()
		case e.g != nil:
			s.Level = e.g.Load()
			s.Peak = e.g.peak.Load()
		case e.h != nil:
			hs := e.h.snapshot()
			s.Count = hs.Count
			s.SumNs = int64(hs.Sum)
			s.MeanNs = int64(hs.mean())
			s.P50Ns = int64(hs.P50)
			s.P99Ns = int64(hs.P99)
			s.MaxNs = int64(hs.max)
		}
		out = append(out, s)
	}
	return out
}

// WriteText writes one line per instrument, human-first:
//
//	pool.shares_ok counter 1234
//	server.sessions gauge 980 peak=1000
//	server.submit_ns histogram count=1234 mean=180µs p50=128µs p99=2ms max=3.1ms
func (r *Registry) WriteText(w io.Writer) error {
	for _, s := range r.Snapshots() {
		var err error
		switch s.Kind {
		case "counter":
			_, err = fmt.Fprintf(w, "%s counter %d\n", s.Name, s.Value)
		case "gauge":
			_, err = fmt.Fprintf(w, "%s gauge %d peak=%d\n", s.Name, s.Level, s.Peak)
		default:
			_, err = fmt.Fprintf(w, "%s histogram count=%d mean=%s p50=%s p99=%s max=%s\n",
				s.Name, s.Count, time.Duration(s.MeanNs), time.Duration(s.P50Ns),
				time.Duration(s.P99Ns), time.Duration(s.MaxNs))
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON writes the snapshots as a JSON array, machine-first.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshots())
}
