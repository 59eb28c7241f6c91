package archive

import (
	"repro/internal/handoff"
	"repro/internal/metrics"
)

// Recorder is the bridge between the pool's hot paths and a Store: a
// bounded hand-off queue drained by one background goroutine. Record
// never blocks — when the queue is full the event is dropped and counted
// in pool.archive_dropped — so a slow disk can cost history, never
// submit-path latency. Appends are batched and each drained batch gets
// one Sync, counted in pool.archive_fsyncs. A Store that fails an Append
// or a Sync costs the events involved, counted in pool.archive_errors;
// the drain carries on, so a disk that recovers is written to again.
type Recorder struct {
	store Store
	q     *handoff.Queue[Event]

	pending bool // appended since the last sync (drain goroutine only)

	appends *metrics.Counter
	dropped *metrics.Counter
	fsyncs  *metrics.Counter
	errors  *metrics.Counter
}

// defaultQueueDepth bounds the Record queue: deep enough to absorb a
// settle burst (one payout event per account), shallow enough that a
// wedged disk cannot pin unbounded memory.
const defaultQueueDepth = 4096

// NewRecorder wires a Store behind a bounded queue and starts the
// drain goroutine. reg receives the pool.archive_* instruments (nil
// for a private registry); depth <= 0 selects defaultQueueDepth.
func NewRecorder(store Store, reg *metrics.Registry, depth int) *Recorder {
	if depth <= 0 {
		depth = defaultQueueDepth
	}
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	r := &Recorder{
		store:   store,
		appends: reg.Counter("pool.archive_appends"),
		dropped: reg.Counter("pool.archive_dropped"),
		fsyncs:  reg.Counter("pool.archive_fsyncs"),
		errors:  reg.Counter("pool.archive_errors"),
	}
	r.q = handoff.New(depth, r.dropped, r.append, r.sync)
	return r
}

// Record enqueues ev without blocking; a full queue drops the event
// and bumps pool.archive_dropped.
//
//lint:hotpath
func (r *Recorder) Record(ev Event) { r.q.Offer(ev) }

// Flush blocks until every event enqueued before the call is appended
// and synced. Events recorded concurrently with Flush may or may not
// be covered.
func (r *Recorder) Flush() { r.q.Flush() }

// Close drains the queue, syncs, stops the goroutine and closes the
// underlying Store.
func (r *Recorder) Close() error {
	r.q.Close()
	return r.store.Close()
}

// append is the queue's handler. It never returns an error: a failed
// Append is counted and the drain moves on to the next event.
func (r *Recorder) append(ev Event) error {
	if r.store.Append(&ev) != nil {
		r.errors.Inc()
		return nil
	}
	r.appends.Inc()
	r.pending = true
	return nil
}

// sync runs each time the drain has emptied the queue: one Sync for
// everything appended since the last — the fsync batching that keeps
// durability off the per-event bill. After a failed Sync the batch stays
// pending, so the next drained batch retries it.
func (r *Recorder) sync() {
	if !r.pending {
		return
	}
	if r.store.Sync() != nil {
		r.errors.Inc()
		return
	}
	r.fsyncs.Inc()
	r.pending = false
}
