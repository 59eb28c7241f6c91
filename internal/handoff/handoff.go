// Package handoff is the repo's one bounded hand-off queue: the seam
// between a path that must never wait (share submit, gossip broadcast)
// and work that may (disk appends, share-chain minting, socket writes).
// Producers Offer without blocking — a full queue drops the item and
// counts it — and a single goroutine hands items to a handler in the
// order they were offered. The archive recorder, the federation emit
// path and every p2p peer's send path are each one Queue.
package handoff

import (
	"sync"

	"repro/internal/metrics"
)

// Queue is a bounded queue drained by one goroutine. The zero value is
// not usable; construct with New.
type Queue[T any] struct {
	ch     chan T
	flush  chan chan struct{}
	stop   chan struct{} // closed by Close: drain what is queued, then exit
	done   chan struct{} // closed when the drain goroutine has exited
	once   sync.Once
	handle func(T) error
	idle   func()
	drops  *metrics.Counter
}

// New starts a queue holding at most depth items; drops counts the ones a
// full queue turned away. handle runs on the drain goroutine, one item at
// a time; an error from it ends the drain for good (a dead socket), and
// whatever is still queued is abandoned. idle, if non-nil, runs on the
// drain goroutine each time it has emptied the queue — the place to pay
// a per-batch cost such as an fsync once rather than per item.
func New[T any](depth int, drops *metrics.Counter, handle func(T) error, idle func()) *Queue[T] {
	q := &Queue[T]{
		ch:     make(chan T, depth),
		flush:  make(chan chan struct{}),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
		handle: handle,
		idle:   idle,
		drops:  drops,
	}
	go q.run()
	return q
}

// Offer enqueues v without blocking and reports whether it was taken; a
// full queue drops v and counts the drop.
//
//lint:hotpath
func (q *Queue[T]) Offer(v T) bool {
	select {
	case q.ch <- v:
		return true
	default:
		q.drops.Inc()
		return false
	}
}

// Flush blocks until every item offered before the call has been handled
// and idle has run after the last of them. It returns at once if the
// drain has ended.
func (q *Queue[T]) Flush() {
	ack := make(chan struct{})
	select {
	case q.flush <- ack:
		<-ack
	case <-q.done:
	}
}

// Close hands everything already queued to the handler, runs idle, stops
// the drain goroutine and returns once it has exited. Idempotent; items
// offered after Close are never handled.
func (q *Queue[T]) Close() {
	q.once.Do(func() { close(q.stop) })
	<-q.done
}

func (q *Queue[T]) run() {
	defer close(q.done)
	for {
		select {
		case v := <-q.ch:
			if q.handle(v) != nil || !q.drain() {
				return
			}
		case ack := <-q.flush:
			ok := q.drain()
			close(ack)
			if !ok {
				return
			}
		case <-q.stop:
			q.drain()
			return
		}
	}
}

// drain handles everything currently queued, then runs idle. It reports
// false if the handler ended the drain.
func (q *Queue[T]) drain() bool {
	for {
		select {
		case v := <-q.ch:
			if q.handle(v) != nil {
				return false
			}
		default:
			if q.idle != nil {
				q.idle()
			}
			return true
		}
	}
}
