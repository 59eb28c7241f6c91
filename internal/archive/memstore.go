package archive

import "sync"

// MemStore is a bounded in-memory ring of events: the test Store, and
// the history backing an API-only deployment (no -archive-dir). When
// the ring fills, the oldest events are evicted; cursors into evicted
// history are clamped forward to the oldest retained event.
//
// Cursor mapping: segment is always 0, offset is the event's absolute
// sequence number (0 for the first event ever appended), so cursors
// stay stable across eviction.
type MemStore struct {
	mu   sync.Mutex
	ring []Event
	base int64 // sequence number of ring[head]
	head int   // index of the oldest retained event
	n    int   // number of retained events
}

// NewMemStore returns a ring retaining the last `capacity` events
// (minimum 1).
func NewMemStore(capacity int) *MemStore {
	if capacity < 1 {
		capacity = 1
	}
	return &MemStore{ring: make([]Event, capacity)}
}

// Append adds ev, evicting the oldest event if the ring is full.
//
//lint:hotpath
func (s *MemStore) Append(ev *Event) error {
	s.mu.Lock()
	if s.n == len(s.ring) {
		s.ring[s.head] = *ev
		s.head++
		if s.head == len(s.ring) {
			s.head = 0
		}
		s.base++
	} else {
		s.ring[(s.head+s.n)%len(s.ring)] = *ev
		s.n++
	}
	s.mu.Unlock()
	return nil
}

// Sync is a no-op: memory is as durable as a MemStore gets.
func (s *MemStore) Sync() error { return nil }

// Next copies events starting at cursor c into out.
func (s *MemStore) Next(c Cursor, out []Event) (int, Cursor, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	seq := c.offset
	if seq < s.base {
		seq = s.base // evicted history: clamp to oldest retained
	}
	end := s.base + int64(s.n)
	n := 0
	for seq < end && n < len(out) {
		out[n] = s.ring[(s.head+int(seq-s.base))%len(s.ring)]
		n++
		seq++
	}
	return n, Cursor{offset: seq}, nil
}

// Close is a no-op.
func (s *MemStore) Close() error { return nil }
