package archive

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/metrics"
)

func testEvents(n int) []Event {
	evs := make([]Event, n)
	for i := range evs {
		evs[i] = Event{
			TimeNs: int64(1_525_000_000_000_000_000 + i),
			Kind:   Kind(i%int(KindPayout) + 1),
			Height: uint64(i),
			Amount: uint64(1000 + i),
			Aux:    uint64(i * 7),
			Aux2:   uint64(i * 13),
			Actor:  fmt.Sprintf("site-key-%02d", i),
			Ref:    fmt.Sprintf("1:2:%d", i),
		}
		for j := range evs[i].Hash {
			evs[i].Hash[j] = byte(i + j)
		}
	}
	return evs
}

func drain(t *testing.T, s Store) []Event {
	t.Helper()
	var all []Event
	var c Cursor
	var buf [3]Event // small batch: exercises cursor continuation
	for {
		n, next, err := s.Next(c, buf[:])
		if err != nil {
			t.Fatalf("Next(%+v): %v", c, err)
		}
		if n == 0 {
			return all
		}
		all = append(all, buf[:n]...)
		c = next
	}
}

func TestRecordRoundTrip(t *testing.T) {
	for _, ev := range testEvents(12) {
		buf := AppendRecord(nil, &ev)
		if len(buf) != EncodedLen(&ev) {
			t.Fatalf("encoded %d bytes, EncodedLen says %d", len(buf), EncodedLen(&ev))
		}
		var got Event
		n, err := decodeRecord(buf, &got)
		if err != nil || n != len(buf) {
			t.Fatalf("decode: n=%d err=%v", n, err)
		}
		if !reflect.DeepEqual(got, ev) {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, ev)
		}
	}
}

func TestMemStoreRingAndCursorClamp(t *testing.T) {
	s := NewMemStore(4)
	evs := testEvents(10)
	for i := range evs {
		if err := s.Append(&evs[i]); err != nil {
			t.Fatal(err)
		}
	}
	got := drain(t, s)
	if !reflect.DeepEqual(got, evs[6:]) {
		t.Fatalf("ring retained %v, want last 4", got)
	}
	// A cursor into evicted history clamps forward; one past the end
	// reads nothing.
	var buf [10]Event
	n, _, _ := s.Next(Cursor{Offset: 2}, buf[:])
	if n != 4 {
		t.Fatalf("clamped read got %d events, want 4", n)
	}
	n, _, _ = s.Next(Cursor{Offset: 10}, buf[:])
	if n != 0 {
		t.Fatalf("read past end got %d events, want 0", n)
	}
}

func TestFileStoreRoundTripAndReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFileStore(dir, FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	evs := testEvents(9)
	for i := range evs {
		if err := s.Append(&evs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := drain(t, s); !reflect.DeepEqual(got, evs) {
		t.Fatalf("live read mismatch: %d events", len(got))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenFileStore(dir, FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := drain(t, s2); !reflect.DeepEqual(got, evs) {
		t.Fatalf("reopened read mismatch: %d events", len(got))
	}
}

func TestFileStoreRotationAndRetention(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments: every record rotates.
	s, err := OpenFileStore(dir, FileStoreOptions{SegmentBytes: 1, MaxSegments: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	evs := testEvents(8)
	for i := range evs {
		if err := s.Append(&evs[i]); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 3 {
		t.Fatalf("retention kept %d segments, want 3", len(segs))
	}
	// The newest segment is empty (just rotated); the two before it hold
	// the last two events. Eviction must clamp the zero cursor forward.
	got := drain(t, s)
	if !reflect.DeepEqual(got, evs[6:]) {
		t.Fatalf("retained %d events %v, want the last 2", len(got), got)
	}
}

// TestFileStoreCrashRecovery cuts the log at every byte boundary of the
// last record and asserts: every earlier (fsynced) event survives, the
// torn tail is dropped exactly once — recovery truncates to the last
// clean boundary and a second reopen changes nothing.
func TestFileStoreCrashRecovery(t *testing.T) {
	base := t.TempDir()
	ref := filepath.Join(base, "ref")
	s, err := OpenFileStore(ref, FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	evs := testEvents(5)
	for i := range evs {
		if err := s.Append(&evs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(ref, segName(0))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	last := &evs[len(evs)-1]
	clean := len(data) - EncodedLen(last) // last boundary before the final record

	for cut := clean; cut <= len(data); cut++ {
		dir := filepath.Join(base, fmt.Sprintf("cut-%04d", cut))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, segName(0)), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		want := evs[:4]
		wantSize := int64(clean)
		if cut == len(data) { // no tear at all
			want = evs
			wantSize = int64(len(data))
		}
		for reopen := 0; reopen < 2; reopen++ {
			s2, err := OpenFileStore(dir, FileStoreOptions{})
			if err != nil {
				t.Fatalf("cut %d reopen %d: %v", cut, reopen, err)
			}
			got := drain(t, s2)
			if err := s2.Close(); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("cut %d reopen %d: recovered %d events, want %d", cut, reopen, len(got), len(want))
			}
			st, err := os.Stat(filepath.Join(dir, segName(0)))
			if err != nil {
				t.Fatal(err)
			}
			if st.Size() != wantSize {
				t.Fatalf("cut %d reopen %d: segment is %d bytes after recovery, want %d",
					cut, reopen, st.Size(), wantSize)
			}
		}
	}
}

func TestFileStoreRejectsBitRot(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFileStore(dir, FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	evs := testEvents(3)
	for i := range evs {
		s.Append(&evs[i])
	}
	s.Close()
	seg := filepath.Join(dir, segName(0))
	data, _ := os.ReadFile(seg)
	data[3] |= 0xff // absurd length prefix mid-log: bit rot, not a torn tail
	os.WriteFile(seg, data, 0o644)
	if _, err := OpenFileStore(dir, FileStoreOptions{}); err == nil {
		t.Fatal("expected a corrupt-record error, got nil")
	}
}

func TestRecorderFlushAndDrop(t *testing.T) {
	mem := NewMemStore(1 << 12)
	rec := NewRecorder(mem, nil, 8)
	evs := testEvents(6)
	for i := range evs {
		rec.Record(evs[i])
	}
	rec.Flush()
	if got := drain(t, mem); !reflect.DeepEqual(got, evs) {
		t.Fatalf("after flush: %d events in store, want %d", len(got), len(evs))
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	// A wedged store must cost drops, not blocking: blockingStore never
	// finishes its first append, so at most depth+1 events are absorbed
	// and the rest bump the drop counter without stalling Record.
	blocked := &blockingStore{gate: make(chan struct{})}
	rec2 := NewRecorder(blocked, nil, 4)
	for i := 0; i < 64; i++ {
		rec2.Record(evs[0])
	}
	if got := rec2.dropped.Load(); got < 32 {
		t.Fatalf("wedged store dropped %d events, want most of 64", got)
	}
	close(blocked.gate)
	rec2.Close()
}

type blockingStore struct {
	gate chan struct{}
}

func (b *blockingStore) Append(*Event) error { <-b.gate; return nil }
func (b *blockingStore) Sync() error         { return nil }
func (b *blockingStore) Next(c Cursor, out []Event) (int, Cursor, error) {
	return 0, c, nil
}
func (b *blockingStore) Close() error { return nil }

// failingStore is a MemStore that fails Append and/or Sync on demand — a
// full or failing disk, as the recorder sees one. The flags are toggled
// only between Flush barriers, never concurrently with the drain.
type failingStore struct {
	*MemStore
	failAppend, failSync bool
}

func (f *failingStore) Append(ev *Event) error {
	if f.failAppend {
		return errors.New("append: no space left on device")
	}
	return f.MemStore.Append(ev)
}

func (f *failingStore) Sync() error {
	if f.failSync {
		return errors.New("sync: input/output error")
	}
	return nil
}

// TestRecorderCountsStoreErrors pins the recorder's contract with a
// failing Store: every failed Append and Sync lands in
// pool.archive_errors instead of vanishing (and not in
// pool.archive_dropped, which is the queue's), a failed Sync stays owed
// until one succeeds, and a store that recovers is written to again.
func TestRecorderCountsStoreErrors(t *testing.T) {
	reg := metrics.NewRegistry()
	store := &failingStore{MemStore: NewMemStore(1 << 10)}
	rec := NewRecorder(store, reg, 0)
	evs := testEvents(6)
	errors := reg.Counter("pool.archive_errors")
	check := func(when string, appends, fsyncs, errs uint64) {
		t.Helper()
		rec.Flush()
		a, f, e := reg.Counter("pool.archive_appends").Load(), reg.Counter("pool.archive_fsyncs").Load(), errors.Load()
		if a != appends || f != fsyncs || e != errs {
			t.Fatalf("%s: appends=%d fsyncs=%d errors=%d, want %d,%d,%d", when, a, f, e, appends, fsyncs, errs)
		}
	}

	rec.Record(evs[0])
	check("healthy store", 1, 1, 0)

	store.failAppend = true
	for i := 1; i <= 4; i++ {
		rec.Record(evs[i])
	}
	check("appends failing", 1, 1, 4)

	// The drain syncs whenever it empties the queue, so one owed Sync may
	// fail (and be counted) more than once before the store recovers.
	store.failAppend, store.failSync = false, true
	rec.Record(evs[5])
	rec.Flush()
	failed := errors.Load()
	if failed < 5 {
		t.Fatalf("sync failing: errors=%d, want the 4 appends plus at least one sync", failed)
	}

	store.failSync = false
	check("sync recovered, nothing new recorded", 2, 2, failed)

	if n := reg.Counter("pool.archive_dropped").Load(); n != 0 {
		t.Errorf("store errors were counted as %d queue drops", n)
	}
	if got := drain(t, store); !reflect.DeepEqual(got, []Event{evs[0], evs[5]}) {
		t.Fatalf("store holds %d events, want the 2 whose Append succeeded", len(got))
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestReplayAggregates(t *testing.T) {
	mem := NewMemStore(1 << 10)
	events := []Event{
		{Kind: KindShareAccepted, Actor: "a", Amount: 100},
		{Kind: KindShareAccepted, Actor: "a", Amount: 50},
		{Kind: KindShareAccepted, Actor: "b", Amount: 25},
		{Kind: KindShareStale, Actor: "a"},
		{Kind: KindShareDuplicate, Actor: "b"},
		{Kind: KindShareRejected, Actor: "b"},
		{Kind: KindRetarget, Actor: "a", Amount: 512, Aux: 256},
		{Kind: KindBlockAppend, Height: 7},
		{Kind: KindBlockFound, Height: 7, Amount: 1000, Aux: 42, Aux2: 3},
		{Kind: KindPayout, Actor: "a", Amount: 400, Height: 7},
		{Kind: KindPayout, Actor: "b", Amount: 100, Height: 7},
		{Kind: KindBan, Actor: "b", TimeNs: 99},
	}
	for i := range events {
		mem.Append(&events[i])
	}
	res, err := Replay(mem)
	if err != nil {
		t.Fatal(err)
	}
	if res.Events != uint64(len(events)) {
		t.Fatalf("consumed %d events, want %d", res.Events, len(events))
	}
	if res.SharesAccepted != 3 || res.SharesStale != 1 || res.SharesDuplicate != 1 ||
		res.SharesRejected != 1 || res.Retargets != 1 || res.ChainHeight != 7 {
		t.Fatalf("counters wrong: %+v", res)
	}
	if res.Credit["a"] != 150 || res.Credit["b"] != 25 {
		t.Fatalf("credit wrong: %v", res.Credit)
	}
	if res.Paid["a"] != 400 || res.Paid["b"] != 100 {
		t.Fatalf("paid wrong: %v", res.Paid)
	}
	wantBlock := ReplayBlock{Height: 7, Timestamp: 42, Backend: 3, Reward: 1000}
	if len(res.Blocks) != 1 || res.Blocks[0] != wantBlock {
		t.Fatalf("blocks wrong: %v", res.Blocks)
	}
	if len(res.Bans) != 1 || res.Bans[0] != (ReplayBan{TimeNs: 99, Identity: "b"}) {
		t.Fatalf("bans wrong: %v", res.Bans)
	}
}

// The ISSUE's alloc budget: steady-state archive appends stay ≤1 alloc,
// and the encode itself is alloc-free once the buffer is warm.
func TestAppendPathAllocs(t *testing.T) {
	ev := testEvents(1)[0]
	buf := make([]byte, 0, 256)
	if n := testing.AllocsPerRun(1000, func() {
		buf = AppendRecord(buf[:0], &ev)
	}); n > 0 {
		t.Fatalf("AppendRecord: %v allocs/op, want 0", n)
	}

	mem := NewMemStore(1 << 10)
	if n := testing.AllocsPerRun(1000, func() {
		mem.Append(&ev)
	}); n > 1 {
		t.Fatalf("MemStore.Append: %v allocs/op, want <=1", n)
	}

	dir := t.TempDir()
	fs, err := OpenFileStore(dir, FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	fs.Append(&ev) // warm the encode buffer
	if n := testing.AllocsPerRun(1000, func() {
		fs.Append(&ev)
	}); n > 1 {
		t.Fatalf("FileStore.Append: %v allocs/op, want <=1", n)
	}

	// Record into a deliberately full queue: the hot half of the hook
	// (enqueue-or-drop) must not allocate even when dropping.
	blocked := &blockingStore{gate: make(chan struct{})}
	rec := NewRecorder(blocked, nil, 4)
	for i := 0; i < 8; i++ {
		rec.Record(ev)
	}
	if n := testing.AllocsPerRun(1000, func() {
		rec.Record(ev)
	}); n > 1 {
		t.Fatalf("Recorder.Record: %v allocs/op, want <=1", n)
	}
	close(blocked.gate)
	rec.Close()
}
