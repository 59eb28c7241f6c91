package archive

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// FileStore is the durable Store: a directory of numbered segment
// files (`archive-00000000.seg`, …), each a run of framed records.
// Appends go to the newest segment; when it exceeds segmentBytes the
// store rotates to a fresh one and, if MaxSegments is set, unlinks the
// oldest. Durability is batched: Append only writes, Sync fsyncs.
//
// Crash recovery: segments are only ever appended to, so a crash can
// corrupt at most the tail of the newest segment. OpenFileStore scans
// that segment record-by-record and truncates the first torn record
// (short length prefix, short body or CRC mismatch) — everything
// fsynced before the crash survives, and the torn tail is dropped
// exactly once.
type FileStore struct {
	dir  string
	opts FileStoreOptions

	mu       sync.Mutex
	f        *os.File // newest segment, append handle
	firstSeg uint32
	lastSeg  uint32
	size     int64 // bytes in the newest segment
	dirty    bool  // unsynced writes pending
	buf      []byte
}

// FileStoreOptions tune segment rotation and retention.
type FileStoreOptions struct {
	// segmentBytes rotates to a new segment once the current one
	// reaches this size (default 4 MiB).
	segmentBytes int64
	// MaxSegments caps how many segments are kept; rotation unlinks
	// the oldest beyond the cap. 0 keeps everything.
	MaxSegments int
}

const (
	segPrefix          = "archive-"
	segSuffix          = ".seg"
	defaultSegmentSize = 4 << 20
)

func segName(n uint32) string {
	return fmt.Sprintf("%s%08d%s", segPrefix, n, segSuffix)
}

// OpenFileStore opens (creating if needed) the archive directory and
// recovers the newest segment's torn tail, if any.
func OpenFileStore(dir string, opts FileStoreOptions) (*FileStore, error) {
	if opts.segmentBytes <= 0 {
		opts.segmentBytes = defaultSegmentSize
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	s := &FileStore{dir: dir, opts: opts}
	if len(segs) == 0 {
		s.firstSeg, s.lastSeg = 0, 0
	} else {
		s.firstSeg, s.lastSeg = segs[0], segs[len(segs)-1]
		if err := recoverSegment(filepath.Join(dir, segName(s.lastSeg))); err != nil {
			return nil, err
		}
	}
	f, err := os.OpenFile(filepath.Join(dir, segName(s.lastSeg)),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	s.f, s.size = f, st.Size()
	return s, nil
}

// listSegments returns the segment numbers present in dir, ascending.
func listSegments(dir string) ([]uint32, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []uint32
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		num, err := strconv.ParseUint(name[len(segPrefix):len(name)-len(segSuffix)], 10, 32)
		if err != nil {
			continue
		}
		segs = append(segs, uint32(num))
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	return segs, nil
}

// recoverSegment scans path record-by-record and truncates at the
// first torn record. A structurally impossible record mid-file (not a
// clean cut) is a hard error: that is bit rot, not a crash.
func recoverSegment(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	valid := int64(0)
	var ev Event
	for int(valid) < len(data) {
		n, err := decodeRecord(data[valid:], &ev)
		if errors.Is(err, errShortRecord) {
			break // torn tail: truncate here
		}
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		valid += int64(n)
	}
	if int(valid) == len(data) {
		return nil
	}
	return os.Truncate(path, valid)
}

// Append encodes ev into the newest segment. The encode buffer is
// reused across calls, so steady-state appends stay allocation-free
// until rotation.
//
//lint:hotpath
func (s *FileStore) Append(ev *Event) error {
	s.mu.Lock()
	s.buf = AppendRecord(s.buf[:0], ev)
	n, err := s.f.Write(s.buf)
	s.size += int64(n)
	s.dirty = true
	if err == nil && s.size >= s.opts.segmentBytes {
		err = s.rotateLocked()
	}
	s.mu.Unlock()
	return err
}

// rotateLocked syncs and closes the current segment, starts the next
// one and applies retention.
func (s *FileStore) rotateLocked() error {
	if err := s.f.Sync(); err != nil {
		return err
	}
	s.dirty = false
	if err := s.f.Close(); err != nil {
		return err
	}
	s.lastSeg++
	f, err := os.OpenFile(filepath.Join(s.dir, segName(s.lastSeg)),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	s.f, s.size = f, 0
	if s.opts.MaxSegments > 0 {
		for s.lastSeg-s.firstSeg+1 > uint32(s.opts.MaxSegments) {
			if err := os.Remove(filepath.Join(s.dir, segName(s.firstSeg))); err != nil && !os.IsNotExist(err) {
				return err
			}
			s.firstSeg++
		}
	}
	return nil
}

// Sync fsyncs the newest segment if anything was appended since the
// last Sync.
func (s *FileStore) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.dirty {
		return nil
	}
	if err := s.f.Sync(); err != nil {
		return err
	}
	s.dirty = false
	return nil
}

// Next reads up to len(out) events at cursor c. Cursors pointing into
// segments unlinked by retention are clamped forward to the oldest
// retained segment. Only iteration state is touched under the store
// mutex, so a slow reader delays the Recorder's drain goroutine at
// worst — never the submit path, which only enqueues.
func (s *FileStore) Next(c Cursor, out []Event) (int, Cursor, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c.segment < s.firstSeg {
		c = Cursor{segment: s.firstSeg}
	}
	n := 0
	for n < len(out) && c.segment <= s.lastSeg {
		segSize := s.size
		if c.segment != s.lastSeg {
			st, err := os.Stat(filepath.Join(s.dir, segName(c.segment)))
			if os.IsNotExist(err) { // raced retention
				c = Cursor{segment: c.segment + 1}
				continue
			}
			if err != nil {
				return n, c, err
			}
			segSize = st.Size()
		}
		if c.offset >= segSize {
			if c.segment == s.lastSeg {
				break
			}
			c = Cursor{segment: c.segment + 1}
			continue
		}
		read, consumed, err := s.readSegment(c, segSize, out[n:])
		n += read
		c.offset += consumed
		if err != nil {
			return n, c, err
		}
		if read == 0 {
			break // record spans past segSize: not yet visible
		}
	}
	return n, c, nil
}

// readSegment decodes records from one segment starting at c.offset,
// stopping at segSize, len(out) events, or a torn tail (which is only
// legal transiently, while Append is mid-write on the newest segment).
func (s *FileStore) readSegment(c Cursor, segSize int64, out []Event) (int, int64, error) {
	f, err := os.Open(filepath.Join(s.dir, segName(c.segment)))
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	data := make([]byte, segSize-c.offset)
	if _, err := io.ReadFull(io.NewSectionReader(f, c.offset, int64(len(data))), data); err != nil {
		return 0, 0, err
	}
	n := 0
	consumed := int64(0)
	for n < len(out) && int(consumed) < len(data) {
		rec, err := decodeRecord(data[consumed:], &out[n])
		if errors.Is(err, errShortRecord) {
			break
		}
		if err != nil {
			return n, consumed, err
		}
		consumed += int64(rec)
		n++
	}
	return n, consumed, nil
}

// Close syncs and closes the newest segment.
func (s *FileStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	syncErr := error(nil)
	if s.dirty {
		syncErr = s.f.Sync()
	}
	closeErr := s.f.Close()
	s.f = nil
	if syncErr != nil {
		return syncErr
	}
	return closeErr
}
