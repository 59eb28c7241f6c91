// Package archive is the pool's append-only memory: a crash-safe event
// log of everything observable the service does — shares accepted and
// rejected, retargets, bans, blocks appended and found, payouts — so
// the attribution pipeline the paper runs against a live pool can be
// replayed from durable data instead of live polling.
//
// The package is a passive sink. Events flow in through a bounded
// non-blocking hook (Recorder); nothing here ever reaches back into
// the pool, and the layering lint enforces that archive never imports
// coinhive.
//
// Two Store implementations share one wire format: MemStore, a bounded
// in-memory ring for tests and API-only deployments, and FileStore, a
// segmented on-disk log with fsync batching, rotation, retention and
// torn-tail recovery (see filestore.go).
package archive

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
)

// Kind identifies what a pool event describes. Values are part of the
// on-disk format: never renumber, only append.
type Kind uint8

const (
	// KindShareAccepted: Actor=account token, Ref=job ID, Amount=share
	// difficulty credited, Aux=nonce, Aux2=total hashes credited so far.
	KindShareAccepted Kind = 1
	// KindShareStale: a share against a superseded job. Actor=token,
	// Ref=job ID, Aux=nonce.
	KindShareStale Kind = 2
	// KindShareDuplicate: a replayed (job, nonce) pair. Actor=token or
	// site key, Ref=job ID, Aux=nonce.
	KindShareDuplicate Kind = 3
	// KindShareRejected: unknown job, bad proof or below-target result.
	// Actor=token, Ref=job ID, Aux=nonce.
	KindShareRejected Kind = 4
	// KindRetarget: a per-session vardiff step. Actor=site key,
	// Amount=new difficulty, Aux=previous difficulty.
	KindRetarget Kind = 5
	// KindBan: an identity crossed the banscore threshold.
	// Actor=identity (site key, or "key|host" when banning by IP).
	KindBan Kind = 6
	// KindBlockAppend: the chain advanced. Height=new height, Hash=tip.
	KindBlockAppend Kind = 7
	// KindBlockFound: the pool's own share won a block. Height=height,
	// Amount=block reward, Aux=block timestamp, Aux2=backend shard.
	KindBlockFound Kind = 8
	// KindPayout: one account's cut of a found block's reward.
	// Actor=token, Amount=cut, Height=block height.
	KindPayout Kind = 9
	// KindShareGossipIn: a share-chain entry gossiped in from a
	// federation peer and admitted after PoW verification. Actor=token,
	// Amount=difficulty credit, Aux=nonce, Height=claimed share-chain
	// height, Hash=entry ID.
	KindShareGossipIn Kind = 10
	// KindReorg: a late entry displaced the share-chain's canonical
	// order. Height=claimed height of the inserted entry, Hash=entry ID.
	KindReorg Kind = 11
)

// String names a Kind for human-facing output (poolwatch, stats API).
func (k Kind) String() string {
	switch k {
	case KindShareAccepted:
		return "share_accepted"
	case KindShareStale:
		return "share_stale"
	case KindShareDuplicate:
		return "share_duplicate"
	case KindShareRejected:
		return "share_rejected"
	case KindRetarget:
		return "retarget"
	case KindBan:
		return "ban"
	case KindBlockAppend:
		return "block_append"
	case KindBlockFound:
		return "block_found"
	case KindPayout:
		return "payout"
	case KindShareGossipIn:
		return "share_gossip_in"
	case KindReorg:
		return "reorg"
	}
	return "unknown"
}

// Event is one archived pool action. The numeric fields are overloaded
// per Kind (documented on the Kind constants) so a single fixed layout
// covers every event type: fixed-width fields first, then the two
// length-prefixed strings.
type Event struct {
	TimeNs int64  // pool-clock timestamp, ns since epoch
	Kind   Kind   // what happened
	Height uint64 // chain height, for block/payout events
	Amount uint64 // difficulty, reward or cut, per Kind
	Aux    uint64 // nonce, previous difficulty or timestamp, per Kind
	Aux2   uint64 // credited total or backend shard, per Kind
	Hash   [32]byte
	Actor  string // account token, site key or identity
	Ref    string // job ID
}

// Cursor addresses a position in a Store: a segment and a byte offset
// into it (MemStore uses Segment 0 and an event sequence number). The
// zero Cursor means "from the start of retained history". Cursors stay
// valid across appends; retention may advance one past dropped data.
type Cursor struct {
	Segment uint32
	Offset  int64
}

// Store is an append-only event log with batched durability and
// cursor-based iteration.
type Store interface {
	// Append adds one event to the log. Durability is deferred to Sync.
	Append(ev *Event) error
	// Sync makes every appended event durable (no-op for MemStore).
	Sync() error
	// Next reads up to len(out) events at c, returning how many were
	// filled and the cursor one past the last. n==0 with a nil error
	// means "caught up". A cursor pointing into dropped (retained-out)
	// history is clamped forward to the oldest retained event.
	Next(c Cursor, out []Event) (n int, next Cursor, err error)
	// Close releases resources; FileStore syncs first.
	Close() error
}

// Record framing: [u32 payload length][payload][u32 CRC-32 (IEEE) of
// payload], all little-endian. The trailing checksum is what makes a
// torn tail detectable: a record cut anywhere — inside the length
// prefix, the payload or the checksum — fails either the length or the
// CRC test and is truncated on reopen.
const (
	frameOverhead  = 8                    // length prefix + checksum
	fixedPayload   = 1 + 8*5 + 32 + 2 + 2 // kind, 5×u64, hash, 2×string length
	maxRecordBytes = 1 << 16              // corruption guard: no sane record is larger
)

// ErrCorruptRecord marks a record that fails structural validation
// beyond a clean torn tail (e.g. an absurd length mid-log).
var ErrCorruptRecord = errors.New("archive: corrupt record")

// EncodedLen returns the framed size of ev, for pre-sizing buffers.
func EncodedLen(ev *Event) int {
	return frameOverhead + fixedPayload + len(ev.Actor) + len(ev.Ref)
}

// AppendRecord appends ev's framed binary record to dst and returns
// the extended slice. It allocates only when dst's capacity is
// exhausted, so a reused buffer makes steady-state encoding
// allocation-free.
//
//lint:hotpath
func AppendRecord(dst []byte, ev *Event) []byte {
	payload := fixedPayload + len(ev.Actor) + len(ev.Ref)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(payload))
	body := len(dst)
	dst = append(dst, byte(ev.Kind))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(ev.TimeNs))
	dst = binary.LittleEndian.AppendUint64(dst, ev.Height)
	dst = binary.LittleEndian.AppendUint64(dst, ev.Amount)
	dst = binary.LittleEndian.AppendUint64(dst, ev.Aux)
	dst = binary.LittleEndian.AppendUint64(dst, ev.Aux2)
	dst = append(dst, ev.Hash[:]...)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(ev.Actor)))
	dst = append(dst, ev.Actor...)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(ev.Ref)))
	dst = append(dst, ev.Ref...)
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[body:]))
}

// decodeRecord parses one framed record from the front of b.
// Returns the event and the framed length consumed. A record that is
// merely cut short (torn tail) yields errShortRecord; a structurally
// impossible one yields ErrCorruptRecord.
func decodeRecord(b []byte, ev *Event) (int, error) {
	if len(b) < 4 {
		return 0, errShortRecord
	}
	payload := int(binary.LittleEndian.Uint32(b))
	if payload < fixedPayload || payload > maxRecordBytes {
		return 0, ErrCorruptRecord
	}
	total := frameOverhead + payload
	if len(b) < total {
		return 0, errShortRecord
	}
	body := b[4 : 4+payload]
	want := binary.LittleEndian.Uint32(b[4+payload:])
	if crc32.ChecksumIEEE(body) != want {
		return 0, errShortRecord // a cut checksum and a cut body look alike
	}
	ev.Kind = Kind(body[0])
	ev.TimeNs = int64(binary.LittleEndian.Uint64(body[1:]))
	ev.Height = binary.LittleEndian.Uint64(body[9:])
	ev.Amount = binary.LittleEndian.Uint64(body[17:])
	ev.Aux = binary.LittleEndian.Uint64(body[25:])
	ev.Aux2 = binary.LittleEndian.Uint64(body[33:])
	copy(ev.Hash[:], body[41:73])
	actorLen := int(binary.LittleEndian.Uint16(body[73:]))
	rest := body[75:]
	if actorLen+2 > len(rest) {
		return 0, ErrCorruptRecord
	}
	ev.Actor = string(rest[:actorLen])
	rest = rest[actorLen:]
	refLen := int(binary.LittleEndian.Uint16(rest))
	if refLen != len(rest)-2 {
		return 0, ErrCorruptRecord
	}
	ev.Ref = string(rest[2:])
	return total, nil
}

// errShortRecord marks a record cut off by a crash: the one legal form
// of corruption, repaired by truncating the tail on reopen.
var errShortRecord = errors.New("archive: short record")
