// Package p2p is the federation's peer layer: a small gossip protocol
// that moves share-chain entries between pool nodes over any net.Conn —
// real TCP in production, memconn in tests, so N-node convergence suites
// need no ports. The protocol is six frame kinds over the repo's
// length-prefixed framing idiom: a version-checked handshake carrying
// the chain tip, share broadcast with dedupe-by-hash and
// relay, ranged catch-up sync for tip-ahead peers — led by the share-chain's
// checkpoint when the requester is behind the responder's finality
// horizon — and a periodic tip announce that turns any silent divergence
// into a sync round.
//
// The package sees the share-chain as data and the transport as bytes:
// layering pins it to sharechain + metrics + memconn. PoW validation of
// ingested shares happens inside sharechain's injected verifier, on the
// reader goroutine of the link they arrived on — a hostile frame costs
// this layer only its decode. A share frame with a second one already
// whole in the read buffer behind it goes to the chain as a pair, which
// the verifier checks in one paired hash; the reader never waits for a
// partner.
package p2p

import (
	"encoding/binary"
	"errors"

	"repro/internal/sharechain"
)

// ProtocolVersion is checked in the handshake; mismatched peers are
// rejected before any share crosses. Version 2 added the checkpoint frame;
// version 3 dropped the hello's peer list and resumes a sync round after
// the last entry's ID.
const ProtocolVersion = 3

// Frame kinds. Values are wire format: never renumber, only append.
const (
	frameHello      byte = 1
	frameShare      byte = 2
	frameSyncReq    byte = 3
	frameSyncResp   byte = 4
	frameTip        byte = 5
	frameCheckpoint byte = 6
)

// Framing: [u32 length][kind byte][body], little-endian. MaxFrameLen
// bounds the body+kind; anything larger is hostile and drops the conn
// before a single byte of it is buffered.
const (
	frameHeaderLen = 4
	// MaxFrameLen bounds one frame's payload (kind byte included). A
	// sync batch of syncBatch entries at maximal blob/token sizes fits
	// with slack.
	MaxFrameLen = 1 << 20
)

// Decode errors. ErrFrameTooLarge and ErrTruncated drop the peer;
// they mark frames no honest implementation produces.
var (
	ErrFrameTooLarge = errors.New("p2p: frame exceeds MaxFrameLen")
	ErrTruncated     = errors.New("p2p: truncated frame")
	ErrUnknownFrame  = errors.New("p2p: unknown frame kind")
	ErrBadVersion    = errors.New("p2p: protocol version mismatch")
	ErrSelfConnect   = errors.New("p2p: connection loops back to self")
	ErrDupPeer       = errors.New("p2p: peer with this node ID already connected")
)

// hello is the handshake payload: protocol version, the sender's node
// identity and its share-chain tip. Nodes keep no address book: every
// link is one an operator configured.
type hello struct {
	Version uint16
	NodeID  uint64
	Count   uint64 // share-chain entry count
	Tip     [32]byte
}

// helloLen is the exact hello body length.
const helloLen = 2 + 8 + 8 + 32

// tipAnnounce carries the sender's current chain tip; the receiver
// compares and starts a catch-up sync when it is behind.
type tipAnnounce struct {
	Count uint64
	Tip   [32]byte
}

// syncReq asks for at most Max entries with claimed height ≥ From; a
// non-zero After narrows that to the entries sorting strictly after
// (From, After), which is how a round resumes past its last batch.
type syncReq struct {
	From  uint64
	After [32]byte
	Max   uint32
}

// beginFrame reserves the length prefix and writes the kind byte;
// endFrame back-fills the length. Between the two, appenders extend dst.
//
//lint:hotpath
func beginFrame(dst []byte, kind byte) []byte {
	return append(dst, 0, 0, 0, 0, kind)
}

//lint:hotpath
func endFrame(dst []byte, start int) []byte {
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(dst)-start-frameHeaderLen))
	return dst
}

// AppendShareFrame appends one share-broadcast frame. The encode-once
// idiom from the pool's job fan-out applies here too: Publish encodes a
// frame once and every peer's writer reuses the same bytes.
//
//lint:hotpath
func AppendShareFrame(dst []byte, e *sharechain.Entry) []byte {
	start := len(dst)
	dst = beginFrame(dst, frameShare)
	dst = appendEntry(dst, e)
	return endFrame(dst, start)
}

// appendEntry writes the self-delimiting entry encoding shared by share
// and sync-response frames.
//
//lint:hotpath
func appendEntry(dst []byte, e *sharechain.Entry) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, e.Height)
	dst = binary.LittleEndian.AppendUint64(dst, e.Diff)
	dst = binary.LittleEndian.AppendUint32(dst, e.Nonce)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(e.Token)))
	dst = append(dst, e.Token...)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(e.Blob)))
	dst = append(dst, e.Blob...)
	return append(dst, e.Result[:]...)
}

// entryWireOverhead is the fixed part of an encoded entry.
const entryWireOverhead = 8 + 8 + 4 + 2 + 2 + 32

// decodeEntry parses one entry from the front of b, returning the bytes
// consumed. Token and Blob are fresh copies: entries outlive the read
// buffer they were framed in.
func decodeEntry(b []byte) (sharechain.Entry, int, error) {
	var e sharechain.Entry
	if len(b) < entryWireOverhead {
		return e, 0, ErrTruncated
	}
	e.Height = binary.LittleEndian.Uint64(b)
	e.Diff = binary.LittleEndian.Uint64(b[8:])
	e.Nonce = binary.LittleEndian.Uint32(b[16:])
	tokLen := int(binary.LittleEndian.Uint16(b[20:]))
	rest := b[22:]
	if tokLen > sharechain.MaxTokenLen || len(rest) < tokLen+2 {
		return e, 0, ErrTruncated
	}
	e.Token = string(rest[:tokLen])
	rest = rest[tokLen:]
	blobLen := int(binary.LittleEndian.Uint16(rest))
	rest = rest[2:]
	if blobLen > sharechain.DefaultMaxBlobBytes || len(rest) < blobLen+32 {
		return e, 0, ErrTruncated
	}
	e.Blob = append([]byte(nil), rest[:blobLen]...)
	copy(e.Result[:], rest[blobLen:blobLen+32])
	return e, entryWireOverhead + tokLen + blobLen, nil
}

// AppendHelloFrame appends the handshake frame.
func AppendHelloFrame(dst []byte, h *hello) []byte {
	start := len(dst)
	dst = beginFrame(dst, frameHello)
	dst = binary.LittleEndian.AppendUint16(dst, h.Version)
	dst = binary.LittleEndian.AppendUint64(dst, h.NodeID)
	dst = binary.LittleEndian.AppendUint64(dst, h.Count)
	dst = append(dst, h.Tip[:]...)
	return endFrame(dst, start)
}

// decodeHello checks the version before the length, so a peer speaking
// another protocol version is refused as such whatever its hello holds.
func decodeHello(b []byte) (hello, error) {
	var h hello
	if len(b) < 2 {
		return h, ErrTruncated
	}
	if h.Version = binary.LittleEndian.Uint16(b); h.Version != ProtocolVersion {
		return h, ErrBadVersion
	}
	if len(b) != helloLen {
		return h, ErrTruncated
	}
	h.NodeID = binary.LittleEndian.Uint64(b[2:])
	h.Count = binary.LittleEndian.Uint64(b[10:])
	copy(h.Tip[:], b[18:])
	return h, nil
}

// AppendTipFrame appends a tip announce.
//
//lint:hotpath
func AppendTipFrame(dst []byte, count uint64, tip [32]byte) []byte {
	start := len(dst)
	dst = beginFrame(dst, frameTip)
	dst = binary.LittleEndian.AppendUint64(dst, count)
	dst = append(dst, tip[:]...)
	return endFrame(dst, start)
}

func decodeTip(b []byte) (tipAnnounce, error) {
	var t tipAnnounce
	if len(b) != 8+32 {
		return t, ErrTruncated
	}
	t.Count = binary.LittleEndian.Uint64(b)
	copy(t.Tip[:], b[8:])
	return t, nil
}

// AppendSyncReqFrame appends a ranged catch-up request.
//
//lint:hotpath
func AppendSyncReqFrame(dst []byte, from uint64, after [32]byte, max uint32) []byte {
	start := len(dst)
	dst = beginFrame(dst, frameSyncReq)
	dst = binary.LittleEndian.AppendUint64(dst, from)
	dst = append(dst, after[:]...)
	dst = binary.LittleEndian.AppendUint32(dst, max)
	return endFrame(dst, start)
}

func decodeSyncReq(b []byte) (syncReq, error) {
	var r syncReq
	if len(b) != 8+32+4 {
		return r, ErrTruncated
	}
	r.From = binary.LittleEndian.Uint64(b)
	copy(r.After[:], b[8:40])
	r.Max = binary.LittleEndian.Uint32(b[40:])
	return r, nil
}

// AppendSyncRespFrame appends a catch-up batch plus the responder's own
// tip, so one round both delivers entries and tells the requester
// whether another round is needed.
func AppendSyncRespFrame(dst []byte, count uint64, tip [32]byte, entries []*sharechain.Entry) []byte {
	start := len(dst)
	dst = beginFrame(dst, frameSyncResp)
	dst = binary.LittleEndian.AppendUint64(dst, count)
	dst = append(dst, tip[:]...)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(entries)))
	for _, e := range entries {
		dst = appendEntry(dst, e)
	}
	return endFrame(dst, start)
}

func decodeSyncResp(b []byte) (tipAnnounce, []sharechain.Entry, error) {
	if len(b) < 8+32+2 {
		return tipAnnounce{}, nil, ErrTruncated
	}
	t := tipAnnounce{Count: binary.LittleEndian.Uint64(b)}
	copy(t.Tip[:], b[8:40])
	n := int(binary.LittleEndian.Uint16(b[40:]))
	rest := b[42:]
	entries := make([]sharechain.Entry, 0, n)
	for i := 0; i < n; i++ {
		e, used, err := decodeEntry(rest)
		if err != nil {
			return t, nil, err
		}
		entries = append(entries, e)
		rest = rest[used:]
	}
	if len(rest) != 0 {
		return t, nil, ErrTruncated
	}
	return t, entries, nil
}

// AppendCheckpointFrame appends a share-chain checkpoint: the responder's
// folded history, sent ahead of the held range to a requester behind its
// horizon. Layout: count, height, last ID, tip, then a u32-counted credit
// list of [u16 token length][token][u64 credit].
func AppendCheckpointFrame(dst []byte, cp *sharechain.Checkpoint) []byte {
	start := len(dst)
	dst = beginFrame(dst, frameCheckpoint)
	dst = binary.LittleEndian.AppendUint64(dst, cp.Count)
	dst = binary.LittleEndian.AppendUint64(dst, cp.Height)
	dst = append(dst, cp.ID[:]...)
	dst = append(dst, cp.Tip[:]...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(cp.Credit)))
	for _, w := range cp.Credit {
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(w.Token)))
		dst = append(dst, w.Token...)
		dst = binary.LittleEndian.AppendUint64(dst, w.Weight)
	}
	return endFrame(dst, start)
}

// checkpointFixedLen is the checkpoint body before its credit list;
// minCreditLen is the smallest credit record (a one-byte token).
const (
	checkpointFixedLen = 8 + 8 + 32 + 32 + 4
	minCreditLen       = 2 + 1 + 8
)

// decodeCheckpoint parses a checkpoint body. The credit list is walked
// once for bounds before anything is allocated for it, so a count the
// body could not hold, or a malformed record, costs no allocation;
// otherwise the decode allocates the list and one string per token.
func decodeCheckpoint(b []byte) (sharechain.Checkpoint, error) {
	var cp sharechain.Checkpoint
	if len(b) < checkpointFixedLen {
		return cp, ErrTruncated
	}
	cp.Count = binary.LittleEndian.Uint64(b)
	cp.Height = binary.LittleEndian.Uint64(b[8:])
	copy(cp.ID[:], b[16:48])
	copy(cp.Tip[:], b[48:80])
	n := int(binary.LittleEndian.Uint32(b[80:]))
	list := b[checkpointFixedLen:]
	rest := list
	for i := 0; i < n; i++ {
		if len(rest) < minCreditLen {
			return cp, ErrTruncated
		}
		l := int(binary.LittleEndian.Uint16(rest))
		if l == 0 || l > sharechain.MaxTokenLen || len(rest) < 2+l+8 {
			return cp, ErrTruncated
		}
		rest = rest[2+l+8:]
	}
	if len(rest) != 0 {
		return cp, ErrTruncated
	}
	if n > 0 {
		cp.Credit = make([]sharechain.TokenWeight, n)
	}
	for i := range cp.Credit {
		l := int(binary.LittleEndian.Uint16(list))
		cp.Credit[i] = sharechain.TokenWeight{Token: string(list[2 : 2+l]), Weight: binary.LittleEndian.Uint64(list[2+l:])}
		list = list[2+l+8:]
	}
	return cp, nil
}

// DecodeFrame splits one framed message into kind and body. b must hold
// exactly the payload read off the wire (length prefix stripped).
//
//lint:hotpath
func DecodeFrame(b []byte) (byte, []byte, error) {
	if len(b) < 1 {
		return 0, nil, ErrTruncated
	}
	return b[0], b[1:], nil
}
