package p2p

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/sharechain"
)

func testEntry(height uint64, token string, diff uint64, salt byte) *sharechain.Entry {
	blob := make([]byte, 76)
	blob[0] = salt
	blob[1] = byte(height)
	e := &sharechain.Entry{Height: height, Token: token, Diff: diff, Nonce: uint32(salt), Blob: blob}
	e.Result[0] = salt
	return e
}

// stripHeader removes the length prefix, returning kind+body as readFrame
// would hand it to DecodeFrame.
func stripHeader(t *testing.T, frame []byte) []byte {
	t.Helper()
	if len(frame) < frameHeaderLen+1 {
		t.Fatalf("frame too short: %d", len(frame))
	}
	ln := binary.LittleEndian.Uint32(frame)
	if int(ln) != len(frame)-frameHeaderLen {
		t.Fatalf("length prefix %d, payload %d", ln, len(frame)-frameHeaderLen)
	}
	return frame[frameHeaderLen:]
}

func TestShareFrameRoundtrip(t *testing.T) {
	e := testEntry(42, "miner-token", 9, 7)
	payload := stripHeader(t, AppendShareFrame(nil, e))
	kind, body, err := DecodeFrame(payload)
	if err != nil || kind != frameShare {
		t.Fatalf("decode: kind=%d err=%v", kind, err)
	}
	got, used, err := decodeEntry(body)
	if err != nil || used != len(body) {
		t.Fatalf("decodeEntry: used=%d/%d err=%v", used, len(body), err)
	}
	if got.Height != e.Height || got.Token != e.Token || got.Diff != e.Diff ||
		got.Nonce != e.Nonce || !bytes.Equal(got.Blob, e.Blob) || got.Result != e.Result {
		t.Fatalf("roundtrip mismatch: %+v", got)
	}
	if got.ID() != e.ID() {
		t.Fatalf("roundtrip changed the entry identity")
	}
}

func TestHelloFrameRoundtrip(t *testing.T) {
	h := hello{Version: ProtocolVersion, NodeID: 0xDEADBEEF, Count: 17, Peers: []string{"a:1", "b:2"}}
	h.Tip[0] = 0xAB
	kind, body, err := DecodeFrame(stripHeader(t, AppendHelloFrame(nil, &h)))
	if err != nil || kind != frameHello {
		t.Fatalf("decode: kind=%d err=%v", kind, err)
	}
	got, err := decodeHello(body)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, h) {
		t.Fatalf("roundtrip: %+v vs %+v", got, h)
	}
}

func TestSyncFramesRoundtrip(t *testing.T) {
	kind, body, err := DecodeFrame(stripHeader(t, AppendSyncReqFrame(nil, 99, 512)))
	if err != nil || kind != frameSyncReq {
		t.Fatalf("syncreq decode: %v", err)
	}
	r, err := decodeSyncReq(body)
	if err != nil || r.From != 99 || r.Max != 512 {
		t.Fatalf("syncreq: %+v err=%v", r, err)
	}

	entries := []*sharechain.Entry{testEntry(1, "a", 2, 1), testEntry(2, "b", 3, 2)}
	var tip [32]byte
	tip[5] = 0x44
	kind, body, err = DecodeFrame(stripHeader(t, AppendSyncRespFrame(nil, 2, tip, entries)))
	if err != nil || kind != frameSyncResp {
		t.Fatalf("syncresp decode: %v", err)
	}
	ta, got, err := decodeSyncResp(body)
	if err != nil || ta.Count != 2 || ta.Tip != tip || len(got) != 2 {
		t.Fatalf("syncresp: %+v n=%d err=%v", ta, len(got), err)
	}
	for i := range got {
		if got[i].ID() != entries[i].ID() {
			t.Fatalf("syncresp entry %d identity changed", i)
		}
	}

	kind, body, err = DecodeFrame(stripHeader(t, AppendTipFrame(nil, 7, tip)))
	if err != nil || kind != frameTip {
		t.Fatalf("tip decode: %v", err)
	}
	tp, err := decodeTip(body)
	if err != nil || tp.Count != 7 || tp.Tip != tip {
		t.Fatalf("tip: %+v err=%v", tp, err)
	}
}

// TestReadFrameRejectsHostileSizes is the oversize/truncated conformance
// gate: a hostile length prefix drops the peer before any payload is
// buffered, and a short read surfaces as an error, never a hang on
// garbage.
func TestReadFrameRejectsHostileSizes(t *testing.T) {
	var over [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(over[:], MaxFrameLen+1)
	if _, _, err := readFrame(bufio.NewReader(bytes.NewReader(over[:]))); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversize: %v", err)
	}
	var zero [frameHeaderLen]byte
	if _, _, err := readFrame(bufio.NewReader(bytes.NewReader(zero[:]))); !errors.Is(err, ErrTruncated) {
		t.Fatalf("zero-length: %v", err)
	}
	frame := AppendShareFrame(nil, testEntry(1, "a", 1, 1))
	if _, _, err := readFrame(bufio.NewReader(bytes.NewReader(frame[:len(frame)-3]))); err == nil {
		t.Fatalf("truncated body decoded")
	}
}

func TestDecodeEntryRejectsMalformed(t *testing.T) {
	e := testEntry(1, "tok", 1, 1)
	full := AppendShareFrame(nil, e)[frameHeaderLen+1:]
	// Every prefix of a valid encoding must fail cleanly.
	for cut := 0; cut < len(full); cut++ {
		if _, _, err := decodeEntry(full[:cut]); err == nil {
			t.Fatalf("prefix %d/%d decoded", cut, len(full))
		}
	}
	// A token length beyond MaxTokenLen is rejected even when the bytes
	// are present.
	huge := make([]byte, entryWireOverhead+4096)
	copy(huge, full)
	binary.LittleEndian.PutUint16(huge[20:], 2000)
	if _, _, err := decodeEntry(huge); err == nil {
		t.Fatalf("oversize token decoded")
	}
	// So is a blob beyond DefaultMaxBlobBytes.
	binary.LittleEndian.PutUint16(huge[20:], 0)
	binary.LittleEndian.PutUint16(huge[22:], 60000)
	if _, _, err := decodeEntry(huge); err == nil {
		t.Fatalf("oversize blob decoded")
	}
}

// TestEncodeAllocs pins the broadcast fast path: encoding into a
// buffer with capacity is alloc-free, which is what lets Publish ride
// the submit hot path.
func TestEncodeAllocs(t *testing.T) {
	e := testEntry(3, "account-token", 5, 9)
	e.ID() // warm the cached ID like a real post-accept entry
	buf := make([]byte, 0, 1024)
	if n := testing.AllocsPerRun(200, func() {
		buf = AppendShareFrame(buf[:0], e)
	}); n != 0 {
		t.Fatalf("AppendShareFrame allocs = %v, want 0", n)
	}
	var tip [32]byte
	if n := testing.AllocsPerRun(200, func() {
		buf = AppendTipFrame(buf[:0], 12, tip)
	}); n != 0 {
		t.Fatalf("AppendTipFrame allocs = %v, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		buf = AppendSyncReqFrame(buf[:0], 1, 64)
	}); n != 0 {
		t.Fatalf("AppendSyncReqFrame allocs = %v, want 0", n)
	}
	frame := AppendShareFrame(nil, e)[frameHeaderLen:]
	if n := testing.AllocsPerRun(200, func() {
		_, _, _ = DecodeFrame(frame)
	}); n != 0 {
		t.Fatalf("DecodeFrame allocs = %v, want 0", n)
	}
	cp := testCheckpoint(rand.New(rand.NewSource(5)), 16)
	if n := testing.AllocsPerRun(200, func() {
		buf = AppendCheckpointFrame(buf[:0], &cp)
	}); n != 0 {
		t.Fatalf("AppendCheckpointFrame allocs = %v, want 0", n)
	}
	body := append([]byte(nil), buf[frameHeaderLen+1:]...)
	if n := testing.AllocsPerRun(200, func() {
		_, _ = decodeCheckpoint(body)
	}); n != 1+16 {
		t.Fatalf("decodeCheckpoint allocs = %v, want 17: the list and one string per token", n)
	}
}

// FuzzP2PDecode drives every frame decoder with arbitrary bytes: the
// contract is "error or valid value", never a panic or a hang, for
// handshake, share, sync and tip payloads alike.
func FuzzP2PDecode(f *testing.F) {
	e := testEntry(5, "fuzz-token", 3, 0x55)
	f.Add(AppendShareFrame(nil, e)[frameHeaderLen:])
	h := hello{Version: ProtocolVersion, NodeID: 123, Count: 9, Peers: []string{"x:1"}}
	f.Add(AppendHelloFrame(nil, &h)[frameHeaderLen:])
	f.Add(AppendSyncReqFrame(nil, 10, 100)[frameHeaderLen:])
	f.Add(AppendSyncRespFrame(nil, 1, [32]byte{1}, []*sharechain.Entry{e})[frameHeaderLen:])
	f.Add(AppendTipFrame(nil, 4, [32]byte{2})[frameHeaderLen:])
	f.Add([]byte{})
	f.Add([]byte{frameShare})
	cp := testCheckpoint(rand.New(rand.NewSource(1)), 3)
	f.Add(AppendCheckpointFrame(nil, &cp)[frameHeaderLen:])
	f.Add(hostileCheckpoint(1 << 31))
	f.Add(hostileCheckpoint(1)[:checkpointFixedLen+1+minCreditLen])
	f.Fuzz(func(t *testing.T, data []byte) {
		kind, body, err := DecodeFrame(data)
		if err != nil {
			return
		}
		switch kind {
		case frameHello:
			if h, err := decodeHello(body); err == nil && len(h.Peers) > maxHelloPeers {
				t.Fatalf("hello decoded with %d peers", len(h.Peers))
			}
		case frameShare:
			if e, used, err := decodeEntry(body); err == nil {
				if used > len(body) {
					t.Fatalf("decodeEntry consumed %d of %d", used, len(body))
				}
				if len(e.Token) > sharechain.MaxTokenLen || len(e.Blob) > sharechain.DefaultMaxBlobBytes {
					t.Fatalf("decoded entry violates bounds")
				}
			}
		case frameSyncReq:
			decodeSyncReq(body)
		case frameSyncResp:
			if _, entries, err := decodeSyncResp(body); err == nil {
				for i := range entries {
					if len(entries[i].Blob) > sharechain.DefaultMaxBlobBytes {
						t.Fatalf("sync entry %d violates blob bound", i)
					}
				}
			}
		case frameTip:
			decodeTip(body)
		case frameCheckpoint:
			// The encoding has no slack, so whatever decodes re-encodes
			// to the same bytes.
			if cp, err := decodeCheckpoint(body); err == nil {
				if again := AppendCheckpointFrame(nil, &cp)[frameHeaderLen:]; !bytes.Equal(again, data) {
					t.Fatalf("checkpoint re-encodes differently")
				}
				for _, w := range cp.Credit {
					if len(w.Token) == 0 || len(w.Token) > sharechain.MaxTokenLen {
						t.Fatalf("decoded credit token of %d bytes", len(w.Token))
					}
				}
			}
		}
	})
}

// testCheckpoint draws a checkpoint with n credit records, tokens 1 to
// MaxTokenLen bytes long.
func testCheckpoint(rng *rand.Rand, n int) sharechain.Checkpoint {
	cp := sharechain.Checkpoint{Count: rng.Uint64(), Height: rng.Uint64()}
	rng.Read(cp.ID[:])
	rng.Read(cp.Tip[:])
	for i := 0; i < n; i++ {
		tok := make([]byte, 1+rng.Intn(sharechain.MaxTokenLen))
		rng.Read(tok)
		cp.Credit = append(cp.Credit, sharechain.TokenWeight{Token: string(tok), Weight: rng.Uint64()})
	}
	return cp
}

// hostileCheckpoint is a checkpoint body (kind byte first) that claims
// count credit records and carries one.
func hostileCheckpoint(count uint32) []byte {
	cp := sharechain.Checkpoint{Count: 1, Height: 1, Credit: []sharechain.TokenWeight{{Token: "a", Weight: 1}}}
	b := AppendCheckpointFrame(nil, &cp)[frameHeaderLen:]
	binary.LittleEndian.PutUint32(b[1+checkpointFixedLen-4:], count)
	return b
}

// TestCheckpointFrameRoundtrip: any checkpoint — no credit, or many
// records with tokens of every legal length — decodes to itself.
func TestCheckpointFrameRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		cp := testCheckpoint(rng, rng.Intn(40))
		kind, body, err := DecodeFrame(stripHeader(t, AppendCheckpointFrame(nil, &cp)))
		if err != nil || kind != frameCheckpoint {
			t.Fatalf("decode: kind=%d err=%v", kind, err)
		}
		got, err := decodeCheckpoint(body)
		if err != nil || !reflect.DeepEqual(got, cp) {
			t.Fatalf("roundtrip %d: err=%v\n got %+v\nwant %+v", i, err, got, cp)
		}
	}
}

// TestDecodeCheckpointRejectsMalformed: every proper prefix fails, and so
// do a zero-length token, an oversize token, trailing bytes, and a credit
// count the frame could not hold — that one before a single allocation.
func TestDecodeCheckpointRejectsMalformed(t *testing.T) {
	cp := testCheckpoint(rand.New(rand.NewSource(3)), 4)
	full := AppendCheckpointFrame(nil, &cp)[frameHeaderLen+1:]
	for cut := 0; cut < len(full); cut++ {
		if _, err := decodeCheckpoint(full[:cut]); err == nil {
			t.Fatalf("prefix %d/%d decoded", cut, len(full))
		}
	}
	if _, err := decodeCheckpoint(append(full[:len(full):len(full)], 0)); !errors.Is(err, ErrTruncated) {
		t.Fatalf("trailing byte: %v", err)
	}
	one := hostileCheckpoint(1)[1:]
	for _, tokLen := range []uint16{0, sharechain.MaxTokenLen + 1} {
		bad := append([]byte(nil), one...)
		binary.LittleEndian.PutUint16(bad[checkpointFixedLen:], tokLen)
		bad = append(bad, make([]byte, int(tokLen))...)
		if _, err := decodeCheckpoint(bad); !errors.Is(err, ErrTruncated) {
			t.Fatalf("token length %d: %v", tokLen, err)
		}
	}
	huge := hostileCheckpoint(1<<32 - 1)[1:]
	var err error
	if n := testing.AllocsPerRun(100, func() { _, err = decodeCheckpoint(huge) }); n != 0 || !errors.Is(err, ErrTruncated) {
		t.Fatalf("credit count 2^32-1 in a %d-byte body: err=%v after %v allocs, want ErrTruncated after 0", len(huge), err, n)
	}
}
