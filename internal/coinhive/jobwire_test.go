package coinhive

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/stratum"
	"repro/internal/ws"
)

// TestJobWireBitIdenticalAcrossTiers is the encode-once acceptance bar:
// for every tier the fan-out serves (static, link, and a spread of
// vardiff difficulties) the cached wire bytes must be bit-identical to
// what the per-session marshal paths would have produced — on both
// dialects. The TCP expectation comes from the generic reflective notify
// encoder; the ws expectation frames the generic envelope marshal
// through the real frame writer.
func TestJobWireBitIdenticalAcrossTiers(t *testing.T) {
	pool := newTestPool(t, 4)
	tiers := []struct {
		name string
		diff uint64
	}{
		{"static", 4},
		{"link", 16},
		{"vardiff-256", 256},
		{"vardiff-1M", 1 << 20},
	}
	for _, tier := range tiers {
		for slot := 0; slot < 3; slot++ {
			w := pool.jobWire(0, slot, tier.diff)
			if w == nil || w.job.JobID == "" {
				t.Fatalf("%s slot %d: empty wire", tier.name, slot)
			}
			wantTCP, err := stratum.AppendRPCNotify(nil, stratum.TypeJob, w.job)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(w.tcpLine, wantTCP) {
				t.Errorf("%s slot %d TCP line:\n got %s\nwant %s", tier.name, slot, w.tcpLine, wantTCP)
			}
			payload, err := stratum.Marshal(stratum.TypeJob, w.job)
			if err != nil {
				t.Fatal(err)
			}
			var frame bytes.Buffer
			if err := ws.WriteFrame(&frame, &ws.Frame{Fin: true, Opcode: ws.OpText, Payload: payload}); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(w.wsFrame, frame.Bytes()) {
				t.Errorf("%s slot %d ws frame:\n got %x\nwant %x", tier.name, slot, w.wsFrame, frame.Bytes())
			}
		}
	}

	// Cache discipline: re-requesting every tier must return the same
	// pointers and mint nothing new — one encode per (tip, tier, slot).
	encodes := pool.jobEncodes.Load()
	for _, tier := range tiers {
		for slot := 0; slot < 3; slot++ {
			w1 := pool.jobWire(0, slot, tier.diff)
			if w2 := pool.jobWire(0, slot, tier.diff); w2 != w1 {
				t.Errorf("%s slot %d: cache returned distinct wires", tier.name, slot)
			}
		}
	}
	if got := pool.jobEncodes.Load(); got != encodes {
		t.Errorf("cache hits re-encoded: pool.job_encodes %d -> %d", encodes, got)
	}
}

// discardConn is a no-op net.Conn for alloc measurements: writes succeed
// instantly, deadlines are ignored.
type discardConn struct{}

func (discardConn) Read(b []byte) (int, error)       { return 0, io.EOF }
func (discardConn) Write(b []byte) (int, error)      { return len(b), nil }
func (discardConn) Close() error                     { return nil }
func (discardConn) LocalAddr() net.Addr              { return nil }
func (discardConn) RemoteAddr() net.Addr             { return nil }
func (discardConn) SetDeadline(time.Time) error      { return nil }
func (discardConn) SetReadDeadline(time.Time) error  { return nil }
func (discardConn) SetWriteDeadline(time.Time) error { return nil }

// TestServePushPathAllocFree pins the steady-state TCP serve path at
// zero allocations per operation: the jobWire cache hit, the one-line
// push write, and the deliver fast paths for keepalive acks and
// accepted-share replies. These are the per-session per-event costs that
// multiply by 50k; everything else (login, errors, tip refresh) is cold.
func TestServePushPathAllocFree(t *testing.T) {
	pool := newTestPool(t, 4)
	eng := NewEngine(pool)
	s := NewStratumServer(eng)
	defer s.Shutdown()

	w := pool.jobWire(0, 0, 4)
	if allocs := testing.AllocsPerRun(500, func() { pool.jobWire(0, 0, 4) }); allocs != 0 {
		t.Errorf("jobWire cache hit: %v allocs/op, want 0", allocs)
	}

	c := &stratumConn{srv: s, nc: discardConn{}}
	tipNs := time.Now().UnixNano()
	c.wmu.Lock()
	allocs := testing.AllocsPerRun(500, func() { _ = c.writePushLocked(w.tcpLine, tipNs) })
	c.wmu.Unlock()
	if allocs != 0 {
		t.Errorf("writePushLocked: %v allocs/op, want 0", allocs)
	}

	keepalive := Command{Kind: cmdKeepalive, tag: json.RawMessage("7")}
	kaEvs := []Event{{Kind: evKeepalive}}
	if err := c.deliver(nil, keepalive, kaEvs); err != nil { // warm wbuf
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(500, func() { _ = c.deliver(nil, keepalive, kaEvs) }); allocs != 0 {
		t.Errorf("Deliver keepalive ack: %v allocs/op, want 0", allocs)
	}

	submit := Command{Kind: CmdSubmit, tag: json.RawMessage("8")}
	okEvs := []Event{{Kind: EvAccepted, accepted: stratum.HashAccepted{Hashes: 4096}}}
	if err := c.deliver(nil, submit, okEvs); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(500, func() { _ = c.deliver(nil, submit, okEvs) }); allocs != 0 {
		t.Errorf("Deliver submit OK: %v allocs/op, want 0", allocs)
	}
}
