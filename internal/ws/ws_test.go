package ws

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"testing/quick"
)

// readFrame decodes one frame into a fresh Frame.
func readFrame(r io.Reader, maxPayload int64) (*Frame, error) {
	f := &Frame{}
	_, err := ReadFrameInto(r, f, maxPayload, nil)
	return f, err
}

// writeClientFrame writes f masked, below the Conn's own framing, as a
// client that fragments or pings would.
func writeClientFrame(t *testing.T, c *Conn, f Frame) {
	t.Helper()
	f.Masked, f.MaskKey = true, [4]byte{1, 2, 3, 4}
	if err := WriteFrame(c.NetConn(), &f); err != nil {
		t.Fatal(err)
	}
}

func TestAcceptKeyRFCExample(t *testing.T) {
	// The worked example from RFC 6455 §1.3.
	if got := acceptKey("dGhlIHNhbXBsZSBub25jZQ=="); got != "s3pPLMBiTxaQ9kYGzzhZRbK+xOo=" {
		t.Errorf("AcceptKey = %q", got)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{
		nil,
		[]byte("x"),
		bytes.Repeat([]byte("a"), 125),
		bytes.Repeat([]byte("b"), 126),
		bytes.Repeat([]byte("c"), 65535),
		bytes.Repeat([]byte("d"), 65536),
	}
	for _, p := range payloads {
		for _, masked := range []bool{false, true} {
			var buf bytes.Buffer
			f := &Frame{Fin: true, Opcode: opBinary, Masked: masked,
				MaskKey: [4]byte{1, 2, 3, 4}, Payload: append([]byte(nil), p...)}
			if err := WriteFrame(&buf, f); err != nil {
				t.Fatalf("WriteFrame(len=%d, masked=%v): %v", len(p), masked, err)
			}
			g, err := readFrame(&buf, 0)
			if err != nil {
				t.Fatalf("ReadFrame(len=%d, masked=%v): %v", len(p), masked, err)
			}
			if !bytes.Equal(g.Payload, p) {
				t.Errorf("payload mismatch len=%d masked=%v", len(p), masked)
			}
			if g.Opcode != opBinary || !g.Fin || g.Masked != masked {
				t.Errorf("frame metadata mismatch: %+v", g)
			}
		}
	}
}

func TestQuickFrameRoundTrip(t *testing.T) {
	f := func(payload []byte, key [4]byte, masked bool, text bool) bool {
		op := opBinary
		if text {
			op = OpText
		}
		var buf bytes.Buffer
		fr := &Frame{Fin: true, Opcode: op, Masked: masked, MaskKey: key,
			Payload: append([]byte(nil), payload...)}
		if err := WriteFrame(&buf, fr); err != nil {
			return false
		}
		g, err := readFrame(&buf, 0)
		return err == nil && bytes.Equal(g.Payload, payload) && g.Opcode == op
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMaskBytesInvolution(t *testing.T) {
	f := func(key [4]byte, data []byte) bool {
		orig := append([]byte(nil), data...)
		maskBytes(key, 0, data)
		maskBytes(key, 0, data)
		return bytes.Equal(orig, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReadFrameRejectsProtocolViolations(t *testing.T) {
	// Reserved bits.
	if _, err := readFrame(bytes.NewReader([]byte{0xC2, 0x00}), 0); err != errReservedBits {
		t.Errorf("rsv bits: err = %v", err)
	}
	// Control frame with 16-bit length.
	if _, err := readFrame(bytes.NewReader([]byte{0x89, 126, 0x01, 0x00}), 0); err != errControlTooLong {
		t.Errorf("long ping: err = %v", err)
	}
	// Fragmented control frame (FIN=0, opcode=ping).
	if _, err := readFrame(bytes.NewReader([]byte{0x09, 0x00}), 0); err != errFragmentedControl {
		t.Errorf("fragmented ping: err = %v", err)
	}
	// Non-minimal 16-bit length (value < 126).
	if _, err := readFrame(bytes.NewReader([]byte{0x82, 126, 0x00, 0x05}), 0); err != errBadLength {
		t.Errorf("non-minimal length: err = %v", err)
	}
	// Frame over read limit.
	var buf bytes.Buffer
	WriteFrame(&buf, &Frame{Fin: true, Opcode: opBinary, Payload: make([]byte, 1000)})
	if _, err := readFrame(&buf, 100); err != errFrameTooBig {
		t.Errorf("over limit: err = %v", err)
	}
}

func TestWriteFrameRejectsBadControl(t *testing.T) {
	var buf bytes.Buffer
	err := WriteFrame(&buf, &Frame{Fin: true, Opcode: opPing, Payload: make([]byte, 126)})
	if err != errControlTooLong {
		t.Errorf("long control: err = %v", err)
	}
	err = WriteFrame(&buf, &Frame{Fin: false, Opcode: opClose})
	if err != errFragmentedControl {
		t.Errorf("fragmented control: err = %v", err)
	}
}

func TestClosePayloadRoundTrip(t *testing.T) {
	p := encodeClosePayload(CloseGoingAway, "nope")
	code, reason := decodeClosePayload(p)
	if code != CloseGoingAway || reason != "nope" {
		t.Errorf("got (%d, %q)", code, reason)
	}
	if code, _ := decodeClosePayload(nil); code != closeNormal {
		t.Errorf("empty close payload code = %d, want 1000", code)
	}
}

// echoServer upgrades and echoes every data message back.
func echoServer(t *testing.T) *httptest.Server {
	t.Helper()
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c, err := Upgrade(w, r)
		if err != nil {
			return
		}
		defer c.Close()
		for {
			op, data, err := c.ReadMessage()
			if err != nil {
				return
			}
			if err := c.WriteMessage(op, data); err != nil {
				return
			}
		}
	}))
}

func wsURL(s *httptest.Server) string {
	return "ws" + strings.TrimPrefix(s.URL, "http")
}

func TestEndToEndEcho(t *testing.T) {
	s := echoServer(t)
	defer s.Close()
	c, err := Dial(wsURL(s), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	msg := []byte(`{"type":"job","blob":"00ff"}`)
	if err := c.WriteMessage(OpText, append([]byte(nil), msg...)); err != nil {
		t.Fatal(err)
	}
	op, got, err := c.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if op != OpText || !bytes.Equal(got, msg) {
		t.Errorf("echo = (%v, %q)", op, got)
	}
}

// TestEndToEndLargeAndFragmented has the server reassemble a client
// message sent in continuation frames, up to its bound, and the client
// read the echo in one piece.
func TestEndToEndLargeAndFragmented(t *testing.T) {
	s := echoServer(t)
	defer s.Close()
	c, err := Dial(wsURL(s), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	big := bytes.Repeat([]byte("wasm"), maxServerMessage/4)
	for i := 0; i < len(big); i += 1000 {
		op := opContinuation
		if i == 0 {
			op = opBinary
		}
		end := min(i+1000, len(big))
		writeClientFrame(t, c, Frame{Fin: end == len(big), Opcode: op, Payload: append([]byte(nil), big[i:end]...)})
	}
	op, got, err := c.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if op != opBinary || !bytes.Equal(got, big) {
		t.Errorf("fragmented echo mismatch: len=%d want %d", len(got), len(big))
	}
}

// TestPingIsAnsweredTransparently has a client ping the server mid-session:
// the server answers with a pong carrying the same payload, ahead of the
// echo of the next data message, which its ReadMessage returns unaffected.
func TestPingIsAnsweredTransparently(t *testing.T) {
	s := echoServer(t)
	defer s.Close()
	c, err := Dial(wsURL(s), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	writeClientFrame(t, c, Frame{Fin: true, Opcode: opPing, Payload: []byte("hb")})
	writeClientFrame(t, c, Frame{Fin: true, Opcode: OpText, Payload: []byte("after-ping")})
	for _, want := range []Frame{{Fin: true, Opcode: opPong, Payload: []byte("hb")},
		{Fin: true, Opcode: OpText, Payload: []byte("after-ping")}} {
		got, err := readFrame(c.br, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got.Fin != want.Fin || got.Opcode != want.Opcode || got.Masked || string(got.Payload) != string(want.Payload) {
			t.Errorf("frame = %+v, want %+v", got, want)
		}
	}
}

func TestCloseHandshakeSurfacesCode(t *testing.T) {
	s := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c, err := Upgrade(w, r)
		if err != nil {
			return
		}
		c.CloseWithCode(CloseGoingAway, "shutting down")
	}))
	defer s.Close()
	c, err := Dial(wsURL(s), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, _, err = c.ReadMessage()
	var ce *CloseError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want CloseError", err)
	}
	if ce.Code != CloseGoingAway || ce.reason != "shutting down" {
		t.Errorf("close = (%d, %q)", ce.Code, ce.reason)
	}
}

// TestControlFrameViolationGets1002Close verifies RFC 6455 §7.1.7: a
// peer that sends an oversize or fragmented control frame must be failed
// with a close handshake carrying 1002 (protocol error), not just a
// dropped transport. The malformed client writes raw bytes below the
// framing layer, since WriteFrame itself refuses to produce these.
func TestControlFrameViolationGets1002Close(t *testing.T) {
	cases := []struct {
		name string
		raw  []byte
	}{
		// FIN+ping with a 16-bit length of 128: payload over the 125-byte
		// control limit.
		{"oversize ping", []byte{0x89, 126, 0x00, 0x80}},
		// FIN=0 ping: fragmented control frame.
		{"fragmented ping", []byte{0x09, 0x00}},
		// Reserved bit set on a data frame.
		{"reserved bits", []byte{0xC2, 0x00}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := echoServer(t)
			defer s.Close()
			c, err := Dial(wsURL(s), nil)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if _, err := c.NetConn().Write(tc.raw); err != nil {
				t.Fatal(err)
			}
			// The server must answer with a close frame carrying 1002,
			// which surfaces here as a CloseError.
			_, _, err = c.ReadMessage()
			var ce *CloseError
			if !errors.As(err, &ce) {
				t.Fatalf("err = %v, want CloseError", err)
			}
			if ce.Code != closeProtocolError {
				t.Errorf("close code = %d, want %d", ce.Code, closeProtocolError)
			}
		})
	}
}

// TestOversizeFrameGets1009Close verifies that a server conn accepts a
// message of exactly maxServerMessage bytes and fails one byte more with
// 1009 (message too big) rather than a silent teardown, whether the
// excess arrives in one frame or assembles from fragments.
func TestOversizeFrameGets1009Close(t *testing.T) {
	s := echoServer(t)
	defer s.Close()
	dial := func(t *testing.T) *Conn {
		c, err := Dial(wsURL(s), nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	c := dial(t)
	if err := c.WriteMessage(opBinary, make([]byte, maxServerMessage)); err != nil {
		t.Fatal(err)
	}
	if _, got, err := c.ReadMessage(); err != nil || len(got) != maxServerMessage {
		t.Fatalf("echo of a bound-sized message = %d bytes, %v", len(got), err)
	}
	for name, frames := range map[string][]Frame{
		"single frame": {{Fin: true, Opcode: opBinary, Payload: make([]byte, maxServerMessage+1)}},
		"fragments": {{Opcode: opBinary, Payload: make([]byte, maxServerMessage)},
			{Fin: true, Opcode: opContinuation, Payload: make([]byte, 1)}},
	} {
		t.Run(name, func(t *testing.T) {
			c := dial(t)
			for _, f := range frames {
				writeClientFrame(t, c, f)
			}
			_, _, err := c.ReadMessage()
			var ce *CloseError
			if !errors.As(err, &ce) {
				t.Fatalf("err = %v, want CloseError", err)
			}
			if ce.Code != closeTooBig {
				t.Errorf("close code = %d, want %d", ce.Code, closeTooBig)
			}
		})
	}
}

func TestUpgradeRejectsPlainHTTP(t *testing.T) {
	s := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, err := Upgrade(w, r); err != errNotWebSocket {
			t.Errorf("Upgrade err = %v, want ErrNotWebSocket", err)
		}
	}))
	defer s.Close()
	resp, err := http.Get(s.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status = %d, want 400", resp.StatusCode)
	}
}

func TestDialRejectsNonUpgradeResponse(t *testing.T) {
	s := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "no", http.StatusForbidden)
	}))
	defer s.Close()
	if _, err := Dial(wsURL(s), nil); err == nil {
		t.Error("Dial succeeded against a 403 response")
	}
}

// TestAppendServerFrameAllocFree pins the pre-encoded push frame's
// build at zero allocations into a buffer it has grown once, for each
// length encoding.
func TestAppendServerFrameAllocFree(t *testing.T) {
	buf := make([]byte, 0, 1<<17)
	for _, n := range []int{100, 1000, 1 << 16} {
		payload := make([]byte, n)
		if a := testing.AllocsPerRun(100, func() { buf = AppendServerFrame(buf[:0], OpText, payload) }); a != 0 {
			t.Errorf("%d-byte payload: %.1f allocs/op, want 0", n, a)
		}
		f, err := readFrame(bytes.NewReader(buf), 0)
		if err != nil || !f.Fin || f.Opcode != OpText || f.Masked || len(f.Payload) != n {
			t.Errorf("%d-byte payload: frame %+v, %v", n, f, err)
		}
	}
}

func BenchmarkFrameRoundTrip1K(b *testing.B) {
	payload := make([]byte, 1024)
	var buf bytes.Buffer
	b.SetBytes(1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		f := &Frame{Fin: true, Opcode: opBinary, Masked: true,
			MaskKey: [4]byte{9, 9, 9, 9}, Payload: payload}
		if err := WriteFrame(&buf, f); err != nil {
			b.Fatal(err)
		}
		if _, err := readFrame(&buf, 0); err != nil {
			b.Fatal(err)
		}
	}
}
