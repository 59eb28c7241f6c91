package ws

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"testing/quick"
)

func TestAcceptKeyRFCExample(t *testing.T) {
	// The worked example from RFC 6455 §1.3.
	if got := AcceptKey("dGhlIHNhbXBsZSBub25jZQ=="); got != "s3pPLMBiTxaQ9kYGzzhZRbK+xOo=" {
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
			f := &Frame{Fin: true, Opcode: OpBinary, Masked: masked,
				MaskKey: [4]byte{1, 2, 3, 4}, Payload: append([]byte(nil), p...)}
			if err := WriteFrame(&buf, f); err != nil {
				t.Fatalf("WriteFrame(len=%d, masked=%v): %v", len(p), masked, err)
			}
			g, err := ReadFrame(&buf, 0)
			if err != nil {
				t.Fatalf("ReadFrame(len=%d, masked=%v): %v", len(p), masked, err)
			}
			if !bytes.Equal(g.Payload, p) {
				t.Errorf("payload mismatch len=%d masked=%v", len(p), masked)
			}
			if g.Opcode != OpBinary || !g.Fin || g.Masked != masked {
				t.Errorf("frame metadata mismatch: %+v", g)
			}
		}
	}
}

func TestQuickFrameRoundTrip(t *testing.T) {
	f := func(payload []byte, key [4]byte, masked bool, text bool) bool {
		op := OpBinary
		if text {
			op = OpText
		}
		var buf bytes.Buffer
		fr := &Frame{Fin: true, Opcode: op, Masked: masked, MaskKey: key,
			Payload: append([]byte(nil), payload...)}
		if err := WriteFrame(&buf, fr); err != nil {
			return false
		}
		g, err := ReadFrame(&buf, 0)
		return err == nil && bytes.Equal(g.Payload, payload) && g.Opcode == op
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMaskBytesInvolution(t *testing.T) {
	f := func(key [4]byte, data []byte) bool {
		orig := append([]byte(nil), data...)
		MaskBytes(key, 0, data)
		MaskBytes(key, 0, data)
		return bytes.Equal(orig, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReadFrameRejectsProtocolViolations(t *testing.T) {
	// Reserved bits.
	if _, err := ReadFrame(bytes.NewReader([]byte{0xC2, 0x00}), 0); err != ErrReservedBits {
		t.Errorf("rsv bits: err = %v", err)
	}
	// Control frame with 16-bit length.
	if _, err := ReadFrame(bytes.NewReader([]byte{0x89, 126, 0x01, 0x00}), 0); err != ErrControlTooLong {
		t.Errorf("long ping: err = %v", err)
	}
	// Fragmented control frame (FIN=0, opcode=ping).
	if _, err := ReadFrame(bytes.NewReader([]byte{0x09, 0x00}), 0); err != ErrFragmentedControl {
		t.Errorf("fragmented ping: err = %v", err)
	}
	// Non-minimal 16-bit length (value < 126).
	if _, err := ReadFrame(bytes.NewReader([]byte{0x82, 126, 0x00, 0x05}), 0); err != ErrBadLength {
		t.Errorf("non-minimal length: err = %v", err)
	}
	// Frame over read limit.
	var buf bytes.Buffer
	WriteFrame(&buf, &Frame{Fin: true, Opcode: OpBinary, Payload: make([]byte, 1000)})
	if _, err := ReadFrame(&buf, 100); err != ErrFrameTooBig {
		t.Errorf("over limit: err = %v", err)
	}
}

func TestWriteFrameRejectsBadControl(t *testing.T) {
	var buf bytes.Buffer
	err := WriteFrame(&buf, &Frame{Fin: true, Opcode: OpPing, Payload: make([]byte, 126)})
	if err != ErrControlTooLong {
		t.Errorf("long control: err = %v", err)
	}
	err = WriteFrame(&buf, &Frame{Fin: false, Opcode: OpClose})
	if err != ErrFragmentedControl {
		t.Errorf("fragmented control: err = %v", err)
	}
}

func TestClosePayloadRoundTrip(t *testing.T) {
	p := EncodeClosePayload(ClosePolicyViolation, "nope")
	code, reason := DecodeClosePayload(p)
	if code != ClosePolicyViolation || reason != "nope" {
		t.Errorf("got (%d, %q)", code, reason)
	}
	if code, _ := DecodeClosePayload(nil); code != CloseNormal {
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

func TestEndToEndLargeAndFragmented(t *testing.T) {
	s := echoServer(t)
	defer s.Close()
	c, err := Dial(wsURL(s), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	big := bytes.Repeat([]byte("wasm"), 70000) // 280 kB, crosses 64 kB frames
	if err := c.WriteFragmented(OpBinary, big, 10_000); err != nil {
		t.Fatal(err)
	}
	op, got, err := c.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if op != OpBinary || !bytes.Equal(got, big) {
		t.Errorf("fragmented echo mismatch: len=%d want %d", len(got), len(big))
	}
}

func TestPingIsAnsweredTransparently(t *testing.T) {
	s := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c, err := Upgrade(w, r)
		if err != nil {
			return
		}
		defer c.Close()
		// Ping, then wait for the data message; the client's ReadMessage
		// must answer the ping without surfacing it.
		if err := c.Ping([]byte("hb")); err != nil {
			return
		}
		op, data, err := c.ReadMessage()
		if err != nil {
			return
		}
		c.WriteMessage(op, data)
		// Hold the conn until the client closes: the client answers the
		// ping only when it next reads, and a pong written into a conn
		// this side already closed would fail its read of the echo.
		c.ReadMessage()
	}))
	defer s.Close()
	c, err := Dial(wsURL(s), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.WriteMessage(OpText, []byte("after-ping")); err != nil {
		t.Fatal(err)
	}
	_, got, err := c.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "after-ping" {
		t.Errorf("got %q", got)
	}
}

func TestCloseHandshakeSurfacesCode(t *testing.T) {
	s := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c, err := Upgrade(w, r)
		if err != nil {
			return
		}
		c.CloseWithCode(ClosePolicyViolation, "invalid token")
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
	if ce.Code != ClosePolicyViolation || ce.Reason != "invalid token" {
		t.Errorf("close = (%d, %q)", ce.Code, ce.Reason)
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
			if ce.Code != CloseProtocolError {
				t.Errorf("close code = %d, want %d", ce.Code, CloseProtocolError)
			}
		})
	}
}

// TestOversizeFrameGets1009Close verifies the size limit is failed with
// 1009 (message too big) rather than a silent teardown.
func TestOversizeFrameGets1009Close(t *testing.T) {
	s := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c, err := Upgrade(w, r)
		if err != nil {
			return
		}
		defer c.Close()
		c.SetMaxMessage(64)
		c.ReadMessage()
	}))
	defer s.Close()
	c, err := Dial(wsURL(s), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.WriteMessage(OpBinary, make([]byte, 1024)); err != nil {
		t.Fatal(err)
	}
	_, _, err = c.ReadMessage()
	var ce *CloseError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want CloseError", err)
	}
	if ce.Code != CloseTooBig {
		t.Errorf("close code = %d, want %d", ce.Code, CloseTooBig)
	}
}

func TestUpgradeRejectsPlainHTTP(t *testing.T) {
	s := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, err := Upgrade(w, r); err != ErrNotWebSocket {
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

func BenchmarkFrameRoundTrip1K(b *testing.B) {
	payload := make([]byte, 1024)
	var buf bytes.Buffer
	b.SetBytes(1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		f := &Frame{Fin: true, Opcode: OpBinary, Masked: true,
			MaskKey: [4]byte{9, 9, 9, 9}, Payload: payload}
		if err := WriteFrame(&buf, f); err != nil {
			b.Fatal(err)
		}
		if _, err := ReadFrame(&buf, 0); err != nil {
			b.Fatal(err)
		}
	}
}
