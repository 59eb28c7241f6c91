package ws

import (
	"bufio"
	"crypto/rand"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// DefaultMaxMessage bounds assembled message size (16 MiB): miner protocol
// messages are tiny, so anything larger indicates a broken or hostile peer.
const DefaultMaxMessage = 16 << 20

// ErrClosed is returned after the connection has been closed locally.
var ErrClosed = errors.New("ws: connection closed")

// CloseError carries the peer's close status.
type CloseError struct {
	Code   uint16
	Reason string
}

func (e *CloseError) Error() string {
	return fmt.Sprintf("ws: closed by peer: code %d %q", e.Code, e.Reason)
}

// Conn is a WebSocket connection. Reads must be single-threaded; writes are
// internally serialised and may come from multiple goroutines.
type Conn struct {
	nc        net.Conn
	br        *bufio.Reader
	client    bool // we are the client: mask outgoing, require unmasked incoming
	maxMsg    int64
	writeMu   sync.Mutex
	closeMu   sync.Mutex
	closed    bool
	sentClose bool

	// reuseRead makes ReadMessage decode frames into a per-connection
	// buffer instead of allocating per frame (see EnableReadBufferReuse).
	reuseRead bool
	rframe    Frame
	rbuf      []byte
}

func newConn(nc net.Conn, br *bufio.Reader, client bool) *Conn {
	if br == nil {
		br = bufio.NewReader(nc)
	}
	return &Conn{nc: nc, br: br, client: client, maxMsg: DefaultMaxMessage}
}

// SetMaxMessage bounds the assembled message size in bytes.
func (c *Conn) SetMaxMessage(n int64) { c.maxMsg = n }

// EnableReadBufferReuse switches ReadMessage to a per-connection read
// buffer: the returned payload is then only valid until the next
// ReadMessage call. The pool's serve path opts in (it fully decodes each
// message before reading the next), which keeps a 10k-session box from
// allocating one fresh payload per inbound frame. Callers that retain
// payloads across reads must not enable it.
func (c *Conn) EnableReadBufferReuse() { c.reuseRead = true }

// SetReadDeadline bounds future reads; a zero time removes the bound.
// Load generators use it so a stalled peer parks a session instead of a
// worker goroutine.
func (c *Conn) SetReadDeadline(t time.Time) error { return c.nc.SetReadDeadline(t) }

// SetWriteDeadline bounds future writes; a zero time removes the bound.
func (c *Conn) SetWriteDeadline(t time.Time) error { return c.nc.SetWriteDeadline(t) }

// NetConn exposes the underlying transport. It exists for peers that
// need to step outside the protocol — deliberately malformed clients in
// load tests, and abrupt (no close handshake) teardown when simulating
// network failure. Normal users never need it.
func (c *Conn) NetConn() net.Conn { return c.nc }

// LocalAddr returns the underlying transport address.
func (c *Conn) LocalAddr() net.Addr { return c.nc.LocalAddr() }

// RemoteAddr returns the peer transport address.
func (c *Conn) RemoteAddr() net.Addr { return c.nc.RemoteAddr() }

// WriteMessage sends a complete message of the given type. The data slice
// is not retained but may be scribbled on when masking applies, so callers
// must pass a private copy if they reuse buffers.
func (c *Conn) WriteMessage(op Opcode, data []byte) error {
	f := &Frame{Fin: true, Opcode: op, Payload: data}
	if c.client {
		f.Masked = true
		if _, err := rand.Read(f.MaskKey[:]); err != nil {
			return err
		}
	}
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	if c.closed {
		return ErrClosed
	}
	return WriteFrame(c.nc, f)
}

// WriteRawFrame sends bytes that are already a complete encoded frame
// (built by AppendServerFrame). The fan-out path uses it to hand many
// sessions one immutable pre-encoded job push; the frame bytes are
// written as-is, so only server (unmasked) frames may be sent this way.
func (c *Conn) WriteRawFrame(frame []byte) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	if c.closed {
		return ErrClosed
	}
	//lint:ignore lockscope writeMu exists to serialise frame writers on this socket
	_, err := c.nc.Write(frame)
	return err
}

// WriteFragmented sends data split into chunks of fragSize as a fragmented
// message, exercising continuation frames (mostly useful for tests and for
// simulating miners behind small-MTU paths).
func (c *Conn) WriteFragmented(op Opcode, data []byte, fragSize int) error {
	if fragSize <= 0 {
		return c.WriteMessage(op, data)
	}
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	if c.closed {
		return ErrClosed
	}
	first := true
	for {
		n := fragSize
		last := n >= len(data)
		if last {
			n = len(data)
		}
		f := &Frame{Fin: last, Payload: append([]byte(nil), data[:n]...)}
		if first {
			f.Opcode = op
		} else {
			f.Opcode = OpContinuation
		}
		if c.client {
			f.Masked = true
			if _, err := rand.Read(f.MaskKey[:]); err != nil {
				return err
			}
		}
		if err := WriteFrame(c.nc, f); err != nil {
			return err
		}
		if last {
			return nil
		}
		data = data[n:]
		first = false
	}
}

// ReadMessage returns the next complete data message, transparently
// answering pings and completing the close handshake. On a peer close it
// returns a *CloseError.
func (c *Conn) ReadMessage() (Opcode, []byte, error) {
	var msgOp Opcode
	var msg []byte
	assembling := false
	for {
		var f *Frame
		var err error
		if c.reuseRead {
			f = &c.rframe
			c.rbuf, err = ReadFrameInto(c.br, f, c.maxMsg, c.rbuf[:0])
		} else {
			f, err = ReadFrame(c.br, c.maxMsg)
		}
		if err != nil {
			// A frame-level protocol violation (oversize or fragmented
			// control frame, reserved bits, non-minimal length) must be
			// answered with a close handshake, not just a dropped TCP
			// connection — RFC 6455 §7.1.7 "Fail the WebSocket Connection".
			// A spec-correct peer (TestOversizeFrameGets1009Close plays one)
			// distinguishes a 1002/1009 close from a raw reset.
			switch {
			case errors.Is(err, ErrFrameTooBig):
				c.failConnection(CloseTooBig, "frame exceeds read limit")
			case errors.Is(err, ErrControlTooLong),
				errors.Is(err, ErrFragmentedControl),
				errors.Is(err, ErrReservedBits),
				errors.Is(err, ErrBadLength):
				c.failConnection(CloseProtocolError, err.Error())
			}
			return 0, nil, err
		}
		// Enforce masking direction (RFC 6455 §5.1).
		if c.client && f.Masked {
			c.failConnection(CloseProtocolError, "masked server frame")
			return 0, nil, ErrUnexpectedMask
		}
		if !c.client && !f.Masked && f.Opcode != OpClose {
			// Some stacks send unmasked close; tolerate only that.
			c.failConnection(CloseProtocolError, "unmasked client frame")
			return 0, nil, ErrMaskRequired
		}
		switch f.Opcode {
		case OpPing:
			// Answer with the same payload.
			pong := append([]byte(nil), f.Payload...)
			if err := c.WriteMessage(OpPong, pong); err != nil {
				return 0, nil, err
			}
		case OpPong:
			// Unsolicited pongs are ignored (RFC 6455 §5.5.3).
		case OpClose:
			code, reason := DecodeClosePayload(f.Payload)
			c.writeCloseOnce(code, "")
			c.shutdown()
			return 0, nil, &CloseError{Code: code, Reason: reason}
		case OpText, OpBinary:
			if assembling {
				c.failConnection(CloseProtocolError, "new message during fragmentation")
				return 0, nil, errors.New("ws: interleaved data message")
			}
			if f.Fin {
				return f.Opcode, f.Payload, nil
			}
			assembling = true
			msgOp = f.Opcode
			msg = append(msg, f.Payload...)
		case OpContinuation:
			if !assembling {
				c.failConnection(CloseProtocolError, "continuation without start")
				return 0, nil, errors.New("ws: unexpected continuation frame")
			}
			if c.maxMsg > 0 && int64(len(msg)+len(f.Payload)) > c.maxMsg {
				c.failConnection(CloseTooBig, "message too big")
				return 0, nil, ErrFrameTooBig
			}
			msg = append(msg, f.Payload...)
			if f.Fin {
				return msgOp, msg, nil
			}
		default:
			c.failConnection(CloseProtocolError, "unknown opcode")
			return 0, nil, fmt.Errorf("ws: unknown opcode %#x", byte(f.Opcode))
		}
	}
}

// Ping sends a ping frame with the given payload.
func (c *Conn) Ping(payload []byte) error {
	return c.WriteMessage(OpPing, payload)
}

func (c *Conn) writeCloseOnce(code uint16, reason string) {
	c.closeMu.Lock()
	already := c.sentClose
	c.sentClose = true
	c.closeMu.Unlock()
	if already {
		return
	}
	_ = c.WriteMessage(OpClose, EncodeClosePayload(code, reason))
}

func (c *Conn) failConnection(code uint16, reason string) {
	c.writeCloseOnce(code, reason)
	c.shutdown()
}

func (c *Conn) shutdown() {
	c.writeMu.Lock()
	c.closed = true
	c.writeMu.Unlock()
	_ = c.nc.Close()
}

// InitiateClose queues the closing handshake: it sends a close frame but
// leaves the transport open, so a concurrent reader can consume the
// peer's close reply (ReadMessage completes the handshake and only then
// tears down). Closing the socket before the peer's reply is read risks
// a TCP RST that discards the close frame; use CloseWithCode only when
// no reader is running.
func (c *Conn) InitiateClose(code uint16, reason string) {
	c.writeCloseOnce(code, reason)
}

// Close performs the closing handshake with a normal status and tears down
// the transport.
func (c *Conn) Close() error {
	return c.CloseWithCode(CloseNormal, "")
}

// CloseWithCode sends the given close status before tearing down.
func (c *Conn) CloseWithCode(code uint16, reason string) error {
	c.writeCloseOnce(code, reason)
	c.shutdown()
	return nil
}
