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

// defaultMaxMessage bounds a client conn's inbound messages (16 MiB):
// pool pushes carry user-supplied link URLs, so the client side allows
// far more than any legitimate message needs.
const defaultMaxMessage = 16 << 20

// maxServerMessage bounds a server conn's inbound messages, single frames
// and assembled fragments alike. It equals the TCP stratum dialect's line
// bound (stratum.MaxRPCLine; ws may not import stratum): a miner's largest
// message is a few hundred bytes, and the conn's read buffer, which keeps
// the size of the largest frame it has read, pins no more than this.
const maxServerMessage = 8192

// errClosed is returned after the connection has been closed locally.
var errClosed = errors.New("ws: connection closed")

// CloseError carries the peer's close status.
type CloseError struct {
	Code   uint16
	reason string
}

func (e *CloseError) Error() string {
	return fmt.Sprintf("ws: closed by peer: code %d %q", e.Code, e.reason)
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

	// ReadMessage decodes every frame into rframe and rbuf, so the
	// steady-state read loop allocates nothing.
	rframe Frame
	rbuf   []byte
}

func newConn(nc net.Conn, br *bufio.Reader, client bool) *Conn {
	if br == nil {
		br = bufio.NewReader(nc)
	}
	c := &Conn{nc: nc, br: br, client: client, maxMsg: maxServerMessage}
	if client {
		c.maxMsg = defaultMaxMessage
	}
	return c
}

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
		return errClosed
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
		return errClosed
	}
	//lint:ignore lockscope writeMu exists to serialise frame writers on this socket
	_, err := c.nc.Write(frame)
	return err
}

// ReadMessage returns the next complete data message, transparently
// answering pings and completing the close handshake. On a peer close it
// returns a *CloseError. The payload is valid until the next ReadMessage
// call: a single-frame message is the conn's own read buffer.
func (c *Conn) ReadMessage() (Opcode, []byte, error) {
	var msgOp Opcode
	var msg []byte
	assembling := false
	f := &c.rframe
	for {
		var err error
		c.rbuf, err = ReadFrameInto(c.br, f, c.maxMsg, c.rbuf[:0])
		if err != nil {
			// A frame-level protocol violation (oversize or fragmented
			// control frame, reserved bits, non-minimal length) must be
			// answered with a close handshake, not just a dropped TCP
			// connection — RFC 6455 §7.1.7 "Fail the WebSocket Connection".
			// A spec-correct peer (TestOversizeFrameGets1009Close plays one)
			// distinguishes a 1002/1009 close from a raw reset.
			switch {
			case errors.Is(err, errFrameTooBig):
				c.failConnection(closeTooBig, "frame exceeds read limit")
			case errors.Is(err, errControlTooLong),
				errors.Is(err, errFragmentedControl),
				errors.Is(err, errReservedBits),
				errors.Is(err, errBadLength):
				c.failConnection(closeProtocolError, err.Error())
			}
			return 0, nil, err
		}
		// Enforce masking direction (RFC 6455 §5.1).
		if c.client && f.Masked {
			c.failConnection(closeProtocolError, "masked server frame")
			return 0, nil, errUnexpectedMask
		}
		if !c.client && !f.Masked && f.Opcode != opClose {
			// Some stacks send unmasked close; tolerate only that.
			c.failConnection(closeProtocolError, "unmasked client frame")
			return 0, nil, errMaskRequired
		}
		switch f.Opcode {
		case opPing:
			// Answer with the same payload.
			if err := c.WriteMessage(opPong, f.Payload); err != nil {
				return 0, nil, err
			}
		case opPong:
			// Unsolicited pongs are ignored (RFC 6455 §5.5.3).
		case opClose:
			code, reason := decodeClosePayload(f.Payload)
			c.writeCloseOnce(code, "")
			c.shutdown()
			return 0, nil, &CloseError{Code: code, reason: reason}
		case OpText, opBinary:
			if assembling {
				c.failConnection(closeProtocolError, "new message during fragmentation")
				return 0, nil, errors.New("ws: interleaved data message")
			}
			if f.Fin {
				return f.Opcode, f.Payload, nil
			}
			assembling = true
			msgOp = f.Opcode
			msg = append(msg, f.Payload...)
		case opContinuation:
			if !assembling {
				c.failConnection(closeProtocolError, "continuation without start")
				return 0, nil, errors.New("ws: unexpected continuation frame")
			}
			if int64(len(msg)+len(f.Payload)) > c.maxMsg {
				c.failConnection(closeTooBig, "message too big")
				return 0, nil, errFrameTooBig
			}
			msg = append(msg, f.Payload...)
			if f.Fin {
				return msgOp, msg, nil
			}
		default:
			c.failConnection(closeProtocolError, "unknown opcode")
			return 0, nil, fmt.Errorf("ws: unknown opcode %#x", byte(f.Opcode))
		}
	}
}

func (c *Conn) writeCloseOnce(code uint16, reason string) {
	c.closeMu.Lock()
	already := c.sentClose
	c.sentClose = true
	c.closeMu.Unlock()
	if already {
		return
	}
	_ = c.WriteMessage(opClose, encodeClosePayload(code, reason))
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
	return c.CloseWithCode(closeNormal, "")
}

// CloseWithCode sends the given close status before tearing down.
func (c *Conn) CloseWithCode(code uint16, reason string) error {
	c.writeCloseOnce(code, reason)
	c.shutdown()
	return nil
}
