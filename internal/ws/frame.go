// Package ws implements the WebSocket protocol (RFC 6455) on top of
// net/http, providing both the client side (used by web miners connecting
// to pool endpoints) and the server side (used by the Coinhive-clone pool).
// Only the stdlib is used.
//
// The paper's Chrome instrumentation captures "all Websocket communication"
// because browser miners universally use WebSockets to fetch PoW inputs;
// this package is that transport.
package ws

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Opcode identifies a WebSocket frame type.
type Opcode byte

// RFC 6455 §5.2 opcodes.
const (
	opContinuation Opcode = 0x0
	OpText         Opcode = 0x1
	opBinary       Opcode = 0x2
	opClose        Opcode = 0x8
	opPing         Opcode = 0x9
	opPong         Opcode = 0xA
)

// isControl reports whether the opcode is a control opcode.
func (o Opcode) isControl() bool { return o&0x8 != 0 }

func (o Opcode) String() string {
	switch o {
	case opContinuation:
		return "continuation"
	case OpText:
		return "text"
	case opBinary:
		return "binary"
	case opClose:
		return "close"
	case opPing:
		return "ping"
	case opPong:
		return "pong"
	default:
		return fmt.Sprintf("opcode(%#x)", byte(o))
	}
}

// Close status codes (RFC 6455 §7.4.1).
const (
	closeNormal        = 1000
	CloseGoingAway     = 1001
	closeProtocolError = 1002
	closeTooBig        = 1009
)

// Frame is a single wire frame.
type Frame struct {
	Fin     bool
	Opcode  Opcode
	Masked  bool
	MaskKey [4]byte
	Payload []byte
}

// Protocol errors.
var (
	errControlTooLong    = errors.New("ws: control frame payload exceeds 125 bytes")
	errFragmentedControl = errors.New("ws: fragmented control frame")
	errReservedBits      = errors.New("ws: reserved bits set")
	errBadLength         = errors.New("ws: non-minimal or invalid length encoding")
	errMaskRequired      = errors.New("ws: client frame not masked")
	errUnexpectedMask    = errors.New("ws: server frame masked")
	errFrameTooBig       = errors.New("ws: frame exceeds read limit")
)

// maskBytes applies the WebSocket XOR mask in place, starting at the given
// position within the mask cycle, and returns the next position.
func maskBytes(key [4]byte, pos int, b []byte) int {
	for i := range b {
		b[i] ^= key[(pos+i)&3]
	}
	return (pos + len(b)) & 3
}

// WriteFrame encodes f to w. The payload slice is masked in place when
// f.Masked is set (callers who need the plaintext afterwards must copy).
func WriteFrame(w io.Writer, f *Frame) error {
	if f.Opcode.isControl() {
		if len(f.Payload) > 125 {
			return errControlTooLong
		}
		if !f.Fin {
			return errFragmentedControl
		}
	}
	var hdr [14]byte
	n := 2
	b0 := byte(f.Opcode)
	if f.Fin {
		b0 |= 0x80
	}
	hdr[0] = b0
	l := len(f.Payload)
	switch {
	case l < 126:
		hdr[1] = byte(l)
	case l < 1<<16:
		hdr[1] = 126
		binary.BigEndian.PutUint16(hdr[2:], uint16(l))
		n += 2
	default:
		hdr[1] = 127
		binary.BigEndian.PutUint64(hdr[2:], uint64(l))
		n += 8
	}
	if f.Masked {
		hdr[1] |= 0x80
		copy(hdr[n:], f.MaskKey[:])
		n += 4
		maskBytes(f.MaskKey, 0, f.Payload)
	}
	if _, err := w.Write(hdr[:n]); err != nil {
		return err
	}
	_, err := w.Write(f.Payload)
	return err
}

// ReadFrameInto decodes one frame from r into f, reading the payload into
// buf's capacity (growing it when needed) instead of allocating per frame.
// maxPayload bounds the accepted payload size (0 means unlimited); a
// masked payload is unmasked. It returns the possibly-grown buffer, and
// f.Payload aliases it. f is overwritten whole, so what it held before
// never shows through, not even on error. This is ReadMessage's read
// primitive: one long-lived buffer per connection makes its steady-state
// loop allocation-free.
func ReadFrameInto(r io.Reader, f *Frame, maxPayload int64, buf []byte) ([]byte, error) {
	*f = Frame{}
	var hdr [2]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return buf, err
	}
	f.Fin = hdr[0]&0x80 != 0
	f.Opcode = Opcode(hdr[0] & 0x0F)
	f.Masked = hdr[1]&0x80 != 0
	if hdr[0]&0x70 != 0 {
		return buf, errReservedBits
	}
	length := int64(hdr[1] & 0x7F)
	switch length {
	case 126:
		var ext [2]byte
		if _, err := io.ReadFull(r, ext[:]); err != nil {
			return buf, err
		}
		length = int64(binary.BigEndian.Uint16(ext[:]))
		if length < 126 {
			return buf, errBadLength
		}
	case 127:
		var ext [8]byte
		if _, err := io.ReadFull(r, ext[:]); err != nil {
			return buf, err
		}
		u := binary.BigEndian.Uint64(ext[:])
		if u>>63 != 0 || u < 1<<16 {
			return buf, errBadLength
		}
		length = int64(u)
	}
	if f.Opcode.isControl() {
		if length > 125 {
			return buf, errControlTooLong
		}
		if !f.Fin {
			return buf, errFragmentedControl
		}
	}
	if maxPayload > 0 && length > maxPayload {
		return buf, errFrameTooBig
	}
	if f.Masked {
		if _, err := io.ReadFull(r, f.MaskKey[:]); err != nil {
			return buf, err
		}
	}
	if int64(cap(buf)) < length {
		buf = make([]byte, length)
	}
	buf = buf[:length]
	if _, err := io.ReadFull(r, buf); err != nil {
		return buf, err
	}
	if f.Masked {
		maskBytes(f.MaskKey, 0, buf)
	}
	f.Payload = buf
	return buf, nil
}

// AppendServerFrame appends one complete server-to-client (unmasked, FIN)
// frame — header plus payload — to dst. Prebuilding the frame this way is
// what lets a job push be encoded once and fanned out to every ws session
// as the same immutable byte slice (see Conn.WriteRawFrame).
//
//lint:hotpath
func AppendServerFrame(dst []byte, op Opcode, payload []byte) []byte {
	b0 := 0x80 | byte(op)
	l := len(payload)
	switch {
	case l < 126:
		dst = append(dst, b0, byte(l))
	case l < 1<<16:
		dst = append(dst, b0, 126, byte(l>>8), byte(l))
	default:
		dst = append(dst, b0, 127,
			byte(uint64(l)>>56), byte(uint64(l)>>48), byte(uint64(l)>>40), byte(uint64(l)>>32),
			byte(l>>24), byte(l>>16), byte(l>>8), byte(l))
	}
	return append(dst, payload...)
}

// encodeClosePayload builds a close frame payload from a status code and
// reason text.
func encodeClosePayload(code uint16, reason string) []byte {
	p := make([]byte, 2+len(reason))
	binary.BigEndian.PutUint16(p, code)
	copy(p[2:], reason)
	return p
}

// decodeClosePayload splits a close frame payload. An empty payload yields
// closeNormal per RFC 6455 §7.1.5.
func decodeClosePayload(p []byte) (code uint16, reason string) {
	if len(p) < 2 {
		return closeNormal, ""
	}
	return binary.BigEndian.Uint16(p), string(p[2:])
}
