package ws

import (
	"bytes"
	"testing"
)

// FuzzReadFrameInto decodes arbitrary bytes as one frame, the miners'
// untrusted wire, under an arbitrary bound. On any input it must not
// panic, must return no payload over the bound, and decoding into a
// dirty reused Frame and buffer must give exactly the frame and error
// that decoding into fresh ones gives.
func FuzzReadFrameInto(f *testing.F) {
	for _, p := range [][]byte{nil, []byte("hello"), bytes.Repeat([]byte("x"), 200)} {
		for _, fr := range []Frame{
			{Fin: true, Opcode: OpText, Payload: p},
			{Opcode: opBinary, Masked: true, MaskKey: [4]byte{1, 2, 3, 4}, Payload: p},
		} {
			var buf bytes.Buffer
			fr.Payload = append([]byte(nil), fr.Payload...)
			if err := WriteFrame(&buf, &fr); err != nil {
				f.Fatal(err)
			}
			f.Add(uint16(len(p)), buf.Bytes())
		}
	}
	f.Add(uint16(100), []byte{0x89, 126, 0x00, 0x80})                // oversize ping
	f.Add(uint16(100), []byte{0x82, 127, 0, 0, 0, 0, 0, 0x01, 0, 0}) // 64 KiB, over the bound
	f.Add(uint16(100), []byte{0xC2, 0x00})                           // reserved bits
	f.Fuzz(func(t *testing.T, bound uint16, data []byte) {
		max := int64(bound) + 1 // 0 would mean unbounded
		var fresh Frame
		_, errFresh := ReadFrameInto(bytes.NewReader(data), &fresh, max, nil)
		if int64(len(fresh.Payload)) > max {
			t.Fatalf("payload of %d bytes over the bound %d", len(fresh.Payload), max)
		}
		dirty := Frame{Fin: true, Opcode: opPing, Masked: true, MaskKey: [4]byte{9, 9, 9, 9}, Payload: []byte("stale")}
		_, errDirty := ReadFrameInto(bytes.NewReader(data), &dirty, max, bytes.Repeat([]byte{0xAA}, 300)[:7])
		if errDirty != errFresh {
			t.Fatalf("error into a reused buffer = %v, into a fresh one %v", errDirty, errFresh)
		}
		if dirty.Fin != fresh.Fin || dirty.Opcode != fresh.Opcode || dirty.Masked != fresh.Masked ||
			dirty.MaskKey != fresh.MaskKey || !bytes.Equal(dirty.Payload, fresh.Payload) {
			t.Fatalf("frame into a reused buffer = %+v, into a fresh one %+v", dirty, fresh)
		}
	})
}
