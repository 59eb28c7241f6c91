package varint

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

func TestRoundTripKnownValues(t *testing.T) {
	cases := []struct {
		v    uint64
		want []byte
	}{
		{0, []byte{0x00}},
		{1, []byte{0x01}},
		{127, []byte{0x7f}},
		{128, []byte{0x80, 0x01}},
		{300, []byte{0xac, 0x02}},
		{16383, []byte{0xff, 0x7f}},
		{16384, []byte{0x80, 0x80, 0x01}},
		{math.MaxUint64, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}},
	}
	for _, c := range cases {
		got := Append(nil, c.v)
		if !bytes.Equal(got, c.want) {
			t.Errorf("Append(%d) = %x, want %x", c.v, got, c.want)
		}
		if Len(c.v) != len(c.want) {
			t.Errorf("Len(%d) = %d, want %d", c.v, Len(c.v), len(c.want))
		}
		v, n, err := Decode(got)
		if err != nil || v != c.v || n != len(c.want) {
			t.Errorf("Decode(%x) = (%d,%d,%v), want (%d,%d,nil)", got, v, n, err, c.v, len(c.want))
		}
	}
}

func TestDecodeRejectsNonCanonical(t *testing.T) {
	// 0x80 0x00 decodes to 0 but is two bytes: must be rejected.
	if _, _, err := Decode([]byte{0x80, 0x00}); err != errNonCanonical {
		t.Errorf("non-canonical zero: err = %v, want ErrNonCanonical", err)
	}
	// 0xff 0x00 -> 127 encoded non-minimally.
	if _, _, err := Decode([]byte{0xff, 0x00}); err != errNonCanonical {
		t.Errorf("non-canonical 127: err = %v, want ErrNonCanonical", err)
	}
}

func TestDecodeRejectsOverflow(t *testing.T) {
	in := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}
	if _, _, err := Decode(in); err != errOverflow {
		t.Errorf("overflow: err = %v, want ErrOverflow", err)
	}
	long := bytes.Repeat([]byte{0xff}, 11)
	if _, _, err := Decode(long); err != errOverflow {
		t.Errorf("11-byte varint: err = %v, want ErrOverflow", err)
	}
}

func TestDecodeTruncated(t *testing.T) {
	if _, _, err := Decode([]byte{0x80}); err != ErrTruncated {
		t.Errorf("truncated: err = %v, want ErrTruncated", err)
	}
	if _, _, err := Decode(nil); err != ErrTruncated {
		t.Errorf("empty: err = %v, want ErrTruncated", err)
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(v uint64) bool {
		buf := Append(nil, v)
		got, n, err := Decode(buf)
		return err == nil && got == v && n == len(buf) && n == Len(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickDecodeConsumesPrefixOnly(t *testing.T) {
	f := func(v uint64, tail []byte) bool {
		buf := Append(nil, v)
		buf = append(buf, tail...)
		got, n, err := Decode(buf)
		return err == nil && got == v && n == Len(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
