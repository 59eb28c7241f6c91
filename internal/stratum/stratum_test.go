package stratum

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestEnvelopeRoundTrip(t *testing.T) {
	msg, err := Marshal(TypeJob, Job{JobID: "42", Blob: "00ff", Target: "ffff0000"})
	if err != nil {
		t.Fatal(err)
	}
	env, err := Unmarshal(msg)
	if err != nil {
		t.Fatal(err)
	}
	if env.Type != TypeJob {
		t.Errorf("type = %q", env.Type)
	}
	var j Job
	if err := env.Decode(&j); err != nil {
		t.Fatal(err)
	}
	if j.JobID != "42" || j.Blob != "00ff" || j.Target != "ffff0000" {
		t.Errorf("job = %+v", j)
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	if _, err := Unmarshal([]byte("{nope")); err == nil {
		t.Error("garbage accepted")
	}
	env, err := Unmarshal([]byte(`{"type":"auth","params":{"site_key":7}}`))
	if err != nil {
		t.Fatal(err)
	}
	var a Auth
	if err := env.Decode(&a); err == nil {
		t.Error("type-mismatched params accepted")
	}
}

func TestObfuscationIsInvolution(t *testing.T) {
	f := func(blob []byte) bool {
		orig := append([]byte(nil), blob...)
		ObfuscateBlob(blob)
		ObfuscateBlob(blob)
		return bytes.Equal(orig, blob)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestObfuscationAltersOnlyTheWindow(t *testing.T) {
	blob := make([]byte, 76)
	for i := range blob {
		blob[i] = byte(i)
	}
	orig := append([]byte(nil), blob...)
	ObfuscateBlob(blob)
	changed := 0
	for i := range blob {
		if blob[i] != orig[i] {
			changed++
			if i < obfuscationOffset || i >= obfuscationOffset+8 {
				t.Errorf("byte %d outside window changed", i)
			}
		}
	}
	if changed != 8 {
		t.Errorf("%d bytes changed, want 8", changed)
	}
}

func TestObfuscationSkipsShortBlobs(t *testing.T) {
	short := []byte{1, 2, 3}
	orig := append([]byte(nil), short...)
	ObfuscateBlob(short)
	if !bytes.Equal(short, orig) {
		t.Error("short blob was modified")
	}
}

func TestNonceAndTargetCodecs(t *testing.T) {
	f := func(n uint32) bool {
		got, err := DecodeNonce(EncodeNonce(n))
		return err == nil && got == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	g := func(n uint32) bool {
		got, err := DecodeTarget(EncodeTarget(n))
		return err == nil && got == n
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
	if _, err := DecodeNonce("zz"); err == nil {
		t.Error("bad hex nonce accepted")
	}
	if _, err := DecodeNonce("001122"); err == nil {
		t.Error("short nonce accepted")
	}
	if _, err := DecodeTarget("00112233ff"); err == nil {
		t.Error("long target accepted")
	}
}

func TestBlobCodec(t *testing.T) {
	f := func(b []byte) bool {
		got, err := DecodeBlob(EncodeBlob(b))
		return err == nil && bytes.Equal(got, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if _, err := DecodeBlob("xyz"); err == nil {
		t.Error("bad hex blob accepted")
	}
}
