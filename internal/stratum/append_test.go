package stratum

import (
	"encoding/json"
	"testing"
)

// jobSamples covers the job shapes the pool actually mints: static tier,
// link tier, and a spread of vardiff tiers.
func jobSamples() []Job {
	blob := "0707c0a8f2e305a8a0" // representative hex; exact content irrelevant
	return []Job{
		{JobID: "3-17-2", Blob: blob, Target: "711b0d00"},
		{JobID: "3-17-2-d16", Blob: blob, Target: "ffffff0f"},
		{JobID: "0-1-0-d16", Blob: blob, Target: "ffffff0f"},
		{JobID: "15-4294967295-7-d256", Blob: blob, Target: "711b0d00"},
		{JobID: "8-42-3-d1048576", Blob: blob, Target: "ff0f0000"},
	}
}

func TestAppendJobNotifyLineBitIdentical(t *testing.T) {
	for _, j := range jobSamples() {
		want, err := AppendRPCNotify(nil, "job", j)
		if err != nil {
			t.Fatal(err)
		}
		got := AppendJobNotifyLine(nil, j)
		if string(got) != string(want) {
			t.Fatalf("job %s:\n got %q\nwant %q", j.JobID, got, want)
		}
	}
}

func TestAppendJobEnvelopeBitIdentical(t *testing.T) {
	for _, j := range jobSamples() {
		want, err := Marshal(TypeJob, j)
		if err != nil {
			t.Fatal(err)
		}
		got := AppendJobEnvelope(nil, j)
		if string(got) != string(want) {
			t.Fatalf("job %s:\n got %q\nwant %q", j.JobID, got, want)
		}
	}
}

func TestAppendSubmitOKLineBitIdentical(t *testing.T) {
	ids := []json.RawMessage{nil, json.RawMessage(`1`), json.RawMessage(`987654321`),
		json.RawMessage(`"abc"`), json.RawMessage(`{bad`)}
	for _, id := range ids {
		for _, hashes := range []int64{0, 1, 256, 1 << 40} {
			want, err := AppendRPCResult(nil, id, SubmitResult{Status: StatusOK, Hashes: hashes})
			if err != nil {
				t.Fatal(err)
			}
			got := AppendSubmitOKLine(nil, id, hashes)
			if string(got) != string(want) {
				t.Fatalf("id %q hashes %d:\n got %q\nwant %q", id, hashes, got, want)
			}
		}
	}
}

func TestAppendKeepaliveOKLineBitIdentical(t *testing.T) {
	for _, id := range []json.RawMessage{nil, json.RawMessage(`7`), json.RawMessage(`"k"`)} {
		want, err := AppendRPCResult(nil, id, KeepaliveResult{Status: StatusKeepalive})
		if err != nil {
			t.Fatal(err)
		}
		got := AppendKeepaliveOKLine(nil, id)
		if string(got) != string(want) {
			t.Fatalf("id %q:\n got %q\nwant %q", id, got, want)
		}
	}
}

func TestAppendHashAcceptedEnvelopeBitIdentical(t *testing.T) {
	for _, hashes := range []int64{0, 16, 999999} {
		want, err := Marshal(TypeHashAccepted, HashAccepted{Hashes: hashes})
		if err != nil {
			t.Fatal(err)
		}
		got := AppendHashAcceptedEnvelope(nil, hashes)
		if string(got) != string(want) {
			t.Fatalf("hashes %d:\n got %q\nwant %q", hashes, got, want)
		}
	}
}

func TestRPCIDVerbatim(t *testing.T) {
	ok := []string{"1", "987654321", `"abc"`, "null", "true"}
	for _, s := range ok {
		if !RPCIDVerbatim(json.RawMessage(s)) {
			t.Errorf("RPCIDVerbatim(%q) = false, want true", s)
		}
	}
	// Declined ids must still marshal identically through the fallback
	// path — the check only gates which encoder runs.
	notOK := []string{`"a<b"`, `"a&b"`, "[1, 2]", " 1", `"日本"`}
	for _, s := range notOK {
		if RPCIDVerbatim(json.RawMessage(s)) {
			t.Errorf("RPCIDVerbatim(%q) = true, want false", s)
		}
	}
}

func TestAppendersAllocFree(t *testing.T) {
	j := jobSamples()[3]
	id := json.RawMessage(`987654321`)
	buf := make([]byte, 0, 1024)
	pin := func(name string, f func()) {
		t.Helper()
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s allocates %.1f/op, want 0", name, n)
		}
	}
	pin("AppendJobNotifyLine", func() { buf = AppendJobNotifyLine(buf[:0], j) })
	pin("AppendJobEnvelope", func() { buf = AppendJobEnvelope(buf[:0], j) })
	pin("AppendSubmitOKLine", func() { buf = AppendSubmitOKLine(buf[:0], id, 1<<40) })
	pin("AppendKeepaliveOKLine", func() { buf = AppendKeepaliveOKLine(buf[:0], id) })
	pin("AppendHashAcceptedEnvelope", func() { buf = AppendHashAcceptedEnvelope(buf[:0], 1<<40) })
	pin("DecodeNonce", func() { _, _ = DecodeNonce("deadbeef") })
}
