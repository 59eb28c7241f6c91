package stratum

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestRPCRequestRoundTrip(t *testing.T) {
	line, err := AppendRPCRequest(nil, 7, MethodLogin, LoginParams{
		Login: "site-key", Pass: "link:ab3", Agent: "test/1",
	})
	if err != nil {
		t.Fatal(err)
	}
	if line[len(line)-1] != '\n' {
		t.Fatal("request line is not newline-terminated")
	}
	env, err := UnmarshalRPC(bytes.TrimSuffix(line, []byte("\n")))
	if err != nil {
		t.Fatal(err)
	}
	if !(env.Method != "" && len(env.ID) > 0) || env.IsNotification() {
		t.Fatalf("frame shape wrong: %+v", env)
	}
	if env.Method != MethodLogin || string(env.ID) != "7" {
		t.Errorf("method/id = %q/%s", env.Method, env.ID)
	}
	var lp LoginParams
	if err := env.DecodeParams(&lp); err != nil {
		t.Fatal(err)
	}
	if lp.Login != "site-key" || lp.Pass != "link:ab3" {
		t.Errorf("params round-trip = %+v", lp)
	}
}

func TestRPCNotifyAndResponseShapes(t *testing.T) {
	notify, err := AppendRPCNotify(nil, TypeJob, Job{JobID: "1-2-3", Blob: "aa", Target: "bb"})
	if err != nil {
		t.Fatal(err)
	}
	env, err := UnmarshalRPC(bytes.TrimSpace(notify))
	if err != nil {
		t.Fatal(err)
	}
	if !env.IsNotification() || (env.Method != "" && len(env.ID) > 0) {
		t.Fatalf("notification shape wrong: %+v", env)
	}

	res, err := AppendRPCResult(nil, json.RawMessage("42"), SubmitResult{Status: StatusOK, Hashes: 9})
	if err != nil {
		t.Fatal(err)
	}
	env, err = UnmarshalRPC(bytes.TrimSpace(res))
	if err != nil {
		t.Fatal(err)
	}
	if string(env.ID) != "42" || env.Error != nil {
		t.Fatalf("result envelope = %+v", env)
	}
	var sr SubmitResult
	if err := env.DecodeResult(&sr); err != nil || sr.Hashes != 9 {
		t.Fatalf("result decode = %+v (%v)", sr, err)
	}

	// Responses to unparseable ids echo JSON null, per JSON-RPC 2.0.
	errLine, err := AppendRPCError(nil, json.RawMessage("{broken"), RPCParseError, "bad message")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(errLine, []byte(`"id":null`)) {
		t.Errorf("error response did not null the bad id: %s", errLine)
	}
	env, err = UnmarshalRPC(bytes.TrimSpace(errLine))
	if err != nil {
		t.Fatal(err)
	}
	if env.Error == nil || env.Error.Code != RPCParseError || env.Error.Message != "bad message" {
		t.Fatalf("error envelope = %+v", env)
	}
}

func TestReadRPCLineEnforcesMax(t *testing.T) {
	long := strings.Repeat("x", MaxRPCLine+1) + "\n"
	r := bufio.NewReaderSize(strings.NewReader(long), MaxRPCLine)
	if _, err := ReadRPCLine(r); err != ErrRPCLineTooLong {
		t.Fatalf("oversize line error = %v, want ErrRPCLineTooLong", err)
	}

	ok := `{"id":1,"method":"login"}` + "\n"
	r = bufio.NewReaderSize(strings.NewReader(ok), MaxRPCLine)
	line, err := ReadRPCLine(r)
	if err != nil || string(line) != strings.TrimSuffix(ok, "\n") {
		t.Fatalf("line = %q, err = %v", line, err)
	}
}

// FuzzRPC feeds arbitrary bytes through the line reader and envelope
// decoder, then re-marshals whatever decodes — the codec must never
// panic, and every decodable frame must survive a round trip.
func FuzzRPC(f *testing.F) {
	seed := [][]byte{
		[]byte(`{"id":1,"jsonrpc":"2.0","method":"login","params":{"login":"k","pass":"p"}}`),
		[]byte(`{"id":2,"method":"submit","params":{"id":"t","job_id":"0-1-2","nonce":"00ab00cd","result":"ff"}}`),
		[]byte(`{"id":3,"method":"keepalived","params":{"id":"t"}}`),
		[]byte(`{"jsonrpc":"2.0","method":"job","params":{"job_id":"1-1-1","blob":"aa","target":"bb"}}`),
		[]byte(`{"id":1,"result":{"id":"tok","job":{"job_id":"j"},"status":"OK","hashes":5}}`),
		[]byte(`{"id":1,"error":{"code":-3,"message":"stale job"}}`),
		[]byte(`{"id":null,"method":""}`),
		[]byte(`{definitely not json`),
		[]byte(``),
		[]byte(`[1,2,3]`),
		[]byte(`"just a string"`),
	}
	for _, s := range seed {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := UnmarshalRPC(data)
		if err != nil {
			return
		}
		// Whatever decoded must re-marshal, and params/results must be
		// decodable into their structs or fail cleanly — never panic.
		var lp LoginParams
		_ = env.DecodeParams(&lp)
		var sp SubmitParams
		_ = env.DecodeParams(&sp)
		var lr LoginResult
		_ = env.DecodeResult(&lr)
		var sr SubmitResult
		_ = env.DecodeResult(&sr)
		if env.Error != nil && env.Error.Message == "" && env.Error.Code == 0 {
			_ = env.Error // zero errors are representable; nothing to assert
		}
		if len(env.ID) > 0 {
			line, err := AppendRPCResult(nil, env.ID, SubmitResult{Status: StatusOK})
			if err != nil {
				t.Fatalf("re-marshal with echoed id %q: %v", env.ID, err)
			}
			if _, err := UnmarshalRPC(bytes.TrimSpace(line)); err != nil {
				t.Fatalf("round trip of %q: %v", line, err)
			}
		}
		if (env.Method != "" && len(env.ID) > 0) && env.IsNotification() {
			t.Fatal("frame cannot be both request and notification")
		}
	})
}
