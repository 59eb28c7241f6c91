package coinhive_test

import (
	"errors"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/coinhive"
	"repro/internal/session"
	"repro/internal/stratum"
	"repro/internal/ws"
)

// TestWSConformance is the ws twin of TestStratumTCPConformance: each
// malformed submit a hostile or broken web client can emit, pinned to its
// exact reply sequence and to whether the server keeps the session. The
// test writes through its own ws.Conn, since no client in the program
// sends malformed messages. Reads time out after one second, so a server
// that keeps a session it should have hung up on fails fast instead of
// passing on a client timeout.
func TestWSConformance(t *testing.T) {
	srv, _, pool := startService(t, 4)
	good := strings.Repeat("ab", 32)
	marshal := func(t *testing.T, msgType string, params interface{}) []byte {
		data, err := stratum.Marshal(msgType, params)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	submit := func(jobID, nonce, result string) func(*testing.T, session.Job) []byte {
		return func(t *testing.T, loginJob session.Job) []byte {
			id := jobID
			if id == "" {
				id = loginJob.ID
			}
			return marshal(t, stratum.TypeSubmit, stratum.Submit{Version: 7, JobID: id, Nonce: nonce, Result: result})
		}
	}
	cases := []struct {
		name  string
		msg   func(t *testing.T, loginJob session.Job) []byte
		want  []string // reply types, in order
		text  string   // the error reply's text
		fatal bool     // the server hangs up after the replies
	}{
		{"bad nonce hex", submit("", "zz!!zz!!", good), []string{stratum.TypeError}, "bad nonce", false},
		{"short result", submit("", stratum.EncodeNonce(1), "abcd"), []string{stratum.TypeError}, "bad result", false},
		{"unknown job", submit("9999-1-0", stratum.EncodeNonce(1), good), []string{stratum.TypeJob}, "", false},
		{"wrong result", submit("", stratum.EncodeNonce(0xdeadbeef), good),
			[]string{stratum.TypeError, stratum.TypeJob}, coinhive.ErrBadShare.Error(), false},
		{"garbage json", func(*testing.T, session.Job) []byte { return []byte("{definitely not json") },
			[]string{stratum.TypeError}, "bad message", true},
		// The one well-formed case: exactly one hash_accepted, then the
		// next job.
		{"valid share", func(t *testing.T, job session.Job) []byte {
			nonce, sum := grindShare(t, pool, job)
			return marshal(t, stratum.TypeSubmit, stratum.Submit{Version: 7, JobID: job.ID,
				Nonce: stratum.EncodeNonce(nonce), Result: stratum.EncodeBlob(sum[:])})
		}, []string{stratum.TypeHashAccepted, stratum.TypeJob}, "", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			conn, err := ws.Dial(wsProxyURL(srv, 0), nil)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			write := func(data []byte) {
				if err := conn.WriteMessage(ws.OpText, data); err != nil {
					t.Fatal(err)
				}
			}
			read := func() (stratum.Envelope, error) {
				if err := conn.SetReadDeadline(time.Now().Add(time.Second)); err != nil {
					return stratum.Envelope{}, err
				}
				_, data, err := conn.ReadMessage()
				if err != nil {
					return stratum.Envelope{}, err
				}
				return stratum.Unmarshal(data)
			}
			write(marshal(t, stratum.TypeAuth, stratum.Auth{SiteKey: "ws-conf-key", Type: "anonymous"}))
			if env, err := read(); err != nil || env.Type != stratum.TypeAuthed {
				t.Fatalf("login reply = %s, %v; want %s", env.Type, err, stratum.TypeAuthed)
			}
			env, err := read()
			var wire stratum.Job
			if err != nil || env.Type != stratum.TypeJob || env.Decode(&wire) != nil {
				t.Fatalf("login job = %s, %v", env.Type, err)
			}
			job, err := session.DecodeJob(wire)
			if err != nil {
				t.Fatal(err)
			}
			write(tc.msg(t, job))
			for _, want := range tc.want {
				env, err := read()
				if err != nil {
					t.Fatalf("reading %s reply: %v", want, err)
				}
				if env.Type != want {
					t.Fatalf("reply = %s, want %s", env.Type, want)
				}
				if env.Type == stratum.TypeError {
					var e stratum.Error
					if err := env.Decode(&e); err != nil || e.Error != tc.text {
						t.Errorf("error = %q (%v), want %q", e.Error, err, tc.text)
					}
				}
			}
			if tc.fatal {
				env, err := read()
				if err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
					t.Fatalf("server kept the session alive: read %+v, %v", env, err)
				}
				return
			}
			// The session survives: an unknown job still earns a fresh one.
			write(submit("9999-1-0", stratum.EncodeNonce(2), good)(t, job))
			if env, err := read(); err != nil || env.Type != stratum.TypeJob {
				t.Fatalf("session did not survive: reply %s, %v", env.Type, err)
			}
		})
	}
}

// TestWSMessageBoundIsMaxRPCLine pins the ws dialect's inbound message
// bound to the TCP dialect's line bound: a miner message of
// stratum.MaxRPCLine bytes (JSON padded with whitespace) is answered like
// any other, and one byte more fails the connection with a 1009 (message
// too big) close. A ws session thus pins no more read buffer than a TCP
// one.
func TestWSMessageBoundIsMaxRPCLine(t *testing.T) {
	srv, _, _ := startService(t, 4)
	msg := `{"type":"nope","params":{}}`
	for _, size := range []int{stratum.MaxRPCLine, stratum.MaxRPCLine + 1} {
		conn, err := ws.Dial(wsProxyURL(srv, 0), nil)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if err := conn.WriteMessage(ws.OpText, []byte(msg+strings.Repeat(" ", size-len(msg)))); err != nil {
			t.Fatal(err)
		}
		if err := conn.SetReadDeadline(time.Now().Add(time.Second)); err != nil {
			t.Fatal(err)
		}
		_, data, err := conn.ReadMessage()
		var ce *ws.CloseError
		switch {
		case size <= stratum.MaxRPCLine:
			if env, uerr := stratum.Unmarshal(data); err != nil || uerr != nil || env.Type != stratum.TypeError {
				t.Errorf("%d-byte message: reply %q, %v; want an error reply", size, data, err)
			}
		case !errors.As(err, &ce) || ce.Code != 1009:
			t.Errorf("%d-byte message: read %q, %v; want a 1009 close", size, data, err)
		}
	}
}
