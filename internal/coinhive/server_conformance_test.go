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
)

// TestWSConformance is the ws twin of TestStratumTCPConformance: each
// malformed submit a hostile or broken web client can emit, pinned to its
// exact reply sequence and to whether the server keeps the session. Reads
// time out after one second, so a server that keeps a session it should
// have hung up on fails fast instead of passing on a client timeout.
func TestWSConformance(t *testing.T) {
	srv, _, pool := startService(t, 4)
	good := strings.Repeat("ab", 32)
	submit := func(jobID, nonce, result string) func(*testing.T, *session.Session, session.Job) error {
		return func(_ *testing.T, s *session.Session, loginJob session.Job) error {
			id := jobID
			if id == "" {
				id = loginJob.ID
			}
			return s.Send(stratum.TypeSubmit, stratum.Submit{Version: 7, JobID: id, Nonce: nonce, Result: result})
		}
	}
	cases := []struct {
		name  string
		send  func(t *testing.T, s *session.Session, loginJob session.Job) error
		want  []string // reply types, in order
		msg   string   // the error reply's text
		fatal bool     // the server hangs up after the replies
	}{
		{"bad nonce hex", submit("", "zz!!zz!!", good), []string{stratum.TypeError}, "bad nonce", false},
		{"short result", submit("", stratum.EncodeNonce(1), "abcd"), []string{stratum.TypeError}, "bad result", false},
		{"unknown job", submit("9999-1-0", stratum.EncodeNonce(1), good), []string{stratum.TypeJob}, "", false},
		{"wrong result", submit("", stratum.EncodeNonce(0xdeadbeef), good),
			[]string{stratum.TypeError, stratum.TypeJob}, coinhive.ErrBadShare.Error(), false},
		{"garbage json", func(_ *testing.T, s *session.Session, _ session.Job) error {
			return s.SendRaw([]byte("{definitely not json"))
		},
			[]string{stratum.TypeError}, "bad message", true},
		// The one well-formed case: exactly one hash_accepted, then the
		// next job.
		{"valid share", func(t *testing.T, s *session.Session, job session.Job) error {
			nonce, sum := grindShare(t, pool, job)
			return s.Submit(job.ID, nonce, sum)
		}, []string{stratum.TypeHashAccepted, stratum.TypeJob}, "", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sess, err := session.Dial(wsProxyURL(srv, 0), stratum.Auth{SiteKey: "ws-conf-key", Type: "anonymous"})
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			sess.Timeout = time.Second
			_, job, err := sess.Login()
			if err != nil {
				t.Fatal(err)
			}
			if err := tc.send(t, sess, job); err != nil {
				t.Fatal(err)
			}
			for _, want := range tc.want {
				env, err := sess.ReadEnvelope()
				if err != nil {
					t.Fatalf("reading %s reply: %v", want, err)
				}
				if env.Type != want {
					t.Fatalf("reply = %s, want %s", env.Type, want)
				}
				if env.Type == stratum.TypeError {
					var e stratum.Error
					if err := env.Decode(&e); err != nil || e.Error != tc.msg {
						t.Errorf("error = %q (%v), want %q", e.Error, err, tc.msg)
					}
				}
			}
			if tc.fatal {
				env, err := sess.ReadEnvelope()
				if err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
					t.Fatalf("server kept the session alive: read %+v, %v", env, err)
				}
				return
			}
			// The session survives: an unknown job still earns a fresh one.
			if err := submit("9999-1-0", stratum.EncodeNonce(2), good)(t, sess, job); err != nil {
				t.Fatal(err)
			}
			if env, err := sess.ReadEnvelope(); err != nil || env.Type != stratum.TypeJob {
				t.Fatalf("session did not survive: reply %s, %v", env.Type, err)
			}
		})
	}
}
