package stratum

import (
	"reflect"
	"testing"
	"testing/quick"
	"unicode/utf8"
)

// FuzzUnmarshal feeds arbitrary bytes through the full server-side
// decode path: envelope, every params type, and the hex field decoders.
// The loadgen swarm's malformed-share scenario throws garbage at a live
// server; this is the same guarantee without a socket — no input may
// panic, only return errors.
func FuzzUnmarshal(f *testing.F) {
	seeds := []string{
		`{"type":"auth","params":{"site_key":"k","type":"anonymous"}}`,
		`{"type":"submit","params":{"version":7,"job_id":"3-1-5","nonce":"00ff00ff","result":"` + hex64() + `"}}`,
		`{"type":"job","params":{"job_id":"0-1-0","blob":"0700aa","target":"ffffff00"}}`,
		`{"type":"authed","params":{"token":"t","hashes":42}}`,
		`{"type":"hash_accepted","params":{"hashes":256}}`,
		`{"type":"link_resolved","params":{"id":"ab3","url":"https://example.com"}}`,
		`{"type":"error","params":{"error":"bad nonce"}}`,
		`{"type":"submit","params":{"nonce":"zzzz"}}`, // bad hex
		`{"type":"submit","params":"not-an-object"}`,  // params type mismatch
		`{"type":"auth"}`,                      // missing params
		`{"type":123}`,                         // type not a string
		`{`,                                    // truncated JSON
		"\x00\x01\x02",                         // binary garbage
		`{"type":"job","params":{"blob":"0"}}`, // odd-length hex
		`{"type":"submit","params":{"nonce":"00ff00"}}`, // short nonce
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := Unmarshal(data)
		if err != nil {
			return
		}
		var auth Auth
		var authed Authed
		var job Job
		var submit Submit
		var ha HashAccepted
		var lr LinkResolved
		var e Error
		_ = env.Decode(&auth)
		_ = env.Decode(&authed)
		_ = env.Decode(&ha)
		_ = env.Decode(&lr)
		_ = env.Decode(&e)
		if env.Decode(&job) == nil {
			_, _ = DecodeBlob(job.Blob)
			_, _ = DecodeTarget(job.Target)
		}
		if env.Decode(&submit) == nil {
			_, _ = DecodeNonce(submit.Nonce)
			_, _ = DecodeBlob(submit.Result)
		}
	})
}

func hex64() string {
	s := ""
	for i := 0; i < 32; i++ {
		s += "ab"
	}
	return s
}

// TestEnvelopeRoundTripAllTypes is the dialect's wire-stability
// property: for every message type, Marshal → Unmarshal → Decode must
// reproduce the params exactly. testing/quick drives it with random
// field values.
func TestEnvelopeRoundTripAllTypes(t *testing.T) {
	roundTrip := func(t *testing.T, msgType string, in, out interface{}) bool {
		t.Helper()
		data, err := Marshal(msgType, in)
		if err != nil {
			t.Logf("Marshal(%s): %v", msgType, err)
			return false
		}
		env, err := Unmarshal(data)
		if err != nil || env.Type != msgType {
			t.Logf("Unmarshal(%s): type=%q err=%v", msgType, env.Type, err)
			return false
		}
		if err := env.Decode(out); err != nil {
			t.Logf("Decode(%s): %v", msgType, err)
			return false
		}
		// out is a pointer; compare what it points at to the input value.
		return reflect.DeepEqual(reflect.ValueOf(out).Elem().Interface(), in)
	}
	cfg := &quick.Config{MaxCount: 200}

	// encoding/json replaces invalid UTF-8 with U+FFFD, so the JSON
	// round-trip property only holds for valid strings — which is all the
	// dialect ever produces.
	valid := func(ss ...string) bool {
		for _, s := range ss {
			if !utf8.ValidString(s) {
				return true // vacuously pass; quick still drives valid cases
			}
		}
		return false
	}

	if err := quick.Check(func(siteKey, typ, user string, goal int) bool {
		if valid(siteKey, typ, user) {
			return true
		}
		in := Auth{SiteKey: siteKey, Type: typ, User: user, Goal: goal}
		return roundTrip(t, TypeAuth, in, &Auth{})
	}, cfg); err != nil {
		t.Error(err)
	}
	if err := quick.Check(func(token string, hashes int64) bool {
		if valid(token) {
			return true
		}
		return roundTrip(t, TypeAuthed, Authed{Token: token, Hashes: hashes}, &Authed{})
	}, cfg); err != nil {
		t.Error(err)
	}
	if err := quick.Check(func(blob []byte, target uint32, jobID string) bool {
		if valid(jobID) {
			return true
		}
		in := Job{JobID: jobID, Blob: EncodeBlob(blob), Target: EncodeTarget(target)}
		return roundTrip(t, TypeJob, in, &Job{})
	}, cfg); err != nil {
		t.Error(err)
	}
	if err := quick.Check(func(jobID string, nonce uint32, result [32]byte) bool {
		if valid(jobID) {
			return true
		}
		in := Submit{Version: 7, JobID: jobID, Nonce: EncodeNonce(nonce), Result: EncodeBlob(result[:])}
		return roundTrip(t, TypeSubmit, in, &Submit{})
	}, cfg); err != nil {
		t.Error(err)
	}
	if err := quick.Check(func(hashes int64) bool {
		return roundTrip(t, TypeHashAccepted, HashAccepted{Hashes: hashes}, &HashAccepted{})
	}, cfg); err != nil {
		t.Error(err)
	}
	if err := quick.Check(func(id, url string) bool {
		if valid(id, url) {
			return true
		}
		return roundTrip(t, TypeLinkResolved, LinkResolved{ID: id, URL: url}, &LinkResolved{})
	}, cfg); err != nil {
		t.Error(err)
	}
}
