// Package session implements the client half of the pool dialects — the
// dial + auth handshake and the job decode (hex, de-obfuscation, nonce
// offset recovery) every miner-side component repeats before it can do
// anything useful. It is shared by the webminer (which then grinds real
// nonces) and the benchmark's clients (which replay pre-ground ones);
// keeping the protocol plumbing in one place is what guarantees they
// speak the identical dialects the server is tested against.
//
// Two dialects are supported behind one Session API, chosen by URL
// scheme: the ws+coinhive browser dialect (ws:// and wss://) and the
// newline-delimited JSON-RPC 2.0 TCP stratum dialect native miners use
// (tcp://). Whatever the wire form, a transport surfaces the server's
// messages as canonical stratum envelopes, so every consumer switches on
// one message vocabulary.
package session

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"time"

	"repro/internal/stratum"
	"repro/internal/ws"
)

// Job is a decoded, de-obfuscated PoW input ready for nonce search.
// WireBlob and wireTarget keep the exact strings the pool sent: together
// they identify the PoW input independent of the (refresh-scoped) job ID,
// which is what the benchmark's share decks are keyed on.
type Job struct {
	ID          string
	Blob        []byte
	Target      uint32
	NonceOffset int
	WireBlob    string
	wireTarget  string
}

// errTruncatedBlob is static so job decoding stays allocation-free on
// malformed input too.
var errTruncatedBlob = errors.New("session: truncated blob")

// ErrBanned reports that the pool banned this session's identity (the ws
// "banned" message / the TCP rpc error of the same text). Callers should
// stop reconnecting; the ban outlives the connection.
var ErrBanned = errors.New("session: banned by pool")

// DecodeJob decodes a wire job: hex decode, revert the fixed-offset XOR
// (the step the official miner hides "deep within its WebAssembly"), and
// recover the nonce offset from the header prefix.
//
//lint:hotpath
func DecodeJob(j stratum.Job) (Job, error) {
	blob, err := stratum.DecodeBlob(j.Blob)
	if err != nil {
		return Job{}, err
	}
	stratum.ObfuscateBlob(blob)
	target, err := stratum.DecodeTarget(j.Target)
	if err != nil {
		return Job{}, err
	}
	off, err := nonceOffset(blob)
	if err != nil {
		return Job{}, err
	}
	return Job{
		ID: j.JobID, Blob: blob, Target: target, NonceOffset: off,
		WireBlob: j.Blob, wireTarget: j.Target,
	}, nil
}

// nonceOffset returns the nonce position in a (de-obfuscated) hashing
// blob by skipping the three leading varints (major, minor, timestamp)
// and the 32-byte prev hash.
//
//lint:hotpath
func nonceOffset(blob []byte) (int, error) {
	off := 0
	for i := 0; i < 3; i++ {
		for {
			if off >= len(blob) {
				return 0, errTruncatedBlob
			}
			b := blob[off]
			off++
			if b&0x80 == 0 {
				break
			}
		}
	}
	off += 32 // prev hash
	if off+4+32 > len(blob) {
		return 0, errTruncatedBlob
	}
	return off, nil
}

// transport is one dialect connection. Implementations translate between
// the dialect's wire form and the canonical stratum envelope vocabulary;
// they hold codec state only — session semantics live with the caller.
// The zero deadline means block forever.
type transport interface {
	// send encodes one client message. msgType is a stratum.Type*
	// constant; params its payload struct.
	send(msgType string, params interface{}, deadline time.Time) error
	// readEnvelope returns the next server message in canonical form.
	readEnvelope(deadline time.Time) (stratum.Envelope, error)
	// buffered reports whether a ReadEnvelope would return without
	// touching the network — frames the server flushed together with
	// one already consumed (e.g. a resolution notification riding a
	// submit result) are drainable without risking a block.
	buffered() bool
	// serverClocked reports whether the dialect pushes work unsolicited
	// (TCP stratum) or only ever answers (ws).
	serverClocked() bool
	// close ends the session with whatever goodbye the dialect defines.
	close() error
	// abort tears the transport down abruptly, no handshake — how a
	// dying browser tab or severed endpoint looks from the server.
	abort() error
}

// Session is one authenticated miner connection over either dialect.
type Session struct {
	// transport is the dialect codec underneath; most callers never
	// touch it directly.
	transport transport
	// Timeout bounds each read and write; zero means block forever. A
	// load generator sets it so a stalled server surfaces as a counted
	// error instead of a stuck worker.
	Timeout time.Duration
}

// Dial connects to a pool endpoint and sends the auth message. The URL
// scheme picks the dialect: ws:// / wss:// for the browser dialect,
// tcp:// for raw JSON-RPC stratum. The server's replies are read by
// Login (or directly via ReadEnvelope) so callers can overlap dials.
func Dial(url string, auth stratum.Auth) (*Session, error) {
	var (
		t   transport
		err error
	)
	if strings.HasPrefix(url, "tcp://") {
		t, err = dialTCP(strings.TrimPrefix(url, "tcp://"))
	} else {
		t, err = dialWS(url)
	}
	if err != nil {
		return nil, err
	}
	s := &Session{transport: t}
	if err := s.send(stratum.TypeAuth, auth); err != nil {
		_ = t.abort()
		return nil, err
	}
	return s, nil
}

// DialConn starts a TCP-stratum session over an already-established
// net.Conn and sends the auth message, exactly as Dial("tcp://...")
// would. It exists for transports that are not dialed by address — the
// load generator's in-memory conns, which carry the 10k+ scale tiers a
// 20k-fd box cannot reach over real sockets.
func DialConn(nc net.Conn, auth stratum.Auth) (*Session, error) {
	t := newTCPTransport(nc)
	s := &Session{transport: t}
	if err := s.send(stratum.TypeAuth, auth); err != nil {
		_ = t.abort()
		return nil, err
	}
	return s, nil
}

func (s *Session) deadline() time.Time {
	if s.Timeout > 0 {
		return time.Now().Add(s.Timeout)
	}
	return time.Time{}
}

// ServerClocked reports whether the dialect pushes jobs unsolicited —
// clients of such a dialect keep mining their current job after an
// accepted share instead of waiting for a reply job.
func (s *Session) ServerClocked() bool { return s.transport.serverClocked() }

// send marshals params into one dialect frame, applying the session
// timeout to the write when one is set.
func (s *Session) send(msgType string, params interface{}) error {
	return s.transport.send(msgType, params, s.deadline())
}

// KeepaliveInterval is the cadence at which clients of a server-clocked
// dialect ping during long silences (webminer's grind ticker uses it).
// A server's silence window must comfortably exceed it — the default
// StratumServer window of 90s gives three missed pings of margin.
const KeepaliveInterval = 30 * time.Second

// Keepalive pings a server-clocked pool so its silence window never
// fires while the client is busy (e.g. a long nonce grind); it is a
// no-op for dialects whose server expects no unsolicited client
// traffic. Safe to call from a ticker goroutine concurrent with the
// session's own sends.
func (s *Session) Keepalive() error {
	if !s.transport.serverClocked() {
		return nil
	}
	return s.send(stratum.MethodKeepalive, nil)
}

// Submit reports a found (or replayed) share for the given job.
func (s *Session) Submit(jobID string, nonce uint32, result [32]byte) error {
	return s.send(stratum.TypeSubmit, stratum.Submit{
		Version: 7, JobID: jobID,
		Nonce:  stratum.EncodeNonce(nonce),
		Result: stratum.EncodeBlob(result[:]),
	})
}

// ReadEnvelope reads the next message in canonical envelope form,
// applying the session timeout when one is set.
func (s *Session) ReadEnvelope() (stratum.Envelope, error) {
	return s.transport.readEnvelope(s.deadline())
}

// Buffered reports whether a ReadEnvelope would return without blocking
// on the network.
func (s *Session) Buffered() bool { return s.transport.buffered() }

// Login completes the handshake after Dial: it expects authed followed
// by the first job (exactly what both dialects deliver) and returns
// both. A pool-side rejection surfaces as an error carrying the server's
// text.
func (s *Session) Login() (stratum.Authed, Job, error) {
	var authed stratum.Authed
	gotAuthed := false
	for {
		env, err := s.ReadEnvelope()
		if err != nil {
			return authed, Job{}, err
		}
		switch env.Type {
		case stratum.TypeAuthed:
			if err := env.Decode(&authed); err != nil {
				return authed, Job{}, err
			}
			gotAuthed = true
		case stratum.TypeJob:
			if !gotAuthed {
				return authed, Job{}, errors.New("session: job before authed")
			}
			var j stratum.Job
			if err := env.Decode(&j); err != nil {
				return authed, Job{}, err
			}
			job, err := DecodeJob(j)
			return authed, job, err
		case stratum.TypeBanned:
			return authed, Job{}, ErrBanned
		case stratum.TypeError:
			var e stratum.Error
			_ = env.Decode(&e)
			return authed, Job{}, fmt.Errorf("session: pool rejected login: %s", e.Error)
		default:
			return authed, Job{}, fmt.Errorf("session: unexpected %s during login", env.Type)
		}
	}
}

// Close performs the dialect's closing handshake.
func (s *Session) Close() error { return s.transport.close() }

// Abort tears the connection down abruptly, no handshake.
func (s *Session) Abort() error { return s.transport.abort() }

// wsTransport is the browser dialect: stratum envelopes in ws text
// frames, client-clocked. The canonical vocabulary IS this dialect's
// wire form, so the codec is nearly free.
type wsTransport struct {
	conn *ws.Conn
}

func dialWS(url string) (*wsTransport, error) {
	conn, err := ws.Dial(url, nil)
	if err != nil {
		return nil, err
	}
	return &wsTransport{conn: conn}, nil
}

func (t *wsTransport) send(msgType string, params interface{}, deadline time.Time) error {
	data, err := stratum.Marshal(msgType, params)
	if err != nil {
		return err
	}
	if err := t.conn.SetWriteDeadline(deadline); err != nil {
		return err
	}
	return t.conn.WriteMessage(ws.OpText, data)
}

func (t *wsTransport) readEnvelope(deadline time.Time) (stratum.Envelope, error) {
	if err := t.conn.SetReadDeadline(deadline); err != nil {
		return stratum.Envelope{}, err
	}
	_, data, err := t.conn.ReadMessage()
	if err != nil {
		return stratum.Envelope{}, err
	}
	return stratum.Unmarshal(data)
}

// buffered is always false for ws: the dialect is client-clocked, so a
// caller never needs to opportunistically drain it.
func (t *wsTransport) buffered() bool { return false }

func (t *wsTransport) serverClocked() bool { return false }

func (t *wsTransport) close() error { return t.conn.Close() }

func (t *wsTransport) abort() error { return t.conn.NetConn().Close() }
