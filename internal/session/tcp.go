package session

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/stratum"
)

// tcpTransport is the raw-TCP JSON-RPC stratum dialect (see
// coinhive.StratumServer for the wire spec). The dialect is
// server-clocked — job notifications arrive unsolicited — and its
// request/response shapes differ from the browser dialect, so this codec
// re-expresses every server message as a canonical stratum envelope:
//
//	login result      → authed + job (two envelopes, queued)
//	submit result     → hash_accepted
//	keepalived result → keepalived
//	rpc error         → error
//	job / link_resolved / captcha_verified notifications → themselves
type tcpTransport struct {
	nc net.Conn
	br *bufio.Reader

	// wmu serialises writers: the session's own sends race the keepalive
	// ticker a long-grinding miner runs (see Session.Keepalive). It also
	// guards token, which the read side sets at login.
	wmu    sync.Mutex
	nextID int64
	// token is the login result's session token, echoed in every submit
	// and keepalive — this dialect's session identity.
	token string
	// pending holds synthesized envelopes not yet handed to the caller
	// (the login result expands to two).
	pending []stratum.Envelope
	wbuf    []byte
}

func dialTCP(addr string) (*tcpTransport, error) {
	nc, err := net.DialTimeout("tcp", addr, 30*time.Second)
	if err != nil {
		return nil, err
	}
	return newTCPTransport(nc), nil
}

func newTCPTransport(nc net.Conn) *tcpTransport {
	return &tcpTransport{
		nc: nc,
		br: bufio.NewReaderSize(nc, stratum.MaxRPCLine),
	}
}

func (t *tcpTransport) send(msgType string, params interface{}, deadline time.Time) error {
	t.wmu.Lock()
	defer t.wmu.Unlock()
	t.nextID++
	var err error
	t.wbuf = t.wbuf[:0]
	switch msgType {
	case stratum.TypeAuth:
		auth, ok := params.(stratum.Auth)
		if !ok {
			return fmt.Errorf("session: tcp auth params are %T, want stratum.Auth", params)
		}
		t.wbuf, err = stratum.AppendRPCRequest(t.wbuf, t.nextID, stratum.MethodLogin, stratum.LoginParams{
			Login: auth.SiteKey,
			Pass:  auth.User,
			Agent: "repro-session/1",
		})
	case stratum.TypeSubmit:
		sub, ok := params.(stratum.Submit)
		if !ok {
			return fmt.Errorf("session: tcp submit params are %T, want stratum.Submit", params)
		}
		t.wbuf, err = stratum.AppendRPCRequest(t.wbuf, t.nextID, stratum.MethodSubmit, stratum.SubmitParams{
			ID:     t.token,
			JobID:  sub.JobID,
			Nonce:  sub.Nonce,
			Result: sub.Result,
		})
	case stratum.MethodKeepalive:
		t.wbuf, err = stratum.AppendRPCRequest(t.wbuf, t.nextID, stratum.MethodKeepalive,
			map[string]string{"id": t.token})
	default:
		return fmt.Errorf("session: no tcp stratum request for %q", msgType)
	}
	if err != nil {
		return err
	}
	return t.writeLocked(deadline)
}

func (t *tcpTransport) writeLocked(deadline time.Time) error {
	if err := t.nc.SetWriteDeadline(deadline); err != nil {
		return err
	}
	_, err := t.nc.Write(t.wbuf)
	return err
}

// synth queues one canonical envelope built from a payload struct.
func (t *tcpTransport) synth(msgType string, payload interface{}) error {
	raw, err := json.Marshal(payload)
	if err != nil {
		return err
	}
	t.pending = append(t.pending, stratum.Envelope{Type: msgType, Params: raw})
	return nil
}

func (t *tcpTransport) readEnvelope(deadline time.Time) (stratum.Envelope, error) {
	for len(t.pending) == 0 {
		if err := t.readFrame(deadline); err != nil {
			return stratum.Envelope{}, err
		}
	}
	env := t.pending[0]
	t.pending = t.pending[:copy(t.pending, t.pending[1:])]
	return env, nil
}

// readFrame reads one rpc line and queues its canonical envelope(s).
func (t *tcpTransport) readFrame(deadline time.Time) error {
	if err := t.nc.SetReadDeadline(deadline); err != nil {
		return err
	}
	line, err := stratum.ReadRPCLine(t.br)
	if err != nil {
		return err
	}
	env, err := stratum.UnmarshalRPC(line)
	if err != nil {
		return fmt.Errorf("session: tcp frame: %w", err)
	}
	switch {
	case env.IsNotification():
		// Server pushes reuse the canonical type names as rpc methods.
		t.pending = append(t.pending, stratum.Envelope{Type: env.Method, Params: env.Params})
		return nil
	case env.Error != nil:
		if env.Error.Message == stratum.BannedMessage {
			// The ws dialect gives bans their own message type; mirror that
			// here so callers see one vocabulary for "stop reconnecting".
			return t.synth(stratum.TypeBanned, stratum.Error{Error: env.Error.Message})
		}
		return t.synth(stratum.TypeError, stratum.Error{Error: env.Error.Message})
	case len(env.Result) > 0:
		return t.decodeResult(env)
	default:
		return fmt.Errorf("session: tcp frame is neither response nor notification: %s", line)
	}
}

// decodeResult maps a success response onto the canonical vocabulary by
// shape: a result carrying a job is the login ack, one carrying only
// hashes is a submit ack, the KEEPALIVED status answers a keepalive.
func (t *tcpTransport) decodeResult(env stratum.RPCEnvelope) error {
	var probe struct {
		ID     string       `json:"id"`
		Job    *stratum.Job `json:"job"`
		Status string       `json:"status"`
		Hashes int64        `json:"hashes"`
	}
	if err := env.DecodeResult(&probe); err != nil {
		return fmt.Errorf("session: tcp result: %w", err)
	}
	switch {
	case probe.Job != nil:
		t.wmu.Lock()
		t.token = probe.ID
		t.wmu.Unlock()
		if err := t.synth(stratum.TypeAuthed, stratum.Authed{Token: probe.ID, Hashes: probe.Hashes}); err != nil {
			return err
		}
		return t.synth(stratum.TypeJob, *probe.Job)
	case probe.Status == stratum.StatusKeepalive:
		return t.synth(stratum.MethodKeepalive, stratum.KeepaliveResult{Status: probe.Status})
	default:
		return t.synth(stratum.TypeHashAccepted, stratum.HashAccepted{Hashes: probe.Hashes})
	}
}

// buffered reports whether a frame is already decoded (pending) or
// sitting in the read buffer — anything the server flushed in the same
// write as a frame already consumed.
func (t *tcpTransport) buffered() bool {
	return len(t.pending) > 0 || t.br.Buffered() > 0
}

func (t *tcpTransport) serverClocked() bool { return true }

// close ends the session. The dialect has no goodbye frame — liveness is
// the keepalive window — so closing the socket is the handshake.
func (t *tcpTransport) close() error { return t.nc.Close() }

func (t *tcpTransport) abort() error { return t.nc.Close() }
