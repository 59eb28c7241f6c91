package coinhive

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/fingerprint"
	"repro/internal/stratum"
	"repro/internal/ws"
)

// minerScript is the JavaScript loader customers embed. It carries the
// markers (file name, global symbol) that the NoCoin filter list keys on —
// matching the real deployment, where the script URL alone was enough for
// block lists while the Wasm payload was not.
const minerScript = `/* coinhive.min.js — Monetize Your Business With Your Users' CPU Power */
/* usage: var miner = new CoinHive.Anonymous('SITE_KEY'); miner.start(); */
var CoinHive=(function(){
  var W="/lib/cryptonight.wasm";
  function Anonymous(siteKey,opts){this.k=siteKey;this.o=opts||{};}
  Anonymous.prototype.start=function(){
    this._ws=new WebSocket(this.o.endpoint||"wss://ws001.coinhive.com/proxy");
    this._wasm=fetch(W);
  };
  function User(siteKey,user,opts){Anonymous.call(this,siteKey,opts);this.u=user;}
  return {Anonymous:Anonymous,User:User,CONFIG:{LIB_URL:W}};
})();`

// Server is the HTTP/WebSocket front of the service: the 32 /proxyN pool
// endpoints, the miner assets, the cnhv.co short-link pages and the
// /metrics exposition. All session-protocol semantics live in the Engine;
// this type only speaks the ws+coinhive dialect and routes HTTP.
type Server struct {
	pool *Pool
	eng  *Engine

	// Live ws sessions, tracked so Shutdown can complete a proper close
	// handshake on each instead of leaving miners to time out on a dead
	// TCP connection.
	conns connSet[*ws.Conn]

	// api, when attached, serves /api/v1/... (the archived-history stats
	// API). It is a plain http.Handler so coinhive stays independent of
	// the statsapi package — the daemon wires the two together.
	api http.Handler
}

// NewServer wraps a pool in a fresh engine. Use newServerWithEngine to
// share one engine (and its session accounting) with other transports.
func NewServer(p *Pool) *Server {
	return newServerWithEngine(NewEngine(p))
}

// newServerWithEngine builds the HTTP/ws front over an existing engine.
func newServerWithEngine(e *Engine) *Server {
	return &Server{
		pool: e.pool,
		eng:  e,
	}
}

// Engine exposes the session engine, for wiring additional transports
// (see NewStratumServer) onto the same session accounting.
func (s *Server) Engine() *Engine { return s.eng }

// Shutdown stops accepting miner sessions and closes every live one with
// a 1001 (going away) close handshake. The HTTP listener is the caller's
// to stop (http.Server.Shutdown); this drains what that cannot reach —
// hijacked WebSocket connections.
//
// Each session's serveWS reader is still running, so the close frame is
// only queued here (InitiateClose); the reader consumes the peer's close
// reply and tears the transport down cleanly — closing the socket
// directly would race unread in-flight data and could turn the
// handshake into a TCP reset. The read deadline bounds the drain when a
// peer never replies.
func (s *Server) Shutdown() {
	open, _ := s.conns.drain()
	for _, c := range open {
		c.InitiateClose(ws.CloseGoingAway, "server shutting down")
		_ = c.SetReadDeadline(time.Now().Add(3 * time.Second))
	}
}

// Drained reports whether every miner session has finished its close
// handshake, waiting up to timeout. Callers that exit the process after
// Shutdown should wait here first, or the OS teardown races the
// handshakes Shutdown queued.
func (s *Server) Drained(timeout time.Duration) bool {
	return s.conns.drained(timeout)
}

// ServeHTTP routes all service endpoints.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	path := r.URL.Path
	switch {
	case strings.HasPrefix(path, "/proxy"):
		n, err := strconv.Atoi(strings.TrimPrefix(path, "/proxy"))
		if err != nil || n < 0 || n >= s.pool.NumEndpoints() {
			http.NotFound(w, r)
			return
		}
		s.serveWS(w, r, n)
	case path == "/lib/coinhive.min.js":
		w.Header().Set("Content-Type", "application/javascript")
		fmt.Fprint(w, minerScript)
	case path == "/lib/cryptonight.wasm":
		spec, _ := fingerprint.SpecByName(fingerprint.FamilyCoinhive)
		w.Header().Set("Content-Type", "application/wasm")
		w.Write(fingerprint.BinaryFor(spec, spec.Versions-1))
	case strings.HasPrefix(path, "/cn/"):
		s.serveLinkPage(w, r, strings.TrimPrefix(path, "/cn/"))
	case path == "/api/link/create" && r.Method == http.MethodPost:
		s.serveLinkCreate(w, r)
	case path == "/api/captcha/create" && r.Method == http.MethodPost:
		s.serveCaptchaCreate(w, r)
	case path == "/api/captcha/verify" && r.Method == http.MethodPost:
		s.serveCaptchaVerify(w, r)
	case strings.HasPrefix(path, "/api/v1/"):
		if s.api == nil {
			http.NotFound(w, r)
			return
		}
		s.api.ServeHTTP(w, r)
	case path == "/api/stats":
		s.serveStats(w)
	case path == "/metrics":
		s.serveMetrics(w, r)
	default:
		http.NotFound(w, r)
	}
}

// AttachAPI mounts h at /api/v1/... on the service mux. Call before
// serving; typically h is a statsapi.API over the pool's archive.
func (s *Server) AttachAPI(h http.Handler) { s.api = h }

// serveLinkPage renders the interstitial progress page. The markup carries
// the creator token and required hash count as data attributes — exactly
// the two fields the paper's scraper collected from each cnhv.co page.
func (s *Server) serveLinkPage(w http.ResponseWriter, r *http.Request, id string) {
	link, err := s.pool.Links().get(id)
	if err != nil {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html")
	fmt.Fprintf(w, `<!doctype html>
<html><head><title>cnhv.co/%s</title>
<script src="/lib/coinhive.min.js"></script>
</head><body>
<div class="proof-of-work" data-key="%s" data-hashes="%d" data-link="%s">
  <div class="progress"><span class="bar" style="width:0%%"></span></div>
  <p>Please wait while we verify your browser (%d hashes required)&hellip;</p>
</div>
<script>var miner=new CoinHive.User("%s","link:%s",{goal:%d});miner.start();</script>
</body></html>`,
		link.id, link.token, link.required, link.id, link.required,
		link.token, link.id, link.required)
}

func (s *Server) serveLinkCreate(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Token  string `json:"token"`
		URL    string `json:"url"`
		Hashes uint64 `json:"hashes"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Token == "" || req.URL == "" {
		http.Error(w, "bad request", http.StatusBadRequest)
		return
	}
	if req.Hashes == 0 {
		req.Hashes = 1024
	}
	id := s.pool.Links().Create(req.Token, req.URL, req.Hashes)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]string{"id": id})
}

func (s *Server) serveCaptchaCreate(w http.ResponseWriter, r *http.Request) {
	var req struct {
		SiteKey string `json:"site_key"`
		Hashes  uint64 `json:"hashes"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.SiteKey == "" {
		http.Error(w, "bad request", http.StatusBadRequest)
		return
	}
	c := s.pool.Captchas().Create(req.SiteKey, req.Hashes)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]interface{}{"id": c.ID, "hashes": c.required})
}

// serveCaptchaVerify is the server-to-server check a customer backend makes.
func (s *Server) serveCaptchaVerify(w http.ResponseWriter, r *http.Request) {
	var req struct {
		ID    string `json:"id"`
		Token string `json:"token"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "bad request", http.StatusBadRequest)
		return
	}
	err := s.pool.Captchas().Verify(req.ID, req.Token)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]interface{}{
		"success": err == nil,
		"error":   errString(err),
	})
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func (s *Server) serveStats(w http.ResponseWriter) {
	st := s.pool.StatsSnapshot()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(st)
}

// serveMetrics exposes the registry: text by default, the machine-read
// form with ?format=json.
func (s *Server) serveMetrics(w http.ResponseWriter, r *http.Request) {
	reg := s.pool.Metrics()
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		reg.WriteJSON(w)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	reg.WriteText(w)
}

// serveWS runs one miner session on endpoint n: upgrade, track for drain,
// then hand the connection to the engine behind the ws dialect codec.
func (s *Server) serveWS(w http.ResponseWriter, r *http.Request, endpoint int) {
	conn, err := ws.Upgrade(w, r)
	if err != nil {
		return
	}
	defer conn.Close()
	if !s.conns.track(conn) {
		_ = conn.CloseWithCode(ws.CloseGoingAway, "server shutting down")
		return
	}
	defer s.conns.untrack(conn)
	s.eng.serveSession(endpoint, &wsTransport{conn: conn, remote: remoteHost(conn.RemoteAddr())})
}

// remoteHost strips the port from a transport address, for per-host
// abuse keying. Empty when the address is unavailable or unparseable.
func remoteHost(addr net.Addr) string {
	if addr == nil {
		return ""
	}
	host, _, err := net.SplitHostPort(addr.String())
	if err != nil {
		return addr.String()
	}
	return host
}

// wsTransport is the ws+coinhive dialect codec: JSON envelopes over text
// frames, strictly client-clocked. It holds no protocol state — every
// rule lives in the engine.
type wsTransport struct {
	conn   *ws.Conn
	remote string
	// Scratch for the alloc-free delivery fast paths: the envelope
	// payload and the encoded frame around it.
	pbuf []byte
	fbuf []byte
}

// RemoteHost exposes the peer host for the engine's optional per-host
// abuse keying.
func (t *wsTransport) RemoteHost() string { return t.remote }

// readCommand parses the next text frame. Wire-level decode failures
// (garbage envelope, bad hex) become Commands carrying this dialect's
// error text; only transport death is an error.
func (t *wsTransport) readCommand() (Command, error) {
	_, data, err := t.conn.ReadMessage()
	if err != nil {
		return Command{}, err
	}
	env, err := stratum.Unmarshal(data)
	if err != nil {
		return Command{Kind: cmdGarbage}, nil
	}
	switch env.Type {
	case stratum.TypeAuth:
		var auth stratum.Auth
		if env.Decode(&auth) != nil {
			auth = stratum.Auth{} // empty site key: the engine rejects it
		}
		return Command{Kind: CmdOpen, Auth: auth}, nil
	case stratum.TypeSubmit:
		var sub stratum.Submit
		if err := env.Decode(&sub); err != nil {
			return Command{Kind: cmdBadParams, reply: "bad submit"}, nil
		}
		return submitCommand(sub.JobID, sub.Nonce, sub.Result), nil
	default:
		return Command{Kind: cmdUnknown, name: env.Type}, nil
	}
}

// serverClocked reports the ws dialect's clocking: the pool only ever
// answers, so every submit reply carries the next job.
func (t *wsTransport) serverClocked() bool { return false }

// deliver renders each event as one envelope frame, in order. The two
// steady-state events take encode-once paths: a job's frame bytes were
// already minted by the jobWire cache (shared by every session served the
// same difficulty), and an accepted-share ack is assembled by the
// alloc-free appenders into the transport's scratch buffer. Everything
// else — auth, errors, link and captcha notifications — is cold and
// keeps the reflective marshal.
func (t *wsTransport) deliver(ms *MinerSession, cmd Command, evs []Event) error {
	for _, ev := range evs {
		var (
			msgType string
			params  interface{}
		)
		switch ev.Kind {
		case evAuthed:
			msgType, params = stratum.TypeAuthed, ev.authed
		case EvJob:
			if err := t.conn.WriteRawFrame(ev.wire.wsFrame); err != nil {
				return err
			}
			continue
		case EvAccepted:
			t.pbuf = stratum.AppendHashAcceptedEnvelope(t.pbuf[:0], ev.accepted.Hashes)
			t.fbuf = ws.AppendServerFrame(t.fbuf[:0], ws.OpText, t.pbuf)
			if err := t.conn.WriteRawFrame(t.fbuf); err != nil {
				return err
			}
			continue
		case evLinkResolved:
			msgType, params = stratum.TypeLinkResolved, ev.link
		case evCaptchaVerified:
			msgType, params = stratum.TypeCaptchaVerified, ev.captcha
		case evError:
			msgType, params = stratum.TypeError, stratum.Error{Error: ev.err}
			if ev.banned {
				// A ban gets its own message type in this dialect, so the
				// miner script can stop reconnecting instead of retrying a
				// generic error.
				msgType = stratum.TypeBanned
			}
		default:
			continue // evKeepalive: not part of this dialect
		}
		data, err := stratum.Marshal(msgType, params)
		if err != nil {
			return err
		}
		if err := t.conn.WriteMessage(ws.OpText, data); err != nil {
			return err
		}
	}
	return nil
}
