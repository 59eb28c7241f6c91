// JSON-RPC 2.0 framing for the raw-TCP stratum dialect — the protocol
// native Monero miners speak to pools (newline-delimited JSON, one object
// per line), which Coinhive bridged the browser dialect onto. Requests are
// login/submit/keepalived; the server answers each by id and pushes
// unsolicited notifications (job, link_resolved, captcha_verified) with no
// id at all — the dialect's server-clocked half.
package stratum

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
)

// RPC methods of the TCP dialect.
const (
	MethodLogin     = "login"
	MethodSubmit    = "submit"
	MethodKeepalive = "keepalived"
)

// Status strings carried in RPC results.
const (
	StatusOK        = "OK"
	StatusKeepalive = "KEEPALIVED"
)

// StaleJobMessage is the RPC error text for a share submitted against a
// job the chain tip has outrun. The ws dialect re-jobs silently; the TCP
// dialect names the condition so the miner knows the share was not merely
// invalid, then pushes fresh work.
const StaleJobMessage = "stale job"

// Abuse-containment error texts. The TCP codec canonicalises RPC errors
// into error envelopes carrying only the message, so these strings — not
// the codes — are what clients of either dialect key rejection handling
// on. Keep them stable.
const (
	// TooManyStaleMessage ends the stale-submit retry loop: after N
	// consecutive stale shares the server stops re-jobbing and names the
	// flood instead.
	TooManyStaleMessage = "too many stale"
	// BannedMessage rejects a login from (or drops a session of) an
	// identity whose banscore crossed the threshold.
	BannedMessage = "banned"
	// RateLimitedMessage rejects a login or submit that exceeded the
	// identity's token bucket.
	RateLimitedMessage = "rate limited"
	// DuplicateShareMessage rejects a share whose (job, nonce) was
	// already credited to the session or account.
	DuplicateShareMessage = "duplicate share"
)

// RPC error codes. Parse/method/params failures use the JSON-RPC 2.0
// reserved codes; dialect-level rejections use small negative codes.
const (
	RPCParseError    = -32700
	RPCUnknownMethod = -32601
	RPCInvalidParams = -32602
	RPCUnauthorized  = -1
	RPCRejected      = -2
	RPCStaleJob      = -3
	RPCTooManyStale  = -4
	RPCBanned        = -5
	RPCRateLimited   = -6
)

// MaxRPCLine bounds one newline-delimited frame. The largest legitimate
// message is a job push (~400 bytes of hex blob and envelope); anything
// near the cap is hostile or broken.
const MaxRPCLine = 8192

// rpcError is the error member of a response.
type rpcError struct {
	Code    int    `json:"code"`
	Message string `json:"message"`
}

// RPCEnvelope is one line of the TCP dialect, covering all three frame
// shapes: request (ID+Method), response (ID+Result or ID+Error) and
// notification (Method, no ID). ID is kept raw so responses echo whatever
// the peer sent — the codec correlates, it does not interpret.
type RPCEnvelope struct {
	ID      json.RawMessage `json:"id,omitempty"`
	JSONRPC string          `json:"jsonrpc,omitempty"`
	Method  string          `json:"method,omitempty"`
	Params  json.RawMessage `json:"params,omitempty"`
	Result  json.RawMessage `json:"result,omitempty"`
	Error   *rpcError       `json:"error,omitempty"`
}

// IsNotification reports whether the envelope is a server push.
func (e RPCEnvelope) IsNotification() bool { return e.Method != "" && len(e.ID) == 0 }

// LoginParams is the login request body. Login carries the site key (the
// ws dialect's auth.site_key); Pass carries the ws dialect's user field,
// so "link:ID" / "captcha:ID" sessions work identically over TCP.
type LoginParams struct {
	Login string `json:"login"`
	Pass  string `json:"pass,omitempty"`
	Agent string `json:"agent,omitempty"`
}

// LoginResult acknowledges a login: the account token, the hashes already
// credited (the ws dialect's authed message) and the first job.
type LoginResult struct {
	ID     string `json:"id"`
	Job    Job    `json:"job"`
	Status string `json:"status"`
	Hashes int64  `json:"hashes"`
}

// SubmitParams reports a found share. ID echoes the login result's token.
type SubmitParams struct {
	ID     string `json:"id"`
	JobID  string `json:"job_id"`
	Nonce  string `json:"nonce"`
	Result string `json:"result"`
}

// SubmitResult acknowledges an accepted share, carrying the account's
// total credit like the ws dialect's hash_accepted.
type SubmitResult struct {
	Status string `json:"status"`
	Hashes int64  `json:"hashes"`
}

// KeepaliveResult acknowledges a keepalived request.
type KeepaliveResult struct {
	Status string `json:"status"`
}

// AppendRPCRequest appends one request line (trailing newline included).
func AppendRPCRequest(dst []byte, id int64, method string, params interface{}) ([]byte, error) {
	raw, err := json.Marshal(params)
	if err != nil {
		return nil, err
	}
	line, err := json.Marshal(RPCEnvelope{
		ID:      json.RawMessage(strconv.AppendInt(nil, id, 10)),
		JSONRPC: "2.0",
		Method:  method,
		Params:  raw,
	})
	if err != nil {
		return nil, err
	}
	return append(append(dst, line...), '\n'), nil
}

// AppendRPCNotify appends one server-push notification line.
func AppendRPCNotify(dst []byte, method string, params interface{}) ([]byte, error) {
	raw, err := json.Marshal(params)
	if err != nil {
		return nil, err
	}
	line, err := json.Marshal(RPCEnvelope{JSONRPC: "2.0", Method: method, Params: raw})
	if err != nil {
		return nil, err
	}
	return append(append(dst, line...), '\n'), nil
}

// AppendRPCResult appends one success-response line, echoing id verbatim.
func AppendRPCResult(dst []byte, id json.RawMessage, result interface{}) ([]byte, error) {
	raw, err := json.Marshal(result)
	if err != nil {
		return nil, err
	}
	line, err := json.Marshal(RPCEnvelope{ID: normalizeID(id), JSONRPC: "2.0", Result: raw})
	if err != nil {
		return nil, err
	}
	return append(append(dst, line...), '\n'), nil
}

// AppendRPCError appends one error-response line, echoing id verbatim.
func AppendRPCError(dst []byte, id json.RawMessage, code int, msg string) ([]byte, error) {
	line, err := json.Marshal(RPCEnvelope{
		ID: normalizeID(id), JSONRPC: "2.0",
		Error: &rpcError{Code: code, Message: msg},
	})
	if err != nil {
		return nil, err
	}
	return append(append(dst, line...), '\n'), nil
}

// normalizeID substitutes the JSON null id for responses to frames that
// carried none (or an unparseable one), per JSON-RPC 2.0.
func normalizeID(id json.RawMessage) json.RawMessage {
	if len(id) == 0 || !json.Valid(id) {
		return json.RawMessage("null")
	}
	return id
}

// RPC line-read errors.
var (
	ErrRPCLineTooLong = errors.New("stratum: rpc line exceeds MaxRPCLine")
	errRPCBadJSON     = errors.New("stratum: rpc line is not valid JSON")
)

// ReadRPCLine reads one newline-delimited frame from r, enforcing
// MaxRPCLine. The reader must have been constructed with a buffer of at
// least MaxRPCLine bytes or oversize detection degrades to a short read.
func ReadRPCLine(r *bufio.Reader) ([]byte, error) {
	line, isPrefix, err := r.ReadLine()
	if isPrefix {
		return nil, ErrRPCLineTooLong
	}
	if err != nil {
		return nil, err
	}
	return line, nil
}

// UnmarshalRPC decodes one frame.
func UnmarshalRPC(line []byte) (RPCEnvelope, error) {
	var e RPCEnvelope
	if err := json.Unmarshal(line, &e); err != nil {
		return RPCEnvelope{}, fmt.Errorf("%w: %v", errRPCBadJSON, err)
	}
	return e, nil
}

// DecodeParams decodes an envelope's params into out.
func (e RPCEnvelope) DecodeParams(out interface{}) error {
	if len(e.Params) == 0 {
		return fmt.Errorf("stratum: rpc %s: missing params", e.Method)
	}
	if err := json.Unmarshal(e.Params, out); err != nil {
		return fmt.Errorf("stratum: rpc bad %s params: %w", e.Method, err)
	}
	return nil
}

// DecodeResult decodes a response's result into out.
func (e RPCEnvelope) DecodeResult(out interface{}) error {
	if len(e.Result) == 0 {
		return errors.New("stratum: rpc response has no result")
	}
	return json.Unmarshal(e.Result, out)
}
