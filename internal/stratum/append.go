// Zero-allocation wire encoders for the messages on the steady-state
// serve path: job pushes (both dialects), submit acks and keepalive acks.
// Each appends the exact bytes the generic json.Marshal path produces —
// pinned bit-for-bit by tests — without the envelope/params double
// marshal, so the fan-out can encode one job once per difficulty and
// the per-submit reply path stays allocation-free.
//
// The hand-rolled encoders skip JSON string escaping: every field they
// write is pool-minted (job IDs are digits, dashes and a "d", blobs and
// targets are hex, statuses are fixed words), none of which json.Marshal
// would escape either. Anything caller-controlled (the RPC id) goes
// through RPCIDVerbatim first; callers fall back to the marshal path when
// it declines.
package stratum

import (
	"encoding/json"
	"strconv"
)

// AppendJobNotifyLine appends the TCP dialect's unsolicited job push —
// the line AppendRPCNotify(dst, "job", j) builds — newline included.
//
//lint:hotpath
func AppendJobNotifyLine(dst []byte, j Job) []byte {
	dst = append(dst, `{"jsonrpc":"2.0","method":"job","params":`...)
	dst = appendJobJSON(dst, j)
	dst = append(dst, '}')
	return append(dst, '\n')
}

// AppendJobEnvelope appends the ws dialect's job envelope — the bytes
// Marshal(TypeJob, j) builds (no trailing newline; the ws frame is the
// delimiter).
//
//lint:hotpath
func AppendJobEnvelope(dst []byte, j Job) []byte {
	dst = append(dst, `{"type":"job","params":`...)
	dst = appendJobJSON(dst, j)
	return append(dst, '}')
}

// appendJobJSON appends the Job object itself, field order matching the
// struct tags json.Marshal walks.
//
//lint:hotpath
func appendJobJSON(dst []byte, j Job) []byte {
	dst = append(dst, `{"job_id":"`...)
	dst = append(dst, j.JobID...)
	dst = append(dst, `","blob":"`...)
	dst = append(dst, j.Blob...)
	dst = append(dst, `","target":"`...)
	dst = append(dst, j.Target...)
	return append(dst, `"}`...)
}

// AppendSubmitOKLine appends the TCP dialect's accepted-share response —
// AppendRPCResult(dst, id, SubmitResult{Status: "OK", Hashes: hashes}) —
// echoing id verbatim. The caller must have cleared id through
// RPCIDVerbatim.
//
//lint:hotpath
func AppendSubmitOKLine(dst []byte, id json.RawMessage, hashes int64) []byte {
	dst = append(dst, `{"id":`...)
	dst = appendEchoedID(dst, id)
	dst = append(dst, `,"jsonrpc":"2.0","result":{"status":"OK","hashes":`...)
	dst = strconv.AppendInt(dst, hashes, 10)
	dst = append(dst, `}}`...)
	return append(dst, '\n')
}

// AppendKeepaliveOKLine appends the TCP dialect's keepalive response —
// AppendRPCResult(dst, id, KeepaliveResult{Status: "KEEPALIVED"}). The
// caller must have cleared id through RPCIDVerbatim.
//
//lint:hotpath
func AppendKeepaliveOKLine(dst []byte, id json.RawMessage) []byte {
	dst = append(dst, `{"id":`...)
	dst = appendEchoedID(dst, id)
	dst = append(dst, `,"jsonrpc":"2.0","result":{"status":"KEEPALIVED"}}`...)
	return append(dst, '\n')
}

// AppendHashAcceptedEnvelope appends the ws dialect's accepted-share
// envelope — Marshal(TypeHashAccepted, HashAccepted{Hashes: hashes}).
//
//lint:hotpath
func AppendHashAcceptedEnvelope(dst []byte, hashes int64) []byte {
	dst = append(dst, `{"type":"hash_accepted","params":{"hashes":`...)
	dst = strconv.AppendInt(dst, hashes, 10)
	return append(dst, `}}`...)
}

// appendEchoedID appends the response id with normalizeID semantics:
// empty or invalid ids become JSON null, anything else is echoed as-is.
//
//lint:hotpath
func appendEchoedID(dst []byte, id json.RawMessage) []byte {
	if len(id) == 0 || !json.Valid(id) {
		return append(dst, `null`...)
	}
	return append(dst, id...)
}

// RPCIDVerbatim reports whether echoing id byte-for-byte matches what the
// json.Marshal response path would emit. Marshal compacts RawMessage
// (dropping whitespace outside strings) and HTML-escapes <, >, & and the
// U+2028/U+2029 pair inside strings; an id containing none of those — in
// practice every numeric or plain-token id a real miner sends — round-
// trips verbatim. Callers take the marshal path when this declines, so
// the check only needs to be sound, not tight.
//
//lint:hotpath
func RPCIDVerbatim(id json.RawMessage) bool {
	for i := 0; i < len(id); i++ {
		c := id[i]
		if c <= ' ' || c >= 0x80 || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}
