// Package stratum defines the Coinhive-style pool protocol spoken between
// web miners and pool endpoints over WebSockets: JSON envelopes for
// auth/job/submit plus the job-blob obfuscation the paper discovered
// (§4.1: "Coinhive alters the block header contained in the PoW inputs
// before sending them to the users which the web miner reverts deep within
// its WebAssembly ... A simple XOR with a fixed value at a fixed offset").
package stratum

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
)

// Message types exchanged over the socket.
const (
	TypeAuth            = "auth"
	TypeAuthed          = "authed"
	TypeJob             = "job"
	TypeSubmit          = "submit"
	TypeHashAccepted    = "hash_accepted"
	TypeBanned          = "banned"
	TypeError           = "error"
	TypeLinkResolved    = "link_resolved"
	TypeCaptchaVerified = "captcha_verified"
)

// LinkResolved is pushed once a short link's hash goal has been met; it
// reveals the destination the service was withholding.
type LinkResolved struct {
	ID  string `json:"id"`
	URL string `json:"url"`
}

// CaptchaVerified is pushed once a proof-of-work captcha's hash goal has
// been met, carrying the one-time verification token the embedding site's
// backend redeems. Older servers delivered the token by reusing the
// link_resolved push (token in the URL field); clients keep decoding that
// form for one release.
type CaptchaVerified struct {
	ID    string `json:"id"`
	Token string `json:"token"`
}

// Envelope is the outer JSON frame: a type tag plus type-specific params.
type Envelope struct {
	Type   string          `json:"type"`
	Params json.RawMessage `json:"params"`
}

// Auth is sent by the miner immediately after connecting.
type Auth struct {
	SiteKey string `json:"site_key"`
	Type    string `json:"type"` // "anonymous" | "token" | "user"
	User    string `json:"user,omitempty"`
	Goal    int    `json:"goal,omitempty"` // shortlink hash goal, 0 otherwise
}

// Authed acknowledges authentication.
type Authed struct {
	Token  string `json:"token"`
	Hashes int64  `json:"hashes"` // hashes already credited (shortlink resume)
}

// Job carries one PoW input. Blob is the hex-encoded, *obfuscated* hashing
// blob; Target is the compact share target (hex, little-endian uint32).
type Job struct {
	JobID  string `json:"job_id"`
	Blob   string `json:"blob"`
	Target string `json:"target"`
}

// Submit reports a found share.
type Submit struct {
	Version int    `json:"version"`
	JobID   string `json:"job_id"`
	Nonce   string `json:"nonce"`  // 8 hex chars, little-endian
	Result  string `json:"result"` // hex CryptoNight hash
}

// HashAccepted credits accepted work.
type HashAccepted struct {
	Hashes int64 `json:"hashes"`
}

// Error carries a protocol error string.
type Error struct {
	Error string `json:"error"`
}

// Marshal wraps params into an Envelope and encodes it.
func Marshal(msgType string, params interface{}) ([]byte, error) {
	raw, err := json.Marshal(params)
	if err != nil {
		return nil, err
	}
	return json.Marshal(Envelope{Type: msgType, Params: raw})
}

// Unmarshal decodes an envelope.
func Unmarshal(data []byte) (Envelope, error) {
	var e Envelope
	if err := json.Unmarshal(data, &e); err != nil {
		return Envelope{}, fmt.Errorf("stratum: bad envelope: %w", err)
	}
	return e, nil
}

// Decode decodes an envelope's params into out.
func (e Envelope) Decode(out interface{}) error {
	if err := json.Unmarshal(e.Params, out); err != nil {
		return fmt.Errorf("stratum: bad %s params: %w", e.Type, err)
	}
	return nil
}

// Obfuscation constants: an 8-byte key XORed at a fixed offset inside the
// blob (within the prev-hash field, so it garbles the chain pointer for
// anyone using the blob outside the official miner).
const obfuscationOffset = 9

var obfuscationKey = [8]byte{0x63, 0x6E, 0x68, 0x76, 0x2E, 0x63, 0x6F, 0x21}

// ObfuscateBlob XORs the fixed key at the fixed offset, in place. The
// transform is an involution: applying it twice restores the original, so
// the web miner (and our non-web resolver) calls the same function to
// revert it.
//
//lint:hotpath
func ObfuscateBlob(blob []byte) {
	if len(blob) < obfuscationOffset+len(obfuscationKey) {
		return // blob too short to carry the obfuscated window
	}
	for i, k := range obfuscationKey {
		blob[obfuscationOffset+i] ^= k
	}
}

// EncodeBlob hex-encodes a blob for the wire.
func EncodeBlob(blob []byte) string { return hex.EncodeToString(blob) }

// DecodeBlob decodes a wire blob into a single right-sized allocation.
func DecodeBlob(s string) ([]byte, error) {
	return AppendDecodedBlob(make([]byte, 0, len(s)/2), s)
}

// Blob-decoding errors are static so the zero-alloc decode path stays
// allocation-free on rejection too (a flood of malformed blobs must not
// turn into a flood of error-formatting allocations).
var (
	errBlobOddLength = errors.New("stratum: bad blob hex: odd length")
	errBlobBadDigit  = errors.New("stratum: bad blob hex digit")
)

// AppendDecodedBlob decodes a wire blob into dst, reusing its capacity. The
// §4.2 watcher decodes hundreds of blobs per block interval; feeding a
// scratch buffer here keeps its polling loop allocation-free. Hand-rolled
// rather than encoding/hex.Decode because that takes a []byte source — the
// string conversion would reintroduce the per-poll allocation.
//
//lint:hotpath
func AppendDecodedBlob(dst []byte, s string) ([]byte, error) {
	if len(s)%2 != 0 {
		return nil, errBlobOddLength
	}
	for i := 0; i < len(s); i += 2 {
		hi := unhexTable[s[i]]
		lo := unhexTable[s[i+1]]
		// Valid digits decode to 0..15; 0xFF marks anything else, so a
		// single range check covers both characters.
		if hi|lo >= 0x10 {
			return nil, errBlobBadDigit
		}
		dst = append(dst, hi<<4|lo)
	}
	return dst, nil
}

// unhexTable maps hex digits to their values and everything else to 0xFF.
var unhexTable = func() (t [256]byte) {
	for i := range t {
		t[i] = 0xFF
	}
	for c := '0'; c <= '9'; c++ {
		t[c] = byte(c - '0')
	}
	for c := 'a'; c <= 'f'; c++ {
		t[c] = byte(c-'a') + 10
	}
	for c := 'A'; c <= 'F'; c++ {
		t[c] = byte(c-'A') + 10
	}
	return t
}()

// EncodeNonce formats a nonce for Submit.
func EncodeNonce(n uint32) string {
	var b [4]byte
	b[0] = byte(n)
	b[1] = byte(n >> 8)
	b[2] = byte(n >> 16)
	b[3] = byte(n >> 24)
	return hex.EncodeToString(b[:])
}

// Nonce/target parse errors are static so the per-submit decode paths
// stay allocation-free on rejection.
var (
	errBadNonce  = errors.New("stratum: bad nonce")
	errBadTarget = errors.New("stratum: bad target")
)

// DecodeNonce parses a Submit nonce.
//
//lint:hotpath
func DecodeNonce(s string) (uint32, error) {
	return decodeHexLE32(s, errBadNonce)
}

// EncodeTarget formats a compact target.
func EncodeTarget(t uint32) string {
	var b [4]byte
	b[0] = byte(t)
	b[1] = byte(t >> 8)
	b[2] = byte(t >> 16)
	b[3] = byte(t >> 24)
	return hex.EncodeToString(b[:])
}

// DecodeTarget parses a compact target.
//
//lint:hotpath
func DecodeTarget(s string) (uint32, error) {
	return decodeHexLE32(s, errBadTarget)
}

// decodeHexLE32 parses exactly eight hex digits as a little-endian uint32
// through the same lookup table the blob decoder uses — hex.DecodeString
// would allocate a 4-byte slice per call, which DecodeJob pays once per
// pushed job per session.
//
//lint:hotpath
func decodeHexLE32(s string, bad error) (uint32, error) {
	if len(s) != 8 {
		return 0, bad
	}
	var v uint32
	for i := 0; i < 8; i += 2 {
		hi := unhexTable[s[i]]
		lo := unhexTable[s[i+1]]
		if hi|lo >= 0x10 {
			return 0, bad
		}
		v |= uint32(hi<<4|lo) << (4 * uint(i))
	}
	return v, nil
}
