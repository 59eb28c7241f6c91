package coinhive

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
)

// The paper (§4): "Apart from offering this API, Coinhive offers e.g., a
// Captcha service and a short link forwarding service". The captcha flow is
// proof-of-work-as-CAPTCHA: a site embeds a widget that mines a configured
// number of hashes; the service then issues a one-time verification token
// the site's backend checks server-to-server — replacing "click the traffic
// lights" with CPU burn.

// Captcha is one pending or solved challenge.
type Captcha struct {
	ID       string
	siteKey  string
	required uint64
	done     uint64
	// token is the one-time proof issued on completion ("" until solved).
	token string
	// redeemed marks a token already consumed by a verify call.
	redeemed bool
}

// solved reports whether the hash goal has been met.
func (c Captcha) solved() bool { return c.done >= c.required }

// Captcha errors.
var (
	errNoSuchCaptcha  = errors.New("coinhive: no such captcha")
	errCaptchaPending = errors.New("coinhive: captcha not yet solved")
	errTokenRedeemed  = errors.New("coinhive: captcha token already redeemed")
	errTokenInvalid   = errors.New("coinhive: captcha token invalid")
)

// CaptchaService issues and verifies proof-of-work captchas. Tokens are
// HMAC-bound to the service secret, so verification does not need a lookup
// for authenticity — only for single-use enforcement.
type CaptchaService struct {
	mu     sync.Mutex
	secret []byte
	seq    uint64
	byID   map[string]*Captcha
}

// newCaptchaService creates a service with the given HMAC secret.
func newCaptchaService(secret []byte) *CaptchaService {
	return &CaptchaService{
		secret: append([]byte(nil), secret...),
		byID:   map[string]*Captcha{},
	}
}

// Create registers a challenge of requiredHashes for a site key.
func (s *CaptchaService) Create(siteKey string, requiredHashes uint64) Captcha {
	s.mu.Lock()
	defer s.mu.Unlock()
	if requiredHashes == 0 {
		requiredHashes = 1024 // the widget's default hash price
	}
	s.seq++
	c := &Captcha{
		ID:       fmt.Sprintf("cap-%d", s.seq),
		siteKey:  siteKey,
		required: requiredHashes,
	}
	s.byID[c.ID] = c
	return *c
}

// credit adds accepted hashes toward a challenge; on completion it mints
// the one-time token. The pool calls this from its share path, exactly as
// it credits short links.
func (s *CaptchaService) credit(id string, hashes uint64) (Captcha, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.byID[id]
	if !ok {
		return Captcha{}, errNoSuchCaptcha
	}
	c.done += hashes
	if c.solved() && c.token == "" {
		c.token = s.mint(c.ID, c.siteKey)
	}
	return *c, nil
}

// Verify checks a (captcha ID, token) pair exactly once — the
// server-to-server call a customer's backend makes before accepting a
// form submission.
func (s *CaptchaService) Verify(id, token string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.byID[id]
	if !ok {
		return errNoSuchCaptcha
	}
	if !c.solved() {
		return errCaptchaPending
	}
	if !hmac.Equal([]byte(token), []byte(s.mint(c.ID, c.siteKey))) {
		return errTokenInvalid
	}
	if c.redeemed {
		return errTokenRedeemed
	}
	c.redeemed = true
	return nil
}

func (s *CaptchaService) mint(id, siteKey string) string {
	m := hmac.New(sha256.New, s.secret)
	m.Write([]byte("captcha:" + id + ":" + siteKey))
	return hex.EncodeToString(m.Sum(nil))
}
