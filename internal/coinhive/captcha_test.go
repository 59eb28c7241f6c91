package coinhive

import (
	"strings"
	"testing"
)

func TestCaptchaLifecycle(t *testing.T) {
	s := newCaptchaService([]byte("secret"))
	c := s.Create("site-1", 64)
	if c.solved() {
		t.Fatal("fresh captcha already solved")
	}
	if err := s.Verify(c.ID, ""); err != errCaptchaPending {
		t.Errorf("pending verify err = %v", err)
	}
	// Partial credit is not enough.
	if got, err := s.credit(c.ID, 32); err != nil || got.solved() {
		t.Errorf("half credit: %+v, %v", got, err)
	}
	got, err := s.credit(c.ID, 32)
	if err != nil || !got.solved() || got.token == "" {
		t.Fatalf("full credit: %+v, %v", got, err)
	}
	tok := got.token
	// First verification succeeds; the second must fail (one-time token).
	if err := s.Verify(c.ID, tok); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if err := s.Verify(c.ID, tok); err != errTokenRedeemed {
		t.Errorf("replayed verify err = %v", err)
	}
}

func TestCaptchaRejectsForgedTokens(t *testing.T) {
	s := newCaptchaService([]byte("secret"))
	c := s.Create("site-1", 8)
	s.credit(c.ID, 8)
	bad := strings.Repeat("00", 32)
	if err := s.Verify(c.ID, bad); err != errTokenInvalid {
		t.Errorf("forged token err = %v", err)
	}
	// A token minted under a different secret must not verify.
	other := newCaptchaService([]byte("other-secret"))
	oc := other.Create("site-1", 8)
	solved, _ := other.credit(oc.ID, 8)
	if err := s.Verify(c.ID, solved.token); err != errTokenInvalid {
		t.Errorf("cross-secret token err = %v", err)
	}
}

func TestCaptchaUnknownID(t *testing.T) {
	s := newCaptchaService([]byte("k"))
	if _, err := s.credit("nope", 1); err != errNoSuchCaptcha {
		t.Errorf("credit err = %v", err)
	}
	if err := s.Verify("nope", "x"); err != errNoSuchCaptcha {
		t.Errorf("verify err = %v", err)
	}
}

func TestCaptchaDefaultPrice(t *testing.T) {
	s := newCaptchaService([]byte("k"))
	c := s.Create("site", 0)
	if c.required != 1024 {
		t.Errorf("default required = %d", c.required)
	}
}

func TestCaptchaTokensDifferPerChallenge(t *testing.T) {
	s := newCaptchaService([]byte("k"))
	a := s.Create("site", 1)
	b := s.Create("site", 1)
	ca, _ := s.credit(a.ID, 1)
	cb, _ := s.credit(b.ID, 1)
	if ca.token == cb.token {
		t.Error("two challenges share a token")
	}
}
