package main

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRunSmoke(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), []string{"-smoke"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "32 endpoints up") || !strings.Contains(got, "SharesOK") {
		t.Errorf("smoke output = %q", got)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), []string{"-definitely-not-a-flag"}, &out); err == nil {
		t.Error("bad flag accepted")
	}
}

// TestRunRejectsVardiffFloorAboveCeiling covers both ways the flags can
// put the vardiff floor above its ceiling: set explicitly, or a floor
// above the default ceiling of share-diff × 4096.
func TestRunRejectsVardiffFloorAboveCeiling(t *testing.T) {
	for _, args := range [][]string{
		{"-smoke", "-vardiff", "240", "-vardiff-min", "64", "-vardiff-max", "16"},
		{"-smoke", "-share-diff", "4", "-vardiff", "240", "-vardiff-min", "16385"},
	} {
		var out strings.Builder
		err := run(context.Background(), args, &out)
		if err == nil || !strings.Contains(err.Error(), "vardiff floor") {
			t.Errorf("run(%q) = %v, want the vardiff floor refused", args, err)
		}
	}
}

// TestGracefulShutdown drives the real serve path: boot on an ephemeral
// port, cancel the context (what SIGINT/SIGTERM do via NotifyContext),
// and require a clean exit that flushed the final stats.
func TestGracefulShutdown(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var out syncBuilder
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-listen", "127.0.0.1:0", "-stratum-addr", "127.0.0.1:0"}, &out)
	}()

	// Wait until the daemon reports it is listening, then signal.
	deadline := time.After(5 * time.Second)
	for !strings.Contains(out.String(), "pool endpoints on") {
		select {
		case <-deadline:
			t.Fatalf("daemon never came up; output: %q", out.String())
		case err := <-done:
			t.Fatalf("daemon exited early: %v; output: %q", err, out.String())
		case <-time.After(10 * time.Millisecond):
		}
	}
	cancel()

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down")
	}
	got := out.String()
	for _, want := range []string{"raw-TCP stratum on", "shutting down", "final stats", "pool.shares_ok counter"} {
		if !strings.Contains(got, want) {
			t.Errorf("shutdown output missing %q:\n%s", want, got)
		}
	}
}

// syncBuilder is a strings.Builder safe for the writer/poller pair above.
type syncBuilder struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuilder) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuilder) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}
