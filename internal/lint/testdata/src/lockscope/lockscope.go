// Fixture for the lockscope analyzer: each `// want` comment is a regexp
// the self-test expects a finding on that line to match; lines without one
// must stay silent.
package lockscope

import (
	"net"
	"sync"
	"time"

	"repro/internal/cryptonight"
)

type guarded struct {
	mu sync.Mutex
	rw sync.RWMutex
	n  int
}

// hashUnderLock is the PR 1 bug shape: CryptoNight verification inside the
// lock every tip reader contends on.
func (g *guarded) hashUnderLock(blob []byte) [32]byte {
	g.mu.Lock()
	defer g.mu.Unlock()
	return cryptonight.Sum(blob, cryptonight.Test) // want "cryptonight.Sum .* while g.mu is locked"
}

// pairUnderRead is the same bug with a paired verify: two hashes under
// a read lock the chain's writers wait on.
func (g *guarded) pairUnderRead(h, o *cryptonight.Hasher, a, b []byte) {
	g.rw.RLock()
	h.Sum2(o, a, b) // want "Hasher.Sum2 while g.rw is locked"
	g.rw.RUnlock()
}

// sleepUnderRead parks every writer behind a sleeping reader.
func (g *guarded) sleepUnderRead() {
	g.rw.RLock()
	time.Sleep(time.Millisecond) // want "time.Sleep while g.rw is locked"
	g.rw.RUnlock()
}

// leakOnEarlyReturn forgets the unlock on one path.
func (g *guarded) leakOnEarlyReturn(cond bool) {
	g.mu.Lock()
	if cond {
		return // want "return while g.mu is locked"
	}
	g.mu.Unlock()
}

// leakAlways never releases at all.
func (g *guarded) leakAlways() {
	g.mu.Lock() // want "is not released on every path"
	g.n++
}

// sendUnderLock blocks on a channel with the lock held.
func (g *guarded) sendUnderLock(ch chan int) {
	g.mu.Lock()
	ch <- g.n // want "channel send while g.mu is locked"
	g.mu.Unlock()
}

// writeUnderLock does socket I/O with the lock held.
func (g *guarded) writeUnderLock(nc net.Conn, buf []byte) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	_, err := nc.Write(buf) // want "net.Conn.Write .* while g.mu is locked"
	return err
}

// verifyOutsideLock is the approved shape: snapshot under the lock, hash
// outside it. No findings.
func (g *guarded) verifyOutsideLock(blob []byte) [32]byte {
	g.mu.Lock()
	n := g.n
	g.mu.Unlock()
	_ = n
	return cryptonight.Sum(blob, cryptonight.Test)
}

// branchesBalanced releases on every path, including the early return,
// without a defer. No findings.
func (g *guarded) branchesBalanced(cond bool) int {
	g.mu.Lock()
	if cond {
		g.mu.Unlock()
		return 0
	}
	n := g.n
	g.mu.Unlock()
	return n
}

// waived demonstrates that an explicit, reasoned waiver suppresses the
// finding the line would otherwise raise.
func (g *guarded) waived() {
	g.mu.Lock()
	defer g.mu.Unlock()
	//lint:ignore lockscope fixture proves reasoned waivers suppress findings
	time.Sleep(time.Nanosecond)
}
