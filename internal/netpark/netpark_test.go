package netpark

import (
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/memconn"
)

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestParkWakesOnMemconnData(t *testing.T) {
	p := New(0)
	defer p.Close()
	client, server := memconn.Pipe()
	var ready, timeout atomic.Int32
	if !p.Park(server, time.Now().Add(time.Minute),
		func() { ready.Add(1) }, func() { timeout.Add(1) }) {
		t.Fatal("memconn park refused")
	}
	if p.Parked() != 1 {
		t.Fatalf("Parked() = %d, want 1", p.Parked())
	}
	if _, err := client.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "onReady", func() bool { return ready.Load() == 1 })
	if timeout.Load() != 0 {
		t.Fatal("timeout fired alongside wake")
	}
	if p.Parked() != 0 {
		t.Fatalf("Parked() = %d after wake, want 0", p.Parked())
	}
}

func TestParkTimesOut(t *testing.T) {
	p := New(0)
	defer p.Close()
	_, server := memconn.Pipe()
	var ready, timeout atomic.Int32
	if !p.Park(server, time.Now().Add(50*time.Millisecond),
		func() { ready.Add(1) }, func() { timeout.Add(1) }) {
		t.Fatal("park refused")
	}
	waitFor(t, "onTimeout", func() bool { return timeout.Load() == 1 })
	if ready.Load() != 0 {
		t.Fatal("onReady fired alongside timeout")
	}
}

func TestParkWakesOnPeerClose(t *testing.T) {
	p := New(0)
	defer p.Close()
	client, server := memconn.Pipe()
	var ready atomic.Int32
	if !p.Park(server, time.Now().Add(time.Minute), func() { ready.Add(1) }, func() {}) {
		t.Fatal("park refused")
	}
	client.Close()
	waitFor(t, "onReady after close", func() bool { return ready.Load() == 1 })
}

func TestParkImmediatelyReadable(t *testing.T) {
	p := New(0)
	defer p.Close()
	client, server := memconn.Pipe()
	if _, err := client.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	var ready atomic.Int32
	if !p.Park(server, time.Now().Add(time.Minute), func() { ready.Add(1) }, func() {}) {
		t.Fatal("park refused")
	}
	waitFor(t, "onReady for buffered data", func() bool { return ready.Load() == 1 })
}

func TestParkTCP(t *testing.T) {
	p := New(0)
	defer p.Close()
	client, server := tcpPair(t)

	var ready atomic.Int32
	ok := p.Park(server, time.Now().Add(time.Minute), func() { ready.Add(1) }, func() {})
	if runtime.GOOS != "linux" {
		if ok {
			t.Fatal("TCP park should refuse without a poller")
		}
		return
	}
	if !ok {
		t.Fatal("TCP park refused on linux")
	}
	if _, err := client.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "epoll wake", func() bool { return ready.Load() == 1 })

	// Re-park the same fd (oneshot re-arm path) and wake it again.
	buf := make([]byte, 16)
	if _, err := server.Read(buf); err != nil {
		t.Fatal(err)
	}
	if !p.Park(server, time.Now().Add(time.Minute), func() { ready.Add(1) }, func() {}) {
		t.Fatal("re-park refused")
	}
	if _, err := client.Write([]byte("pong")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "second epoll wake", func() bool { return ready.Load() == 2 })
}

// TestParkStorm parks many conns and wakes them all at once — the shape a
// tip-change fan-out produces — checking claims stay exactly-once.
func TestParkStorm(t *testing.T) {
	p := New(0)
	defer p.Close()
	const n = 500
	var ready atomic.Int32
	var timeouts atomic.Int32
	clients := make([]*memconn.Conn, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		client, server := memconn.Pipe()
		clients[i] = client
		wg.Add(1)
		if !p.Park(server, time.Now().Add(time.Minute),
			func() { ready.Add(1); wg.Done() },
			func() { timeouts.Add(1); wg.Done() }) {
			t.Fatal("park refused")
		}
	}
	for _, c := range clients {
		if _, err := c.Write([]byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if ready.Load() != n || timeouts.Load() != 0 {
		t.Fatalf("ready=%d timeouts=%d, want %d/0", ready.Load(), timeouts.Load(), n)
	}
}

// TestGoroutineDiet pins the core claim: parked connections hold no
// goroutine. 1000 parked memconn sessions must not grow the goroutine
// count by more than the parker's own fixed overhead.
func TestGoroutineDiet(t *testing.T) {
	before := runtime.NumGoroutine()
	p := New(0)
	defer p.Close()
	const n = 1000
	for i := 0; i < n; i++ {
		_, server := memconn.Pipe()
		if !p.Park(server, time.Now().Add(time.Minute), func() {}, func() {}) {
			t.Fatal("park refused")
		}
	}
	if got := p.Parked(); got != n {
		t.Fatalf("Parked() = %d, want %d", got, n)
	}
	after := runtime.NumGoroutine()
	if grew := after - before; grew > 16 {
		t.Fatalf("parking %d conns grew goroutines by %d — parked conns must not hold goroutines", n, grew)
	}
}

// TestParkMassExpiry gives 1,000 memconn entries one shared deadline:
// each must time out exactly once, none may wake, and a write after the
// expiry must find every entry already claimed.
func TestParkMassExpiry(t *testing.T) {
	p := New(0)
	defer p.Close()
	const n = 1000
	var ready atomic.Int32
	var timeouts [n]atomic.Int32
	clients := make([]*memconn.Conn, n)
	deadline := time.Now().Add(50 * time.Millisecond)
	for i := range clients {
		i := i
		client, server := memconn.Pipe()
		clients[i] = client
		if !p.Park(server, deadline, func() { ready.Add(1) }, func() { timeouts[i].Add(1) }) {
			t.Fatal("park refused")
		}
	}
	waitFor(t, "every entry to expire", func() bool { return p.Parked() == 0 })
	for _, c := range clients {
		if _, err := c.Write([]byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(20 * time.Millisecond)
	for i := range timeouts {
		if got := timeouts[i].Load(); got != 1 {
			t.Fatalf("entry %d timed out %d times, want 1", i, got)
		}
	}
	if got := ready.Load(); got != 0 {
		t.Fatalf("onReady fired %d times for expired entries, want 0", got)
	}
}

// TestParkerCloseStopsMemconnDeadline closes a parker with a memconn
// entry parked: its deadline passes afterwards and nothing fires.
func TestParkerCloseStopsMemconnDeadline(t *testing.T) {
	p := New(0)
	_, server := memconn.Pipe()
	var fired atomic.Int32
	if !p.Park(server, time.Now().Add(20*time.Millisecond), func() { fired.Add(1) }, func() { fired.Add(1) }) {
		t.Fatal("park refused")
	}
	p.Close()
	time.Sleep(100 * time.Millisecond)
	if n := fired.Load(); n != 0 {
		t.Fatalf("entry parked at Close fired %d callbacks after its deadline, want 0", n)
	}
}

// TestParkerStartsOnlyThePollerGoroutine pins New's footprint: at most
// one goroutine, the epoll wait loop. Wakes run on the goroutine that saw
// readiness and deadlines on runtime timers, so nothing else is started.
func TestParkerStartsOnlyThePollerGoroutine(t *testing.T) {
	before := parkerGoroutines()
	p := New(0)
	defer p.Close()
	if grew := parkerGoroutines() - before; grew > 1 {
		t.Fatalf("New started %d goroutines, want at most 1 (the poller loop)", grew)
	}
}

// parkerGoroutines counts live goroutines started by netpark itself.
func parkerGoroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return strings.Count(string(buf), "created by repro/internal/netpark.")
}

// tcpPair returns both ends of a loopback TCP connection.
func tcpPair(t *testing.T) (client, server net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	client, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	server = <-accepted
	t.Cleanup(func() { client.Close(); server.Close() })
	return client, server
}

// pollerLoopStates returns the scheduler state ("IO wait", "syscall",
// "running", …) of every goroutine running (*poller).loop.
func pollerLoopStates() []string {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	var states []string
	for _, g := range strings.Split(string(buf), "\n\n") {
		if !strings.Contains(g, "netpark.(*poller).loop") {
			continue
		}
		open, end := strings.IndexByte(g, '['), strings.IndexByte(g, ']')
		if open < 0 || end < open {
			continue
		}
		state, _, _ := strings.Cut(g[open+1:end], ",") // drop ", N minutes"
		states = append(states, state)
	}
	return states
}

// TestPollerWaitsInNetpoller pins where the epoll wait goroutine sleeps:
// parked in the runtime netpoller ([IO wait]), which holds no P, not in a
// blocking epoll_wait ([syscall]), which holds one until sysmon retakes it.
func TestPollerWaitsInNetpoller(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("the epoll poller is linux-only")
	}
	p := New(0)
	defer p.Close()
	_, server := tcpPair(t)
	if !p.Park(server, time.Now().Add(time.Minute), func() {}, func() {}) {
		t.Fatal("TCP park refused on linux")
	}
	var states []string
	waitFor(t, "the poller loop to sleep", func() bool {
		states = pollerLoopStates()
		if len(states) == 0 {
			return false
		}
		for _, s := range states {
			if s == "running" || s == "runnable" {
				return false
			}
		}
		return true
	})
	for _, s := range states {
		if s != "IO wait" {
			t.Fatalf("poller loop goroutines sleep in %q, want all in [IO wait]", states)
		}
	}
}

// TestParkerCloseThenReuse closes a parker with a TCP conn parked, waits
// for its poller loop to exit, and parks on a fresh parker, whose epoll
// fd likely reuses the closed one's number. The new park must wake on a
// write, and the conn parked at Close must never fire.
func TestParkerCloseThenReuse(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("the epoll poller is linux-only")
	}
	var stale, ready atomic.Int32
	p1 := New(0)
	client1, server1 := tcpPair(t)
	if !p1.Park(server1, time.Now().Add(time.Minute), func() { stale.Add(1) }, func() { stale.Add(1) }) {
		t.Fatal("TCP park refused on linux")
	}
	p1.Close()
	waitFor(t, "the closed poller's loop to exit", func() bool { return len(pollerLoopStates()) == 0 })

	p2 := New(0)
	defer p2.Close()
	client2, server2 := tcpPair(t)
	if !p2.Park(server2, time.Now().Add(time.Minute), func() { ready.Add(1) }, func() {}) {
		t.Fatal("TCP park refused on the fresh parker")
	}
	if _, err := client1.Write([]byte("late")); err != nil {
		t.Fatal(err)
	}
	if _, err := client2.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "wake on the fresh parker", func() bool { return ready.Load() == 1 })
	time.Sleep(20 * time.Millisecond)
	if n := stale.Load(); n != 0 {
		t.Fatalf("conn parked on the closed parker fired %d callbacks, want 0", n)
	}
}
