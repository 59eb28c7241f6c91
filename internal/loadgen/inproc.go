// Package loadgen boots a full coinhive service in-process on ephemeral
// loopback ports and an in-memory listener: the target the benchmark
// module's pool workloads (share-accept, share-federated, tip-fanout)
// drive.
package loadgen

import (
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/archive"
	"repro/internal/blockchain"
	"repro/internal/coinhive"
	"repro/internal/memconn"
	"repro/internal/metrics"
	"repro/internal/simclock"
	"repro/internal/statsapi"
)

// InprocTarget is a full coinhive service on ephemeral loopback ports,
// the self-contained target of the benchmark workloads. Clients still
// cross real TCP sockets and the real protocol stacks; "in-process" only
// means nobody has to start a daemon first. Both fronts — the ws
// endpoints and the raw-TCP stratum listener — drive one session engine,
// so accounting spans the dialects.
type InprocTarget struct {
	URL     string // ws://127.0.0.1:port
	TCPAddr string // host:port of the raw-TCP stratum listener
	Pool    *coinhive.Pool
	Stratum *coinhive.StratumServer
	Fed     *coinhive.Federation // non-nil for federated targets
	handler *coinhive.Server
	srv     *http.Server
	sln     net.Listener
	mem     *memconn.Listener
	rec     *archive.Recorder
	tipSeq  uint32
}

// DialMem connects a stratum session over an in-memory conn — the same
// engine and codec stack as TCPAddr, zero file descriptors, so a caller
// can park thousands of sessions without touching the fd table.
func (t *InprocTarget) DialMem() (net.Conn, error) { return t.mem.Dial() }

// InprocOptions configures StartInprocOpts.
type InprocOptions struct {
	ShareDifficulty uint64
	Registry        *metrics.Registry
	// Archive, when set, hangs an event recorder off the pool and mounts
	// the stats API on /api/v1 over the same store. Close drains the
	// recorder and closes the store.
	Archive archive.Store
	// Federation, when set, makes this target one node of a federated
	// cluster: accepted shares feed its share-chain and gossip to the
	// peers the caller links with Fed.AddPeer. Close tears the peer
	// layer down gracefully after the miner fronts drain.
	Federation *coinhive.Federation
}

// StartInproc boots a service at the given share difficulty whose
// network difficulty floor is high enough that no share ever wins a
// block mid-run.
func StartInproc(shareDiff uint64, reg *metrics.Registry) (*InprocTarget, error) {
	return StartInprocOpts(InprocOptions{ShareDifficulty: shareDiff, Registry: reg})
}

// StartInprocOpts is StartInproc with an archive or a federation.
func StartInprocOpts(opts InprocOptions) (*InprocTarget, error) {
	params := blockchain.SimParams()
	params.MinDifficulty = 1 << 40
	chain, err := blockchain.NewChain(params, uint64(time.Now().Unix()),
		blockchain.AddressFromString("loadgen-genesis"))
	if err != nil {
		return nil, err
	}
	var rec *archive.Recorder
	if opts.Archive != nil {
		rec = archive.NewRecorder(opts.Archive, opts.Registry, 0)
	}
	pool, err := coinhive.NewPool(coinhive.PoolConfig{
		Chain:           chain,
		Wallet:          blockchain.AddressFromString("loadgen-wallet"),
		Clock:           simclock.Real(),
		ShareDifficulty: opts.ShareDifficulty,
		Metrics:         opts.Registry,
		Archive:         rec,
		Federation:      opts.Federation,
	})
	if err != nil {
		if rec != nil {
			rec.Close()
		}
		return nil, err
	}
	handler := coinhive.NewServer(pool)
	if opts.Archive != nil {
		handler.AttachAPI(statsapi.New(opts.Archive, opts.Registry, statsapi.Options{}))
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		if rec != nil {
			rec.Close()
		}
		return nil, err
	}
	// Both listeners are claimed before the stratum server exists: its
	// constructor spawns the push loop and subscribes to chain tip
	// events, so a listen failure after it would leak both.
	sln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		ln.Close()
		if rec != nil {
			rec.Close()
		}
		return nil, err
	}
	srv := &http.Server{Handler: handler}
	go srv.Serve(ln)
	stratumSrv := coinhive.NewStratumServer(handler.Engine())
	go stratumSrv.Serve(sln)
	// The same stratum front also accepts fd-less in-memory sessions
	// (DialMem) — one engine, one accounting plane, two transports.
	mem := memconn.Listen()
	go stratumSrv.Serve(mem)

	return &InprocTarget{
		URL:     "ws://" + ln.Addr().String(),
		TCPAddr: sln.Addr().String(),
		Pool:    pool,
		Stratum: stratumSrv,
		Fed:     opts.Federation,
		handler: handler,
		srv:     srv,
		sln:     sln,
		mem:     mem,
		rec:     rec,
	}, nil
}

// AdvanceTip lands one block, moving the chain tip: in-flight jobs go
// stale and the stratum front pushes fresh work to every TCP session.
func (t *InprocTarget) AdvanceTip() {
	n := atomic.AddUint32(&t.tipSeq, 1)
	_, _ = t.Pool.ProduceWinningBlock(uint64(time.Now().Unix()), int(n), n)
}

// Close drains both fronts and stops the listeners. Stratum.Shutdown
// only closes the listener its last Serve registered, so the other two
// accept loops are released explicitly.
func (t *InprocTarget) Close() {
	t.handler.Shutdown()
	t.Stratum.Shutdown()
	_ = t.sln.Close()
	_ = t.mem.Close()
	t.srv.Close()
	if t.Fed != nil {
		// After the miner fronts stop, no new shares can arrive; Close
		// drains the emit queue and flushes every peer's send queue before
		// dropping the links — gossip already accepted must still go out.
		_ = t.Fed.Close()
	}
	if t.rec != nil {
		// After the fronts are down no new events arrive; Close drains
		// the recorder queue and closes the archive store.
		t.rec.Close()
	}
}
