// Command coinhived runs the Coinhive-clone service: a Monero-like chain,
// the mining pool with its 32 WebSocket endpoints, the short-link
// forwarding service and the miner assets — everything the paper's §4
// measurements need a live target for.
//
// Usage:
//
//	coinhived [-listen :8080] [-stratum-addr :3333] [-share-diff 256] [-link-diff 16]
//	coinhived -vardiff 240 -vardiff-min 16 -vardiff-max 65536   # per-session retargeting
//	coinhived -ban-threshold 100 -ban-duration 10m -login-rate 2  # abuse containment
//	coinhived -pprof-addr 127.0.0.1:6060   # opt-in net/http/pprof on its own listener
//	coinhived -archive-dir ./archive -api  # durable event archive + stats API on /api/v1
//	coinhived -p2p-addr :7333 -peer other:7333 -pplns-window 2048  # federated multi-node pool
//	coinhived -smoke        # boot the service, serve one stats request, exit
//
// Endpoints:
//
//	ws://host/proxy0 … /proxy31   pool endpoints (browser dialect)
//	tcp://host:3333               raw-TCP JSON-RPC stratum (native miners)
//	/lib/coinhive.min.js          miner loader
//	/lib/cryptonight.wasm         miner payload
//	/cn/{id}                      short-link interstitial
//	/api/link/create              POST {token,url,hashes}
//	/api/stats                    pool statistics
//	/api/v1/...                   archived-history stats API (-api)
//	/metrics                      instrument exposition (?format=json)
//
// Both fronts drive one miner-session engine, so /metrics and /api/stats
// aggregate across dialects. -stratum-addr "" disables the TCP front.
//
// On SIGINT/SIGTERM the daemon shuts down gracefully: it stops accepting
// connections, completes a 1001 close handshake on every live ws miner
// session, drains the TCP stratum sessions, and flushes the final pool
// stats and metrics to stdout.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // -pprof-addr: profiling endpoints on their own listener
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/archive"
	"repro/internal/blockchain"
	"repro/internal/coinhive"
	"repro/internal/metrics"
	"repro/internal/simclock"
	"repro/internal/statsapi"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return // -h: usage already printed, exit 0
		}
		log.Fatal(err)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("coinhived", flag.ContinueOnError)
	listen := fs.String("listen", ":8080", "listen address")
	stratumAddr := fs.String("stratum-addr", ":3333", `raw-TCP stratum listen address ("" disables)`)
	shareDiff := fs.Uint64("share-diff", 256, "per-share difficulty")
	linkDiff := fs.Uint64("link-diff", 16, "short-link share difficulty")
	minDiff := fs.Uint64("min-difficulty", 1<<22, "network difficulty floor")
	vardiff := fs.Uint64("vardiff", 0, "vardiff goal in accepted shares/min per session (0 disables retargeting)")
	vardiffMin := fs.Uint64("vardiff-min", 0, "vardiff difficulty floor (default: 1)")
	vardiffMax := fs.Uint64("vardiff-max", 0, "vardiff difficulty ceiling (default: share-diff*4096)")
	banThreshold := fs.Uint64("ban-threshold", 0, "banscore that bans an identity (0 disables banning)")
	banDuration := fs.Duration("ban-duration", 10*time.Minute, "how long a ban lasts")
	banByIP := fs.Bool("ban-by-ip", false, "also score and ban by remote IP, not just site key")
	loginRate := fs.Float64("login-rate", 0, "sustained logins/sec per identity when banning is on (0: default 5)")
	submitRate := fs.Float64("submit-rate", 0, "sustained submits/sec per identity when banning is on (0: default 20)")
	archiveDir := fs.String("archive-dir", "", `append-only event archive directory ("" disables archiving to disk)`)
	archiveRetention := fs.Int("archive-retention", 64, "archive segments kept; rotation unlinks the oldest beyond this (0 keeps all)")
	apiOn := fs.Bool("api", false, "serve the stats API on /api/v1 (backed by -archive-dir, or an in-memory ring without it)")
	p2pAddr := fs.String("p2p-addr", "", `federation gossip listener, e.g. :7333 ("" and no -peer disables federation)`)
	pplnsWindow := fs.Int("pplns-window", 0, "federated PPLNS window size in shares (0: the share-chain default; all nodes must agree)")
	var peers []string
	fs.Func("peer", "host:port of a federation peer to link to (repeatable)", func(v string) error {
		if v == "" {
			return fmt.Errorf("empty -peer address")
		}
		peers = append(peers, v)
		return nil
	})
	smoke := fs.Bool("smoke", false, "serve one stats request on an ephemeral port, then exit")
	pprofAddr := fs.String("pprof-addr", "", `serve net/http/pprof on this address ("" disables; keep it loopback/firewalled)`)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *pprofAddr != "" {
		// The profiler gets its own listener and mux, never the service
		// handler: /debug/pprof on the public mux would hand every visitor
		// heap dumps and symbol tables. Opt-in only, for chasing fan-out
		// stalls and goroutine growth on a live box.
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return err
		}
		go func() {
			// DefaultServeMux carries the pprof handlers via the side-
			// effect import; nothing else registers on it in this process.
			if err := http.Serve(pln, nil); err != nil && !errors.Is(err, net.ErrClosed) {
				fmt.Fprintf(out, "coinhived: pprof front died: %v\n", err)
			}
		}()
		defer pln.Close()
		fmt.Fprintf(out, "coinhived: pprof on http://%s/debug/pprof/\n", pln.Addr())
	}

	params := blockchain.SimParams()
	params.MinDifficulty = *minDiff
	chain, err := blockchain.NewChain(params, uint64(simclock.Real().Now().Unix()),
		blockchain.AddressFromString("genesis"))
	if err != nil {
		return err
	}
	// The archive store backs both event durability (-archive-dir) and
	// the stats API (-api); with -api alone an in-memory ring holds
	// recent history. The recorder shares the pool's registry so the
	// pool.archive_* instruments land in /metrics.
	reg := metrics.NewRegistry()
	var store archive.Store
	if *archiveDir != "" {
		fstore, err := archive.OpenFileStore(*archiveDir, archive.FileStoreOptions{
			MaxSegments: *archiveRetention,
		})
		if err != nil {
			return err
		}
		store = fstore
		fmt.Fprintf(out, "coinhived: archiving events to %s (retention %d segments)\n",
			*archiveDir, *archiveRetention)
	} else if *apiOn {
		store = archive.NewMemStore(1 << 16)
		fmt.Fprintln(out, "coinhived: stats API backed by in-memory ring (set -archive-dir for durable history)")
	}
	var recorder *archive.Recorder
	if store != nil {
		recorder = archive.NewRecorder(store, reg, 0)
		// Close drains the queue and fsyncs, so events recorded before
		// shutdown survive into the next -from-archive replay.
		defer recorder.Close()
	}

	// Federation: this pool becomes one node of a gossip-linked cluster.
	// The share-chain and peer layer share the pool's registry, so the
	// p2p.* and pool.sharechain_* instruments land in /metrics.
	var fed *coinhive.Federation
	if *p2pAddr != "" || len(peers) > 0 {
		fed, err = coinhive.NewFederation(coinhive.FederationConfig{
			Variant:  params.PowVariant,
			Window:   *pplnsWindow,
			Registry: reg,
		})
		if err != nil {
			return err
		}
		// Backstop for early-error returns; the graceful path below closes
		// first (Close is idempotent).
		defer fed.Close()
		if *p2pAddr != "" {
			pln, err := net.Listen("tcp", *p2pAddr)
			if err != nil {
				return err
			}
			go fed.Serve(pln)
			fmt.Fprintf(out, "coinhived: federation gossip on %s (pplns window %d)\n", pln.Addr(), *pplnsWindow)
		}
		for _, p := range peers {
			fed.Connect(p)
			fmt.Fprintf(out, "coinhived: federation peer %s (reconnect with backoff)\n", p)
		}
	}

	pool, err := coinhive.NewPool(coinhive.PoolConfig{
		Chain:               chain,
		Wallet:              blockchain.AddressFromString("coinhive-wallet"),
		Clock:               simclock.Real(),
		Metrics:             reg,
		Archive:             recorder,
		Federation:          fed,
		ShareDifficulty:     *shareDiff,
		LinkShareDifficulty: *linkDiff,
		Vardiff: coinhive.VardiffConfig{
			TargetSharesPerMin: float64(*vardiff),
			MinDifficulty:      *vardiffMin,
			MaxDifficulty:      *vardiffMax,
		},
		Ban: coinhive.BanConfig{
			BanThreshold:     float64(*banThreshold),
			BanDuration:      *banDuration,
			BanByRemoteHost:  *banByIP,
			LoginRatePerSec:  *loginRate,
			SubmitRatePerSec: *submitRate,
		},
	})
	if err != nil {
		return err
	}
	if *vardiff > 0 {
		fmt.Fprintf(out, "coinhived: vardiff on — %d shares/min per session\n", *vardiff)
	}
	if *banThreshold > 0 {
		fmt.Fprintf(out, "coinhived: banscore on — threshold %d, bans last %s\n", *banThreshold, *banDuration)
	}
	handler := coinhive.NewServer(pool)
	if *apiOn {
		handler.AttachAPI(statsapi.New(store, reg, statsapi.Options{}))
		fmt.Fprintln(out, "coinhived: stats API on /api/v1")
	}

	if *smoke {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		srv := &http.Server{Handler: handler}
		go srv.Serve(ln)
		defer srv.Close()
		resp, err := http.Get("http://" + ln.Addr().String() + "/api/stats")
		if err != nil {
			return err
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		fmt.Fprintf(out, "coinhived smoke: %d endpoints up, stats: %s", pool.NumEndpoints(), body)
		return nil
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "coinhived: %d pool endpoints on %s (chain difficulty %d)\n",
		pool.NumEndpoints(), ln.Addr(), chain.NextDifficulty())

	// The raw-TCP stratum front shares the ws front's engine, so session
	// accounting and /metrics span both dialects.
	var stratumSrv *coinhive.StratumServer
	if *stratumAddr != "" {
		sln, err := net.Listen("tcp", *stratumAddr)
		if err != nil {
			return err
		}
		stratumSrv = coinhive.NewStratumServer(handler.Engine())
		go func() {
			// Serve only returns on a closed listener (shutdown) or an
			// unrecoverable accept error; the latter deserves a line an
			// operator can see, because the ws front would keep running.
			if err := stratumSrv.Serve(sln); err != nil && !errors.Is(err, net.ErrClosed) {
				fmt.Fprintf(out, "coinhived: stratum front died: %v\n", err)
			}
		}()
		fmt.Fprintf(out, "coinhived: raw-TCP stratum on %s\n", sln.Addr())
	}

	srv := &http.Server{Handler: handler}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		if stratumSrv != nil {
			stratumSrv.Shutdown()
		}
		return err
	case <-ctx.Done():
	}

	// Graceful drain: first complete the close handshake on every
	// hijacked ws miner session (which http.Server.Shutdown cannot
	// reach) and drop the TCP stratum sessions, then stop accepting and
	// finish in-flight plain-HTTP requests, then flush the final numbers
	// so an operator sees what the process achieved.
	fmt.Fprintln(out, "coinhived: signal received, shutting down")
	handler.Shutdown()
	if stratumSrv != nil {
		stratumSrv.Shutdown()
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(out, "coinhived: http shutdown: %v\n", err)
	}
	if !handler.Drained(4 * time.Second) {
		fmt.Fprintln(out, "coinhived: some miner sessions never answered the close handshake")
	}
	if stratumSrv != nil && !stratumSrv.Drained(4*time.Second) {
		fmt.Fprintln(out, "coinhived: some stratum sessions never drained")
	}
	if fed != nil {
		// Both fronts are drained, so no new shares can arrive; Close
		// flushes the emit queue into the share-chain and every peer's
		// send queue onto the wire before dropping the links — shares this
		// node accepted must reach the cluster even across a restart.
		_, entries := fed.Chain().Tip()
		_ = fed.Close()
		fmt.Fprintf(out, "coinhived: federation drained (%d share-chain entries, %d peers at exit)\n",
			entries, fed.Node().PeerCount())
	}

	st := pool.StatsSnapshot()
	fmt.Fprintf(out, "coinhived: final stats: blocks=%d shares_ok=%d shares_bad=%d accounts=%d\n",
		st.BlocksFound, st.SharesOK, st.SharesBad, st.TotalAccounts)
	return pool.Metrics().WriteText(out)
}
