package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"repro/internal/archive"
	"repro/internal/blockchain"
	"repro/internal/browser"
	"repro/internal/coinhive"
	"repro/internal/crawler"
	"repro/internal/cryptonight"
	"repro/internal/fingerprint"
	"repro/internal/htmlx"
	"repro/internal/memconn"
	"repro/internal/netpark"
	"repro/internal/nocoin"
	"repro/internal/p2p"
	"repro/internal/session"
	"repro/internal/sharechain"
	"repro/internal/simclock"
	"repro/internal/statsapi"
	"repro/internal/stratum"
	"repro/internal/wasm"
	"repro/internal/webgen"
	"repro/internal/ws"
)

// layerMetric names one per-layer metric; BENCHMARK.json's per_layer
// list must equal this one (bench_test.go holds them together).
type layerMetric struct{ name, unit string }

// The first block is measured by direct calls into the layer's public
// functions; the second is what a workload's own targets saw. Both are
// filled in by instance.layers and read zero on a workload that never
// reaches the layer. The last block is the harness's own.
var layerMetrics = []layerMetric{
	{"cryptonight.verify_us", "us"},
	{"ws.frame_open_us", "us"},
	{"ws.frame_seal_us", "us"},
	{"stratum.unmarshal_us", "us"},
	{"stratum.append_ok_us", "us"},
	{"stratum.rpc_parse_us", "us"},
	{"stratum.append_submit_ok_us", "us"},
	{"engine.step_us", "us"},
	{"pool.submit_us", "us"},
	{"pool.submit_minus_verify_us", "us"},
	{"archive.record_us", "us"},
	{"archive.append_us", "us"},
	{"archive.fsync_ms", "ms"},
	{"statsapi.query_us", "us"},
	{"p2p.encode_us", "us"},
	{"p2p.decode_us", "us"},
	{"sharechain.insert_append_us", "us"},
	{"sharechain.insert_mid_us", "us"},
	{"sharechain.payout_vector_us", "us"},
	{"netpark.wake_us", "us"},
	{"memconn.roundtrip_us", "us"},
	{"webgen.render_us", "us"},
	{"htmlx.extract_us", "us"},
	{"nocoin.match_us", "us"},
	{"browser.visit_us", "us"},
	{"wasm.decode_us", "us"},
	{"wasm.features_us", "us"},
	{"fingerprint.classify_us", "us"},

	{"e2e.latency_p99_us", "us"},
	{"e2e.latency_max_us", "us"},
	{"archive.appends", "count"},
	{"archive.fsyncs", "count"},
	{"archive.dropped", "count"},
	{"archive.replay_ms", "ms"},
	{"federation.drops", "count"},
	{"p2p.gossip_p50_ms", "ms"},
	{"p2p.gossip_p99_ms", "ms"},
	{"p2p.sync_rounds", "count"},
	{"p2p.shares_duplicate", "count"},
	{"sharechain.reorgs", "count"},
	{"sharechain.window_rebuilds", "count"},
	{"sharechain.len", "count"},
	{"jobwire.encodes_per_tip", "count"},
	{"stratumtcp.push_p50_us", "us"},
	{"stratumtcp.push_p99_us", "us"},
	{"stratumtcp.push_queue_peak", "count"},
	{"stratumtcp.push_bytes_per_push", "B"},
	{"netpark.parked", "count"},
	{"pool.tip_to_first_push_us", "us"},

	{"runtime.gc_pause_ms", "ms"},
	{"runtime.gc_cycles", "count"},
	{"runtime.goroutines_peak", "count"},
	{"runtime.heap_mb", "MB"},
	{"runtime.peak_rss_mb", "MB"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"gen.loop_overhead_us", "us"},
	{"box.speed", "ratio"},
	{"e2e.raw_throughput_per_s", "1/s"},
	{"e2e.raw_latency_p50_us", "us"},
	{"e2e.raw_cpu_ms_per_kop", "ms"},
	{"trace.throughput_per_s", "1/s"},
	{"trace.latency_p50_us", "us"},
	{"trace.residual_us", "us"},
	{"trace.spans", "count"},
}

// timeCalls returns the median cost of one call of fn in µs, over n
// samples of batch back-to-back calls each (batching keeps the clock
// read out of sub-microsecond functions). fn receives a running index.
func timeCalls(n, batch int, fn func(i int)) float64 {
	samples := make([]float64, n)
	i := 0
	for s := range samples {
		t0 := time.Now()
		for b := 0; b < batch; b++ {
			fn(i)
			i++
		}
		samples[s] = float64(time.Since(t0)) / 1e3 / float64(batch)
	}
	return pct(samples, 0.5)
}

// The direct-call measurements below time each layer's public functions
// fed the kind of input the workloads feed them, generated from the
// run's seed. A workload's traced run measures the layers that workload
// reaches and no others.

// layerSamples is how many samples a direct-call median is taken over.
func layerSamples(o options) int { return o.scaled(256, 16) }

// submitFixture is a pool booted the way the in-process targets boot
// theirs, one logged-in engine session on it, the job that session was
// served and a deck of ground shares for it.
type submitFixture struct {
	pool *coinhive.Pool
	ms   *coinhive.MinerSession
	key  string
	job  session.Job
	deck *deck
	n    int
}

func newSubmitFixture(o options) (*submitFixture, error) {
	params := blockchain.SimParams()
	params.MinDifficulty = 1 << 40 // no replayed share may win a block
	chain, err := blockchain.NewChain(params, uint64(time.Now().Unix()), blockchain.AddressFromString("bench-genesis"))
	if err != nil {
		return nil, err
	}
	pool, err := coinhive.NewPool(coinhive.PoolConfig{
		Chain:           chain,
		Wallet:          blockchain.AddressFromString("bench-wallet"),
		Clock:           simclock.Real(),
		ShareDifficulty: 1,
	})
	if err != nil {
		return nil, err
	}
	f := &submitFixture{pool: pool, key: fmt.Sprintf("bench-%x-layers", o.seed), n: layerSamples(o)}
	f.ms = coinhive.NewEngine(pool).NewSession(0)
	var wire stratum.Job
	for _, ev := range f.ms.Step(coinhive.Command{Kind: coinhive.CmdOpen, Auth: stratum.Auth{SiteKey: f.key, Type: "anonymous"}}) {
		if ev.Kind == coinhive.EvJob {
			wire = ev.Job
		}
	}
	if f.job, err = session.DecodeJob(wire); err != nil {
		f.ms.Close()
		return nil, fmt.Errorf("login served no usable job: %w", err)
	}
	decks, err := grindDecks([]session.Job{f.job}, f.n, o.seed)
	if err != nil {
		f.ms.Close()
		return nil, err
	}
	f.deck = decks[f.job.WireBlob]
	return f, nil
}

// measureSubmitLayers covers the submit path both share workloads run:
// CryptoNight, the engine, the pool, and the submit codecs of the
// dialect the workload speaks (ws envelopes in frames, or RPC lines).
func measureSubmitLayers(f *submitFixture, m map[string]float64, wsDialect bool) error {
	n, job, d := f.n, f.job, f.deck
	hasher, err := cryptonight.NewHasher(blockchain.SimParams().PowVariant)
	if err != nil {
		return err
	}
	blob := append([]byte(nil), job.Blob...)
	m["cryptonight.verify_us"] = timeCalls(n, 1, func(i int) {
		binary.LittleEndian.PutUint32(blob[job.NonceOffset:], d.nonces[i%n])
		hasher.Sum(blob)
	})

	var failed error
	m["engine.step_us"] = timeCalls(n, 1, func(i int) {
		evs := f.ms.Step(coinhive.Command{Kind: coinhive.CmdSubmit, JobID: job.ID, Nonce: d.nonces[i], Result: d.results[i]})
		if len(evs) == 0 || evs[0].Kind != coinhive.EvAccepted {
			failed = errors.New("engine.step: a deck share was not accepted")
		}
	})
	m["pool.submit_us"] = timeCalls(n, 1, func(i int) {
		if _, err := f.pool.SubmitShare(f.key+"-direct", job.ID, d.nonces[i], d.results[i], ""); err != nil {
			failed = fmt.Errorf("pool.submit: %w", err)
		}
	})
	if failed != nil {
		return failed
	}
	m["pool.submit_minus_verify_us"] = m["pool.submit_us"] - m["cryptonight.verify_us"]

	// The dialect's submit codec, on the bytes a client sends.
	sub := stratum.Submit{Version: 7, JobID: job.ID, Nonce: stratum.EncodeNonce(d.nonces[0]), Result: stratum.EncodeBlob(d.results[0][:])}
	var wbuf []byte
	if !wsDialect {
		line, err := stratum.AppendRPCRequest(nil, 7, stratum.MethodSubmit, stratum.SubmitParams{
			ID: f.key, JobID: job.ID, Nonce: sub.Nonce, Result: sub.Result,
		})
		if err != nil {
			return err
		}
		m["stratum.rpc_parse_us"] = timeCalls(n, 16, func(int) {
			env, _ := stratum.UnmarshalRPC(line)
			var sp stratum.SubmitParams
			_ = env.DecodeParams(&sp)
		})
		id := json.RawMessage("7")
		m["stratum.append_submit_ok_us"] = timeCalls(n, 64, func(i int) {
			wbuf = stratum.AppendSubmitOKLine(wbuf[:0], id, int64(i))
		})
		return nil
	}
	payload, err := stratum.Marshal(stratum.TypeSubmit, sub)
	if err != nil {
		return err
	}
	var framed bytes.Buffer
	if err := ws.WriteFrame(&framed, &ws.Frame{
		Fin: true, Opcode: ws.OpText, Masked: true, MaskKey: [4]byte{0x1b, 0xad, 0xc0, 0xde},
		Payload: append([]byte(nil), payload...),
	}); err != nil {
		return err
	}
	var (
		rd    bytes.Reader
		frame ws.Frame
		rbuf  []byte
	)
	m["ws.frame_open_us"] = timeCalls(n, 16, func(int) {
		rd.Reset(framed.Bytes())
		rbuf, _ = ws.ReadFrameInto(&rd, &frame, 0, rbuf)
	})
	if !bytes.Equal(frame.Payload, payload) {
		return errors.New("ws.frame_open: the unmasked payload is not what was sealed")
	}
	m["stratum.unmarshal_us"] = timeCalls(n, 16, func(int) {
		env, _ := stratum.Unmarshal(payload)
		var s stratum.Submit
		_ = env.Decode(&s)
	})
	m["stratum.append_ok_us"] = timeCalls(n, 64, func(i int) {
		wbuf = stratum.AppendHashAcceptedEnvelope(wbuf[:0], int64(i))
	})
	accept := append([]byte(nil), wbuf...)
	m["ws.frame_seal_us"] = timeCalls(n, 64, func(int) {
		wbuf = ws.AppendServerFrame(wbuf[:0], ws.OpText, accept)
	})
	return nil
}

// measureFederationLayers covers the gossip frame codec and a share-chain
// grown to the length the run's own chains reached (a mid-chain insert
// costs O(length)). The chain takes entries as already verified, as the
// minting node does.
func measureFederationLayers(f *submitFixture, m map[string]float64, chainLen int) error {
	n, job, d := f.n, f.job, f.deck
	entry := func(height uint64, i int) *sharechain.Entry {
		b := append([]byte(nil), job.Blob...)
		binary.LittleEndian.PutUint32(b[job.NonceOffset:], uint32(i))
		return &sharechain.Entry{
			Height: height, Token: fmt.Sprintf("%s-%d", f.key, i%64), Diff: 1,
			Nonce: uint32(i), Blob: b, Result: d.results[i%n],
		}
	}
	sc := sharechain.New(sharechain.Config{})
	length := max(chainLen, 128)
	for i := 0; i < length; i++ {
		if _, err := sc.Insert(entry(uint64(i+1), i), true); err != nil {
			return fmt.Errorf("sharechain fixture: %w", err)
		}
	}
	var failed error
	m["sharechain.insert_append_us"] = timeCalls(n, 1, func(i int) {
		if _, err := sc.Insert(entry(sc.NextHeight(), length+i), true); err != nil {
			failed = err
		}
	})
	m["sharechain.insert_mid_us"] = timeCalls(n, 1, func(i int) {
		if _, err := sc.Insert(entry(sc.TipHeight()-64, length+n+i), true); err != nil {
			failed = err
		}
	})
	if failed != nil {
		return fmt.Errorf("sharechain insert: %w", failed)
	}
	m["sharechain.payout_vector_us"] = timeCalls(n, 1, func(int) { sc.PayoutVector(1_000_000_000_000) })
	e := entry(1, 0)
	var wbuf []byte
	m["p2p.encode_us"] = timeCalls(n, 64, func(int) { wbuf = p2p.AppendShareFrame(wbuf[:0], e) })
	body := append([]byte(nil), wbuf[4:]...) // the payload behind the u32 length prefix
	m["p2p.decode_us"] = timeCalls(n, 64, func(int) {
		if _, _, err := p2p.DecodeFrame(body); err != nil {
			failed = err
		}
	})
	return failed
}

// measureArchiveLayers covers the event log and the stats API over it.
// The file store lives in the run's out directory, so append and fsync
// are measured on the filesystem the federated nodes archive to.
func measureArchiveLayers(o options, m map[string]float64) error {
	n := layerSamples(o)
	ev := func(i int) archive.Event {
		return archive.Event{
			TimeNs: int64(i+1) * int64(time.Millisecond), Kind: archive.KindShareAccepted,
			Amount: 1, Aux: uint64(i), Aux2: uint64(i + 1),
			Actor: fmt.Sprintf("bench-%x-acct%d", o.seed, i%100), Ref: "0-1-0",
		}
	}
	mem := archive.NewMemStore(1 << 16)
	rec := archive.NewRecorder(mem, nil, 0)
	// n stays below the recorder's queue depth, so Record never drops.
	m["archive.record_us"] = timeCalls(n, 1, func(i int) { rec.Record(ev(i)) })
	rec.Flush()
	api := statsapi.New(mem, nil, statsapi.Options{})
	req := httptest.NewRequest(http.MethodGet, "/api/v1/top?limit=100", nil)
	var status int
	m["statsapi.query_us"] = timeCalls(n, 1, func(int) {
		w := httptest.NewRecorder()
		api.ServeHTTP(w, req)
		status = w.Code
	})
	if err := rec.Close(); err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("statsapi.query: status %d", status)
	}

	dir := filepath.Join(o.outDir, fmt.Sprintf("layers-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	fs, err := archive.OpenFileStore(dir, archive.FileStoreOptions{})
	if err != nil {
		return err
	}
	defer fs.Close()
	var ioErr error
	var fsyncs []float64
	m["archive.append_us"] = timeCalls(n, 1, func(i int) {
		e := ev(i)
		if err := fs.Append(&e); err != nil {
			ioErr = err
		}
		if i%32 == 31 { // a drained batch's worth, then the batch's one fsync
			t0 := time.Now()
			if err := fs.Sync(); err != nil {
				ioErr = err
			}
			fsyncs = append(fsyncs, float64(time.Since(t0))/1e6)
		}
	})
	// The fsync rode inside every 32nd append sample; the median append
	// does not see it, and it is reported on its own.
	m["archive.fsync_ms"] = pct(fsyncs, 0.5)
	return ioErr
}

// measureConnLayers covers the in-memory transport and the parker the
// tip fan-out rides on.
func measureConnLayers(o options, m map[string]float64) {
	n := layerSamples(o)
	a, b := memconn.Pipe()
	defer a.Close()
	go func() { // echo until a is closed
		buf := make([]byte, 64)
		for {
			k, err := b.Read(buf)
			if err != nil {
				return
			}
			if _, err := b.Write(buf[:k]); err != nil {
				return
			}
		}
	}()
	msg, buf := []byte("ping"), make([]byte, 64)
	m["memconn.roundtrip_us"] = timeCalls(n, 1, func(int) {
		_, _ = a.Write(msg)
		_, _ = a.Read(buf)
	})

	parker := netpark.New(0)
	defer parker.Close()
	c, d := memconn.Pipe()
	defer c.Close()
	defer d.Close()
	woke := make(chan time.Time, 1)
	samples := make([]float64, n)
	for i := range samples {
		parker.Park(c, time.Now().Add(ioTimeout), func() { woke <- time.Now() }, func() { woke <- time.Time{} })
		t0 := time.Now()
		_, _ = d.Write(msg)
		samples[i] = float64((<-woke).Sub(t0)) / 1e3
		_, _ = c.Read(buf)
	}
	m["netpark.wake_us"] = pct(samples, 0.5)
}

// measureZoneLayers covers the §3 pipeline page by page: ordinary pages
// from an Alexa-profile corpus, and Wasm modules from a corpus with the
// same family mix but enough miners to sample.
func measureZoneLayers(o options, m map[string]float64) error {
	n := layerSamples(o)
	pages := webgen.Generate(webgen.DefaultConfig(webgen.TLDAlexa, n, o.seed)).Sites
	bodies := make([]string, len(pages))
	m["webgen.render_us"] = timeCalls(n, 1, func(i int) { bodies[i] = webgen.RenderStaticHTML(pages[i]) })
	m["htmlx.extract_us"] = timeCalls(n, 1, func(i int) { htmlx.ExtractScripts(bodies[i]) })
	list := nocoin.Bundled()
	m["nocoin.match_us"] = timeCalls(n, 1, func(i int) { crawler.ScanPage(list, bodies[i]) })
	m["browser.visit_us"] = timeCalls(n, 1, func(i int) { browser.Visit(pages[i]) })

	cfg := webgen.DefaultConfig(webgen.TLDAlexa, 4*n, o.seed)
	cfg.MinerWasmRate = 0.25
	type dumped struct {
		bin   []byte
		hosts []string
		mod   *wasm.Module
	}
	var mods []dumped
	for _, s := range webgen.Generate(cfg).Sites {
		page := browser.Visit(s)
		for _, bin := range page.Wasm {
			mods = append(mods, dumped{bin: bin, hosts: page.WSHosts})
		}
	}
	if len(mods) == 0 {
		return errors.New("zone fixture: the corpus instantiated no Wasm")
	}
	var failed error
	m["wasm.decode_us"] = timeCalls(max(n, len(mods)), 1, func(i int) {
		d := &mods[i%len(mods)]
		var err error
		if d.mod, err = wasm.Decode(d.bin); err != nil {
			failed = err
		}
	})
	if failed != nil {
		return fmt.Errorf("wasm.decode: %w", failed)
	}
	m["wasm.features_us"] = timeCalls(n, 1, func(i int) { _, _ = wasm.ExtractFeatures(mods[i%len(mods)].mod) })
	db := fingerprint.ReferenceDB()
	miners := 0
	m["fingerprint.classify_us"] = timeCalls(n, 1, func(i int) {
		d := &mods[i%len(mods)]
		if db.Classify(d.mod, d.hosts).Miner {
			miners++
		}
	})
	if miners == 0 {
		return errors.New("fingerprint.classify: no module of the miner corpus was classified a miner")
	}
	return nil
}
