// Package repro's root benchmark harness regenerates every table and
// figure of the paper under `go test -bench`, reporting the headline
// quantity of each artefact as a custom benchmark metric. Heavy
// whole-experiment benches run one experiment per iteration; use
// `-benchtime=1x` for a single regeneration pass.
package repro

import (
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/blockchain"
	"repro/internal/coinhive"
	"repro/internal/cryptonight"
	"repro/internal/experiments"
	"repro/internal/fingerprint"
	"repro/internal/linkgen"
	"repro/internal/poolwatch"
	"repro/internal/stratum"
	"repro/internal/wasm"
	"repro/internal/webgen"
)

// ---------------------------------------------------------------------------
// One benchmark per paper artefact.
// ---------------------------------------------------------------------------

func BenchmarkFig2NoCoinScan(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.RunFig2(experiments.ScaleCI, 8)
		alexaShare := float64(res.Scans[0].Hits) / float64(res.Scans[0].Probed)
		b.ReportMetric(alexaShare*100, "alexa-hit-%")
	}
}

func BenchmarkTable1WasmSignatures(b *testing.B) {
	for i := 0; i < b.N; i++ {
		crawls := experiments.RunBrowserCrawls(experiments.ScaleCI, 8)
		t1 := experiments.Table1From(crawls)
		b.ReportMetric(float64(t1.Columns[0].TotalWasm), "alexa-wasm-sites")
	}
}

func BenchmarkTable2DetectionOverlap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		crawls := experiments.RunBrowserCrawls(experiments.ScaleCI, 8)
		t2 := experiments.Table2From(crawls)
		b.ReportMetric(t2.Rows[0].MissedFrac*100, "alexa-missed-%")
	}
}

func BenchmarkTable3Categories(b *testing.B) {
	for i := 0; i < b.N; i++ {
		crawls := experiments.RunBrowserCrawls(experiments.ScaleCI, 8)
		t3 := experiments.Table3From(crawls)
		b.ReportMetric(t3.Blocks[0].Categorized*100, "alexa-categorized-%")
	}
}

func BenchmarkFig3LinksPerToken(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.RunFig3(experiments.ScaleCI)
		b.ReportMetric(res.Top10Share*100, "top10-share-%")
	}
}

func BenchmarkFig4HashDistribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.RunFig4(experiments.ScaleCI)
		b.ReportMetric(res.PUnbiased1024*100, "p1024-unbiased-%")
	}
}

func BenchmarkTable4LinkResolution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunResolve(experiments.ScaleCI, 8, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.ResolvedTop), "links-resolved")
		b.ReportMetric(float64(res.HashesComputed), "hashes")
	}
}

func BenchmarkTable5LinkCategories(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunResolve(experiments.ScaleCI, 0, 60)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.ResolvedTail), "links-resolved")
		b.ReportMetric(res.Uncategorized*100, "uncategorized-%")
	}
}

func BenchmarkFig5BlockAttribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig5(int64(i)+1, 2*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MedianPerDay, "blocks/day-median")
		b.ReportMetric(res.AveragePerDay, "blocks/day-avg")
	}
}

func BenchmarkTable6MonthlyStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable6(int64(i)+1, 2*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Months[1].XMR, "june-XMR")
		b.ReportMetric(res.Months[1].HashRateMHs, "june-MH/s")
	}
}

func BenchmarkNetworkSizeEstimate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunNetworkSize(int64(i) + 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.InputsPerBlock), "inputs/block")
	}
}

// ---------------------------------------------------------------------------
// Ablation benches for the design choices DESIGN.md calls out.
// ---------------------------------------------------------------------------

// BenchmarkAblationSignatureDBCompleteness measures detection when the
// signature database only knows every 4th assembly version: the heuristic
// layer (features + backends) must carry the rest.
func BenchmarkAblationSignatureDBCompleteness(b *testing.B) {
	corpus := webgen.Generate(webgen.DefaultConfig(webgen.TLDAlexa, 40_000, 11))
	full := fingerprint.ReferenceDB()
	partial := fingerprint.PartialDB(4)
	for i := 0; i < b.N; i++ {
		detected := map[string]int{}
		for _, db := range map[string]*fingerprint.DB{"full": full, "partial": partial} {
			for _, s := range corpus.Sites {
				if s.Miner == nil {
					continue
				}
				art := webgen.Execute(s)
				m, err := wasm.Decode(art.Wasm[0])
				if err != nil {
					continue
				}
				if db.Classify(m, art.WSHosts).Miner {
					if db == full {
						detected["full"]++
					} else {
						detected["partial"]++
					}
				}
			}
		}
		if detected["full"] > 0 {
			b.ReportMetric(100*float64(detected["partial"])/float64(detected["full"]), "partial-recall-%")
		}
	}
}

// BenchmarkAblationEndpointCoverage quantifies the §4.2 requirement to poll
// every endpoint: with 2 of 32 endpoints, attribution recall collapses to
// roughly the covered backend fraction (1/16).
func BenchmarkAblationEndpointCoverage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		start := time.Date(2018, 5, 1, 0, 0, 0, 0, time.UTC)
		w, err := experiments.NewWorld(start, 50e6, 500e6, nil, int64(i)+7)
		if err != nil {
			b.Fatal(err)
		}
		fullW := poolwatch.New(poolwatch.Config{Source: w.Net, Chain: w.Chain})
		thinW := poolwatch.New(poolwatch.Config{Source: w.Net, Chain: w.Chain, Endpoints: 2})
		w.Net.Start()
		stopA := fullW.Run(w.Sim, time.Second)
		stopB := thinW.Run(w.Sim, time.Second)
		w.Sim.RunFor(24 * time.Hour)
		stopA()
		stopB()
		fullW.Sweep()
		thinW.Sweep()
		fa, ta := fullW.StatsSnapshot().Attributed, thinW.StatsSnapshot().Attributed
		if fa > 0 {
			b.ReportMetric(100*float64(ta)/float64(fa), "2-endpoint-recall-%")
		}
	}
}

// BenchmarkAblationScratchpadSweep shows the memory-hardness/throughput
// trade-off across CryptoNight scratchpad sizes (the property that makes
// the PoW browser-mineable in the first place).
func BenchmarkAblationScratchpadSweep(b *testing.B) {
	for _, v := range []cryptonight.Variant{
		{Name: "64k", ScratchpadSize: 1 << 16, Iterations: 1 << 12},
		{Name: "256k", ScratchpadSize: 1 << 18, Iterations: 1 << 14},
		{Name: "1m", ScratchpadSize: 1 << 20, Iterations: 1 << 16},
		cryptonight.Full,
	} {
		v := v
		b.Run(v.Name, func(b *testing.B) {
			h, err := cryptonight.NewHasher(v)
			if err != nil {
				b.Fatal(err)
			}
			blob := make([]byte, 76)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				h.Sum(blob)
			}
			b.ReportMetric(1e9/float64(b.Elapsed().Nanoseconds()/int64(b.N)), "H/s")
		})
	}
}

// BenchmarkAblationShareDifficulty sweeps the pool share difficulty: lower
// difficulties mean chattier clients but finer-grained credit (what link
// visitors get). Measured as client-side hashes needed per accepted share.
func BenchmarkAblationShareDifficulty(b *testing.B) {
	for _, diff := range []uint64{8, 64, 512} {
		name := map[uint64]string{8: "diff8", 64: "diff64", 512: "diff512"}[diff]
		b.Run(name, func(b *testing.B) {
			pool := newBenchPool(b, diff)
			h, err := cryptonight.GetHasher(cryptonight.Test)
			if err != nil {
				b.Fatal(err)
			}
			defer cryptonight.PutHasher(h)
			totalHashes := 0
			for i := 0; i < b.N; i++ {
				job := pool.Job(i%32, i, false)
				nonce, sum, hashes := grindShare(b, h, job)
				totalHashes += hashes
				if _, err := pool.SubmitShare("bench", job.JobID, nonce, sum, ""); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(totalHashes)/float64(b.N), "hashes/share")
		})
	}
}

// ---------------------------------------------------------------------------
// Micro-benchmarks of the hot paths.
// ---------------------------------------------------------------------------

// premineBenchShares solves one share per live job so the submit benches
// measure pool-side verification only, not client-side nonce search. Jobs
// stay valid until the tip moves (pinned far above share difficulty here),
// so the same share bank can be resubmitted indefinitely — under a fresh
// site key each time round (benchTokens): the pool credits one (job,
// nonce) pair once per account. n must not exceed the backend count, or
// two shares land on one blob and duplicate each other within a pass.
type benchShare struct {
	jobID string
	nonce uint32
	sum   [32]byte
}

func premineBenchShares(b *testing.B, pool *coinhive.Pool, n int) []benchShare {
	b.Helper()
	h, err := cryptonight.GetHasher(pool.Chain().Params().PowVariant)
	if err != nil {
		b.Fatal(err)
	}
	defer cryptonight.PutHasher(h)
	shares := make([]benchShare, n)
	for i := range shares {
		job := pool.Job(i%pool.NumEndpoints(), i, false)
		nonce, sum, _ := grindShare(b, h, job)
		shares[i] = benchShare{jobID: job.JobID, nonce: nonce, sum: sum}
	}
	return shares
}

// BenchmarkSubmitShareSerial is the single-submitter reference point for
// BenchmarkSubmitShareParallel: one goroutine, one CryptoNight scratchpad.
func BenchmarkSubmitShareSerial(b *testing.B) {
	pool := newBenchPool(b, 64)
	shares := premineBenchShares(b, pool, coinhive.DefaultNumBackends)
	tokens := benchTokens(b, len(shares))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := shares[i%len(shares)]
		if _, err := pool.SubmitShare(tokens[i/len(shares)], s.jobID, s.nonce, s.sum, ""); err != nil {
			b.Fatal(err)
		}
	}
}

// benchTokens returns one site key per pass that b.N submissions make over
// a deck of the given size, built before the timer starts.
func benchTokens(b *testing.B, deck int) []string {
	tokens := make([]string, b.N/deck+1)
	for i := range tokens {
		tokens[i] = "bench-" + strconv.Itoa(i)
	}
	return tokens
}

// BenchmarkSubmitShareParallel measures SubmitShare throughput with one
// submitter per GOMAXPROCS. Verification — the dominant cost — runs outside
// every pool lock on a per-goroutine scratchpad, so throughput scales with
// cores where the seed's single-mutex pool was pinned to one
// (run with -cpu 1,2,4,8 to see the scaling curve).
func BenchmarkSubmitShareParallel(b *testing.B) {
	pool := newBenchPool(b, 64)
	shares := premineBenchShares(b, pool, coinhive.DefaultNumBackends)
	tokens := benchTokens(b, len(shares))
	var next atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := int(next.Add(1) - 1)
			s := shares[i%len(shares)]
			if _, err := pool.SubmitShare(tokens[i/len(shares)], s.jobID, s.nonce, s.sum, ""); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkMicroPoolJobIssue(b *testing.B) {
	pool := newBenchPool(b, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pool.Job(i%32, i, false)
	}
}

func BenchmarkMicroWatcherPollCycle(b *testing.B) {
	start := time.Date(2018, 5, 1, 0, 0, 0, 0, time.UTC)
	w, err := experiments.NewWorld(start, 5.5e6, 462e6, nil, 5)
	if err != nil {
		b.Fatal(err)
	}
	watcher := poolwatch.New(poolwatch.Config{Source: w.Net, Chain: w.Chain})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		watcher.PollAllEndpoints()
	}
}

func BenchmarkMicroLinkCorpus100k(b *testing.B) {
	for i := 0; i < b.N; i++ {
		linkgen.Generate(linkgen.Default(100_000))
	}
}

func BenchmarkMicroCorpusGenerate50k(b *testing.B) {
	for i := 0; i < b.N; i++ {
		webgen.Generate(webgen.DefaultConfig(webgen.TLDOrg, 50_000, uint64(i)))
	}
}

func BenchmarkMicroCDF(b *testing.B) {
	vals := make([]float64, 100_000)
	for i := range vals {
		vals[i] = float64(i%1024) + 1
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		analysis.CDF(vals)
	}
}

// ---------------------------------------------------------------------------
// helpers
// ---------------------------------------------------------------------------

func newBenchPool(b *testing.B, shareDiff uint64) *coinhive.Pool {
	b.Helper()
	w, err := experiments.NewWorld(time.Date(2018, 5, 1, 0, 0, 0, 0, time.UTC),
		5.5e6, 462e6, nil, 1)
	if err != nil {
		b.Fatal(err)
	}
	pool, err := coinhive.NewPool(coinhive.PoolConfig{
		Chain:           w.Chain,
		Wallet:          newBenchWallet(),
		Clock:           w.Sim,
		ShareDifficulty: shareDiff,
	})
	if err != nil {
		b.Fatal(err)
	}
	return pool
}

func newBenchWallet() (a [32]byte) {
	copy(a[:], "bench-wallet-000000000000000000")
	return
}

// grindShare solves one pool job exactly as the web miner does: revert the
// blob obfuscation, splice nonces, hash until the compact target is met.
func grindShare(b *testing.B, h *cryptonight.Hasher, job stratum.Job) (uint32, [32]byte, int) {
	b.Helper()
	blob, err := stratum.DecodeBlob(job.Blob)
	if err != nil {
		b.Fatal(err)
	}
	stratum.ObfuscateBlob(blob)
	target, err := stratum.DecodeTarget(job.Target)
	if err != nil {
		b.Fatal(err)
	}
	hdr, _, _, err := blockchain.ParseHashingBlob(blob)
	if err != nil {
		b.Fatal(err)
	}
	n, sum, hashes, found := h.Grind(blob, hdr.NonceOffset(), target, 0, 1<<30)
	if !found {
		b.Fatal("no share in 2^30 nonces")
	}
	return n, sum, hashes
}
