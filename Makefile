GO ?= go

.PHONY: all build vet fmt test test-short test-race lint check bench-paper bench-submit loc

all: build vet test-short

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Tier-1 verify: everything, including the slow experiment suites.
test: build
	$(GO) test ./...

# Fast pass: multi-minute simulations and zone-scale corpora are gated
# behind testing.Short().
test-short:
	$(GO) test -short ./...

# Race-detector pass over the concurrent pool core and its drivers
# (including the TCP stratum push fan-out, the in-process target and the
# client session/dialect layer) and over the federation packages, where
# a share-chain fold takes the write lock while gossip readers call Has
# and EntriesFrom.
test-race:
	$(GO) test -race ./internal/coinhive/... ./internal/webminer/... ./internal/loadgen/... ./internal/session/... ./internal/stratum/... ./internal/ws/... \
		./internal/sharechain/... ./internal/p2p/... ./internal/handoff/... ./internal/archive/...

# Formatting gate: fails listing every Go file gofmt would rewrite. Lint
# fixtures under testdata/ are exempt (they hold deliberately odd code).
fmt:
	@out=$$(gofmt -l $$(find . -name '*.go' ! -path '*/testdata/*')); \
	if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

# Project-specific static analysis (internal/lint via cmd/repolint):
# lockscope, hotpath, atomicfield, metricname, layering and exportuse
# over every package. Zero findings or the target fails; waivers need a
# reasoned //lint:ignore. `repolint -json` emits machine-readable findings.
lint:
	$(GO) run ./cmd/repolint

# Non-test Go lines outside the nested benchmark module and the lint
# fixtures under testdata/: the count ROADMAP item 7 tracks, so every
# simplicity change reports the same number. Not part of check.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path '*/testdata/*' | xargs cat | wc -l

# CI gate: static checks (gofmt, building the tools, and
# cross-building for arm64 so the files behind `!amd64` — the CryptoNight
# path the CI box never runs — keep compiling and vetting; the amd64
# kernels' frame layouts are held to their Go stubs by vet's asmdecl), the
# fast suite under the race detector, ten seconds each of fuzzing the p2p
# frame decoders (the federation's one untrusted wire), the p2p reader's
# share-frame batching (batches must decode what frame-at-a-time reads
# would), the stratum front's pipelined-run reader (runs must hold the
# commands line-at-a-time reads would, without reading the conn) and the
# ws frame decoder (the miners' untrusted wire), one pass of every package micro-
# benchmark (so the bodies cannot rot, and Fig5Day's "one simulated day
# attributes blocks" check keeps running), the nested benchmark module's
# own vet + tests (root `./...` skips it, so a product-side rename the
# benchmark depends on would otherwise break it unnoticed). No live
# load gate runs here: every assertion the retired ones made fails a
# test in the -short -race pass (DESIGN.md "The last gates and their
# twins"). Abuse containment and the honest miners' latency under
# attack, the archive hook's stall-freedom and the stats API's query
# latency are coinhive and statsapi tests; federation convergence (kill,
# cold replace, zero lost credit) the coinhive and p2p tests and the
# benchmark module's share-federated smoke test; parked-session fan-out
# the benchmark module's tip-fanout smoke test, and parking thousands of
# sessions on few goroutines the coinhive and netpark park tests.
# Performance itself is measured by `bash benchmark/run.sh` against
# BENCHMARK.json, not here.
check:
	$(GO) build ./...
	$(GO) vet ./...
	$(MAKE) fmt
	GOARCH=arm64 $(GO) build ./... && GOARCH=arm64 $(GO) vet ./internal/cryptonight/
	$(MAKE) lint
	$(GO) test -short -race ./...
	$(GO) test -race -count=10 -run 'Park|Poller' ./internal/netpark
	$(GO) test -run '^$$' -fuzz '^FuzzP2PDecode$$' -fuzztime 10s ./internal/p2p
	$(GO) test -run '^$$' -fuzz '^FuzzShareBatches$$' -fuzztime 10s ./internal/p2p
	$(GO) test -run '^$$' -fuzz '^FuzzReadRun$$' -fuzztime 10s ./internal/coinhive
	$(GO) test -run '^$$' -fuzz '^FuzzReadFrameInto$$' -fuzztime 10s ./internal/ws
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/keccak ./internal/blockchain ./internal/simclock ./internal/cryptonight ./internal/experiments ./internal/nocoin ./internal/htmlx ./internal/webgen ./internal/crawler ./internal/browser
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# Paper artefacts as benchmarks; -benchtime=1x regenerates each once.
bench-paper:
	$(GO) test -bench . -benchtime=1x -run '^$$' .

# Share-verification scaling curve (the sharded pool's headline number).
bench-submit:
	$(GO) test -bench 'BenchmarkSubmitShare' -run '^$$' -cpu 1,2,4,8 .
