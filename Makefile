GO ?= go

.PHONY: all build vet test test-short test-race lint check bench-paper bench-submit loc

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
# (including the TCP stratum push fan-out, the loadgen swarm, the client
# session/dialect layer and the loadd front-end) and over the federation
# packages, where a share-chain fold takes the write lock while gossip
# readers call Has and EntriesFrom.
test-race:
	$(GO) test -race ./internal/coinhive/... ./internal/webminer/... ./internal/loadgen/... ./internal/session/... ./internal/stratum/... ./internal/ws/... ./cmd/loadd/... \
		./internal/sharechain/... ./internal/p2p/... ./internal/handoff/... ./internal/archive/...

# Project-specific static analysis (internal/lint via cmd/repolint):
# lockscope, hotpath, atomicfield, metricname and layering over every
# package. Zero findings or the target fails; waivers need a reasoned
# //lint:ignore. `repolint -json` emits machine-readable findings.
lint:
	$(GO) run ./cmd/repolint

# Non-test Go lines outside the nested benchmark module: the count
# ROADMAP item 7 tracks, so every simplicity change reports the same
# number. Not part of check.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' | xargs cat | wc -l

# CI gate: static checks (including building the tools, and
# cross-building for arm64 so the files behind `!amd64` — the CryptoNight
# path the CI box never runs — keep compiling and vetting; the amd64
# kernels' frame layouts are held to their Go stubs by vet's asmdecl), the
# fast suite under the race detector, one pass of every package micro-
# benchmark (so the bodies cannot rot, and Fig5Day's "one simulated day
# attributes blocks" check keeps running), the nested benchmark module's
# own vet + tests (root `./...` skips it, so a product-side rename the
# benchmark depends on would otherwise break it unnoticed), and the two
# live-service load gates: load-hostile guards abuse containment and the
# honest miners' cadence and latency under attack, load-api the stats
# API and the archive hook under a mining swarm. Federation convergence
# (kill, cold replace, zero lost credit) is checked by the coinhive and
# p2p tests in the -short -race pass and by the benchmark module's
# share-federated smoke test; full concurrency and exact share counts on
# both dialects by the loadgen tests in that pass; parked-session fan-out
# by the benchmark module's tip-fanout smoke test, and parking thousands
# of sessions on few goroutines by the coinhive and netpark park tests
# (DESIGN.md "The last gates and their twins"). Performance itself is measured by
# `bash benchmark/run.sh` against BENCHMARK.json, not here.
check:
	$(GO) build ./...
	$(GO) vet ./...
	GOARCH=arm64 $(GO) build ./... && GOARCH=arm64 $(GO) vet ./internal/cryptonight/
	$(MAKE) lint
	$(GO) test -short -race ./...
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/keccak ./internal/blockchain ./internal/simclock ./internal/cryptonight ./internal/experiments ./internal/nocoin ./internal/htmlx ./internal/webgen ./internal/crawler ./internal/browser
	cd benchmark && $(GO) vet ./... && $(GO) test ./...
	$(MAKE) load-hostile
	$(MAKE) load-api

# The live-service gates, one pattern rule: `make load-<gate>` runs
# `loadd -gate <gate>` against in-process targets and fails unless the
# gate's invariants hold (`loadd -h` lists them; DESIGN.md has the
# reasoning behind each bound). Wall times are one run each of a
# prebuilt loadd on a 2-CPU box.
#
#   load-hostile (≈32s)     a steady baseline fixes honest accept p99, then
#                           mixed-hostile (80% honest vardiff-paced miners +
#                           duplicate submitters, stale flooders, difficulty
#                           gamers and a reconnect hammer) runs against a
#                           defended target: attackers banned with zero
#                           duplicate credit, honest cadence within ±25% of
#                           the vardiff goal, honest p99 within 2× baseline.
#   load-api (≈7s)          a "mixed" run fixes the no-archive submit p99,
#                           then api-readers — the same swarm plus 8 HTTP
#                           clients paging /api/v1 — runs against a
#                           file-backed archived target: no failed query, a
#                           bounded query p99, live archive instruments, and
#                           a submit p99 inside the stall tripwire (4× the
#                           baseline, 100ms floor — loose by design: the
#                           readers are real CPU load, while a blocking
#                           archive would overshoot by orders of magnitude).
load-%:
	$(GO) run ./cmd/loadd -gate $*

# Paper artefacts as benchmarks; -benchtime=1x regenerates each once.
bench-paper:
	$(GO) test -bench . -benchtime=1x -run '^$$' .

# Share-verification scaling curve (the sharded pool's headline number).
bench-submit:
	$(GO) test -bench 'BenchmarkSubmitShare' -run '^$$' -cpu 1,2,4,8 .
