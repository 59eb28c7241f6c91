GO ?= go

.PHONY: all build vet test test-short test-race lint check bench-paper bench-submit

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

# CI gate: static checks (including building the tools, and
# cross-building for arm64 so the files behind `!amd64` — the CryptoNight
# path the CI box never runs — keep compiling and vetting; the amd64
# kernels' frame layouts are held to their Go stubs by vet's asmdecl), the
# fast suite under the race detector, one pass of every package micro-
# benchmark (so the bodies cannot rot, and Fig5Day's "one simulated day
# attributes blocks" check keeps running), the nested benchmark module's
# own vet + tests (root `./...` skips it, so a product-side rename the
# benchmark depends on would otherwise break it unnoticed), and the four
# live-service load gates. Federation convergence (kill, cold replace,
# zero lost credit) is checked by the coinhive and p2p tests in the
# -short -race pass and by the benchmark module's share-federated smoke
# test. Performance itself is measured by `bash benchmark/run.sh`
# against BENCHMARK.json, not here.
check:
	$(GO) build ./...
	$(GO) vet ./...
	GOARCH=arm64 $(GO) build ./... && GOARCH=arm64 $(GO) vet ./internal/cryptonight/
	$(MAKE) lint
	$(GO) test -short -race ./...
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/keccak ./internal/blockchain ./internal/simclock ./internal/cryptonight ./internal/experiments ./internal/nocoin ./internal/htmlx ./internal/webgen
	cd benchmark && $(GO) vet ./... && $(GO) test ./...
	$(MAKE) load-smoke
	$(MAKE) load-hostile
	$(MAKE) load-scale
	$(MAKE) load-api

# The live-service gates, one pattern rule: `make load-<gate>` runs
# `loadd -gate <gate>` against in-process targets and fails unless the
# gate's invariants hold (`loadd -h` lists them; DESIGN.md has the
# reasoning behind each bound).
#
#   load-smoke (≈10s)       500 concurrent ws sessions, then 500 raw-TCP
#                           stratum sessions: full concurrency, every
#                           expected share accepted, zero protocol errors.
#   load-hostile (≈15s)     a steady baseline fixes honest accept p99, then
#                           mixed-hostile (80% honest vardiff-paced miners +
#                           duplicate submitters, stale flooders, difficulty
#                           gamers and a reconnect hammer) runs against a
#                           defended target: attackers banned with zero
#                           duplicate credit, honest cadence within ±25% of
#                           the vardiff goal, honest p99 within 2× baseline.
#   load-scale (≈30s)       tcp-scale at 1k then 10k sessions over in-memory
#                           conns (zero fds — the box's fd cap stops real
#                           sockets near 9k): zero protocol errors, 10k
#                           parked sessions on far fewer than one goroutine
#                           each, job encodes O(tiers) per tip, hold-window
#                           fan-out p99 at 10k within 2× the 1k baseline.
#   load-api (≈15s)         a "mixed" run fixes the no-archive submit p99,
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
