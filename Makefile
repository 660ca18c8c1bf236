GO ?= go

.PHONY: all help check fmt-check build vet bench-vet bench-check test race chaos chaos-cluster chaos-net lint smoke-faults smoke-serve smoke-approx load load-smoke load-gate fuzz bench bench-smoke cover figures figures-quick report examples clean

all: build vet test race

# The tier-1 gate: exactly what CI must keep green, plus a faulted smoke
# sweep proving the robustness path stays wired end to end, a daemon smoke
# proving submit/cache/drain work over a real socket, the chaos suites
# proving crash recovery (SIGKILL + torn journals) under the race detector,
# the service-level load smoke (200 concurrent clients against a live
# daemon, also under -race), and one iteration of every go-test benchmark
# so none of them breaks unnoticed, plus the benchmark's own correctness
# checks. No wall-clock gate runs here: timings on a shared box are too
# noisy to fail a build on (see load-gate and layerbench/ for the measured
# comparisons).
check: fmt-check vet bench-vet bench-check build test smoke-faults smoke-serve smoke-approx chaos chaos-cluster chaos-net load-smoke bench-smoke

help:
	@echo "Targets:"
	@echo "  all           build + vet + test + race (the full gate)"
	@echo "  check         fmt-check + vet + bench-check + build + test + the"
	@echo "                smokes, chaos suites, load-smoke and bench-smoke"
	@echo "                (the CI gate)"
	@echo "  fmt-check     fail if gofmt would change any Go file (the"
	@echo "                benchmark's .bench_build/ cache excluded)"
	@echo "  build         go build ./..."
	@echo "  vet           go vet ./..."
	@echo "  bench-vet     go vet the layerbench module (its own go.mod, so"
	@echo "                the root build and vet never compile it)"
	@echo "  bench-check   layerbench's metric-schema and tamper tests, and a"
	@echo "                1s figures run whose digests must match the ones"
	@echo "                recorded for sim.EngineVersion (correct: true)"
	@echo "  test          go test ./..."
	@echo "  race          race detector over the shared-state packages"
	@echo "  chaos         crash-recovery suite under -race: WAL replay, torn"
	@echo "                journals, quarantine, client retries, SIGKILL+restart"
	@echo "  chaos-cluster fleet chaos under -race: scatter/gather byte-identity,"
	@echo "                lease expiry, worker+coordinator SIGKILL mid-sweep"
	@echo "  chaos-net     network chaos under -race: partitions, one-way drops,"
	@echo "                truncation, breakers, hedging, local degradation"
	@echo "  lint          go vet + staticcheck (skipped gracefully if absent)"
	@echo "  smoke-faults  watchdogged 4x4 sweep with injected faults"
	@echo "  smoke-serve   starsimd daemon round trip: submit, cache hit read"
	@echo "                back by its id, drain"
	@echo "  smoke-approx  surrogate round trip: exact anchor sweep, then an"
	@echo "                approx submit answered without simulating and"
	@echo "                read back by its id"
	@echo "  load          psload: 200-client mixed workload against an"
	@echo "                in-process daemon -> append to BENCH_serve.json"
	@echo "  load-smoke    5s, 200-client load acceptance run under -race:"
	@echo "                scenarios, counter cross-checks, non-zero quantiles"
	@echo "  load-gate     psload vs committed BENCH_serve.json; fails on a"
	@echo "                p95/p99/throughput regression"
	@echo "  fuzz          fuzz the FIFO ring buffer, the engine's link queues,"
	@echo "                the trace reader, the latency sketch codec, the"
	@echo "                BENCH_serve reader, and the fleet wire protocol"
	@echo "                (FUZZTIME=30s to change)"
	@echo "  bench         go test -bench over every figure benchmark"
	@echo "  bench-smoke   one iteration of every go-test benchmark (in 'check')"
	@echo "  cover         go test -cover ./..."
	@echo "  figures       regenerate every paper figure into results/"
	@echo "  figures-quick smoke-sized figures"
	@echo "  report        reproduction report"
	@echo "  examples      run every example program"
	@echo "  clean         remove generated outputs"

# The race detector over the packages with shared state (parallel sweeps,
# lazy per-shape link tables, batch rep stripes, fault timelines, the daemon's
# worker pool, cache, and journals).
race:
	$(GO) test -race ./internal/sim ./internal/queue ./internal/torus ./internal/sweep ./internal/obs ./internal/fault ./internal/serve ./internal/journal ./internal/loadgen ./internal/cluster ./internal/chaosnet ./internal/surrogate ./internal/forecast

# The chaos harness under the race detector: lenient journal loading, WAL
# replay and quarantine, client retry/backoff, and the subprocess suite
# that SIGKILLs a real daemon mid-job, tears its journals, and restarts it.
chaos:
	$(GO) test -race -run 'Chaos|Crash|Torn|Quarantine|Recovery|Retry|Lenient|WAL|Poison|SetSync|Cache|Race' \
		./internal/journal ./internal/serve ./cmd/starsimd

# The fleet chaos harness under the race detector: the in-process fabric
# suite (byte-identical scatter/gather, lease expiry + duplicate discard,
# hung-worker re-dispatch, lease adoption) plus the subprocess suite that
# SIGKILLs workers and the coordinator mid-sweep, tears the lease journal,
# and requires zero re-simulated checkpointed replications and a final
# result byte-identical to a single-node run.
chaos-cluster:
	$(GO) test -race ./internal/cluster
	$(GO) test -race -run 'ClusterChaos' ./cmd/starsimd

# The network chaos harness under the race detector: the chaosnet fault
# transport and proxy themselves, the in-process chaos matrix (partition
# storm -> local degradation, truncated/corrupt responses retried not
# folded, hedged dispatch discarding its loser, jittered rejoin backoff),
# the loadgen partition-storm scenario, and the subprocess suite that cuts
# real coordinator->worker links mid-sweep and requires a byte-identical
# result with zero re-simulated checkpointed replications.
chaos-net:
	$(GO) test -race ./internal/chaosnet
	$(GO) test -race -run 'PartitionStorm|Truncated|CorruptResponse|OneWayPartition|HedgedDispatch|Breaker|AgentJitter|SubjobTimeout|WireDecode' ./internal/cluster
	$(GO) test -race -run 'TestLoadPartitionStorm' -count=1 ./internal/loadgen
	$(GO) test -race -run 'TestChaosNet' ./cmd/starsimd

# Static analysis: vet always; staticcheck only when installed (the build
# image does not ship it — skip with a note rather than fail).
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipping"; \
	fi

# Smoke test of the robustness stack: a faulted, watchdogged 4x4 sweep with
# a checkpoint journal, resumed once to prove replay works. starsim exits 3
# when the watchdog truncated replications — partial data is fine here, the
# smoke only guards against hard failures (exit 1).
smoke-faults:
	@tmp=$$(mktemp -d); \
	$(GO) build -o $$tmp/starsim ./cmd/starsim || exit 1; \
	$$tmp/starsim -shape 4x4 -sweep 0.3,0.8 -reps 1 \
		-warmup 200 -measure 1000 -drain 500 \
		-faults perm:1,trans:800/40,seed:7 -watchdog -timeout 60s \
		-checkpoint $$tmp/smoke.jsonl >/dev/null; rc=$$?; \
	[ $$rc -eq 0 ] || [ $$rc -eq 3 ] || exit 1; \
	$$tmp/starsim -shape 4x4 -sweep 0.3,0.8 -reps 1 \
		-warmup 200 -measure 1000 -drain 500 \
		-faults perm:1,trans:800/40,seed:7 -watchdog -timeout 60s \
		-checkpoint $$tmp/smoke.jsonl -resume >/dev/null; rc=$$?; \
	[ $$rc -eq 0 ] || [ $$rc -eq 3 ] || exit 1; \
	rm -rf $$tmp; echo "smoke-faults: ok"

# Smoke test of the service layer: boot starsimd on a free port, submit a
# tiny sweep with psctl and watch it finish, resubmit the identical spec and
# require a cache hit whose id (the fingerprint) reads back the first job's
# result byte for byte, then SIGTERM and require a clean drain.
smoke-serve:
	@tmp=$$(mktemp -d); \
	$(GO) build -o $$tmp/ ./cmd/starsimd ./cmd/psctl || exit 1; \
	$$tmp/starsimd -addr 127.0.0.1:0 -addr-file $$tmp/addr \
		-cache $$tmp/cache.jsonl 2>$$tmp/daemon.log & \
	pid=$$!; \
	i=0; while [ ! -s $$tmp/addr ] && [ $$i -lt 100 ]; do sleep 0.1; i=$$((i+1)); done; \
	[ -s $$tmp/addr ] || { cat $$tmp/daemon.log; kill $$pid 2>/dev/null; exit 1; }; \
	addr=$$(cat $$tmp/addr); \
	$$tmp/psctl -addr $$addr submit -shape 4x4 -rho 0.2 -reps 1 \
		-warmup 100 -measure 400 -drain 100 -watch -out $$tmp/first.json >/dev/null 2>&1 \
		|| { cat $$tmp/daemon.log; kill $$pid 2>/dev/null; exit 1; }; \
	$$tmp/psctl -addr $$addr submit -shape 4x4 -rho 0.2 -reps 1 \
		-warmup 100 -measure 400 -drain 100 >$$tmp/hit.txt 2>/dev/null; \
	grep -q '"cached": true' $$tmp/hit.txt \
		|| { echo "smoke-serve: resubmission was not served from cache"; \
		     kill $$pid 2>/dev/null; exit 1; }; \
	id=$$(sed -n 's/^  "id": "\(.*\)",$$/\1/p' $$tmp/hit.txt); \
	$$tmp/psctl -addr $$addr result "$$id" >$$tmp/hit.json 2>/dev/null \
		&& cmp -s $$tmp/first.json $$tmp/hit.json \
		|| { echo "smoke-serve: cache hit $$id does not read back the first job's result"; \
		     kill $$pid 2>/dev/null; exit 1; }; \
	kill -TERM $$pid; wait $$pid \
		|| { echo "smoke-serve: daemon did not drain cleanly"; exit 1; }; \
	rm -rf $$tmp; echo "smoke-serve: ok"

# Smoke test of the surrogate fast path over a real socket: anchor a family
# with an exact two-rho sweep, then submit an approx query between the
# anchors and require a surrogate answer — terminal immediately, marked
# approx — whose result document psctl reads back by the answer's id.
smoke-approx:
	@tmp=$$(mktemp -d); \
	$(GO) build -o $$tmp/ ./cmd/starsimd ./cmd/psctl || exit 1; \
	$$tmp/starsimd -addr 127.0.0.1:0 -addr-file $$tmp/addr \
		-cache $$tmp/cache.jsonl 2>$$tmp/daemon.log & \
	pid=$$!; \
	i=0; while [ ! -s $$tmp/addr ] && [ $$i -lt 100 ]; do sleep 0.1; i=$$((i+1)); done; \
	[ -s $$tmp/addr ] || { cat $$tmp/daemon.log; kill $$pid 2>/dev/null; exit 1; }; \
	addr=$$(cat $$tmp/addr); \
	$$tmp/psctl -addr $$addr submit -shape 4x4 -sweep 0.2,0.4 -reps 1 \
		-warmup 100 -measure 400 -drain 100 -watch >/dev/null 2>&1 \
		|| { cat $$tmp/daemon.log; kill $$pid 2>/dev/null; exit 1; }; \
	$$tmp/psctl -addr $$addr submit -shape 4x4 -rho 0.3 -reps 1 \
		-warmup 100 -measure 400 -drain 100 -approx -approx-tol 2 >$$tmp/approx.txt 2>/dev/null; \
	grep -q '"approx": true' $$tmp/approx.txt \
		|| { echo "smoke-approx: approx submit was not surrogate-answered"; \
		     cat $$tmp/daemon.log; kill $$pid 2>/dev/null; exit 1; }; \
	id=$$(sed -n 's/^  "id": "\(.*\)",$$/\1/p' $$tmp/approx.txt); \
	$$tmp/psctl -addr $$addr result "$$id" 2>/dev/null | grep -q '"approx":true' \
		|| { echo "smoke-approx: approx answer $$id does not read back its result"; \
		     kill $$pid 2>/dev/null; exit 1; }; \
	kill -TERM $$pid; wait $$pid \
		|| { echo "smoke-approx: daemon did not drain cleanly"; exit 1; }; \
	rm -rf $$tmp; echo "smoke-approx: ok"

# Coverage-guided fuzzing of the queue's power-of-two ring arithmetic, the
# engine's slab-threaded link queues (against that FIFO as the model) and
# the binary decoders; the seeded corpora also run on every plain `go test`
# (tier-1).
FUZZTIME ?= 30s
fuzz:
	$(GO) test -fuzz FuzzFIFO -fuzztime $(FUZZTIME) ./internal/queue
	$(GO) test -fuzz FuzzLinkQueues -fuzztime $(FUZZTIME) ./internal/sim
	$(GO) test -fuzz FuzzTraceReader -fuzztime $(FUZZTIME) ./internal/obs
	$(GO) test -fuzz FuzzSketchDecode -fuzztime $(FUZZTIME) ./internal/loadgen
	$(GO) test -fuzz FuzzTrajectoryReader -fuzztime $(FUZZTIME) ./internal/loadgen
	$(GO) test -fuzz FuzzSurrogateTable -fuzztime $(FUZZTIME) ./internal/surrogate
	$(GO) test -fuzz FuzzWireDecode -fuzztime $(FUZZTIME) ./internal/cluster

# gofmt -l over every Go file but the benchmark's build cache under
# .bench_build/ (it holds module copies that are not this repo's code),
# with the gofmt of the toolchain $(GO) names.
fmt-check:
	@out=$$(find . -path ./.bench_build -prune -o -name '*.go' -print | xargs "$$($(GO) env GOROOT)/bin/gofmt" -l) || exit 1; \
	if [ -n "$$out" ]; then echo "fmt-check: gofmt would reformat:"; echo "$$out"; exit 1; fi; \
	echo "fmt-check: ok"

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# layerbench/ is its own module, so the root build and vet never compile
# it: a signature it depends on breaking would surface only when the
# benchmark runs. Offline, outside any workspace, like layerbench/run.sh.
bench-vet:
	cd layerbench && GOWORK=off GOFLAGS=-buildvcs=false GOPROXY=off $(GO) vet ./...

# The benchmark's own correctness checks, offline like bench-vet: its
# metric-schema and tampered-figure tests, then a 1-second figures run,
# which still simulates all three presets and checks them against the
# digests recorded for sim.EngineVersion; its last line must read
# "correct":true. An engine change that moves one bit fails here. The
# timing-based layerbench tests stay out: they are too noisy to gate on.
bench-check:
	cd layerbench && GOWORK=off GOFLAGS=-buildvcs=false GOPROXY=off $(GO) test -count=1 \
		-run 'TestBenchmarkJSONMatchesMetrics|TestTamperedFigureCountsAsFailed' ./...
	@last=$$(bash layerbench/run.sh --workload figures --seed 1 --seconds 1 | tail -n 1); \
	case "$$last" in \
	*'"correct":true'*) echo "bench-check: ok" ;; \
	*) echo "bench-check: figures run is not correct:"; echo "$$last"; exit 1 ;; \
	esac

test:
	$(GO) test ./...

# Per-figure benchmark harness (also reports the reproduced metrics).
bench:
	$(GO) test -bench=. -benchmem ./...

# Every go-test benchmark, one iteration each: the engine, batched-engine,
# probed-engine and figure benchmarks must keep compiling and running. It
# checks that they work, not how fast (use `make bench` for numbers).
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Service-level load harness -> BENCH_serve.json: a 200-client fleet over
# the full mixed workload (cache hits, fresh misses, dedup storms, 429
# bursts, SSE watches) against a dedicated in-process daemon. Latencies are
# wall-clock sensitive, so records note go version/arch and whether -race
# was on; compare like with like.
load:
	$(GO) run ./cmd/psload -boot -clients 200 -duration 10s -mix mixed \
		-seed 1 -out BENCH_serve.json

# The 5-second load acceptance run wired into `check`: 200 concurrent
# clients under the race detector, with scenario assertions (hits, dedup,
# 429 pushback), exact client-vs-daemon counter reconciliation, and the
# gate self-test against a doctored 2x-faster baseline.
load-smoke:
	$(GO) test -race -run TestLoadSmoke -count=1 ./internal/loadgen

# Service perf regression gate: a fresh psload run vs the committed
# BENCH_serve.json trajectory. Latency quantiles on a shared box are noisy,
# so psload's default tolerance is loose (0.75); the throughput floor is the
# sturdier signal.
load-gate:
	$(GO) run ./cmd/psload -boot -clients 200 -duration 10s -mix mixed \
		-seed 1 -gate -compare BENCH_serve.json

cover:
	$(GO) test -cover ./...

# Regenerate every paper figure (tables + ASCII charts + CSV under results/).
figures:
	$(GO) run ./cmd/figures -scale standard -out results

figures-quick:
	$(GO) run ./cmd/figures -scale quick

report:
	$(GO) run ./cmd/report

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/treeviz
	$(GO) run ./examples/hetero
	$(GO) run ./examples/hypercube
	$(GO) run ./examples/varlen
	$(GO) run ./examples/deadlock
	$(GO) run ./examples/staticcomm
	$(GO) run ./examples/delaybudget

clean:
	rm -rf results test_output.txt bench_output.txt
