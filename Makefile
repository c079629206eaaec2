GO ?= go
FUZZTIME ?= 10s

.PHONY: all build vet test test-cpus race fuzz crash-test parallel-test chaos-test wal-crash-test executor-test planner-test serve-smoke loadgen loadgen-smoke bench bench-smoke bench-smoke-parallel bench-regression ci clean

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Tier-1 tests at GOMAXPROCS 1, 2 and 4: the default Parallelism is one
# worker per CPU, so core-count-dependent bugs fail here on any box.
test-cpus:
	$(GO) test -cpu 1,2,4 ./...

race:
	$(GO) test -race ./...

# Short coverage-guided fuzz runs over the parser and the snapshot
# decoder; the seed corpora alone run under plain `make test`.
fuzz:
	$(GO) test ./internal/parser -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/snapshot -run '^$$' -fuzz '^FuzzSnapshotRoundTrip$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wal -run '^$$' -fuzz '^FuzzWALDecode$$' -fuzztime $(FUZZTIME)

# Crash-recovery suite under the race detector: fault-injected crashes
# mid-fixpoint, torn checkpoint files, failing sinks, and the
# checkpoint/resume differential over every example program.
crash-test:
	$(GO) test -race -run 'Checkpoint|CrashRecovery|Resume|Snapshot|Torn' ./internal/core ./internal/snapshot ./datalog ./cmd/mdl
	$(GO) test -race ./internal/faults

# Parallel-engine suite under the race detector: the determinism
# contract over every example program at explicit worker counts, the
# scheduler stress tests, and worker-crash containment. These pin
# Parallelism >= 2 so the multi-worker path runs even on one CPU.
parallel-test:
	$(GO) test -race -run 'Parallel|Concurrent' ./datalog ./internal/relation ./internal/server ./cmd/mdl

# Chaos suite for the serve tier under the race detector: group-commit
# coalescing and poison isolation, admission control and shedding,
# injected writer stalls / slow solves / failed swaps / checkpoint-sink
# failures mid-drain, and asserts racing graceful shutdown. The
# invariants: no lost acks, no partial models, clean drain.
chaos-test:
	$(GO) test -race -run 'Chaos|GroupCommit|CommitSolo|AssertQueue|ReadInflight|ReadDeadline|HealthzLiveness|ServeShutdownRacing' ./internal/server ./cmd/mdl
	$(GO) test -race ./internal/faults

# Durability suite for the write-ahead log under the race detector: the
# log format and recovering reader (torn tails, mid-log corruption,
# compaction), the server commit path with injected append/fsync
# failures, and the binary-level SIGKILL loop — kill `mdl serve -wal`
# mid-drain under mixed load, restart, and prove no acked batch is lost
# and the recovered model equals a one-shot solve.
wal-crash-test:
	$(GO) test -race -run 'WAL|SeqWatermark|DirSync|Watermark' ./internal/wal ./internal/snapshot ./internal/server ./datalog ./cmd/mdl
	$(GO) test -race -run 'TestChaosWALSigkillRecovery' -count=1 ./cmd/mdl

# Streaming-executor suite under the race detector: the operator
# property tests, and the tuple-vs-stream differential over every
# example program (byte-identical models, traces, stats, checkpoints,
# at parallelism 1/2/N).
executor-test:
	$(GO) test -race ./internal/exec
	$(GO) test -race -run 'Executor|DoesNotAllocate' ./datalog ./internal/core ./cmd/mdl

# Cost-based planner suite under the race detector: the estimator
# property tests, and the syntactic-vs-cost differential over every
# example program (byte-identical models, traces, stats, checkpoints,
# both executors, at parallelism 1/2/N). See docs/PLANNER.md.
planner-test:
	$(GO) test -race ./internal/planner
	$(GO) test -race -run 'Planner|Plan' ./datalog ./cmd/mdl

# End-to-end smoke test of the mdl serve subsystem over real HTTP:
# query, assert, explain, metrics, graceful shutdown, warm restart.
serve-smoke:
	sh scripts/serve-smoke.sh

# Load-generator harness: steady + overload phases against a live
# server; merges p50/p99/error-rate reports into BENCH_<date>.json.
loadgen:
	sh scripts/loadgen.sh

# Short loadgen phases against a throwaway BENCH file: proves the
# harness and the serve tier survive overload without hard errors.
loadgen-smoke:
	LOADGEN_DURATION=2s LOADGEN_OVERLOAD_DURATION=1s \
		LOADGEN_OUT=/tmp/bench-loadgen-smoke.json sh scripts/loadgen.sh

# Full benchmark run; writes BENCH_<date>.json at the repo root.
bench:
	sh scripts/bench.sh

# One iteration per benchmark: proves every benchmark still compiles
# and runs without paying for statistically meaningful timings.
bench-smoke:
	BENCHTIME=1x BENCH_OUT=/tmp/bench-smoke.json sh scripts/bench.sh

# Smoke the multi-worker scheduler benchmarks specifically (parallelism
# 1/2/GOMAXPROCS sub-runs of the solve workloads).
bench-smoke-parallel:
	BENCHTIME=1x BENCH_PATTERN='SolveParallel|SolveAtParallelism' \
		BENCH_OUT=/tmp/bench-smoke-parallel.json sh scripts/bench.sh

# Allocation-regression gate: fail if the streaming executor's
# allocs/op on BenchmarkSolve exceeds 25% of the tuple executor's.
bench-regression:
	sh scripts/bench_regression.sh

ci: vet build test-cpus race fuzz crash-test parallel-test chaos-test wal-crash-test executor-test planner-test serve-smoke loadgen-smoke bench-smoke bench-smoke-parallel bench-regression

clean:
	$(GO) clean ./...
