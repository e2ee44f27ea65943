# Developer entry points. CI runs the same commands (see
# .github/workflows/ci.yml). End-to-end performance numbers come from the
# repository benchmark, `bash qfebench/run.sh` (BENCHMARK.json); the bench
# targets here print micro-benchmarks (EXPERIMENTS.md).

GO ?= go
# Restrict with e.g. `make bench BENCH=BenchmarkMicro` for a faster run.
BENCH ?= .

# Build identity stamped into every binary (qfe_build_info, /stats,
# /cluster/stats). Overridable: `make build VERSION=v1.2.3`.
VERSION ?= $(shell git describe --tags --always --dirty 2>/dev/null || echo dev)
COMMIT  ?= $(shell git rev-parse --short HEAD 2>/dev/null || echo unknown)
LDFLAGS  = -ldflags "-X qfe/internal/obs.Version=$(VERSION) -X qfe/internal/obs.Commit=$(COMMIT)"

.PHONY: build test race test-parallel reachable bench bench-micro bench-batch bench-guard sim sim-smoke chaos chaos-smoke fault-smoke cluster cluster-smoke metrics-smoke

build:
	$(GO) build $(LDFLAGS) ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The worker-count determinism matrix and race-stress tests with GOMAXPROCS
# pinned above the core count (oversubscription maximises interleavings) —
# the same command the CI parallel-determinism job runs.
test-parallel:
	GOMAXPROCS=8 $(GO) test -race -count=2 \
		-run 'Parallel|Concurrent|Steal|Block|Degenerate' ./...

# Reachability gate (CI): build every program of the repository with
# inlining off and fail when a function declared in a non-test file under
# internal/, cmd/ or examples/ is linked by none of them. Functions kept on
# purpose are listed, each with its reason, in scripts/reachable/allowlist.txt.
reachable:
	$(GO) run ./scripts/reachable

# Full micro-benchmark sweep with allocation counts, printed to stdout.
bench:
	$(GO) test -bench $(BENCH) -benchmem -run '^$$'

# The smoke variant CI runs: every micro benchmark once, allocations shown.
bench-micro:
	$(GO) test -bench BenchmarkMicro -benchmem -benchtime 1x -run '^$$' ./...

# Focused batch-engine benchmarks: the shared-scan evaluator, the
# allocation-gated full session, and Algorithm 4 serial vs all-cores.
bench-batch:
	$(GO) test -bench 'BenchmarkMicroBatchEval|BenchmarkMicroFullSession|BenchmarkMicroAlg4Parallelism' \
		-benchmem -run '^$$' .

# Benchmark gates (CI): fail when MicroFullSession allocs/op exceeds the
# recorded BENCH_baseline.txt, MicroCandidateGenerationQ4 allocs/op (QBO on
# baseball/Q4) the recorded BENCH_baseline_qbo.txt,
# MicroCandidateGenerationCorpus allocs/op (QBO on the first 200 winnow
# corpus scenarios) the recorded BENCH_baseline_qbo_corpus.txt, or
# MicroSessionParallelism/serial allocs/op (scientific Q1) the recorded
# BENCH_baseline_session.txt, by more than 20%, or (on hosts with >= 8
# cores) when the parallel session benchmark misses its speedup ratio.
# Refresh the allocation baselines after an intentional change with
# scripts/bench_guard.sh --record.
bench-guard:
	./scripts/bench_guard.sh

# Small seeded simulation gate (CI): generate a corpus, drive every scenario
# through a full QFE session under target feedback, and fail on any
# invariant violation or non-convergence. ~30s ceiling on one core.
sim-smoke:
	$(GO) run ./cmd/qfe-sim generate -n 25 -seed 7 -out /tmp/qfe-sim-smoke.jsonl
	$(GO) run ./cmd/qfe-sim run -corpus /tmp/qfe-sim-smoke.jsonl -policy target \
		-fresh 1 -require-converge 1.0 -report /tmp/qfe-sim-smoke-report.json

# Full simulation benchmark: the 100-scenario corpus of EXPERIMENTS.md,
# recorded as BENCH_sim.json (deterministic modulo the timing block).
sim:
	$(GO) run ./cmd/qfe-sim generate -n 100 -seed 1 -out corpus_sim.jsonl
	$(GO) run ./cmd/qfe-sim run -corpus corpus_sim.jsonl -policy target \
		-fresh 2 -require-converge 0.95 -report BENCH_sim.json

# Crash-recovery chaos gate (CI): SIGKILL a live qfe-server mid-round a few
# times and fail on any lost acknowledged session, outcome mismatch against
# an uninterrupted reference pass, or session error (DESIGN.md §11).
chaos-smoke:
	$(GO) build -o /tmp/qfe-server ./cmd/qfe-server
	$(GO) run ./cmd/qfe-sim generate -n 12 -seed 7 -out /tmp/qfe-chaos-smoke.jsonl
	$(GO) run ./cmd/qfe-sim chaos -corpus /tmp/qfe-chaos-smoke.jsonl \
		-server-bin /tmp/qfe-server -sessions 24 -workers 4 -kills 3 -seed 7 \
		-report /tmp/qfe-chaos-smoke-report.json

# Fault-injection gate (CI): the chaos harness plus a seeded deterministic
# fault schedule — torn write, EIO, an ENOSPC window (degraded read-only
# mode + auto-recovery), an fsync stall, an inbound partition, injected
# latency and a dropped response — on top of the SIGKILLs. Fails on any
# lost acknowledged session or outcome mismatch, and on vacuity: the run
# must observe injected WAL append errors and a degraded-mode round trip
# (DESIGN.md §14).
fault-smoke:
	$(GO) build -o /tmp/qfe-server ./cmd/qfe-server
	$(GO) run ./cmd/qfe-sim generate -n 12 -seed 7 -out /tmp/qfe-chaos-smoke.jsonl
	$(GO) run ./cmd/qfe-sim chaos -corpus /tmp/qfe-chaos-smoke.jsonl \
		-server-bin /tmp/qfe-server -sessions 24 -workers 4 -kills 2 -seed 7 \
		-fault-schedule seed:7 \
		-report /tmp/qfe-fault-smoke-report.json

# Full chaos run recorded as BENCH_chaos.json (EXPERIMENTS.md): 80 sessions
# (>=50 complete after skipping non-reproducible scenarios), 6 SIGKILL+
# restart cycles at progress-randomized points, plus the seeded fault
# schedule (torn write, EIO, ENOSPC degraded-mode window, fsync stall,
# partition, latency, response drop) injected throughout the kill pass.
chaos:
	$(GO) build -o /tmp/qfe-server ./cmd/qfe-server
	$(GO) run ./cmd/qfe-sim generate -n 20 -seed 1 -out corpus_chaos.jsonl
	$(GO) run ./cmd/qfe-sim chaos -corpus corpus_chaos.jsonl \
		-server-bin /tmp/qfe-server -sessions 80 -workers 8 -kills 6 -seed 1 \
		-fault-schedule seed:1 \
		-report BENCH_chaos.json

# Cluster failover gate (CI): 3 qfe-server workers behind qfe-router; one
# worker is SIGKILLed mid-run and never restarted — the router must fence
# it, hand its WAL estate to the survivors, and reassign its hash range
# with zero lost acknowledged sessions and outcomes identical to a
# single-node reference pass (DESIGN.md §12).
cluster-smoke:
	$(GO) build -o /tmp/qfe-server ./cmd/qfe-server
	$(GO) build -o /tmp/qfe-router ./cmd/qfe-router
	$(GO) run ./cmd/qfe-sim generate -n 12 -seed 7 -out /tmp/qfe-cluster-smoke.jsonl
	$(GO) run ./cmd/qfe-sim chaos -corpus /tmp/qfe-cluster-smoke.jsonl \
		-server-bin /tmp/qfe-server -router-bin /tmp/qfe-router \
		-cluster 3 -sessions 24 -workers 4 -kills 1 -seed 7 \
		-report /tmp/qfe-cluster-smoke-report.json

# Full cluster chaos run recorded as BENCH_cluster.json (EXPERIMENTS.md):
# router + 3 workers, 2 of the 3 SIGKILLed at progress-randomized points —
# the second death exercises chained failover (the estate list, including
# the first victim's, is re-adopted by the last survivor).
cluster:
	$(GO) build -o /tmp/qfe-server ./cmd/qfe-server
	$(GO) build -o /tmp/qfe-router ./cmd/qfe-router
	$(GO) run ./cmd/qfe-sim generate -n 20 -seed 1 -out corpus_chaos.jsonl
	$(GO) run ./cmd/qfe-sim chaos -corpus corpus_chaos.jsonl \
		-server-bin /tmp/qfe-server -router-bin /tmp/qfe-router \
		-cluster 3 -sessions 80 -workers 8 -kills 2 -seed 1 \
		-report BENCH_cluster.json

# Observability gate (CI): boot a 2-worker cluster behind the router, run
# real sessions, kill one worker, then scrape /metrics on the router and the
# surviving worker — fail unless the round-phase histograms, WAL fsync
# latency and the failover counter are present and non-zero (DESIGN.md
# §13).
metrics-smoke:
	$(GO) build $(LDFLAGS) -o /tmp/qfe-server ./cmd/qfe-server
	$(GO) build $(LDFLAGS) -o /tmp/qfe-router ./cmd/qfe-router
	./scripts/metrics_smoke.sh /tmp/qfe-server /tmp/qfe-router
