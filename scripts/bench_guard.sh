#!/bin/sh
# Benchmark regression guard for the CI smoke step. Two gates:
#
#  1. Allocation gates — allocs/op of BenchmarkMicroFullSession (a whole
#     winnowing session), of BenchmarkMicroCandidateGenerationQ4 (QBO
#     candidate generation on baseball/Q4), of
#     BenchmarkMicroCandidateGenerationCorpus (QBO on the first 200
#     scenarios of the winnow corpus, seed 1) and of
#     BenchmarkMicroSessionParallelism/serial (a whole session on
#     scientific Q1, whose rounds must not copy the database) must not exceed
#     their recorded baselines (BENCH_baseline.txt, BENCH_baseline_qbo.txt,
#     BENCH_baseline_qbo_corpus.txt and BENCH_baseline_session.txt) by more
#     than the allowed headroom.
#     Wall-clock is machine-dependent and not gated; allocations are
#     deterministic modulo pool warm-up, which the headroom absorbs.
#
#  2. Speedup gate — the parallel variant of MicroSessionParallelism must
#     beat its serial twin by the required ratio. ns/op ratios between two
#     sub-benchmarks of the same run on the same machine ARE comparable,
#     unlike absolute times. The gate only runs when the host exposes at
#     least SPEEDUP_MIN_CPUS cores: below that there is no parallel speedup
#     to measure (the work-stealing paths still run — the determinism and
#     race tests cover them — but wall clock cannot improve on one core), so
#     the gate skips with a notice instead of reporting noise. Algorithm 4
#     has no ratio check: it scores each distinct signature multiset once,
#     so little of its time is left to split across workers, and its serial
#     path is as fast as its parallel one on small hosts.
#
# Usage: scripts/bench_guard.sh [headroom_percent]
# Refresh the allocation baselines after an intentional change with:
#   scripts/bench_guard.sh --record
set -e

cd "$(dirname "$0")/.."
HEADROOM="${1:-20}"

# Speedup-gate threshold: parallel ns/op must be <= serial * MAX_RATIO,
# 45% on the full session (>= 2.2x speedup), measured with GOMAXPROCS =
# SPEEDUP_MIN_CPUS.
SPEEDUP_MIN_CPUS=8
SESSION_MAX_RATIO_PCT=45

# --- gate 0: obs hot-path contract ------------------------------------------

# The metrics layer promises zero allocations per increment (internal/obs
# doc comment); gate 1 below then measures the full session WITH that
# instrumentation live, so an obs regression would show up twice. Run the
# contract test first for a precise failure message.
go test -run TestHotPathZeroAllocs -count=1 ./internal/obs >/dev/null || {
    echo "bench_guard: FAIL — obs hot-path allocation contract broken (go test -run TestHotPathZeroAllocs ./internal/obs)" >&2
    exit 1
}
echo "bench_guard: obs hot-path zero-alloc contract OK"

# --- gate 1: allocations (instrumented build) --------------------------------

# alloc_gate <benchmark> <benchtime> <baseline file>: run the benchmark alone
# and compare its allocs/op with the baseline, or record it under --record.
# -cpu 1 pins the measurement: allocs/op grows a few percent with
# GOMAXPROCS (per-worker scratch, per-P pools), so recorded baselines and
# CI runners must agree on the core count to be comparable.
alloc_gate() {
    NAME=$1; BENCHTIME=$2; BASELINE_FILE=$3
    OUT=$(go test -run '^$' -bench "^$NAME\$" -benchmem -benchtime "$BENCHTIME" -cpu 1 .)
    echo "$OUT"
    ALLOCS=$(echo "$OUT" | awk -v name="$NAME" '$1 == name {
        for (i = 1; i <= NF; i++) if ($i == "allocs/op") print $(i-1)
    }')
    if [ -z "$ALLOCS" ]; then
        echo "bench_guard: could not parse $NAME allocs/op from benchmark output" >&2
        exit 2
    fi
    if [ "$HEADROOM" = "--record" ]; then
        echo "$ALLOCS" > "$BASELINE_FILE"
        echo "bench_guard: recorded $NAME baseline $ALLOCS allocs/op in $BASELINE_FILE"
        return
    fi
    if [ ! -f "$BASELINE_FILE" ]; then
        echo "bench_guard: no baseline file $BASELINE_FILE; run with --record first" >&2
        exit 2
    fi
    BASELINE=$(cat "$BASELINE_FILE")
    LIMIT=$((BASELINE + BASELINE * HEADROOM / 100))
    echo "bench_guard: $NAME $ALLOCS allocs/op (baseline $BASELINE, limit $LIMIT = +$HEADROOM%)"
    if [ "$ALLOCS" -gt "$LIMIT" ]; then
        echo "bench_guard: FAIL — $NAME allocation regression over the recorded baseline" >&2
        exit 1
    fi
}

alloc_gate BenchmarkMicroFullSession 3x BENCH_baseline.txt
# One iteration suffices for both qbo gates. Q4 allocated 13 times its
# baseline while the grow search compiled each offered conjunct and hashed
# rows into Bags to verify it. The corpus reaches the greedy-anchor path,
# which Q4 does not, and most of the conjuncts offered there fail.
alloc_gate BenchmarkMicroCandidateGenerationQ4 1x BENCH_baseline_qbo.txt
alloc_gate BenchmarkMicroCandidateGenerationCorpus 1x BENCH_baseline_qbo_corpus.txt
# A round that copied and re-validated the whole database, as rounds did
# before the key index, made this session allocate 3.8 times as much.
alloc_gate BenchmarkMicroSessionParallelism/serial 3x BENCH_baseline_session.txt
if [ "$HEADROOM" = "--record" ]; then
    exit 0
fi
echo "bench_guard: allocations OK"

# --- gate 2: parallel speedup ----------------------------------------------

NCPU=$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)
if [ "$NCPU" -lt "$SPEEDUP_MIN_CPUS" ]; then
    echo "bench_guard: SKIP speedup gate — host has $NCPU CPUs, need >= $SPEEDUP_MIN_CPUS"
    echo "bench_guard: OK"
    exit 0
fi

POUT=$(go test -run '^$' -bench 'BenchmarkMicroSessionParallelism' \
    -benchtime 3x -cpu "$SPEEDUP_MIN_CPUS" .)
echo "$POUT"

# ns_of <bench-regex>: ns/op of the named sub-benchmark from $POUT.
ns_of() {
    echo "$POUT" | awk -v pat="$1" '$1 ~ pat {
        for (i = 1; i <= NF; i++) if ($i == "ns/op") print $(i-1)
    }' | head -1
}

check_ratio() {
    NAME=$1; SERIAL=$2; PARALLEL=$3; MAXPCT=$4
    if [ -z "$SERIAL" ] || [ -z "$PARALLEL" ]; then
        echo "bench_guard: could not parse $NAME serial/parallel ns/op" >&2
        exit 2
    fi
    # Integer arithmetic: parallel*100 <= serial*MAXPCT  <=>  ratio <= MAXPCT%.
    RATIO_PCT=$((PARALLEL * 100 / SERIAL))
    echo "bench_guard: $NAME parallel/serial = ${RATIO_PCT}% (limit ${MAXPCT}%)"
    if [ $((PARALLEL * 100)) -gt $((SERIAL * MAXPCT)) ]; then
        echo "bench_guard: FAIL — $NAME parallel speedup below the required ratio" >&2
        exit 1
    fi
}

check_ratio MicroSessionParallelism \
    "$(ns_of '^BenchmarkMicroSessionParallelism/serial')" \
    "$(ns_of '^BenchmarkMicroSessionParallelism/parallel')" \
    "$SESSION_MAX_RATIO_PCT"

echo "bench_guard: OK"
