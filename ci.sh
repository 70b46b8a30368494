#!/usr/bin/env bash
# Local CI gate: build, test, lint, format-check the whole workspace.
# Run from the repository root before pushing. Lint/format steps are
# skipped (with a warning) when the component is not installed.
set -euo pipefail
cd "$(dirname "$0")"

# The performance gate's runs: perfbench, the benchmark BENCHMARK.json
# declares, run through BENCHMARK.json's command. Each workload runs $2
# times untraced for PERF_SECONDS, the workloads alternating so that
# drift on the host reaches all three alike; then analyze runs $3 times
# traced, which also measures serve's layers in a short borrowed pass.
# Each run's stdout goes to its own file in $1. A traced run also writes
# its spans to the file its `context` line names under "spans"; the gate
# reads only stdout, so that file is removed, and `.bench_out` with it
# once empty.
PERF_SECONDS=4
perf_runs() {
    local out=$1 runs=$2 traced=$3 i w spans
    local perfbench=(cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml --)
    # Build once first, so no run's wall time includes the build.
    cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml
    for i in $(seq 1 "$runs"); do
        for w in capture analyze serve; do
            "${perfbench[@]}" --workload "$w" --seconds "$PERF_SECONDS" --trace 0 \
                > "$out/$w-untraced-$i.out"
        done
    done
    for i in $(seq 1 "$traced"); do
        "${perfbench[@]}" --workload analyze --seconds "$PERF_SECONDS" --trace 1 \
            > "$out/analyze-traced-$i.out"
        spans=$(sed -n 's/^{"context": .*"spans": "\([^"]*\)".*/\1/p' "$out/analyze-traced-$i.out")
        if [ -n "$spans" ]; then
            rm -f -- "$spans"
        fi
    done
    rmdir .bench_out 2>/dev/null || true
}

# `TEMPEST_BENCH_RECORD=1 ./ci.sh` re-records BENCH_baseline.json on this
# machine instead of running CI: 15 untraced runs per workload and 5
# traced runs, whose medians and quartiles `json_check bench` writes in
# the baseline's format (its grades against the old baseline are shown,
# not enforced).
if [ "${TEMPEST_BENCH_RECORD:-0}" = "1" ]; then
    RECORD_TMP="$(mktemp -d)"
    trap 'rm -rf "$RECORD_TMP"' EXIT
    echo "==> recording BENCH_baseline.json (15 runs per workload, 5 traced, ${PERF_SECONDS} s each)"
    perf_runs "$RECORD_TMP" 15 5
    cargo run --release -q -p tempest-bench --bin json_check -- \
        bench BENCHMARK.json BENCH_baseline.json "$RECORD_TMP"/*.out \
        > "$RECORD_TMP/baseline.json" || true
    [ -s "$RECORD_TMP/baseline.json" ] || { echo "json_check wrote no baseline" >&2; exit 1; }
    mv "$RECORD_TMP/baseline.json" BENCH_baseline.json
    echo "BENCH_baseline.json recorded"
    exit 0
fi

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

# The CRC-32 kernels against their bit-at-a-time reference in the
# optimized build that ships, where the carry-less-multiply fold and its
# unsafe code run as compiled for release.
echo "==> CRC-32 kernels vs reference (release)"
cargo test --release -q -p tempest-probe crc

# The timeline replay and the correlate sweep against their slow
# references (tests/oracles.rs) in the optimized build, where
# debug assertions are off and the fast paths run as shipped.
echo "==> analysis oracles (release)"
cargo test --release -q -p tempest-bench --test oracles

# The hostile-input suite in the optimized build as well, so its time
# bound on a symbol table out of id order holds as shipped, as the
# oracles' 100k-thread replay above does.
echo "==> hostile input (release)"
cargo test --release -q -p tempest-bench --test hostile_input

# Kill-9 spool durability torture: spawns and SIGKILLs writer
# subprocesses. Seeded and bounded (8 iterations) at its default fixed
# seed; override the seed with TEMPEST_TORTURE_SEED.
echo "==> crash torture (seeded)"
TEMPEST_TORTURE=1 cargo test -q -p tempest-bench --test crash_torture

# Seeded chaos-proxy network collection suite: ships sessions through a
# fault-injecting TCP proxy (resets, truncation, bit flips) and asserts
# exactly-once delivery, at its default fixed seed; override the seed
# with TEMPEST_CHAOS_SEED.
echo "==> chaos shipping (seeded)"
TEMPEST_CHAOS=1 cargo test -q -p tempest-bench --test chaos_ship

# Deterministic hostile-input fuzzing: 2000 seeded iterations over the
# trace/spool/ship decoders asserting no panic, no over-budget
# allocation, no hang. TEMPEST_FUZZ=1 runs a much longer soak.
FUZZ_TMP="$(mktemp -d)"
trap 'rm -rf "$FUZZ_TMP"' EXIT
echo "==> fuzz_decode smoke (2000 seeded iterations)"
cargo run --release -q -p tempest-bench --bin fuzz_decode -- \
    --seed 0xTEMPEST --iters 2000 --metrics-out "$FUZZ_TMP/fuzz-metrics.json"
echo "==> fuzz metrics schema check (limit/cancel counters fired)"
cargo run --release -q -p tempest-bench --bin json_check -- limits "$FUZZ_TMP/fuzz-metrics.json"
if [ "${TEMPEST_FUZZ:-0}" = "1" ]; then
    echo "==> fuzz_decode soak (TEMPEST_FUZZ=1, 200000 iterations)"
    cargo run --release -q -p tempest-bench --bin fuzz_decode -- \
        --seed "${TEMPEST_FUZZ_SEED:-0xTEMPEST}" --iters 200000
else
    echo "--  fuzz soak skipped (set TEMPEST_FUZZ=1 to run)"
fi

echo "==> cargo bench --no-run (benches must compile)"
cargo bench --no-run -p tempest-bench

# The one performance gate: 5 untraced perfbench runs per workload of
# 4 s each and one traced analyze run (about 80 s on 2 vCPUs), graded
# against BENCH_baseline.json. Per (workload, end-to-end metric), the
# runs' median is CRITICAL when it is worse than the baseline median by
# more than both the metric's BENCHMARK.json bound and twice the larger
# of the baseline's and the runs' interquartile spreads, so runs
# scattered by other work on the host do not fail it. The traced run
# fails on correlate throughput more than 30 % under the baseline or a
# warm serve answer not faster than the cold ones. Any CRITICAL fails
# CI.
OBS_TMP="$(mktemp -d)"
# One EXIT trap covers both scratch dirs (a second trap would replace
# the first).
trap 'rm -rf "$OBS_TMP" "$FUZZ_TMP"' EXIT
mkdir "$OBS_TMP/perf"
echo "==> perfbench: 5 untraced runs per workload, ${PERF_SECONDS} s each, then 1 traced analyze run"
perf_runs "$OBS_TMP/perf" 5 1
echo "==> performance gate vs BENCH_baseline.json"
cargo run --release -q -p tempest-bench --bin json_check -- \
    bench BENCHMARK.json BENCH_baseline.json "$OBS_TMP"/perf/*.out > "$OBS_TMP/perf/fresh.json"

echo "==> chrome-trace export + schema check"
cargo run --release -q -p tempest-tools --bin tempest -- \
    demo micro-d --out "$OBS_TMP/traces" >/dev/null
cargo run --release -q -p tempest-tools --bin tempest -- \
    export --format chrome-trace "$OBS_TMP/traces/micro-d-node0.trace" \
    --out "$OBS_TMP/trace.json" >/dev/null
cargo run --release -q -p tempest-bench --bin json_check -- chrome "$OBS_TMP/trace.json"

echo "==> CLI grammar (a misspelt flag is a usage error, exit 2)"
GRAMMAR_STATUS=0
cargo run --release -q -p tempest-tools --bin tempest -- \
    report "$OBS_TMP/traces/micro-d-node0.trace" --formt csv >/dev/null 2>&1 \
    || GRAMMAR_STATUS=$?
[ "$GRAMMAR_STATUS" -eq 2 ] \
    || { echo "report --formt csv exited $GRAMMAR_STATUS, not 2" >&2; exit 1; }
echo "    report --formt csv refused with exit 2"

echo "==> network collection smoke (collect serve --once --fsync + ship, loopback)"
# 400 batches rotate the source spool through several 4 KiB segments, so
# recovery crosses segment boundaries on both sides.
cargo run --release -q -p tempest-bench --bin spool_demo -- "$OBS_TMP/spool" 400 >/dev/null
# Ephemeral port; the daemon publishes the bound address atomically via
# --port-file, so the shipper never guesses a port or sleeps blindly.
# --fsync runs the collector's durability path: a data sync per frame.
cargo run --release -q -p tempest-tools --bin tempest -- \
    collect serve --out "$OBS_TMP/collected" --addr 127.0.0.1:0 --once 1 --fsync \
    --port-file "$OBS_TMP/collector.addr" >/dev/null &
COLLECT_PID=$!
for _ in $(seq 1 100); do
    [ -f "$OBS_TMP/collector.addr" ] && break
    sleep 0.1
done
[ -f "$OBS_TMP/collector.addr" ] || { echo "collector never published its address" >&2; exit 1; }
cargo run --release -q -p tempest-tools --bin tempest -- \
    ship "$OBS_TMP/spool" --to "$(cat "$OBS_TMP/collector.addr")" --session smoke >/dev/null
wait "$COLLECT_PID"
# Byte-identity gate: the collected copy must recover to exactly the
# source spool's trace, and analyzing it must render exactly the same
# report as analyzing the source spool locally.
cargo run --release -q -p tempest-tools --bin tempest -- \
    spool recover "$OBS_TMP/spool" --out "$OBS_TMP/local.trace" >/dev/null
cargo run --release -q -p tempest-tools --bin tempest -- \
    spool recover "$OBS_TMP/collected/smoke-node0" --out "$OBS_TMP/collected.trace" >/dev/null
cmp "$OBS_TMP/local.trace" "$OBS_TMP/collected.trace"
echo "    collected trace byte-identical to the source spool's"
cargo run --release -q -p tempest-tools --bin tempest -- \
    report "$OBS_TMP/local.trace" > "$OBS_TMP/local.report"
cargo run --release -q -p tempest-tools --bin tempest -- \
    report "$OBS_TMP/collected.trace" > "$OBS_TMP/collected.report"
diff "$OBS_TMP/local.report" "$OBS_TMP/collected.report"
echo "    collected report byte-identical to local analysis"
# Durability gate: the collector's spool must deep-verify clean (manifest
# agrees with the segments on disk, clean shutdown, no frame discarded,
# every frame re-decodes under strict limits).
cargo run --release -q -p tempest-tools --bin tempest -- \
    doctor "$OBS_TMP/collected/smoke-node0" --fsck > "$OBS_TMP/collected.doctor"
head -n 1 "$OBS_TMP/collected.doctor" | grep -q ': ok$' \
    || { cat "$OBS_TMP/collected.doctor" >&2; echo "collected spool failed doctor --fsck" >&2; exit 1; }
echo "    collected spool passes doctor --fsck (verdict ok)"
# Frame-trace gate: the collector stamps every frame it appends, so the
# collected copy holds one frame trace per recovered frame and its median
# ship→collect is not 0 ns (an unstamped frame has no transit, and a
# session without any reads as 0 ns).
RECOVERED="$(sed -n 's/^  spool: .* \([0-9][0-9]*\) frame(s) recovered,.*/\1/p' "$OBS_TMP/collected.doctor")"
TRACES="$(grep '^  frame traces: ' "$OBS_TMP/collected.doctor" || true)"
TRACED="$(printf '%s\n' "$TRACES" | sed -n 's/^  frame traces: \([0-9][0-9]*\) frame(s),.*/\1/p')"
if [ -z "$TRACED" ] || [ "$TRACED" != "$RECOVERED" ] || printf '%s\n' "$TRACES" | grep -q ' 0 ns$'; then
    cat "$OBS_TMP/collected.doctor" >&2
    echo "collected spool: frame traces do not cover its $RECOVERED recovered frame(s) with real stamps" >&2
    exit 1
fi
echo "    collected spool ${TRACES#  }"
# The source spool, written locally, goes through the same segment
# reader and must deep-verify clean too.
cargo run --release -q -p tempest-tools --bin tempest -- \
    doctor "$OBS_TMP/spool" --fsck > "$OBS_TMP/local.doctor"
head -n 1 "$OBS_TMP/local.doctor" | grep -q ': ok$' \
    || { cat "$OBS_TMP/local.doctor" >&2; echo "source spool failed doctor --fsck" >&2; exit 1; }
echo "    source spool passes doctor --fsck (verdict ok)"

echo "==> fleet observability smoke (2 shippers + /fleet.json + /metrics)"
cargo run --release -q -p tempest-bench --bin spool_demo -- "$OBS_TMP/fleet-a" >/dev/null
cargo run --release -q -p tempest-bench --bin spool_demo -- "$OBS_TMP/fleet-b" >/dev/null
# Long-running collector (no --once) with the HTTP surfaces on; both
# bound addresses are published atomically via port files.
cargo run --release -q -p tempest-tools --bin tempest -- \
    collect serve --out "$OBS_TMP/fleet-collected" --addr 127.0.0.1:0 \
    --port-file "$OBS_TMP/fleet.addr" \
    --metrics-addr 127.0.0.1:0 --metrics-port-file "$OBS_TMP/fleet-metrics.addr" >/dev/null &
FLEET_PID=$!
for _ in $(seq 1 100); do
    [ -f "$OBS_TMP/fleet.addr" ] && [ -f "$OBS_TMP/fleet-metrics.addr" ] && break
    sleep 0.1
done
[ -f "$OBS_TMP/fleet-metrics.addr" ] || { echo "collector never published its metrics address" >&2; exit 1; }
cargo run --release -q -p tempest-tools --bin tempest -- \
    ship "$OBS_TMP/fleet-a" --to "$(cat "$OBS_TMP/fleet.addr")" --session fleet-a >/dev/null
cargo run --release -q -p tempest-tools --bin tempest -- \
    ship "$OBS_TMP/fleet-b" --to "$(cat "$OBS_TMP/fleet.addr")" --session fleet-b >/dev/null
# Machine-readable surfaces, fetched curl-free through `tempest fleet`,
# then schema-checked/linted by json_check (2 = exact fleet size).
cargo run --release -q -p tempest-tools --bin tempest -- \
    fleet "$(cat "$OBS_TMP/fleet-metrics.addr")" --json > "$OBS_TMP/fleet.json"
cargo run --release -q -p tempest-tools --bin tempest -- \
    fleet "$(cat "$OBS_TMP/fleet-metrics.addr")" --prom > "$OBS_TMP/fleet.prom"
kill "$FLEET_PID" 2>/dev/null || true
wait "$FLEET_PID" 2>/dev/null || true
cargo run --release -q -p tempest-bench --bin json_check -- fleet "$OBS_TMP/fleet.json" 2
cargo run --release -q -p tempest-bench --bin json_check -- prom "$OBS_TMP/fleet.prom"
echo "    fleet snapshot has both nodes; Prometheus exposition lints clean"

echo "==> analysis cache smoke (second report must hit the cache, byte-identical)"
cargo run --release -q -p tempest-tools --bin tempest -- \
    report "$OBS_TMP/traces/micro-d-node0.trace" --cache "$OBS_TMP/cache" \
    > "$OBS_TMP/cache-cold.report"
cargo run --release -q -p tempest-tools --bin tempest -- \
    report "$OBS_TMP/traces/micro-d-node0.trace" --cache "$OBS_TMP/cache" \
    > "$OBS_TMP/cache-warm.report"
diff "$OBS_TMP/cache-cold.report" "$OBS_TMP/cache-warm.report"
# The hit counter only exists once a lookup actually hits, so its
# presence in the self-metrics proves the warm path was taken.
cargo run --release -q -p tempest-tools --bin tempest -- \
    report "$OBS_TMP/traces/micro-d-node0.trace" --cache "$OBS_TMP/cache" --metrics \
    | grep -q "cache_hits_total" \
    || { echo "cache hit counter missing from --metrics output" >&2; exit 1; }
echo "    cached report byte-identical, hit counter present"

echo "==> query API smoke (tempest serve --once + curl, loopback)"
# Serve the sessions collected by the network smoke above; --once-ready
# fails fast if the catalog scan finds nothing, and --once 4 exits after
# the four curls below so `wait` never hangs.
cargo run --release -q -p tempest-tools --bin tempest -- \
    serve "$OBS_TMP/collected" --addr 127.0.0.1:0 --once 4 --once-ready \
    --port-file "$OBS_TMP/serve.addr" --jobs 2 --no-cache --rescan-ms 0 >/dev/null &
SERVE_PID=$!
for _ in $(seq 1 100); do
    [ -f "$OBS_TMP/serve.addr" ] && break
    sleep 0.1
done
[ -f "$OBS_TMP/serve.addr" ] || { echo "query daemon never published its address" >&2; exit 1; }
SERVE_ADDR="$(cat "$OBS_TMP/serve.addr")"
curl -fsS "http://$SERVE_ADDR/api/v1/health" > "$OBS_TMP/serve-health.json"
curl -fsS "http://$SERVE_ADDR/api/v1/sessions" > "$OBS_TMP/serve-sessions.json"
curl -fsS "http://$SERVE_ADDR/api/v1/sessions/smoke-node0/hotspots?top=5&sort=temp" \
    > "$OBS_TMP/serve-hotspots.json"
curl -fsS "http://$SERVE_ADDR/api/v1/sessions/smoke-node0/profile" \
    > "$OBS_TMP/serve-profile.json"
wait "$SERVE_PID"
# Byte-identity gate: the API's profile document must be exactly what
# the CLI renders for the same collected session.
cargo run --release -q -p tempest-tools --bin tempest -- \
    report "$OBS_TMP/collected.trace" --format json --recover > "$OBS_TMP/cli-profile.json"
diff "$OBS_TMP/cli-profile.json" "$OBS_TMP/serve-profile.json"
echo "    API profile byte-identical to the CLI's --format json"
cargo run --release -q -p tempest-bench --bin json_check -- api "$OBS_TMP/serve-health.json"
cargo run --release -q -p tempest-bench --bin json_check -- api "$OBS_TMP/serve-sessions.json"
cargo run --release -q -p tempest-bench --bin json_check -- api "$OBS_TMP/serve-hotspots.json"
grep -q '"id":"smoke-node0"' "$OBS_TMP/serve-sessions.json" \
    || { echo "served session listing is missing smoke-node0" >&2; exit 1; }
echo "    health/sessions/hotspots answers lint clean against the v1 schema"

if cargo clippy --version >/dev/null 2>&1; then
    echo "==> cargo clippy -- -D warnings"
    cargo clippy --workspace --all-targets -- -D warnings
else
    echo "!! clippy not installed; skipping lint" >&2
fi

if cargo fmt --version >/dev/null 2>&1; then
    echo "==> cargo fmt --check"
    cargo fmt --all --check
else
    echo "!! rustfmt not installed; skipping format check" >&2
fi

echo "CI OK"
