#!/usr/bin/env bash
# Offline CI gate. Everything here runs without touching a registry or the
# network — the workspace has zero external dependencies (see README
# "Offline builds"). Run from anywhere inside the repository.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> tier-1: cargo test -q"
cargo test -q

echo "==> cargo test --release -q (the benchmarked build wraps on integer"
echo "    overflow where the debug build panics, so it must pass on its own)"
cargo test --release -q

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

echo "==> non-test line count (scripts/loc.sh, the figure changes report)"
./scripts/loc.sh

echo "==> cargo doc --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --quiet

echo "==> examples (each of the six must run to completion, exit 0)"
for example in adaptive_switching algorithm_comparison environmental_monitoring \
    lossy_links multi_sensor_nodes quickstart; do
    cargo run --quiet -p wsn-sim --release --example "$example" > /dev/null
done

echo "==> experiments --quick golden (every number the paper-figure sweeps"
echo "    print must match tests/experiments_quick_golden.txt byte for byte)"
./target/release/experiments --quick 2> /dev/null | diff tests/experiments_quick_golden.txt -

echo "==> ext-reliability smoke (ARQ + wave recovery under 30% loss)"
./target/release/simulate --algorithm POS --nodes 80 --rounds 30 --runs 2 \
    --loss 0.3 --retries 3 --recovery 4 --seed 7 --threads 2

echo "==> energy-audit smoke (--audit must reconcile bit-exactly, exit 0)"
./target/release/simulate --algorithm IQ --nodes 60 --rounds 20 --runs 2 \
    --loss 0.3 --retries 3 --recovery 4 --node-failures 0.01 \
    --seed 11 --threads 2 --audit

echo "==> telemetry smoke (exporters + self-diff must report identical, a"
echo "    lossy capture of the same seed must diverge)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
./target/release/simulate --algorithm IQ --nodes 60 --rounds 10 --runs 1 \
    --seed 13 --events "$tmp/run.trace.json" --capture "$tmp/a.jsonl" \
    --metrics-out "$tmp/metrics.prom"
./target/release/simulate --algorithm IQ --nodes 60 --rounds 10 --runs 1 \
    --seed 13 --capture "$tmp/b.jsonl"
./target/release/simulate diff "$tmp/a.jsonl" "$tmp/b.jsonl" | grep -q '^identical'
# Traced runs install the world's loss model: the same seed under 30%
# loss must diverge from the lossless capture (diff exits 1).
./target/release/simulate --algorithm IQ --nodes 60 --rounds 10 --runs 1 \
    --seed 13 --loss 0.3 --retries 2 --capture "$tmp/lossy.jsonl"
code=0
./target/release/simulate diff "$tmp/a.jsonl" "$tmp/lossy.jsonl" > /dev/null || code=$?
if [ "$code" != 1 ]; then
    echo "telemetry smoke: lossy capture must diverge (diff exit 1), got $code" >&2
    exit 1
fi
grep -q 'wsn_msg_bits_count' "$tmp/metrics.prom"
grep -q '"traceEvents"' "$tmp/run.trace.json"
# Spans are wave-granular on one engine track: the trace holds wave spans
# and exactly one thread_name record.
grep -q '"name":"convergecast"' "$tmp/run.trace.json"
tracks="$(grep -o '"thread_name"' "$tmp/run.trace.json" | wc -l || true)"
if [ "$tracks" != 1 ]; then
    echo "telemetry smoke: want one thread_name record, got $tracks" >&2
    exit 1
fi
# A round beyond u32 must be rejected (exit 2), not wrapped to round 1 and
# reported identical.
frame='"phase":"validation","kind":"data","src":2,"dst":1,"frames":1,"bits":160}'
echo "{\"round\":1,$frame" > "$tmp/r1.jsonl"
echo "{\"round\":4294967297,$frame" > "$tmp/r2.jsonl"
code=0
./target/release/simulate diff "$tmp/r1.jsonl" "$tmp/r2.jsonl" > /dev/null 2>&1 || code=$?
if [ "$code" != 2 ]; then
    echo "telemetry smoke: an out-of-range round must exit 2, got $code" >&2
    exit 1
fi

echo "==> unconnectable-world smoke (a world no placement connects must exit 2"
echo "    with one error line, batch, --all and traced alike)"
for args in "--algorithm HBC --nodes 5" "--all --nodes 5" \
    "--algorithm HBC --nodes 5 --csv $tmp/never.csv"; do
    code=0
    ./target/release/simulate $args > /dev/null 2> "$tmp/unconnectable.err" || code=$?
    lines="$(wc -l < "$tmp/unconnectable.err")"
    if [ "$code" != 2 ] || [ "$lines" != 1 ] || ! grep -q '^error: ' "$tmp/unconnectable.err"; then
        echo "unconnectable smoke: '$args' must exit 2 with one error line," \
            "got exit $code and:" >&2
        cat "$tmp/unconnectable.err" >&2
        exit 1
    fi
done

echo "==> fuzz smoke (corpus replay + 100 fresh scenarios, 8-protocol battery"
echo "    incl. QD/GKS sketches under the eps-rank-tolerance oracle, boundary"
echo "    phi draws and 1-16-query serve workloads with solo-identity + lane"
echo "    accounting checks, must be clean)"
./target/release/simulate fuzz --scenarios 100 --seed 42 \
    --corpus tests/fuzz_corpus.txt

echo "==> dynamic-world smoke (200 fresh scenarios drawn over the mobility/"
echo "    churn/drift/duty classes plus a mobile churning duty-cycled audit"
echo "    run that must reconcile bit-exactly)"
./target/release/simulate fuzz --scenarios 200 --seed 555
./target/release/simulate --algorithm IQ --nodes 60 --rounds 20 --runs 2 \
    --mobility --churn --drift --duty --loss 0.2 --retries 2 --seed 17 --audit

echo "==> serve smoke (16-query continuous service + mid-run admit/retire:"
echo "    audit must reconcile, the shared-frame digest must be clean)"
./target/release/simulate serve --queries 16 --rounds 12 --seed 99 \
    --admit 4:250 --retire 8:16 --audit
./target/release/simulate serve --queries 16 --rounds 12 --seed 99 --shared \
    --admit 4:250 --retire 8:16 --digest > "$tmp/serve.txt"
grep -q 'discrepancies=0$' "$tmp/serve.txt"

echo "==> monitor smoke (80-node/48-round/16-query monitored serve: zero"
echo "    perturbation of the digest, a 1 mJ budget raises BudgetOverrun with"
echo "    exit 1, and the flight-recorder JSONL records it)"
./target/release/simulate serve --queries 16 --nodes 80 --rounds 48 --seed 7 \
    --shared --digest > "$tmp/mon-off.txt"
./target/release/simulate serve --queries 16 --nodes 80 --rounds 48 --seed 7 \
    --shared --digest --monitor --budget-mj 1 > "$tmp/mon-on.txt"
cmp "$tmp/mon-off.txt" "$tmp/mon-on.txt"
if ./target/release/simulate serve --queries 16 --nodes 80 --rounds 48 \
    --seed 7 --shared --budget-mj 1 \
    --health-json "$tmp/health.jsonl" > "$tmp/mon-run.txt"; then
    echo "monitor smoke: expected exit 1 from the 1 mJ budget overrun" >&2
    exit 1
fi
grep -q 'kind=budget_overrun' "$tmp/mon-run.txt"
grep -q '"type":"health".*"kind":"budget_overrun"' "$tmp/health.jsonl"

echo "==> benchmark gate usage smoke (scripts/bench_pairs.sh must reject each"
echo "    bad invocation with exit 2 before it exports or builds anything)"
for args in "" "HEAD no_such_workload" "HEAD --pairs 0" "no-such-rev"; do
    code=0
    timeout 10 ./scripts/bench_pairs.sh $args > /dev/null 2>&1 || code=$?
    if [ "$code" != 2 ]; then
        echo "bench_pairs smoke: '$args' must exit 2 within 10 s, got $code" >&2
        exit 1
    fi
done

echo "==> scale smoke (10k-node HBC throughput under a wall-clock budget)"
# The internal budget catches throughput regressions (0.22-0.38 s on a
# shared 2-vCPU Xeon; 60 s is ~150x headroom for slow CI hardware); the
# outer timeout(1) additionally converts a hang into a hard failure.
timeout --signal=KILL 120 \
    ./target/release/simulate scale --nodes 10000 --rounds 200 --budget-secs 60

echo "==> benchmark package (builds and tests wsnbench against the changed"
echo "    crates, so a library change that breaks the benchmark fails here)"
CARGO_TARGET_DIR=.bench_build cargo test --release --offline \
    --manifest-path wsnbench/Cargo.toml

echo "==> benchmark package fmt + clippy (warnings are errors)"
cargo fmt --check --manifest-path wsnbench/Cargo.toml
CARGO_TARGET_DIR=.bench_build cargo clippy --release --offline --all-targets \
    --manifest-path wsnbench/Cargo.toml -- -D warnings

echo "==> benchmark digests (every workload's seed-1 reference units must"
echo "    reproduce its sim_digest in tests/bench_digests.txt, and the pinned"
echo "    workloads' peak_heap_mib must stay at or below its pin)"
while read -r workload want; do
    case "$workload" in '' | '#'*) continue ;; esac
    out="$(CARGO_TARGET_DIR=.bench_build cargo run --quiet --release --offline \
        --manifest-path wsnbench/Cargo.toml -- --workload "$workload" --seed 1 \
        --seconds 0 --trace 0 < /dev/null)"
    got="$(awk '$1 == "sim_digest" { print $2 }' <<< "$out")"
    if [ "$got" != "$want" ]; then
        echo "benchmark digest mismatch on $workload: got '$got', want $want" >&2
        exit 1
    fi
    echo "    $workload $got"
    # The heap pins: the reference units' peak heap, rounded up to the
    # next 0.05 MiB, so that retained storage cannot creep back in unseen.
    # wsnbench's allocator counts requested bytes, so each figure repeats
    # exactly on any host.
    case "$workload" in
        scale_10k) pin=5.90 ;;
        paper_batch) pin=0.65 ;;
        dynamic_lossy) pin=0.85 ;;
        serve_64q) pin=11.50 ;;
        *) pin="" ;;
    esac
    if [ -n "$pin" ]; then
        heap="$(awk '$1 == "peak_heap_mib" { print $3 }' <<< "$out")"
        if ! awk -v h="$heap" -v p="$pin" 'BEGIN { exit !(h != "" && h + 0 <= p + 0) }'; then
            echo "$workload peak_heap_mib '$heap' MiB is above its $pin MiB pin" >&2
            exit 1
        fi
        echo "    $workload peak_heap_mib $heap MiB (pin $pin)"
    fi
done < tests/bench_digests.txt

echo "ci.sh: all gates passed"
