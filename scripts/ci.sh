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

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

echo "==> cargo doc --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --quiet

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

echo "==> bench regression gate (opt-in: set CI_BENCH_REGRESS=1; re-times"
echo "    the harness benches and diffs medians against BENCH_baseline.json)"
if [ "${CI_BENCH_REGRESS:-0}" = "1" ]; then
    ./scripts/bench_regress.sh
else
    echo "    skipped (CI_BENCH_REGRESS unset)"
fi

echo "==> scale smoke (10k-node HBC throughput under a wall-clock budget)"
# The internal budget catches throughput regressions (~0.6 s on the
# 1-core reference box; 60 s is ~100x headroom for slow CI hardware);
# the outer timeout(1) additionally converts a hang into a hard failure.
timeout --signal=KILL 120 \
    ./target/release/simulate scale --nodes 10000 --rounds 200 --budget-secs 60

echo "==> benchmark package (builds and tests wsnbench against the changed"
echo "    crates, so a library change that breaks the benchmark fails here)"
CARGO_TARGET_DIR=.bench_build cargo test --release --offline \
    --manifest-path wsnbench/Cargo.toml

echo "==> benchmark digests (every workload's seed-1 reference units must"
echo "    reproduce its sim_digest in tests/bench_digests.txt)"
while read -r workload want; do
    case "$workload" in '' | '#'*) continue ;; esac
    got="$(CARGO_TARGET_DIR=.bench_build cargo run --quiet --release --offline \
        --manifest-path wsnbench/Cargo.toml -- --workload "$workload" --seed 1 \
        --seconds 0 --trace 0 < /dev/null | awk '$1 == "sim_digest" { print $2 }')"
    if [ "$got" != "$want" ]; then
        echo "benchmark digest mismatch on $workload: got '$got', want $want" >&2
        exit 1
    fi
    echo "    $workload $got"
done < tests/bench_digests.txt

echo "ci.sh: all gates passed"
