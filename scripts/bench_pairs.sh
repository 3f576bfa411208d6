#!/usr/bin/env bash
# Paired benchmark gate: the working tree against a parent revision.
#
#   scripts/bench_pairs.sh PARENT_REV [WORKLOAD...] [--pairs N] [--seed S]
#
# Exports PARENT_REV with `git archive` (the checkout gains no worktree
# metadata) and builds both sides' wsnbench into separate target dirs under
# .bench_build/pairs/. Then runs N interleaved pairs (default 10) of the
# BENCHMARK.json command for every workload (default: all of them), for
# BENCHMARK.json's run_seconds each. Pair i runs both sides on the fresh
# seed S+i (default S: the current Unix time, printed so a run can be
# repeated) and alternates which side goes first. Each run's output is
# kept in .bench_build/pairs/runs/WORKLOAD.SEED.SIDE.txt.
#
# For each workload and end-to-end metric it prints both medians and
# quartiles, the change/parent ratio of the medians, the pairs the change
# won and a verdict against the metric's bound: "regressed" beyond the
# bound, "gain" when at least 10 pairs ran, the change wins at least 9 of
# every 10 and its median beats the parent's by more than the parent's
# quartile spread, "ok" otherwise. Each pair's line and each workload's
# "units run" row also show how many timed units each run finished:
# wsnbench's peak_heap_mib includes its own per-unit vectors (about 32
# bytes a unit, doubling at powers of two), so a side that runs more units
# can read a higher peak heap with no program change.
#
# Exit status: 0 on a clean comparison; 1 when any sim_digest differs
# between the sides, the change fails more units than the parent or a
# metric regressed beyond its bound; 2 on a usage error (an unknown
# revision or workload included), before anything is exported or built.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
    echo "usage: scripts/bench_pairs.sh PARENT_REV [WORKLOAD...] [--pairs N] [--seed S]" >&2
    exit 2
}

parent_rev=""
pairs=10
seed="$(date +%s)"
workloads=()
while [ $# -gt 0 ]; do
    case "$1" in
        --pairs) [ $# -ge 2 ] || usage; pairs="$2"; shift 2 ;;
        --seed) [ $# -ge 2 ] || usage; seed="$2"; shift 2 ;;
        -*) usage ;;
        *)
            if [ -z "$parent_rev" ]; then parent_rev="$1"; else workloads+=("$1"); fi
            shift
            ;;
    esac
done
[ -n "$parent_rev" ] || usage
case "$pairs$seed" in *[!0-9]*) usage ;; esac
[ "$pairs" -ge 1 ] || usage
git rev-parse --verify --quiet "$parent_rev^{commit}" > /dev/null || {
    echo "bench_pairs: unknown revision $parent_rev" >&2
    exit 2
}
python3 - ${workloads[@]+"${workloads[@]}"} <<'EOF' || usage
import json, sys
known = [w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]]
for w in sys.argv[1:]:
    if w not in known:
        sys.exit(f"bench_pairs: unknown workload {w} (known: {' '.join(known)})")
EOF

root="$(pwd)"
out=".bench_build/pairs"
rm -rf "$out/parent-src"
mkdir -p "$out/parent-src" "$out/runs"
# Extract with fresh mtimes (-m): git archive stamps every file with the
# commit time, which can predate the parent build left by an earlier
# run, and cargo would then keep that build for a different revision.
git archive "$parent_rev" | tar -x -m -C "$out/parent-src"

echo "==> building parent ($parent_rev) and change"
CARGO_TARGET_DIR="$root/$out/parent" cargo build --quiet --release --offline \
    --manifest-path "$out/parent-src/wsnbench/Cargo.toml"
CARGO_TARGET_DIR="$root/$out/change" cargo build --quiet --release --offline \
    --manifest-path wsnbench/Cargo.toml

exec python3 - "$root" "$out" "$pairs" "$seed" ${workloads[@]+"${workloads[@]}"} <<'EOF'
import json, os, re, statistics, subprocess, sys

root, out, pairs, seed = sys.argv[1], sys.argv[2], int(sys.argv[3]), int(sys.argv[4])
bench = json.load(open(os.path.join(root, "BENCHMARK.json")))
workloads = sys.argv[5:] or [w["name"] for w in bench["workloads"]]
sides = {
    "parent": (os.path.join(root, out, "parent-src"), os.path.join(root, out, "parent")),
    "change": (root, os.path.join(root, out, "change")),
}
seconds = str(bench["run_seconds"])
print(f"==> {pairs} pairs of {seconds} s on seeds {seed}..{seed + pairs - 1}")

# results[workload][side] = list of (metrics, failed, digest), one per pair
results = {w: {"parent": [], "change": []} for w in workloads}
bad = []
for i in range(pairs):
    s = seed + i
    order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
    for w in workloads:
        digests = {}
        for side in order:
            cwd, target = sides[side]
            cmd = bench["command"] + ["--workload", w, "--seed", str(s),
                                      "--seconds", seconds, "--trace", "0"]
            env = dict(os.environ, CARGO_TARGET_DIR=target)
            run = subprocess.run(cmd, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                 capture_output=True, text=True)
            log = os.path.join(root, out, "runs", f"{w}.{s}.{side}.txt")
            open(log, "w").write(run.stdout + run.stderr)
            lines = run.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                sys.exit(f"{w} seed {s} {side}: exit {run.returncode}, no result (see {log})")
            digest = next((l.split()[1] for l in lines if l.startswith("sim_digest")), None)
            digests[side] = digest
            # wsnbench's "unit_ms  median … over N units" line.
            units = next((int(m.group(1)) for l in lines if l.startswith("unit_ms")
                          for m in [re.search(r"over (\d+) units", l)] if m), 0)
            metrics = {k: v["value"] for k, v in result["metrics"].items()}
            results[w][side].append((metrics, result["failed"], digest, units))
        if digests["parent"] != digests["change"]:
            bad.append(f"{w} seed {s}: sim_digest {digests['parent']} (parent) != {digests['change']} (change)")
        p, c = results[w]["parent"][-1], results[w]["change"][-1]
        print(f"    pair {i + 1}/{pairs} seed {s} {w}: unit_ms {p[0].get('unit_ms', 0):.3f} -> "
              f"{c[0].get('unit_ms', 0):.3f} over {p[3]} -> {c[3]} units, peak_heap_mib "
              f"{p[0].get('peak_heap_mib', 0):.3f} -> {c[0].get('peak_heap_mib', 0):.3f}, "
              f"digest {'ok' if digests['parent'] == digests['change'] else 'MISMATCH'}",
              flush=True)

def quartiles(v):
    if len(v) < 2:
        return v[0], v[0]
    q = statistics.quantiles(v, n=4)
    return q[0], q[2]

print()
print(f"{'workload':<14} {'metric':<14} {'parent median (q1-q3)':<28} {'change median (q1-q3)':<28} "
      f"{'ratio':>6} {'wins':>6}  verdict (bound)")
for w in workloads:
    failed = {side: sum(r[1] for r in results[w][side]) for side in sides}
    if failed["change"] > failed["parent"]:
        bad.append(f"{w}: the change failed {failed['change']} units, the parent {failed['parent']}")
    for m in bench["end_to_end"]:
        name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
        pv = [r[0][name] for r in results[w]["parent"]]
        cv = [r[0][name] for r in results[w]["change"]]
        pm, cm = statistics.median(pv), statistics.median(cv)
        (p1, p3), (c1, c3) = quartiles(pv), quartiles(cv)
        ratio = cm / pm if pm else float("nan")
        wins = sum((c < p) if lower else (c > p) for p, c in zip(pv, cv))
        worse = ratio - 1 if lower else 1 - ratio
        gap = (pm - cm) if lower else (cm - pm)
        if worse > bound:
            verdict = "regressed"
            bad.append(f"{w}: {name} ratio {ratio:.3f} is beyond its bound {bound}")
        elif len(pv) >= 10 and wins * 10 >= 9 * len(pv) and gap > p3 - p1:
            verdict = "gain"
        else:
            verdict = "ok"
        print(f"{w:<14} {name:<14} {f'{pm:.4g} ({p1:.4g}-{p3:.4g})':<28} {f'{cm:.4g} ({c1:.4g}-{c3:.4g})':<28} "
              f"{ratio:>6.3f} {f'{wins}/{len(pv)}':>6}  {verdict} ({bound})")
    print(f"{w:<14} {'failed units':<14} {failed['parent']:<28} {failed['change']:<28}")
    pu, cu = (f"{statistics.median(r[3] for r in results[w][side]):g} (median)" for side in sides)
    print(f"{w:<14} {'units run':<14} {pu:<28} {cu:<28}")

if bad:
    print()
    for b in bad:
        print("FAIL: " + b)
    sys.exit(1)
print()
print("bench_pairs: every sim_digest matched; no metric regressed beyond its bound")
EOF
