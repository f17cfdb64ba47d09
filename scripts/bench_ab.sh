#!/usr/bin/env bash
# A/B run of the repo benchmark (perfbench/, BENCHMARK.json): a parent
# revision against the working tree, in alternating pairs.
#
#   scripts/bench_ab.sh <parent-rev> <workload> <seed> <pairs>
#
# Exports <parent-rev> into a temporary directory (`git archive`), builds
# each side's perfbench into its own target directory, then runs <pairs>
# pairs of `--trace 0` runs at BENCHMARK.json's run_seconds. The order
# alternates from pair to pair (parent first, then change first), so slow
# drift of the machine does not favour one side. It prints, per end-to-end
# metric, each side's median and quartiles and how many pairs the change
# won, then compares the `sig` (selection signature) lines of every pair
# on the keys both runs reached. It reads perfbench/ and BENCHMARK.json and
# never edits them.
#
# Logs go to a fresh temporary directory (under $TMPDIR when set), which is
# kept and printed at the end; the exported tree and both target
# directories are deleted on exit.
set -euo pipefail

if [ "$#" -ne 4 ]; then
    echo "usage: $0 <parent-rev> <workload> <seed> <pairs>" >&2
    exit 2
fi
rev=$1 workload=$2 seed=$3 pairs=$4
root=$(cd "$(dirname "$0")/.." && pwd)
work=$(mktemp -d "${TMPDIR:-/tmp}/bench_ab.XXXXXX")
mkdir -p "$work/logs"
cleanup() { rm -rf "$work/parent" "$work/target-parent" "$work/target-change"; }
trap cleanup EXIT

parent_sha=$(git -C "$root" rev-parse --verify "$rev^{commit}")
mkdir -p "$work/parent"
git -C "$root" archive "$parent_sha" | tar -x -C "$work/parent"

build() { # <tree> <target-dir>
    CARGO_TARGET_DIR=$2 cargo build --release --offline --quiet \
        --manifest-path "$1/perfbench/Cargo.toml" >&2
}
echo "==> building perfbench at ${parent_sha:0:12} and at the working tree" >&2
build "$work/parent" "$work/target-parent"
build "$root" "$work/target-change"

seconds=$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
    "$root/BENCHMARK.json")

run() { # <side> <tree> <pair>
    local log="$work/logs/$1-$3.log"
    (cd "$2" && "$work/target-$1/release/perfbench" --workload "$workload" \
        --seed "$seed" --seconds "$seconds" --trace 0) > "$log" 2>&1 || true
}
for ((i = 1; i <= pairs; i++)); do
    echo "==> pair $i/$pairs ($workload, seed $seed, ${seconds} s per run)" >&2
    if ((i % 2)); then
        run parent "$work/parent" "$i"
        run change "$root" "$i"
    else
        run change "$root" "$i"
        run parent "$work/parent" "$i"
    fi
done

python3 - "$root/BENCHMARK.json" "$work/logs" "$pairs" "${parent_sha:0:12}" <<'EOF'
import json
import os
import statistics
import sys

bench, logs, pairs, parent = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4]
spec = json.load(open(bench))["end_to_end"]


def load(side, i):
    path = os.path.join(logs, f"{side}-{i}.log")
    lines = open(path).read().splitlines()
    result = None
    for line in reversed(lines):
        if line.startswith("{"):
            result = json.loads(line)
            break
    sigs = {}
    for line in lines:
        if line.startswith("  sig "):
            key, _, rest = line[len("  sig "):].partition(" ")
            sigs[key] = rest
    return result, sigs


runs = {s: [load(s, i) for i in range(1, pairs + 1)] for s in ("parent", "change")}
for side in ("parent", "change"):
    bad = sum(1 for r, _ in runs[side] if r is None or not r["correct"] or r["failed"])
    print(f"{side}: {pairs} runs, {bad} incorrect or with failed operations")


def value(r, name):
    v = r["metrics"].get(name, {}).get("value") if r else None
    return v


def quartiles(xs):
    if len(xs) < 2:
        return (xs[0], xs[0], xs[0]) if xs else (float("nan"),) * 3
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


print(f"\n{'metric':<16} {'better':<7} {'parent median [q1, q3]':<32} "
      f"{'change median [q1, q3]':<32} change wins")
for m in spec:
    name, better = m["name"], m["better"]
    both = [(value(p, name), value(c, name))
            for (p, _), (c, _) in zip(runs["parent"], runs["change"])]
    both = [(p, c) for p, c in both if p is not None and c is not None]
    ps, cs = [p for p, _ in both], [c for _, c in both]
    wins = sum(1 for p, c in both if (c < p if better == "lower" else c > p))
    fmt = lambda q: f"{q[1]:.4f} [{q[0]:.4f}, {q[2]:.4f}]"
    print(f"{name:<16} {better:<7} {fmt(quartiles(ps)):<32} {fmt(quartiles(cs)):<32} "
          f"{wins}/{len(both)}")

same = differ = 0
for i, ((_, ps), (_, cs)) in enumerate(zip(runs["parent"], runs["change"]), 1):
    for key in sorted(ps.keys() & cs.keys()):
        if ps[key] == cs[key]:
            same += 1
        else:
            differ += 1
            print(f"sig differs in pair {i} at {key}:\n  {parent}: {ps[key]}\n  change: {cs[key]}")
print(f"\nsig lines on keys both runs reached: {same} identical, {differ} different")
print(f"logs: {logs}")
EOF
