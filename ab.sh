#!/usr/bin/env bash
# A/B comparison of two revisions on one benchmark workload, in alternating
# pairs. Run from anywhere inside the repository:
#
#   ./ab.sh REV_A REV_B --workload NAME --pairs N --seed S [--rustflags FLAGS] [--trace 0|1]
#
# Each revision is checked out in a git worktree under target/ab/ and its
# benchmark is built there with its own CARGO_TARGET_DIR; --rustflags sets
# RUSTFLAGS for both sides' builds (none by default). Then N pairs of
# `benchmark/run.sh --workload NAME --seed S --seconds 20 --trace T` runs
# alternate between the sides, swapping which side goes first in each pair,
# so a slow phase of the machine falls on both. Each run's result line is
# kept under target/ab/results/. For every end-to-end metric of
# BENCHMARK.json (and, traced, every per-layer one) it prints each side's
# median [q1, q3], the median of the pairs' B/A ratios and how many pairs B
# won. It exits non-zero if any run fails or reports `correct: false` or
# `failed > 0`, and removes its worktrees on exit.
#
# A build is keyed by revision and flags (target/ab/build-SHA-FLAGS), and
# each checkout's files take the commit's time, so a second comparison of
# the same revision reuses its build instead of compiling it again.
set -euo pipefail
cd "$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"
root=$(pwd)

usage() {
    sed -n '5p' "$0" | sed 's/^# *//' >&2
    exit 2
}

[ $# -ge 2 ] || usage
rev_a=$1 rev_b=$2
shift 2
workload= pairs= seed= rustflags= trace=0
while [ $# -gt 0 ]; do
    case $1 in
        --workload) workload=${2:?}; shift 2 ;;
        --pairs) pairs=${2:?}; shift 2 ;;
        --seed) seed=${2:?}; shift 2 ;;
        --rustflags) rustflags=${2?}; shift 2 ;;
        --trace) trace=${2:?}; shift 2 ;;
        *) usage ;;
    esac
done
[ -n "$workload" ] && [ -n "$pairs" ] && [ -n "$seed" ] || usage
case $pairs in '' | *[!0-9]* | 0) usage ;; esac
case $trace in 0 | 1) ;; *) usage ;; esac

ab="$root/target/ab"
mkdir -p "$ab/results"
flags_key=$(printf '%s' "$rustflags" | cksum | cut -d' ' -f1)
worktrees=()
cleanup() {
    for wt in "${worktrees[@]}"; do
        git -C "$root" worktree remove --force "$wt" >/dev/null 2>&1 || true
    done
    git -C "$root" worktree prune
}
trap cleanup EXIT

# Check out and build one revision into `wt` and `target`.
prepare() {
    local sha
    sha=$(git rev-parse --verify "$1^{commit}")
    wt="$ab/wt-${sha:0:12}"
    target="$ab/build-${sha:0:12}-$flags_key"
    if [ ! -d "$wt" ]; then
        git worktree add --detach --quiet "$wt" "$sha"
        worktrees+=("$wt")
        # Commit time on every file, so an unchanged build is reused.
        (cd "$wt" && git ls-files -z | xargs -0 touch -h -d "@$(git log -1 --format=%ct)")
    fi
    echo "ab.sh: building ${sha:0:12} into $target" >&2
    RUSTFLAGS="$rustflags" cargo build --release --offline --quiet \
        --manifest-path "$wt/benchmark/Cargo.toml" --target-dir "$target"
}

prepare "$rev_a"
wt_a=$wt target_a=$target
prepare "$rev_b"
wt_b=$wt target_b=$target

stamp=$(date -u +%Y%m%dT%H%M%SZ)
out="$ab/results/$stamp-$workload-seed$seed"
mkdir -p "$out"
status=0
run_side() {
    local side=$1 pair=$2 wt target line
    if [ "$side" = A ]; then wt=$wt_a target=$target_a; else wt=$wt_b target=$target_b; fi
    if ! line=$(RUSTFLAGS="$rustflags" CARGO_TARGET_DIR="$target" bash "$wt/benchmark/run.sh" \
        --workload "$workload" --seed "$seed" --seconds 20 --trace "$trace" | tail -n 1); then
        line='{"correct":false,"failed":1,"metrics":{}}'
    fi
    printf '%s\n' "$line" >"$out/$pair-$side.json"
    if ! jq -e '.correct == true and .failed == 0' "$out/$pair-$side.json" >/dev/null 2>&1; then
        echo "ab.sh: pair $pair side $side failed: $line" >&2
        status=1
    fi
    jq -r --arg s "$side" --arg p "$pair" \
        '"pair \($p) \($s): images_per_s=\(.metrics.images_per_s.value // "-")"' \
        "$out/$pair-$side.json" 2>/dev/null || true
}
for pair in $(seq 1 "$pairs"); do
    if [ $((pair % 2)) -eq 1 ]; then order="A B"; else order="B A"; fi
    for side in $order; do
        run_side "$side" "$pair"
    done
done

echo "A = $rev_a ($wt_a)"
echo "B = $rev_b ($wt_b)"
echo "workload $workload, seed $seed, $pairs pairs, trace $trace, RUSTFLAGS '$rustflags'"
python3 - "$root/BENCHMARK.json" "$out" "$pairs" "$trace" <<'EOF'
import json, statistics, sys

bench, out, pairs, trace = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4] == "1"
spec = json.load(open(bench))
rows = spec["end_to_end"] + (spec["per_layer"] if trace else [])

def load(pair, side):
    try:
        return json.load(open(f"{out}/{pair}-{side}.json")).get("metrics", {})
    except (OSError, ValueError):
        return {}

runs = [(load(p, "A"), load(p, "B")) for p in range(1, pairs + 1)]

def quart(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return med, q1, q3

print(f"{'metric':<44} {'A median [q1, q3]':>28} {'B median [q1, q3]':>28} {'B/A':>7} {'B wins':>7}")
for row in rows:
    name, higher = row["name"], row["better"] == "higher"
    got = [(a[name]["value"], b[name]["value"]) for a, b in runs if name in a and name in b]
    if not got:
        continue
    a_vals, b_vals = [a for a, _ in got], [b for _, b in got]
    # A ratio means something only when every reading is positive.
    ratios = [b / a for a, b in got] if all(a > 0 and b > 0 for a, b in got) else []
    wins = sum(1 for a, b in got if (b > a if higher else b < a))
    fmt = lambda v: "{:.4g} [{:.4g}, {:.4g}]".format(*quart(v))
    ratio = f"{statistics.median(ratios):.3f}" if ratios else "-"
    print(f"{name:<44} {fmt(a_vals):>28} {fmt(b_vals):>28} {ratio:>7} {f'{wins}/{len(got)}':>7}")
EOF
echo "runs kept in $out"
exit $status
