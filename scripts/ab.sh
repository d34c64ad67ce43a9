#!/usr/bin/env bash
# Paired A/B run of perfbench on two commits. Each commit is checked out
# in its own git worktree under a temp directory and built there, with its
# own CARGO_TARGET_DIR, by perfbench/run.sh (the benchmark's own command).
# For every workload, seeds 1..N run once per side, alternating which side
# goes first: base first on odd seeds, head first on even ones.
#
# It prints, per workload, one line per seed (digests and the head/base
# ratio of cpu_throughput), then for each end-to-end metric of
# BENCHMARK.json each side's median [min–max] and interquartile range,
# how many pairs head won and lost, and the median [min–max] of the
# per-pair head/base ratios.
#
# Exit status:
#   0  outputs match and no metric regressed past its bound;
#   1  some seed's digest, `correct` or `failed` differs between the sides
#      (this wins over 3);
#   2  usage error;
#   3  on some workload and end-to-end metric, head lost a majority of the
#      pairs AND head's median is worse than base's by more than the
#      metric's `bound` in BENCHMARK.json (a relative bound: 0.25 means
#      25% lower for a higher-is-better metric, 25% higher for a
#      lower-is-better one). Each such workload and metric is named.
# It does not judge gains: whether a gain is real is read off the table.
#
# Usage:
#   scripts/ab.sh [-n SEEDS] [-s SECONDS] [-w WORKLOAD[,WORKLOAD...]] BASE [HEAD]
#
# HEAD defaults to HEAD, SEEDS to 10, SECONDS to BENCHMARK.json's
# run_seconds, and the workloads to every workload BENCHMARK.json lists.
# Both commits must be committed; the working tree is not measured.
set -euo pipefail

usage() {
    echo "usage: scripts/ab.sh [-n SEEDS] [-s SECONDS] [-w WORKLOAD[,WORKLOAD...]] BASE [HEAD]" >&2
    exit 2
}

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

seeds=10
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
workloads=$(python3 -c 'import json; print(",".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
while getopts "n:s:w:" opt; do
    case "$opt" in
    n) seeds=$OPTARG ;;
    s) seconds=$OPTARG ;;
    w) workloads=$OPTARG ;;
    *) usage ;;
    esac
done
shift $((OPTIND - 1))
if [ "$#" -lt 1 ] || [ "$#" -gt 2 ]; then
    usage
fi
base=$(git rev-parse --verify "$1^{commit}") || usage
head=$(git rev-parse --verify "${2:-HEAD}^{commit}") || usage

tmp=$(mktemp -d "${TMPDIR:-/tmp}/ab.XXXXXX")
cleanup() {
    for side in base head; do
        [ -d "$tmp/$side" ] && git worktree remove --force "$tmp/$side" >/dev/null 2>&1
    done
    git worktree prune
    chmod -R u+w "$tmp" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT

for side in base head; do
    rev=$base
    [ "$side" = head ] && rev=$head
    git worktree add --quiet --detach "$tmp/$side" "$rev"
done

# run SIDE WORKLOAD SEED writes the run's standard output to
# $tmp/out/WORKLOAD.SEED.SIDE and its standard error next to it.
mkdir -p "$tmp/out"
run() {
    local out="$tmp/out/$2.$3.$1"
    (cd "$tmp/$1" && CARGO_TARGET_DIR="$tmp/$1.build" \
        bash perfbench/run.sh --workload "$2" --seed "$3" --seconds "$seconds" --trace 0 \
        >"$out" 2>"$out.err") || {
        echo "ab: $1 $2 seed $3 failed:" >&2
        tail -n 5 "$out.err" >&2
        exit 1
    }
}

echo "ab: base $(git rev-parse --short "$base") head $(git rev-parse --short "$head"), seeds 1-$seeds, $seconds s, workloads $workloads"
for w in ${workloads//,/ }; do
    for s in $(seq 1 "$seeds"); do
        if [ $((s % 2)) -eq 1 ]; then
            run base "$w" "$s"
            run head "$w" "$s"
        else
            run head "$w" "$s"
            run base "$w" "$s"
        fi
    done
done

python3 - "$tmp/out" "$seeds" "$workloads" <<'EOF'
import json, statistics, sys

outdir, nseeds, workloads = sys.argv[1], int(sys.argv[2]), sys.argv[3].split(",")
metrics = json.load(open("BENCHMARK.json"))["end_to_end"]

def load(w, s, side):
    lines = open(f"{outdir}/{w}.{s}.{side}").read().splitlines()
    res = json.loads(lines[-1])
    res["digest"] = lines[-2].split()[-1]
    return res

def quartiles(xs):
    q = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else [xs[0]] * 3
    return q[0], q[2]

def fmt(x):
    return f"{x:.4g}"

mismatch, regressions = 0, []
for w in workloads:
    seeds = range(1, nseeds + 1)
    runs = {s: (load(w, s, "base"), load(w, s, "head")) for s in seeds}
    print(f"\n== {w}")
    print(f"{'seed':>4}  {'first':5}  {'base digest':12}  {'head digest':12}  {'correct':7}  {'failed':6}  cpu_throughput base -> head")
    for s in seeds:
        b, h = runs[s]
        same = b["digest"] == h["digest"] and b["correct"] == h["correct"] and b["failed"] == h["failed"]
        mismatch += not same
        cb, ch = b["metrics"]["cpu_throughput"]["value"], h["metrics"]["cpu_throughput"]["value"]
        print(f"{s:>4}  {'base' if s % 2 else 'head':5}  {b['digest'][:12]}  {h['digest'][:12]}  "
              f"{str(h['correct']).lower():7}  {h['failed']:<6}  {fmt(cb)} -> {fmt(ch)} (x{ch / cb:.2f})"
              + ("" if same else "  MISMATCH"))
    print(f"{'metric':16} {'unit':9} {'base median [min-max] IQR':38} {'head median [min-max] IQR':38} wins/losses  head/base median [min-max]")
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        bs = [runs[s][0]["metrics"][name]["value"] for s in seeds]
        hs = [runs[s][1]["metrics"][name]["value"] for s in seeds]
        wins = sum((h > b) if higher else (h < b) for b, h in zip(bs, hs))
        losses = sum((h < b) if higher else (h > b) for b, h in zip(bs, hs))
        ratios = [h / b for b, h in zip(bs, hs) if b]
        def side(xs):
            q1, q3 = quartiles(xs)
            return f"{fmt(statistics.median(xs))} [{fmt(min(xs))}-{fmt(max(xs))}] {fmt(q1)}-{fmt(q3)}"
        rat = f"x{statistics.median(ratios):.3f} [x{min(ratios):.3f}-x{max(ratios):.3f}]" if ratios else "-"
        print(f"{name:16} {m['unit']:9} {side(bs):38} {side(hs):38} {wins:>4}/{losses:<6}  {rat}")
        bmed, hmed = statistics.median(bs), statistics.median(hs)
        limit = bmed * (1 - m["bound"]) if higher else bmed * (1 + m["bound"])
        if 2 * losses > len(bs) and (hmed < limit if higher else hmed > limit):
            regressions.append(f"{w} {name}: head lost {losses}/{len(bs)} pairs, median "
                               f"{fmt(hmed)} vs base {fmt(bmed)} (bound {m['bound']:.0%})")

for r in regressions:
    print(f"ab: REGRESSION {r}", file=sys.stderr)
if mismatch:
    print(f"\nab: {mismatch} seed(s) with differing digest, correct or failed", file=sys.stderr)
    sys.exit(1)
print("\nab: every digest, correct flag and failed count matches")
if regressions:
    sys.exit(3)
EOF
