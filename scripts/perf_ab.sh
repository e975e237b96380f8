#!/usr/bin/env bash
# Interleaved same-box A/B of the paper-sweep benchmark's end-to-end metrics.
#
#   scripts/perf_ab.sh <workload> <pairs> [seed]
#
# Compares the checkout this script lives in ("head", including
# uncommitted changes) against a base revision ("base", default
# HEAD~1; set AB_BASE=<rev> to pick another, e.g. AB_BASE=HEAD to
# measure uncommitted work). The base tree is exported with
# `git archive` into a temporary directory (local git only) and both
# sides build perfbench from their own sources. Each pair runs
# `perfbench --workload <workload> --seed <seed> --trace 0` once per
# side, alternating which side goes first, and records the run's
# end-to-end metrics at perfbench's own run length. Nothing under
# perfbench/ is edited; each side's reports land in its own
# perfbench/out/.
#
# Prints every pair's wall_s, each side's median and quartiles of every
# end-to-end metric, the number of pairs head wins on wall_s, and the
# verdict used for performance claims: head must win at least 9 of every
# 10 pairs (ties count for neither side), and the medians must differ by
# more than base's interquartile range. Exits 1 if any run fails its
# outputs check, 0 otherwise (the verdict is printed, not enforced).

set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
    echo "usage: scripts/perf_ab.sh <paper_grid|table2_scale|oversub> <pairs> [seed]" >&2
    exit 2
fi
workload=$1
pairs=$2
seed=${3:-7}
base_rev=${AB_BASE:-HEAD~1}

head_dir=$(cd "$(dirname "$0")/.." && pwd)
base_sha=$(git -C "$head_dir" rev-parse --verify "$base_rev^{commit}")
tmp=$(mktemp -d "${TMPDIR:-/tmp}/perf_ab.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
base_dir="$tmp/base"
mkdir -p "$base_dir"
git -C "$head_dir" archive "$base_sha" | tar -x -C "$base_dir"

bench() {
    (cd "$1" && cargo run --quiet --release --offline --manifest-path perfbench/Cargo.toml -- "${@:2}")
}

echo "== building base ${base_sha:0:12} and head =="
for dir in "$base_dir" "$head_dir"; do
    (cd "$dir" && cargo build --quiet --release --offline --manifest-path perfbench/Cargo.toml)
done

# The benchmark's end-to-end metrics, in the order they are recorded.
metrics=(wall_s cell_p50_s cell_tail_s setup_s peak_rss_mib)

# Runs one side and prints its end-to-end metrics on one line; fails
# the script on a failed outputs check.
run_side() {
    local line m
    line=$(bench "$1" --workload "$workload" --seed "$seed" --trace 0 | tail -n 1)
    case "$line" in
        *'"correct": true'*) ;;
        *) echo "outputs check failed in $1: $line" >&2; exit 1 ;;
    esac
    for m in "${metrics[@]}"; do
        echo "$line" | sed -n "s/.*\"$m\": {\"value\": \([0-9.eE+-]*\).*/\1/p"
    done | paste -sd ' '
}

# One line per pair: the base metrics, then the head metrics.
results="$tmp/results"
: > "$results"
echo "== $pairs pairs of $workload, seed $seed =="
for ((i = 1; i <= pairs; i++)); do
    if ((i % 2)); then
        b=$(run_side "$base_dir"); h=$(run_side "$head_dir")
    else
        h=$(run_side "$head_dir"); b=$(run_side "$base_dir")
    fi
    echo "$b $h" >> "$results"
    echo "$b $h" | awk -v i="$i" -v c=$((1 + ${#metrics[@]})) '{
        printf "pair %2d  wall_s base %8.3f  head %8.3f  head/base %.3f\n", i, $1, $c, $c / $1
    }'
done

# Median and quartiles by linear interpolation between order statistics.
quartiles() {
    sort -g | awk '{ v[NR] = $1 }
        function q(p,   r, lo) {
            r = 1 + p * (NR - 1); lo = int(r)
            return v[lo] + (r - lo) * (v[lo < NR ? lo + 1 : NR] - v[lo])
        }
        END { printf "%.6f %.6f %.6f\n", q(0.25), q(0.5), q(0.75) }'
}

echo "== end-to-end metrics (lower is better): median [q1, q3] =="
n=${#metrics[@]}
for ((k = 0; k < n; k++)); do
    read -r bq1 bmed bq3 < <(awk -v c=$((k + 1)) '{ print $c }' "$results" | quartiles)
    read -r hq1 hmed hq3 < <(awk -v c=$((k + 1 + n)) '{ print $c }' "$results" | quartiles)
    awk -v m="${metrics[k]}" -v b1="$bq1" -v bm="$bmed" -v b3="$bq3" \
        -v h1="$hq1" -v hm="$hmed" -v h3="$hq3" 'BEGIN {
        printf "%-13s base %.4f [%.4f, %.4f]  head %.4f [%.4f, %.4f]  head/base %.3f\n",
            m, bm, b1, b3, hm, h1, h3, (bm > 0 ? hm / bm : 0)
    }'
done

# The claim verdict, on wall_s: ties count for neither side.
read -r bq1 bmed bq3 < <(awk '{ print $1 }' "$results" | quartiles)
read -r hq1 hmed hq3 < <(awk -v c=$((1 + n)) '{ print $c }' "$results" | quartiles)
wins=$(awk -v c=$((1 + n)) '$c < $1 { w++ } END { print w + 0 }' "$results")
losses=$(awk -v c=$((1 + n)) '$c > $1 { l++ } END { print l + 0 }' "$results")
awk -v w="$wins" -v l="$losses" -v n="$pairs" -v bm="$bmed" -v hm="$hmed" \
    -v b1="$bq1" -v b3="$bq3" 'BEGIN {
    iqr = b3 - b1; gap = bm - hm
    printf "wall_s: head wins %d, loses %d of %d pairs; median gap %.3f s vs base IQR %.3f s\n",
        w, l, n, gap, iqr
    if (w * 10 >= 9 * n && gap > iqr)
        print "verdict: head is faster (wins >= 9/10 of pairs, median gap > base IQR)"
    else if (l * 10 >= 9 * n && -gap > iqr)
        print "verdict: head is slower (loses >= 9/10 of pairs, median gap > base IQR)"
    else
        print "verdict: no claim (criteria not met)"
}'
