#!/usr/bin/env bash
# Back-to-back A/B runs of the perfbench benchmark: a parent revision
# against the working tree.
#
# Usage: scripts/perfbench_ab.sh <parent-rev> <workload> <pairs> [seed]
#
#   parent-rev  any git revision (e.g. HEAD~1, a commit hash)
#   workload    a perfbench workload (explore, fleet, navigate)
#   pairs       how many parent/change pairs to run
#   seed        perfbench --seed (default 42)
#
# The parent's perfbench is built from a detached git worktree at
# target/perfbench-ab/parent (reused on later calls), the working
# tree's from perfbench/ as it stands; both with cargo --release
# --offline into their own target directories under
# target/perfbench-ab/. Pair i runs both sides back to back with
# `--seed <seed> --seconds <run_seconds> --trace 0`, run_seconds read
# from BENCHMARK.json, the parent first in odd pairs and the change
# first in even ones, so drift in the host's load falls on both sides
# alike.
#
# Output: one line per run with every end-to-end metric, then per
# metric each side's median and quartiles, the pairs the change won,
# and a verdict (bounds are BENCHMARK.json's, a fraction of the
# parent's median):
#   unresolved     the parent's interquartile range is wider than the
#                  metric's bound, and the two sides' runs overlap;
#   gain           the change wins at least 9 in 10 of at least 10
#                  pairs and its median is better than the parent's by
#                  more than the parent's interquartile range;
#   too few pairs  the same, but with fewer than 10 pairs;
#   WORSE          the change's median is worse than the parent's by
#                  more than the metric's bound;
#   neutral        none of these.
# The raw result lines are kept in target/perfbench-ab/runs-*.txt, and
# perfbench's own summary tables in the matching runs-*.stderr.
#
# Needs only bash, git, cargo, awk, sed and coreutils. Nothing under
# perfbench/ changes: a Cargo.lock that cargo rewrites while building
# is put back.
set -euo pipefail

usage() {
    sed -n '5,10p' "$0" >&2
    exit 2
}
[[ $# -eq 3 || $# -eq 4 ]] || usage
parent_rev=$1
workload=$2
pairs=$3
seed=${4:-42}
[[ $pairs =~ ^[1-9][0-9]*$ ]] || usage

root=$(git rev-parse --show-toplevel)
cd "$root"
seconds=$(sed -n 's/.*"run_seconds": *\([0-9.]*\).*/\1/p' BENCHMARK.json)
[[ -n $seconds ]] || { echo "no run_seconds in BENCHMARK.json" >&2; exit 1; }
parent_sha=$(git rev-parse --verify "$parent_rev^{commit}")
work="$root/target/perfbench-ab"
tree="$work/parent"
mkdir -p "$work"

# The parent's sources, in a worktree that later calls reuse.
if git -C "$tree" rev-parse --git-dir >/dev/null 2>&1; then
    git -C "$tree" checkout -q --detach "$parent_sha"
else
    # A worktree whose directory was deleted (say by `cargo clean`)
    # is still registered until pruned.
    rm -rf "$tree"
    git worktree prune
    git worktree add -q --detach "$tree" "$parent_sha"
fi

# build <checkout> <target-dir>: build that checkout's perfbench,
# leaving its perfbench/Cargo.lock as it was.
build() {
    local lock="$1/perfbench/Cargo.lock" saved
    saved=$(mktemp)
    cp "$lock" "$saved"
    CARGO_TARGET_DIR=$2 cargo build --release --offline --quiet \
        --manifest-path "$1/perfbench/Cargo.toml"
    cmp -s "$saved" "$lock" || cp "$saved" "$lock"
    rm -f "$saved"
}
echo "building parent ${parent_sha:0:12} and the working tree ..." >&2
build "$tree" "$work/parent-target"
build "$root" "$work/change-target"

metrics=(sim_s_per_wall_s cpu_ms_per_sim_s setup_s peak_rss_mb vdp_makespan_ms mean_power_w)
log="$work/runs-$workload-$seed-$(date +%Y%m%dT%H%M%S).txt"
errlog="${log%.txt}.stderr"
: >"$log"

# value <result-line> <metric>: the metric's value in a result line.
value() {
    sed -n "s/.*\"$2\": {\"value\": \([^,}]*\).*/\1/p" <<<"$1"
}

# run <side>: one perfbench run; appends its values to <side>.<metric>.
run() {
    local side=$1 dir bin line m row
    if [[ $side == parent ]]; then
        dir=$tree bin="$work/parent-target/release/perfbench"
    else
        dir=$root bin="$work/change-target/release/perfbench"
    fi
    line=$( (cd "$dir" && "$bin" --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace 0 2>>"$errlog") | tail -n 1)
    echo "$side $line" >>"$log"
    row=$(printf '%-6s' "$side")
    for m in "${metrics[@]}"; do
        local v
        v=$(value "$line" "$m")
        echo "$v" >>"$work/.$side.$m"
        row+=" $m=$v"
    done
    row+=" failed=$(sed -n 's/.*"failed": \([0-9]*\).*/\1/p' <<<"$line")"
    echo "  $row"
}

for m in "${metrics[@]}"; do
    rm -f "$work/.parent.$m" "$work/.change.$m"
done
echo "perfbench $workload, seed $seed, --seconds $seconds, $pairs pairs"
for ((i = 1; i <= pairs; i++)); do
    echo "pair $i"
    if ((i % 2)); then
        run parent
        run change
    else
        run change
        run parent
    fi
done

# stats <file>: "min q1 median q3 max" of the numbers in a file,
# quartiles by linear interpolation between order statistics.
stats() {
    sort -g "$1" | awk '
        { v[NR] = $1 }
        function q(p,   h, lo) {
            h = (NR - 1) * p + 1; lo = int(h)
            return lo >= NR ? v[NR] : v[lo] + (h - lo) * (v[lo + 1] - v[lo])
        }
        END { printf "%.10g %.6g %.6g %.6g %.10g", v[1], q(0.25), q(0.5), q(0.75), v[NR] }'
}

echo
printf '%-18s %-32s %-32s %-6s %s\n' metric "parent q1/median/q3" "change q1/median/q3" wins verdict
for m in "${metrics[@]}"; do
    spec=$(grep "\"name\": \"$m\"" BENCHMARK.json | head -n 1)
    better=$(sed -n 's/.*"better": "\([a-z]*\)".*/\1/p' <<<"$spec")
    bound=$(sed -n 's/.*"bound": \([0-9.]*\).*/\1/p' <<<"$spec")
    read -r pmin pq1 pmed pq3 pmax <<<"$(stats "$work/.parent.$m")"
    read -r cmin cq1 cmed cq3 cmax <<<"$(stats "$work/.change.$m")"
    wins=$(paste "$work/.parent.$m" "$work/.change.$m" |
        awk -v hi="$better" '(hi == "higher" ? $2 > $1 : $2 < $1) { n++ } END { print n + 0 }')
    verdict=$(awk -v pmin="$pmin" -v pq1="$pq1" -v pm="$pmed" -v pq3="$pq3" -v pmax="$pmax" \
        -v cmin="$cmin" -v cm="$cmed" -v cmax="$cmax" -v hi="$better" -v bound="${bound:-0}" \
        -v wins="$wins" -v n="$pairs" 'BEGIN {
            iqr = pq3 - pq1
            tol = bound * (pm < 0 ? -pm : pm)
            gain = hi == "higher" ? cm - pm : pm - cm
            apart = hi == "higher" ? cmin > pmax : cmax < pmin
            if (iqr > tol && !apart) print "unresolved"
            else if (10 * wins >= 9 * n && gain > iqr) print (n >= 10 ? "gain" : "too few pairs")
            else if (-gain > tol) print "WORSE"
            else print "neutral"
        }')
    printf '%-18s %-32s %-32s %-6s %s\n' "$m" "$pq1/$pmed/$pq3" "$cq1/$cmed/$cq3" "$wins/$pairs" "$verdict"
    rm -f "$work/.parent.$m" "$work/.change.$m"
done
echo "raw result lines: $log"
