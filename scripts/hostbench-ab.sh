#!/usr/bin/env bash
# Alternating A/B runs of hostbench: a parent revision against the
# working tree.
#
#   scripts/hostbench-ab.sh [--trace] <parent-rev> [pairs] [workload...]
#
# Builds hostbench twice, each into its own target directory: once from
# <parent-rev> (exported with `git archive` into a scratch directory, so
# the repository gains no worktree entry) and once from the working
# tree. Then, for each workload (default: the ones BENCHMARK.json
# gates), runs `pairs` pairs (default 10), each pair on a fresh seed,
# alternating which side runs first, for BENCHMARK.json's run_seconds.
# The seeds follow the clock, so each invocation draws seeds no earlier
# one used; they are printed with every run. Every run's last output
# line (its JSON result) is read, and a run whose result is not correct
# stops the script.
#
# Prints one line per run, then for every workload and every end-to-end
# metric of BENCHMARK.json the parent's and the change's median and
# quartiles and the change's wins (ties count for neither side), plus
# the same figures for the Taos baseline's and the LRPC operation's
# median host time, which are printed but not gated. A gain holds only
# when the change wins at least nine tenths of the pairs and the medians
# differ by more than the parent's interquartile range.
#
# With --trace the runs are traced (`--trace 1`), and the summary covers
# every per-layer metric of BENCHMARK.json plus the LRPC operation's
# median host time instead: each side's median [min, max], and how many
# change runs are better than every parent run ("below every parent
# run" for a lower-is-better metric). A layer moved only when that count
# is all or nearly all the change's runs; overlapping ranges are noise.
#
# Each invocation writes its run logs to a directory of its own,
# runs/<first seed> under AB_DIR, prints its path, and summarizes only
# those runs, so invocations that share AB_DIR keep each other's logs.
#
# Needs git, cargo, jq and awk. Environment:
#   AB_DIR   where builds and run logs go; default: a new directory
#            under ${TMPDIR:-/tmp}, kept after the run
set -euo pipefail

usage() {
    echo "usage: $0 [--trace] <parent-rev> [pairs] [workload...]" >&2
    exit 2
}

trace=0
if [ "${1-}" = --trace ]; then
    trace=1
    shift
fi
[ $# -ge 1 ] || usage
rev=$1
shift
pairs=10
if [ $# -ge 1 ]; then
    pairs=$1
    shift
fi
[[ $pairs =~ ^[1-9][0-9]*$ ]] || usage

root=$(git rev-parse --show-toplevel)
bench_json=$root/BENCHMARK.json
seconds=$(jq -r '.run_seconds' "$bench_json")
if ((trace)); then
    mapfile -t metrics < <(jq -r '.per_layer[] | "\(.name) \(.better)"' "$bench_json")
    metrics+=("op_p50_ns lower")
else
    mapfile -t metrics < <(jq -r '.end_to_end[] | "\(.name) \(.better)"' "$bench_json")
fi
if [ $# -ge 1 ]; then
    workloads=("$@")
else
    mapfile -t workloads < <(jq -r '.workloads[].name' "$bench_json")
fi
seed0=$(date +%s)
dir=${AB_DIR:-$(mktemp -d "${TMPDIR:-/tmp}/hostbench-ab.XXXXXX")}
mkdir -p "$dir/runs"
# An invocation started in the same second as another one sharing
# AB_DIR moves on to the next free first seed.
while [ -e "$dir/runs/$seed0" ]; do
    seed0=$((seed0 + 1))
done
runs=$dir/runs/$seed0
mkdir "$runs"

parent_sha=$(git -C "$root" rev-parse --verify "$rev^{commit}")
echo "parent $rev ($parent_sha) vs working tree; $pairs pairs x ${workloads[*]}; ${seconds} s runs (trace $trace); seeds from $seed0; builds in $dir; logs in $runs"

# Builds.
rm -rf "$dir/parent-src"
mkdir -p "$dir/parent-src"
git -C "$root" archive "$parent_sha" | tar -x -C "$dir/parent-src"
CARGO_TARGET_DIR=$dir/parent-target cargo build --offline --release -q \
    --manifest-path "$dir/parent-src/hostbench/Cargo.toml"
CARGO_TARGET_DIR=$dir/change-target cargo build --offline --release -q \
    --manifest-path "$root/hostbench/Cargo.toml"
declare -A bin=(
    [parent]=$dir/parent-target/release/hostbench
    [change]=$dir/change-target/release/hostbench
)

# One run: its full output goes to <runs>/<workload>-<side>-<pair>.out
# and its figures (the metrics of the JSON line, then the printed
# taos_p50_ns and op_p50_ns) to a "name value" list beside it.
run_one() {
    local w=$1 side=$2 i=$3 seed=$4
    local out=$runs/$w-$side-$i.out
    "${bin[$side]}" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" >"$out"
    local json
    json=$(tail -n 1 "$out")
    printf '%-12s %-6s pair %2d seed %-12s correct %s failed %s/%s  %s\n' "$w" "$side" "$i" "$seed" \
        "$(jq -r .correct <<<"$json")" "$(jq -r .failed <<<"$json")" "$(jq -r .attempted <<<"$json")" \
        "$(jq -r '.metrics | to_entries | map("\(.key) \(.value.value)") | join("  ")' <<<"$json")"
    if ! jq -e .correct <<<"$json" >/dev/null; then
        grep '^problem: ' "$out" >&2 || true
        echo "$0: $w $side pair $i (seed $seed) is not correct; see $out" >&2
        exit 1
    fi
    jq -r '.metrics | to_entries[] | "\(.key) \(.value.value)"' <<<"$json" >"$out.fig"
    awk '$1 == "taos_p50_ns" || $1 == "op_p50_ns" { print $1, $2 }' "$out" >>"$out.fig"
}

for w in "${workloads[@]}"; do
    for ((i = 0; i < pairs; i++)); do
        seed=$((seed0 + i))
        if ((i % 2 == 0)); then
            run_one "$w" parent "$i" "$seed"
            run_one "$w" change "$i" "$seed"
        else
            run_one "$w" change "$i" "$seed"
            run_one "$w" parent "$i" "$seed"
        fi
    done
done

# figure <workload> <side> <name>: the figure of every pair, in pair order.
figure() {
    local w=$1 side=$2 name=$3 i
    for ((i = 0; i < pairs; i++)); do
        awk -v n="$name" '$1 == n { print $2 }' "$runs/$w-$side-$i.out.fig"
    done
}

# quartiles: median, first and third quartile of stdin (linear
# interpolation between closest ranks).
quartiles() {
    sort -g | awk '
        { v[NR] = $1 }
        function q(p,   h, lo) {
            h = (NR - 1) * p + 1
            lo = int(h)
            return lo >= NR ? v[NR] : v[lo] + (h - lo) * (v[lo + 1] - v[lo])
        }
        END { printf "%.6g %.6g %.6g", q(0.5), q(0.25), q(0.75) }'
}

# spread: median, minimum and maximum of stdin.
spread() {
    sort -g | awk '
        { v[NR] = $1 }
        END {
            m = NR % 2 ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2
            printf "%.6g %.6g %.6g", m, v[1], v[NR]
        }'
}

echo
if ((trace)); then
    printf '%-12s %-30s %11s %23s %11s %23s %9s\n' workload metric \
        parent '[min, max]' change '[min, max]' 'beat all'
    for w in "${workloads[@]}"; do
        for m in "${metrics[@]}"; do
            read -r name better <<<"$m"
            p=$(figure "$w" parent "$name")
            c=$(figure "$w" change "$name")
            read -r pm plo phi <<<"$(spread <<<"$p")"
            read -r cm clo chi <<<"$(spread <<<"$c")"
            beat=$(awk -v b="$better" -v lo="$plo" -v hi="$phi" '
                (b == "lower" && $1 < lo) || (b == "higher" && $1 > hi) { n++ }
                END { print n + 0 }' <<<"$c")
            printf '%-12s %-30s %11.6g [%9.6g, %9.6g] %11.6g [%9.6g, %9.6g] %5s/%s\n' \
                "$w" "$name" "$pm" "$plo" "$phi" "$cm" "$clo" "$chi" "$beat" "$pairs"
        done
    done
    exit 0
fi

printf '%-12s %-15s %11s %23s %11s %23s %6s\n' workload metric \
    parent '[q1, q3]' change '[q1, q3]' wins
report() {
    local w=$1 name=$2 better=$3
    local p c
    p=$(figure "$w" parent "$name")
    c=$(figure "$w" change "$name")
    read -r pm p1 p3 <<<"$(quartiles <<<"$p")"
    read -r cm c1 c3 <<<"$(quartiles <<<"$c")"
    wins=$(paste <(echo "$p") <(echo "$c") | awk -v b="$better" '
        (b == "lower" && $2 < $1) || (b == "higher" && $2 > $1) { n++ }
        END { print n + 0 }')
    printf '%-12s %-15s %11.6g [%9.6g, %9.6g] %11.6g [%9.6g, %9.6g] %3s/%s\n' \
        "$w" "$name" "$pm" "$p1" "$p3" "$cm" "$c1" "$c3" "$wins" "$pairs"
}
for w in "${workloads[@]}"; do
    for m in "${metrics[@]}"; do
        read -r name better <<<"$m"
        report "$w" "$name" "$better"
    done
    report "$w" taos_p50_ns lower
    report "$w" op_p50_ns lower
done
