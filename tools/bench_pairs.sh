#!/usr/bin/env bash
# Ten alternating parent/change pairs of bench_e2e per workload, and the
# comparison against the bounds in BENCHMARK.json.
#
#   tools/bench_pairs.sh <parent-binary> <change-binary> [first-seed [workload ...]]
#
# Build each side's bench_e2e from its own checkout with its own
# CARGO_TARGET_DIR (the parent from a `git clone` under /root/scratch), copy
# the two executables somewhere, and run this from the repository root with
# nothing else running on the box. Seeds are first-seed .. first-seed+9
# (default 1000); on an even seed the parent runs first, on an odd one the
# change. Workloads default to every one BENCHMARK.json names.
#
# stdout is the record (results/PR<n>_bench_e2e_compare.txt is this output):
# a header, one line per pair, a count per workload, then `bench_e2e
# --compare`'s table. The two sets are left in $OUT (default a fresh
# directory under ${TMPDIR:-/tmp}) as parent.json and change.json, in the
# form `--compare` reads. Exit status is `--compare`'s: non-zero when a
# metric is out of bounds or a run was incorrect.
set -euo pipefail

if [ $# -lt 2 ]; then
    sed -n '2,19s/^# \{0,1\}//p' "$0" >&2
    exit 2
fi
parent=$1
change=$2
first=${3:-1000}
shift $(($# < 3 ? $# : 3))
bounds=BENCHMARK.json
[ -f "$bounds" ] || { echo "run from the repository root: no $bounds here" >&2; exit 2; }
for b in "$parent" "$change"; do
    [ -x "$b" ] || { echo "$b is not an executable" >&2; exit 2; }
done
if [ $# -gt 0 ]; then
    workloads=("$@")
else
    mapfile -t workloads < <(sed -n '/"workloads"/,/\]/s/.*"name": "\([a-z_]*\)".*/\1/p' "$bounds")
fi
pairs=10
seconds=$(sed -n 's/.*"run_seconds": \([0-9]*\).*/\1/p' "$bounds")
out=${OUT:-$(mktemp -d "${TMPDIR:-/tmp}/bench_pairs.XXXXXX")}
mkdir -p "$out"

# The value of one metric in a result line.
metric() { sed -n "s/.*\"$2\": {\"value\": \([-0-9.e+]*\).*/\1/p" <<<"$1"; }
field() { sed -n "s/.*\"$2\": \([a-z0-9]*\).*/\1/p" <<<"$1"; }
virtual="commit_p50_us commit_p99_us commit_p999_us virt_ops_per_s mttr_ms"

declare -A runs=([parent]="" [change]="")
declare -A bin=([parent]=$parent [change]=$change)
lines=""
counts=""
for w in "${workloads[@]}"; do
    better=0
    for ((seed = first; seed < first + pairs; seed++)); do
        if ((seed % 2 == 0)); then order="parent change"; else order="change parent"; fi
        declare -A result=()
        for side in $order; do
            # A run that fails its audits exits non-zero and still prints its
            # line; `--compare` counts it.
            result[$side]=$("${bin[$side]}" --workload "$w" --seed "$seed" --seconds "$seconds" \
                --trace 0 2>/dev/null | tail -n 1 || true)
            runs[$side]+="${runs[$side]:+, }{\"workload\": \"$w\", \"seed\": $seed, \"trace\": 0, \"result\": ${result[$side]}}"
        done
        same=virt-identical
        for m in $virtual; do
            [ "$(metric "${result[parent]}" "$m")" = "$(metric "${result[change]}" "$m")" ] || same="VIRT-DIFFERS($m)"
        done
        a=$(metric "${result[parent]}" cpu_ns_per_op)
        b=$(metric "${result[change]}" cpu_ns_per_op)
        better=$((better + $(awk -v a="$a" -v b="$b" 'BEGIN { print (b < a) }')))
        line=$(awk -v a="$a" -v b="$b" 'BEGIN { printf "cpu %.0f -> %.0f (%+.1f%%)", a, b, 100 * (b - a) / a }')
        line="$w $seed first=${order%% *} $same $line"
        line+=" failed $(field "${result[parent]}" failed) $(field "${result[change]}" failed)"
        line+=" correct $(field "${result[parent]}" correct) $(field "${result[change]}" correct)"
        echo "$line" >&2
        lines+="#   $line"$'\n'
    done
    counts+="#   $w: cpu_ns_per_op lower with the change in $better of $pairs pairs"$'\n'
done
for side in parent change; do
    echo "{\"quick\": false, \"seconds\": $seconds, \"runs\": [${runs[$side]}]}" >"$out/$side.json"
done

echo "# bench_e2e, $pairs alternating parent/change pairs per workload: ${workloads[*]}"
echo "# seeds $first-$((first + pairs - 1)), --seconds $seconds, --trace 0; even seed: parent ran first, odd seed: change"
echo "# host: nproc $(nproc), $(uname -sr); a = parent ($parent), b = change ($change)"
echo "# produced by: tools/bench_pairs.sh, then bench_e2e --compare parent.json change.json --bounds $bounds"
echo "#"
echo "# pair by pair (cpu_ns_per_op parent -> change; virt = $virtual):"
printf '%s' "$lines"
echo "#"
printf '%s' "$counts"
echo "#"
"$change" --compare "$out/parent.json" "$out/change.json" --bounds "$bounds"
