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
# a header, one line per pair (with both sides' peak_rss_mb and setup_s),
# three claim verdicts per workload, then `bench_e2e --compare`'s table. A
# verdict is the rule a claimed gain must meet, applied to each
# machine-measured end-to-end metric — cpu_ns_per_op, peak_rss_mb and
# setup_s, all lower-is-better — whichever the change claims: the change
# lower in at least nine of ten pairs (ties count for neither), and its
# median below the parent's by more than the parent's quartile spread
# (q3 - q1, quartiles interpolated linearly between the sorted runs); it
# reads `holds` or `fails`. Whether the runs spread too widely to tell is
# the table's verdict: `unresolved: spread over bound` (setup_s exempt).
# The two sets are left in $OUT (default a fresh directory under
# ${TMPDIR:-/tmp}) as parent.json and change.json, in the form `--compare`
# reads. Exit status is `--compare`'s: non-zero when a metric is out of
# bounds or a run was incorrect.
set -euo pipefail

if [ $# -lt 2 ]; then
    sed -n '2,28s/^# \{0,1\}//p' "$0" >&2
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
measured="cpu_ns_per_op peak_rss_mb setup_s"

# The claim verdict for workload $1 from its pairs' values of metric $2: "a b"
# per line, parent first.
verdict() {
    awk -v w="$1" -v m="$2" '
        function q(v, n, f,   i, x) { x = f * (n - 1); i = int(x); return v[i + 1] + (x - i) * (v[i + 2] - v[i + 1]) }
        function sorted(v, n,   i, j, t) {
            for (i = 2; i <= n; i++) for (j = i; j > 1 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
        }
        { n++; a[n] = $1; b[n] = $2; won += ($2 < $1) }
        END {
            sorted(a, n); sorted(b, n)
            ma = q(a, n, 0.5); mb = q(b, n, 0.5); spread = q(a, n, 0.75) - q(a, n, 0.25)
            ok = won * 10 >= 9 * n && ma - mb > spread
            printf "%s: %s lower with the change in %d of %d pairs; median %g -> %g (%+.1f%%), parent quartile spread %g (%.1f%%): claim %s\n",
                w, m, won, n, ma, mb, 100 * (mb - ma) / ma, spread, 100 * spread / ma, ok ? "holds" : "fails"
        }'
}

declare -A runs=([parent]="" [change]="")
declare -A bin=([parent]=$parent [change]=$change)
lines=""
counts=""
for w in "${workloads[@]}"; do
    declare -A values=()
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
        for m in $measured; do
            values[$m]+="$(metric "${result[parent]}" "$m") $(metric "${result[change]}" "$m")"$'\n'
        done
        a=$(metric "${result[parent]}" cpu_ns_per_op)
        b=$(metric "${result[change]}" cpu_ns_per_op)
        line=$(awk -v a="$a" -v b="$b" 'BEGIN { printf "cpu %.0f -> %.0f (%+.1f%%)", a, b, 100 * (b - a) / a }')
        line="$w $seed first=${order%% *} $same $line"
        line+=$(awk -v a="$(metric "${result[parent]}" peak_rss_mb)" -v b="$(metric "${result[change]}" peak_rss_mb)" \
            -v c="$(metric "${result[parent]}" setup_s)" -v d="$(metric "${result[change]}" setup_s)" \
            'BEGIN { printf " peak_rss_mb %.2f -> %.2f setup_s %.3f -> %.3f", a, b, c, d }')
        line+=" failed $(field "${result[parent]}" failed) $(field "${result[change]}" failed)"
        line+=" correct $(field "${result[parent]}" correct) $(field "${result[change]}" correct)"
        echo "$line" >&2
        lines+="#   $line"$'\n'
    done
    for m in $measured; do
        counts+="#   $(verdict "$w" "$m" <<<"${values[$m]%$'\n'}")"$'\n'
    done
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
