#!/usr/bin/env bash
# A sampling CPU profile of one bench_e2e workload: whole process, 997 Hz of
# CPU time, frame-pointer stacks; prints the top twenty symbols by self and by
# inclusive samples, then by self samples within the measured windows alone
# (stacks under bench_e2e's `drive`, the call cpu_ns_per_op times: no set-up,
# populate, warm-up or drain, and not bench_e2e's own speed reference,
# Meter::speed).
#
#   tools/profile.sh <workload> [seconds [seed]]
#   PROFILE=mallocsites tools/profile.sh <workload> [seconds [seed]]
#
# Run from the root of the checkout to profile (a `git clone` of the parent
# under /root/scratch for the other side of a comparison). bench_e2e is built
# with `-C force-frame-pointers=yes` and line tables (which name the inlined
# `drive`) into its own target directory ($PROF_TARGET, default target/prof —
# never the benchmark's), the two samplers in tools/prof/ with `cc` beside it.
# The frame pointers cost a register, so read shares here and times from
# bench_e2e itself.
# PROFILE=mallocsites samples allocation call sites instead of CPU time.
# See tools/prof/symbolize.py for how glibc's stripped internals resolve. A dump
# holds addresses: symbolize it again only while $PROF_TARGET is unchanged.
set -euo pipefail

if [ $# -lt 1 ]; then
    sed -n '2,22s/^# \{0,1\}//p' "$0" >&2
    exit 2
fi
workload=$1
seconds=${2:-40}
seed=${3:-1000}
kind=${PROFILE:-sigprof}
here=$(cd "$(dirname "$0")" && pwd)
[ -f bench_e2e/Cargo.toml ] || { echo "run from a checkout's root: no bench_e2e/ here" >&2; exit 2; }
target=${PROF_TARGET:-$PWD/target/prof}
mkdir -p "$target"

RUSTFLAGS="-C force-frame-pointers=yes" CARGO_PROFILE_RELEASE_DEBUG=line-tables-only \
    CARGO_TARGET_DIR=$target \
    cargo build --release --quiet --manifest-path bench_e2e/Cargo.toml
case $kind in
    sigprof) cc -O2 -shared -fPIC -o "$target/sigprof.so" "$here/prof/sigprof.c" -ldl ;;
    mallocsites) cc -O2 -fno-omit-frame-pointer -shared -fPIC -o "$target/mallocsites.so" "$here/prof/mallocsites.c" ;;
    *) echo "PROFILE is sigprof or mallocsites, not $kind" >&2; exit 2 ;;
esac

dump=$target/$kind.$workload.out
echo "# $kind of bench_e2e --workload $workload --seed $seed --seconds $seconds at $(git rev-parse --short HEAD)$(git diff --quiet HEAD -- crates src bench_e2e || echo +) (nproc $(nproc))"
SIGPROF_OUT=$dump MALLOCSITES_OUT=$dump LD_PRELOAD=$target/$kind.so \
    "$target/release/bench_e2e" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
    2>/dev/null | sed -n 's/.*"cpu_ns_per_op": {"value": \([0-9.]*\).*/# cpu_ns_per_op under the sampler: \1/p'
python3 "$here/prof/symbolize.py" "$dump" 20
