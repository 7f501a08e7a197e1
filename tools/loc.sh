#!/usr/bin/env bash
# Non-test lines of Rust per crate, and their total: every tracked
# crates/<crate>/src/**.rs counted up to its first `#[cfg(test)]` line (a
# file without one counts whole). This is the number CHANGES.md tracks.
#
#   tools/loc.sh            # from anywhere inside the repository
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"
git ls-files -z 'crates/*/src/*.rs' | xargs -0 awk '
  FNR == 1 { split(FILENAME, part, "/"); crate = part[2]; cut = 0 }
  /#\[cfg\(test\)\]/ { cut = 1 }
  !cut { lines[crate]++; total++ }
  END {
    for (c in lines) printf "%-12s %6d\n", c, lines[c] | "sort"
    close("sort")
    printf "%-12s %6d\n", "total", total
  }'
