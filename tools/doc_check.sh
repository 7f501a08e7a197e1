#!/usr/bin/env bash
# Documents drift when the code they name moves. This checks DESIGN.md and
# README.md against the tree:
#
#   - a backticked `*.rs` path (with or without `:line`) is a tracked file,
#     or the tail of one's path;
#   - a backticked identifier, bare or `a::b` (with or without `()`), names
#     a word in the code under crates/ src/ tests/ examples/ bench_e2e/
#     tools/ (every file there but the Markdown): its last segment must
#     appear as a whole word, so a deleted function or field cannot survive
#     in the prose;
#   - DESIGN.md stays under 1 000 lines.
#
# Each failure prints one line; the exit status is 1 if there was any.
#
#   tools/doc_check.sh      # from anywhere inside the repository
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"
docs=(DESIGN.md README.md)
max_design_lines=999

# Every backticked span of a document, one per line. A span may break
# across lines, so each file is read as one line.
spans() { tr '\n' ' ' < "$1" | grep -o '`[^`]*`' | tr -d '`' || true; }

status=0
words=$(git grep -ohE '[A-Za-z0-9_]+' -- crates src tests examples bench_e2e tools ':!*.md' | sort -u)
tracked=$(git ls-files '*.rs')
for doc in "${docs[@]}"; do
  while read -r span; do
    if [[ $span =~ ^[^\ ]*\.rs(:[0-9]+)?$ ]]; then
      path=${span%:*}
      awk -v p="$path" '$0 == p || substr($0, length($0) - length(p)) == "/" p { found = 1 } END { exit !found }' <<< "$tracked" \
        || { echo "$doc: no tracked file is or ends in $path"; status=1; }
    elif [[ $span =~ ^[A-Za-z_][A-Za-z0-9_]*(::[A-Za-z_][A-Za-z0-9_]*)*(\(\))?$ ]]; then
      id=${span%()}; last=${id##*::}
      grep -qxF -e "$last" <<< "$words" \
        || { echo "$doc: \`$span\`: no word in the code under crates/ src/ tests/ examples/ bench_e2e/ tools/ is $last"; status=1; }
    fi
  done < <(spans "$doc" | sort -u)
done

lines=$(wc -l < DESIGN.md)
if ((lines > max_design_lines)); then
  echo "DESIGN.md: $lines lines, more than $max_design_lines"; status=1
fi
exit $status
