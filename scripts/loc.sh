#!/usr/bin/env bash
# Non-test lines of Rust per file and per crate (ROADMAP aim 2 tracks
# this). A file's count stops at its first `#[cfg(test)]`; `tests/`,
# `benches/` and `examples/` directories are not product code and are
# not scanned.
#
#   scripts/loc.sh             # every crate's src/ plus the root src/
#   scripts/loc.sh FILE...     # just these files
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "$#" -gt 0 ]; then
    files=("$@")
else
    mapfile -t files < <(find crates/*/src src -name '*.rs' | sort)
fi

# One "<lines> <file>" row per file, in argument order.
per_file=$(awk '
    FNR == 1 { in_test = 0 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1 }
    !in_test { n[FILENAME]++ }
    END { for (i = 1; i < ARGC; i++) printf "%d %s\n", n[ARGV[i]], ARGV[i] }
' "${files[@]}")

printf '%s\n' "$per_file" | awk '{ printf "%7d  %s\n", $1, $2 }'
echo "---"
printf '%s\n' "$per_file" | awk '
    { crate = "."; if ($2 ~ /^crates\//) { split($2, p, "/"); crate = p[1] "/" p[2] } sum[crate] += $1; total += $1 }
    END { for (c in sum) printf "%7d  %s\n", sum[c], c; printf "%7d  total\n", total }
' | sort -k2
