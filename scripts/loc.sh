#!/usr/bin/env sh
# Non-test Go code lines outside bench/ — blank and comment-only lines
# are not counted, so deleting a comment or reflowing one moves nothing —
# per package directory (two levels deep: internal/table,
# cmd/cinderellad, …) and in total: the "net non-test LoC per PR" figure
# ROADMAP aim 2 tracks. Run from the repo root (or pass a checkout as $1)
# on the parent and on the change and subtract.
set -eu
cd "${1:-.}"

find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.git/*' |
	while read -r f; do
		pkg=$(dirname "$f" | cut -d/ -f2-3)
		echo "$pkg $(grep -cvE '^[[:space:]]*(//.*)?$' "$f")"
	done |
	awk '{ n[$1] += $2; total += $2 }
		END { for (p in n) printf "%8d  %s\n", n[p], p; printf "%8d  total\n", total }' |
	sort -k2
