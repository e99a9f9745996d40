#!/bin/sh
# Non-test, non-generated Go lines, per package and in total: the figure
# ROADMAP aim 2 tracks. Leaves out *_test.go, *_gen.go, testdata/ and
# dot-directories (build caches).
# Usage: scripts/loc.sh [dir ...]   (default: the whole repo)
set -eu
cd "$(dirname "$0")/.."
[ $# -gt 0 ] || set -- .
find "$@" -name '*.go' ! -name '*_test.go' ! -name '*_gen.go' \
	! -path '*/testdata/*' ! -path '*/.*/*' -exec wc -l {} + |
	awk '$2 != "total" { d = $2; sub("/[^/]*$", "", d); n[d] += $1; t += $1 }
		END { for (d in n) printf "%7d %s\n", n[d], d; printf "%7d total\n", t }' |
	sort -k2
