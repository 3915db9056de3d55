#!/bin/sh
# Prints Go line counts per package (directory) and in total, non-test and
# test files apart, for everything outside benchmark/. ROADMAP aim 2 makes
# net LOC a reported number.
#
#   scripts/loc.sh        the counts of the working tree
#   scripts/loc.sh REF    the counts at git ref REF (read with git archive,
#                         so the working tree is untouched), the working
#                         tree's, and the per-package delta
#
# CHANGES.md entries quote the delta of the totals between the parent
# commit and the change. Informational only; CI prints it at the end of the
# lint job, against the merge base on pull requests.
set -eu
cd "$(dirname "$0")/.."

# counts DIR prints one "package non-test test" line per directory under
# DIR holding Go files, in path order.
counts() {
	(cd "$1" && find . -name '*.go' -not -path './benchmark/*' -not -path './.*' | sort | xargs wc -l) |
		awk '$2 != "total" {
			dir = $2; sub(/\/[^\/]*$/, "", dir); sub(/^\.\//, "", dir)
			if (!(dir in code)) { code[dir] = 0; test[dir] = 0; order[++n] = dir }
			if ($2 ~ /_test\.go$/) test[dir] += $1; else code[dir] += $1
		}
		END { for (i = 1; i <= n; i++) print order[i], code[order[i]], test[order[i]] }'
}

if [ $# -eq 0 ]; then
	counts . | awk '
		BEGIN { printf "%-24s %9s %9s\n", "package", "non-test", "test" }
		{ printf "%-24s %9d %9d\n", $1, $2, $3; c += $2; t += $3 }
		END { printf "%-24s %9d %9d\n", "total", c, t }'
	exit 0
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/ref"
git archive "$1" | tar -x -C "$tmp/ref"
counts "$tmp/ref" >"$tmp/before"
counts . >"$tmp/after"
awk -v ref="$1" '
	NR == FNR { rc[$1] = $2; rt[$1] = $3; if (!($1 in seen)) { seen[$1] = 1; order[++n] = $1 }; next }
	{ nc[$1] = $2; nt[$1] = $3; if (!($1 in seen)) { seen[$1] = 1; order[++n] = $1 } }
	END {
		printf "%-24s %19s %19s %19s\n", "", "at " substr(ref, 1, 16), "now", "delta"
		printf "%-24s %9s %9s %9s %9s %9s %9s\n", "package", "non-test", "test", "non-test", "test", "non-test", "test"
		for (i = 1; i <= n; i++) {
			d = order[i]
			printf "%-24s %9d %9d %9d %9d %+9d %+9d\n", d, rc[d], rt[d], nc[d], nt[d], nc[d] - rc[d], nt[d] - rt[d]
			a += rc[d]; b += rt[d]; c += nc[d]; e += nt[d]
		}
		printf "%-24s %9d %9d %9d %9d %+9d %+9d\n", "total", a, b, c, e, c - a, e - b
	}' "$tmp/before" "$tmp/after"
