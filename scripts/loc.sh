#!/bin/sh
# Prints line counts per package (directory) and in total for everything
# outside benchmark/: non-test Go, test Go, and amd64 assembly (*.s) apart.
# ROADMAP aim 2 makes net LOC a reported number.
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

# counts DIR prints one "package non-test test asm" line per directory
# under DIR holding Go or assembly files, in path order.
counts() {
	(cd "$1" && find . \( -name '*.go' -o -name '*.s' \) -not -path './benchmark/*' -not -path './.*' | sort | xargs wc -l) |
		awk '$2 != "total" {
			dir = $2; sub(/\/[^\/]*$/, "", dir); sub(/^\.\//, "", dir)
			if (!(dir in code)) { code[dir] = 0; test[dir] = 0; asm[dir] = 0; order[++n] = dir }
			if ($2 ~ /_test\.go$/) test[dir] += $1; else if ($2 ~ /\.s$/) asm[dir] += $1; else code[dir] += $1
		}
		END { for (i = 1; i <= n; i++) print order[i], code[order[i]], test[order[i]], asm[order[i]] }'
}

if [ $# -eq 0 ]; then
	counts . | awk '
		BEGIN { printf "%-24s %9s %9s %9s\n", "package", "non-test", "test", "asm" }
		{ printf "%-24s %9d %9d %9d\n", $1, $2, $3, $4; c += $2; t += $3; s += $4 }
		END { printf "%-24s %9d %9d %9d\n", "total", c, t, s }'
	exit 0
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/ref"
git archive "$1" | tar -x -C "$tmp/ref"
counts "$tmp/ref" >"$tmp/before"
counts . >"$tmp/after"
awk -v ref="$1" '
	NR == FNR { rc[$1] = $2; rt[$1] = $3; rs[$1] = $4; if (!($1 in seen)) { seen[$1] = 1; order[++n] = $1 }; next }
	{ nc[$1] = $2; nt[$1] = $3; ns[$1] = $4; if (!($1 in seen)) { seen[$1] = 1; order[++n] = $1 } }
	END {
		printf "%-24s %29s %29s %29s\n", "", "at " substr(ref, 1, 16), "now", "delta"
		printf "%-24s", "package"
		for (k = 0; k < 3; k++) printf " %9s %9s %9s", "non-test", "test", "asm"
		printf "\n"
		for (i = 1; i <= n; i++) {
			d = order[i]
			printf "%-24s %9d %9d %9d %9d %9d %9d %+9d %+9d %+9d\n", d, rc[d], rt[d], rs[d], nc[d], nt[d], ns[d],
				nc[d] - rc[d], nt[d] - rt[d], ns[d] - rs[d]
			a += rc[d]; b += rt[d]; e += rs[d]; f += nc[d]; g += nt[d]; h += ns[d]
		}
		printf "%-24s %9d %9d %9d %9d %9d %9d %+9d %+9d %+9d\n", "total", a, b, e, f, g, h, f - a, g - b, h - e
	}' "$tmp/before" "$tmp/after"
