#!/bin/sh
# Prints Go line counts per package (directory) and in total, non-test and
# test files apart, for everything outside benchmark/. ROADMAP aim 2 makes
# net LOC a reported number: run this on the parent commit and on the
# change and put the difference of the totals in the CHANGES.md entry.
# Informational only; CI prints it at the end of the lint job.
set -eu
cd "$(dirname "$0")/.."
find . -name '*.go' -not -path './benchmark/*' -not -path './.*' | sort | xargs wc -l |
	awk '$2 != "total" {
		dir = $2; sub(/\/[^\/]*$/, "", dir); sub(/^\.\//, "", dir)
		if (!(dir in code)) { code[dir] = 0; test[dir] = 0; order[++n] = dir }
		if ($2 ~ /_test\.go$/) test[dir] += $1; else code[dir] += $1
	}
	END {
		printf "%-24s %9s %9s\n", "package", "non-test", "test"
		for (i = 1; i <= n; i++) {
			d = order[i]
			printf "%-24s %9d %9d\n", d, code[d], test[d]
			c += code[d]; t += test[d]
		}
		printf "%-24s %9d %9d\n", "total", c, t
	}'
