#!/bin/sh
# Pairs: the claim standard as a script. Builds the benchmark at git ref REF
# (read with git archive, so the working tree is untouched) and in the
# working tree, runs the two alternately N times with the same arguments
# (which side goes first alternates too),
# and prints per metric both medians, the parent's interquartile range, how
# many pairs the change won and whether the gap between the medians exceeds
# that range.
#
#   scripts/pairs.sh REF [-n N] -- <benchmark args>
#   scripts/pairs.sh HEAD -n 10 -- --workload kv_pressure --seed 42 --seconds 10 --trace 0
#
# N defaults to 10. Each tree's binary runs from the root of its own tree.
# Metrics whose value is equal in every run are listed with "=" instead.
# Exits non-zero if any virtual-clock metric, sim.events or
# loadgen.output_digest differs between the two runs of any pair: what the
# virtual clock measures must not depend on which tree ran it.
set -eu
cd "$(dirname "$0")/.."
root=$(pwd)
[ $# -ge 1 ] || { echo "usage: scripts/pairs.sh REF [-n N] -- <benchmark args>" >&2; exit 2; }
ref=$1
shift
n=10
if [ "${1:-}" = "-n" ]; then
	n=$2
	shift 2
fi
[ "${1:-}" = "--" ] && shift

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/ref"
git archive "$ref" | tar -x -C "$tmp/ref"
(cd "$tmp/ref" && go build -o "$tmp/parent" ./benchmark)
go build -o "$tmp/change" ./benchmark

# Odd pairs run the parent first, even pairs the change first.
i=1
while [ "$i" -le "$n" ]; do
	order="parent change"
	[ $((i % 2)) -eq 0 ] && order="change parent"
	for side in $order; do
		dir=$root
		[ "$side" = parent ] && dir=$tmp/ref
		(cd "$dir" && "$tmp/$side" -json "$tmp/$side.$i" "$@" >/dev/null)
	done
	echo "pairs: $i of $n" >&2
	i=$((i + 1))
done

# One "side pair name value clock" line per metric and run.
for side in parent change; do
	i=1
	while [ "$i" -le "$n" ]; do
		awk -v side="$side" -v pair="$i" '
			/"workload":/ { w = $2; gsub(/[",]/, "", w) }
			/"name":/ { name = $2; gsub(/[",]/, "", name) }
			/"value":/ { value = $2; gsub(/,/, "", value) }
			/"clock":/ { clock = $2; gsub(/[",]/, "", clock); print side, pair, w "/" name, value, clock }
		' "$tmp/$side.$i"
		i=$((i + 1))
	done
done >"$tmp/values"

# Which way each metric is better, from BENCHMARK.json.
awk '/"name":/ { name = $2; gsub(/[",]/, "", name) } /"better":/ { b = $2; gsub(/[",]/, "", b); print name, b }' \
	BENCHMARK.json >"$tmp/better"

awk -v n="$n" '
	function sort(a, k,    i, j, t) { for (i = 2; i <= k; i++) { t = a[i]; for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]; a[j + 1] = t } }
	function quantile(a, k, q,    h, lo) { h = (k - 1) * q + 1; lo = int(h); return lo >= k ? a[k] : a[lo] + (h - lo) * (a[lo + 1] - a[lo]) }
	NR == FNR { better[$1] = $2; next }
	{
		m = $3; if (!(m in seen)) { seen[m] = 1; order[++rows] = m }
		val[$1, $2, m] = $4; clock[m] = $5
	}
	END {
		printf "%-44s %14s %14s %12s %6s %s\n", "metric", "parent p50", "change p50", "parent IQR", "wins", "gap > IQR"
		for (r = 1; r <= rows; r++) {
			m = order[r]; base = m; sub(/^[^\/]*\//, "", base)
			same = 1; wins = 0
			for (i = 1; i <= n; i++) {
				p[i] = val["parent", i, m] + 0; c[i] = val["change", i, m] + 0
				if (val["parent", i, m] != val["change", i, m] || val["parent", i, m] != val["parent", 1, m]) same = 0
				if (val["parent", i, m] != val["change", i, m] && (clock[m] == "v" || base == "sim.events" || base == "loadgen.output_digest")) {
					printf "pairs: %s differs in pair %d: %s (parent) vs %s (change)\n", m, i, val["parent", i, m], val["change", i, m]
					bad = 1
				}
				if (better[base] == "lower" && c[i] < p[i] || better[base] == "higher" && c[i] > p[i]) wins++
			}
			if (same) { printf "%-44s %14s %14s %12s %6s %s\n", m, val["parent", 1, m], "=", "", "", ""; continue }
			sort(p, n); sort(c, n)
			pm = quantile(p, n, 0.5); cm = quantile(c, n, 0.5); iqr = quantile(p, n, 0.75) - quantile(p, n, 0.25)
			gap = cm - pm; if (gap < 0) gap = -gap
			printf "%-44s %14.6g %14.6g %12.4g %3d/%-2d %s\n", m, pm, cm, iqr, wins, n, (gap > iqr ? "yes" : "no")
		}
		exit bad
	}' "$tmp/better" "$tmp/values"
