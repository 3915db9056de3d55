#!/bin/sh
# Pairs: the claim standard as a script. Builds a program at git ref REF
# (read with git archive, so the working tree is untouched) and in the
# working tree, runs the two alternately N times with the same arguments
# (which side goes first alternates too), and compares them.
#
#   scripts/pairs.sh REF [-n N] -- <benchmark args>
#   scripts/pairs.sh HEAD -n 10 -- --workload kv_pressure --seed 42 --seconds 10 --trace 0
#
# runs the benchmark and prints per metric both medians, the parent's
# interquartile range, how many pairs the change won and whether the gap
# between the medians exceeds that range. Metrics whose value is equal in
# every run are listed with "=" instead. An end-to-end metric (one with a
# bound in BENCHMARK.json, a share of the parent median) is marked
# "worse > bound" when the change median is worse than the parent median by
# more than its bound, the rule that refuses a change, and "IQR > bound"
# when the parent's own interquartile range exceeds the bound, so the bound
# sits inside the noise. The marks inform; they do not change the exit
# status. It exits non-zero if any
# virtual-clock metric, sim.events or loadgen.output_digest differs between
# the two runs of any pair: what the virtual clock measures must not depend
# on which tree ran it.
#
#   scripts/pairs.sh REF -exp X [-n N]
#   scripts/pairs.sh HEAD -exp fig10,slo -n 5
#
# runs `pie-bench -quick -exp X` instead (arguments after -- are refused)
# and prints the same table for each experiment's wall time. It exits
# non-zero if any headline metric or event count differs between the two
# runs of any pair.
#
# N defaults to 10. Each tree's binary runs from the root of its own tree.
set -eu
cd "$(dirname "$0")/.."
root=$(pwd)
[ $# -ge 1 ] || { echo "usage: scripts/pairs.sh REF [-n N] -- <benchmark args> | scripts/pairs.sh REF -exp X [-n N]" >&2; exit 2; }
ref=$1
shift
n=10
exp=
while [ $# -gt 0 ]; do
	case $1 in
	-n) n=$2; shift 2 ;;
	-exp) exp=$2; shift 2 ;;
	--) shift; break ;;
	*) break ;;
	esac
done

if [ -n "$exp" ]; then
	[ $# -eq 0 ] || { echo "pairs: -exp takes no arguments after --" >&2; exit 2; }
	pkg=./cmd/pie-bench
else
	pkg=./benchmark
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/ref"
git archive "$ref" | tar -x -C "$tmp/ref"
(cd "$tmp/ref" && go build -o "$tmp/parent" "$pkg")
go build -o "$tmp/change" "$pkg"

# Odd pairs run the parent first, even pairs the change first.
i=1
while [ "$i" -le "$n" ]; do
	order="parent change"
	[ $((i % 2)) -eq 0 ] && order="change parent"
	for side in $order; do
		dir=$root
		[ "$side" = parent ] && dir=$tmp/ref
		if [ -n "$exp" ]; then
			(cd "$dir" && "$tmp/$side" -quick -exp "$exp" -json-out "$tmp/$side.$i" >/dev/null)
		else
			(cd "$dir" && "$tmp/$side" -json "$tmp/$side.$i" "$@" >/dev/null)
		fi
	done
	if [ -n "$exp" ]; then
		# Everything but the host-time fields must match.
		for side in parent change; do
			grep -vE '"(total_wall_ms|wall_ms|events_per_sec|gomaxprocs)"' "$tmp/$side.$i" >"$tmp/$side.$i.det"
		done
		if ! cmp -s "$tmp/parent.$i.det" "$tmp/change.$i.det"; then
			echo "pairs: headlines or event counts differ in pair $i:" >&2
			diff "$tmp/parent.$i.det" "$tmp/change.$i.det" >&2 || true
			bad=1
		fi
	fi
	echo "pairs: $i of $n" >&2
	i=$((i + 1))
done

# One "side pair name value clock" line per metric and run; an experiment's
# wall time is a host-clock metric.
for side in parent change; do
	i=1
	while [ "$i" -le "$n" ]; do
		if [ -n "$exp" ]; then
			awk -v side="$side" -v pair="$i" '
				/"id":/ { id = $2; gsub(/[",]/, "", id) }
				/"wall_ms":/ { v = $2; gsub(/,/, "", v); print side, pair, id "/wall_ms", v, "h" }
			' "$tmp/$side.$i"
		else
			awk -v side="$side" -v pair="$i" '
				/"workload":/ { w = $2; gsub(/[",]/, "", w) }
				/"name":/ { name = $2; gsub(/[",]/, "", name) }
				/"value":/ { value = $2; gsub(/,/, "", value) }
				/"clock":/ { clock = $2; gsub(/[",]/, "", clock); print side, pair, w "/" name, value, clock }
			' "$tmp/$side.$i"
		fi
		i=$((i + 1))
	done
done >"$tmp/values"

# Which way each metric is better and, for an end-to-end metric, its bound,
# from BENCHMARK.json.
awk '
	/"name":/ { name = $2; gsub(/[",]/, "", name) }
	/"better":/ { b = $2; gsub(/[",]/, "", b); print name, b }
	/"bound":/ { v = $2; gsub(/,/, "", v); print name, "bound", v }
' BENCHMARK.json >"$tmp/better"
echo "wall_ms lower" >>"$tmp/better"

awk -v n="$n" '
	function sort(a, k,    i, j, t) { for (i = 2; i <= k; i++) { t = a[i]; for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]; a[j + 1] = t } }
	function quantile(a, k, q,    h, lo) { h = (k - 1) * q + 1; lo = int(h); return lo >= k ? a[k] : a[lo] + (h - lo) * (a[lo + 1] - a[lo]) }
	NR == FNR { if ($2 == "bound") bound[$1] = $3; else better[$1] = $2; next }
	{
		m = $3; if (!(m in seen)) { seen[m] = 1; order[++rows] = m }
		val[$1, $2, m] = $4; clock[m] = $5
	}
	END {
		printf "%-44s %14s %14s %12s %6s %-9s %s\n", "metric", "parent p50", "change p50", "parent IQR", "wins", "gap > IQR", "bound"
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
			mark = ""
			if ((base in bound) && pm != 0) {
				worse = (better[base] == "higher" ? pm - cm : cm - pm) / (pm < 0 ? -pm : pm)
				if (worse > bound[base]) mark = sprintf("worse > bound (%+.1f%% vs %g%%)", 100 * worse, 100 * bound[base])
				if (iqr > bound[base] * (pm < 0 ? -pm : pm)) mark = mark (mark == "" ? "" : "; ") sprintf("IQR > bound (%.1f%% of p50)", 100 * iqr / (pm < 0 ? -pm : pm))
			}
			printf "%-44s %14.6g %14.6g %12.4g %3d/%-2d %-9s %s\n", m, pm, cm, iqr, wins, n, (gap > iqr ? "yes" : "no"), mark
		}
		exit bad
	}' "$tmp/better" "$tmp/values" || bad=1
[ -z "${bad:-}" ] || { echo "pairs: FAIL: the trees disagree on a virtual-clock metric, a headline or an event count" >&2; exit 1; }
