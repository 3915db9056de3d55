#!/bin/sh
# Per-layer micro-benchmarks: ns/op and allocs/op of the tensor kernels, the
# model's forward/decode/top-K path, the sim clock, the control layer (one
# decode step through every layer above the kernels, a scheduling round,
# an allocation under KV pressure), the grammar matcher and the tokenizer,
# as the minimum over $count runs of `go test -bench`.
#
#   scripts/microbench.sh          measure this tree and rewrite the "change"
#                                  block of BENCH_micro.json; the "parent"
#                                  block (the tree the last kernel PR started
#                                  from, measured with the same benchmark
#                                  bodies) is kept as it is
#   scripts/microbench.sh -check   measure this tree and compare it with the
#                                  committed "change" block: ns/op is printed
#                                  only (shared runners are too noisy to gate
#                                  on); allocs/op must not rise. The rule is
#                                  exact except for the Clock* benchmarks
#                                  (run at -cpu 1,2, the GOMAXPROCS in the
#                                  name), which get 2 %: a coroutine's first
#                                  stack growth is the runtime's to time.
#                                  DecodeStep must also report one allocs/op
#                                  at all three context sizes: a decode step
#                                  may not pay for its context. Generate
#                                  (one chat turn: an 8-token prefill and
#                                  32 tokens out) also reports the
#                                  inference calls it issued (97: the
#                                  last token issues no embed + forward)
#                                  and the control-layer calls it made
#                                  (4.64: a decode step makes none);
#                                  neither may rise
set -eu
cd "$(dirname "$0")/.."
file=BENCH_micro.json
count=5
fresh="$(mktemp)"
trap 'rm -f "$fresh"' EXIT

# bench <benchtime> <regexp> <package> [cpus]: min ns/op and min allocs/op
# (and min infer-calls/op and control-calls/op where reported) per benchmark, one
# `"Name": {...}` line each. With a -cpu list the
# GOMAXPROCS each line ran at becomes part of its name ("Name/cpu2").
bench() {
	go test -run '^$' -bench "$2" -benchmem -benchtime "$1" -count "$count" ${4:+-cpu "$4"} "$3" | awk -v cpus="${4:-}" '
		/^Benchmark/ {
			name = $1; sub(/^Benchmark/, "", name)
			if (cpus == "") sub(/-[0-9]+$/, "", name)
			else if (match(name, /-[0-9]+$/)) name = substr(name, 1, RSTART - 1) "/cpu" substr(name, RSTART + 1)
			else name = name "/cpu1"
			for (i = 2; i <= NF; i++) {
				if ($i == "ns/op") ns = $(i-1)
				if ($i == "allocs/op") al = $(i-1)
				if ($i == "infer-calls/op" && (!(name in minic) || $(i-1) + 0 < minic[name] + 0)) minic[name] = $(i-1) + 0
				if ($i == "control-calls/op" && (!(name in mincc) || $(i-1) + 0 < mincc[name] + 0)) mincc[name] = $(i-1) + 0
			}
			if (!(name in minns) || ns + 0 < minns[name] + 0) minns[name] = ns
			if (!(name in minal) || al + 0 < minal[name] + 0) minal[name] = al
			if (!(name in seen)) { seen[name] = 1; order[++n] = name }
		}
		END {
			for (i = 1; i <= n; i++) {
				ic = (order[i] in minic) ? sprintf(", \"infer_calls_per_op\": %s", minic[order[i]]) : ""
				cc = (order[i] in mincc) ? sprintf(", \"control_calls_per_op\": %s", mincc[order[i]]) : ""
				printf "    \"%s\": {\"ns_per_op\": %s, \"allocs_per_op\": %s%s%s}\n", order[i], minns[order[i]], minal[order[i]], ic, cc
			}
		}'
}

{
	bench 5000x '^Benchmark(MatVec64|LogitsHead)$' ./internal/tensor
	bench 200x '^Benchmark(ForwardDecodeStep|ForwardPrefill32|NextDist)$' ./internal/model
	bench 5x '^BenchmarkClock(EventLoop|SparseTicker|SpawnChurn|Handoff)$' ./internal/sim 1,2
	bench 200x '^Benchmark(DecodeStep|Generate)$' .
	bench 200x '^Benchmark(SchedulerDispatch|TieredPoolAllocEvict)$' ./internal/core
	bench 200x '^BenchmarkAllowedTokensJSON$' ./internal/grammar
	bench 200x '^BenchmarkEncode$' ./internal/tokenizer
} > "$fresh"

# block <name>: the lines of one top-level block of the committed file.
block() {
	[ -f "$file" ] || return 0
	awk -v want="  \"$1\": {" '$0 == want { on = 1; next } on && /^  }/ { exit } on' "$file" | sed 's/,$//'
}

# commas joins block lines into JSON members.
commas() { sed '$!s/$/,/'; }

if [ "${1:-}" = "-check" ]; then
	block change > "$fresh.want"
	trap 'rm -f "$fresh" "$fresh.want"' EXIT
	awk '
		function field(line, key,    s) { if (line !~ "\"" key "\"") return 0; s = line; sub(".*\"" key "\": ", "", s); sub(/[,}].*/, "", s); return s + 0 }
		function name(line,    s) { s = line; sub(/^ *"/, "", s); sub(/".*/, "", s); return s }
		NR == FNR { ns[name($0)] = field($0, "ns_per_op"); al[name($0)] = field($0, "allocs_per_op"); ic[name($0)] = field($0, "infer_calls_per_op"); cc[name($0)] = field($0, "control_calls_per_op"); next }
		{
			n = name($0); gotns = field($0, "ns_per_op"); gotal = field($0, "allocs_per_op"); gotic = field($0, "infer_calls_per_op"); gotcc = field($0, "control_calls_per_op")
			if (!(n in al)) { printf "microbench: %-24s not in the committed file: run scripts/microbench.sh\n", n; bad = 1; next }
			limit = (n ~ /^Clock/) ? al[n] * 1.02 : al[n]
			verdict = (gotal > limit) ? "FAIL allocs/op rose" : "ok"
			if (gotal > limit) bad = 1
			printf "microbench: %-24s ns/op %12.1f (committed %12.1f)  allocs/op %6d (committed %6d)  %s\n", n, gotns, ns[n], gotal, al[n], verdict
			if (gotic > ic[n]) { printf "microbench: %-24s FAIL infer-calls/op rose (%d here, %d committed)\n", n, gotic, ic[n]; bad = 1 }
			if (gotcc > cc[n]) { printf "microbench: %-24s FAIL control-calls/op rose (%s here, %s committed)\n", n, gotcc, cc[n]; bad = 1 }
			if (n ~ /^DecodeStep\//) {
				if (steps++ && gotal != stepal) { printf "microbench: %-24s FAIL allocs/op depends on the context size (%d here, %d at the previous size)\n", n, gotal, stepal; bad = 1 }
				stepal = gotal
			}
		}
		END { exit bad }' "$fresh.want" "$fresh"
	exit
fi

{
	echo '{'
	echo "  \"settings\": {\"statistic\": \"min of $count runs\", \"benchtime\": \"200x (tensor kernels: 5000x, Clock*: 5x at -cpu 1,2)\", \"command\": \"scripts/microbench.sh\"},"
	echo '  "parent": {'
	block parent | commas
	echo '  },'
	echo '  "change": {'
	commas < "$fresh"
	echo '  }'
	echo '}'
} > "$file.tmp"
mv "$file.tmp" "$file"
echo "wrote $file"
