#!/bin/sh
# Per-layer micro-benchmarks: ns/op and allocs/op of the tensor kernels, the
# model's forward/decode/top-K path and catalog build, the sim clock, the
# control layer (one decode step through every layer above the kernels, a
# scheduling round, a round of decode steps beside fills that the prefill
# budget splits, one batch's round trip, a tokenize of a ~2 KB prompt, an
# allocation under KV pressure), the inference layer's timing-mode
# get_next_dist, the grammar matcher and the tokenizer, as the minimum over
# $count runs of `go test -bench`.
#
#   scripts/microbench.sh          measure this tree and rewrite the "change"
#                                  block of BENCH_micro.json; the "parent"
#                                  block (the parent commit of the change
#                                  that last re-measured it, with the same
#                                  benchmark bodies and this script) is kept
#                                  as it is
#   scripts/microbench.sh -check   measure this tree and compare it with the
#                                  committed "change" block.
#
# What -check fails on:
#   - allocs/op above the committed value. Exact, except for the Clock*
#     benchmarks (run at -cpu 1,2, the GOMAXPROCS in the name), which get
#     2 %: a coroutine's first stack growth is the runtime's to time.
#   - ns/op, as a ratio to the calibration loop ($calib) measured in the
#     same run, more than $nsband above the committed ratio. A shared runner
#     drifts by tens of percent between runs and by 2x across an hour, so raw
#     ns/op is printed only; the ratio cancels what slows both alike and the
#     band absorbs the rest (min of $count on both sides). The calibration
#     loop is the tensor tests' one-accumulator 64 x 64 oracle: scalar code
#     in a test file, which no kernel change moves.
#   - DecodeStep reporting different allocs/op at its three context sizes: a
#     decode step may not pay for its context.
#   - NextDistTiming's ns/op at TopK 1024 above $topkband times that at 64: a
#     timing-mode distribution is a view, not a copy.
#   - Generate (one chat turn: an 8-token prefill and 32 tokens out) issuing
#     more inference calls (97: the last token issues no embed + forward) or
#     control-layer calls (4.63: a decode step makes none) than committed.
#   - BatchRoundTrip (one single-call batch, enqueue to completion) taking
#     more sim events than committed (4: kick, deserialised, kernel done,
#     response).
set -eu
cd "$(dirname "$0")/.."
file=BENCH_micro.json
count=5
calib=CalibScalar
nsband=0.50
topkband=1.5
fresh="$(mktemp)"
trap 'rm -f "$fresh"' EXIT

# bench <benchtime> <regexp> <package> [cpus]: min ns/op and min allocs/op
# (and min infer-calls/op, control-calls/op and events/op where reported) per
# benchmark, one `"Name": {...}` line each. With a -cpu list the
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
				if ($i == "events/op" && (!(name in minev) || $(i-1) + 0 < minev[name] + 0)) minev[name] = $(i-1) + 0
			}
			if (!(name in minns) || ns + 0 < minns[name] + 0) minns[name] = ns
			if (!(name in minal) || al + 0 < minal[name] + 0) minal[name] = al
			if (!(name in seen)) { seen[name] = 1; order[++n] = name }
		}
		END {
			for (i = 1; i <= n; i++) {
				ic = (order[i] in minic) ? sprintf(", \"infer_calls_per_op\": %s", minic[order[i]]) : ""
				cc = (order[i] in mincc) ? sprintf(", \"control_calls_per_op\": %s", mincc[order[i]]) : ""
				ev = (order[i] in minev) ? sprintf(", \"events_per_op\": %s", minev[order[i]]) : ""
				printf "    \"%s\": {\"ns_per_op\": %s, \"allocs_per_op\": %s%s%s%s}\n", order[i], minns[order[i]], minal[order[i]], ic, cc, ev
			}
		}'
}

{
	bench 50000x '^Benchmark(CalibScalar|MatVec64|LogitsHead|Softmax|SiLU|TopK)$' ./internal/tensor
	bench 200x '^Benchmark(ForwardDecodeStep|ForwardPrefill32|NextDist)$' ./internal/model
	bench 2000x '^BenchmarkStandardCatalog$' ./internal/model
	bench 5x '^BenchmarkClock(EventLoop|SparseTicker|SpawnChurn|Handoff)$' ./internal/sim 1,2
	bench 200000x '^BenchmarkClockTimer$' ./internal/sim 1,2
	bench 2000x '^Benchmark(DecodeStep|Generate)$' .
	bench 2000x '^Benchmark(SchedulerDispatch|SchedulerMixedForward|Tokenize)$' ./internal/core
	bench 20000x '^Benchmark(TieredPoolAllocEvict|BatchRoundTrip)$' ./internal/core
	bench 200000x '^BenchmarkNextDistTiming$' ./internal/infer
	bench 200x '^BenchmarkAllowedTokensJSON$' ./internal/grammar
	bench 2000x '^BenchmarkEncode$' ./internal/tokenizer
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
	awk -v calib="$calib" -v nsband="$nsband" -v topkband="$topkband" '
		function field(line, key,    s) { if (line !~ "\"" key "\"") return 0; s = line; sub(".*\"" key "\": ", "", s); sub(/[,}].*/, "", s); return s + 0 }
		function name(line,    s) { s = line; sub(/^ *"/, "", s); sub(/".*/, "", s); return s }
		function fail(n, msg) { printf "microbench: %-24s FAIL %s\n", n, msg; bad = 1 }
		NR == FNR { n = name($0); ns[n] = field($0, "ns_per_op"); al[n] = field($0, "allocs_per_op"); ic[n] = field($0, "infer_calls_per_op"); cc[n] = field($0, "control_calls_per_op"); ev[n] = field($0, "events_per_op"); next }
		{ n = name($0); order[++rows] = n; gotns[n] = field($0, "ns_per_op"); gotal[n] = field($0, "allocs_per_op"); gotic[n] = field($0, "infer_calls_per_op"); gotcc[n] = field($0, "control_calls_per_op"); gotev[n] = field($0, "events_per_op") }
		END {
			if (!(calib in ns) || !(calib in gotns) || ns[calib] <= 0 || gotns[calib] <= 0) { fail(calib, "the calibration loop is missing from one side"); exit 1 }
			for (i = 1; i <= rows; i++) {
				n = order[i]
				if (!(n in al)) { fail(n, "not in the committed file: run scripts/microbench.sh"); continue }
				want = ns[n] / ns[calib]; got = gotns[n] / gotns[calib]
				printf "microbench: %-24s ns/op %12.1f (committed %12.1f)  x%s %9.3f (committed %9.3f, %+6.1f%%)  allocs/op %6d (committed %6d)\n", n, gotns[n], ns[n], calib, got, want, 100 * (got / want - 1), gotal[n], al[n]
				if (gotal[n] > ((n ~ /^Clock/) ? al[n] * 1.02 : al[n])) fail(n, "allocs/op rose")
				if (got > want * (1 + nsband)) fail(n, sprintf("ns/op rose %.0f%% against %s, past the %.0f%% band", 100 * (got / want - 1), calib, 100 * nsband))
				if (gotic[n] > ic[n]) fail(n, sprintf("infer-calls/op rose (%d here, %d committed)", gotic[n], ic[n]))
				if (gotcc[n] > cc[n]) fail(n, sprintf("control-calls/op rose (%s here, %s committed)", gotcc[n], cc[n]))
				if (gotev[n] > ev[n]) fail(n, sprintf("events/op rose (%s here, %s committed)", gotev[n], ev[n]))
				if (n ~ /^DecodeStep\//) {
					if (steps++ && gotal[n] != stepal) fail(n, sprintf("allocs/op depends on the context size (%d here, %d at the previous size)", gotal[n], stepal))
					stepal = gotal[n]
				}
			}
			lo = gotns["NextDistTiming/topk64"]; hi = gotns["NextDistTiming/topk1024"]
			if (lo > 0 && hi > lo * topkband) fail("NextDistTiming", sprintf("ns/op depends on TopK (%.1f at 64, %.1f at 1024)", lo, hi))
			exit bad
		}' "$fresh.want" "$fresh"
	exit
fi

{
	echo '{'
	echo "  \"settings\": {\"statistic\": \"min of $count runs\", \"benchtime\": \"long enough that a row runs for milliseconds: model and grammar 200x, StandardCatalog, DecodeStep, Generate, SchedulerDispatch, SchedulerMixedForward, Tokenize and Encode 2000x, tensor kernels 50000x, TieredPoolAllocEvict and BatchRoundTrip 20000x, ClockTimer and NextDistTiming 200000x, the other Clock* 5x; Clock* at -cpu 1,2\", \"ns_gate\": \"ratio to $calib of the same run, +$nsband\", \"command\": \"scripts/microbench.sh\"},"
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
