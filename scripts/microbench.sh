#!/bin/sh
# Per-layer micro-benchmarks: ns/op and allocs/op of the tensor kernels, the
# model's forward/decode/top-K path and catalog build, the sim clock, its
# wait list (one park and one wake, as a call waiting for page room), a
# mailbox (a message each way, each taken by a parked Recv) and a call
# record's result (one parked Get and the completion that ends it), the
# control layer (one decode step through every layer above the kernels, one
# fused decode step (Fused.Run and its Get), a scheduling round, a round of decode steps beside fills that the prefill
# budget splits, one batch's round trip, a tokenize of a ~2 KB prompt, an
# allocation under KV pressure), the inference layer's timing-mode
# get_next_dist, a tool call (call to response), a warm launch of a program
# that returns at once (Launch through Wait), a warm whole session (launch,
# open a queue, one page, one fused step, close, wait), a warm context's
# whole life (open on a queue, a 40-token fill, 32 tokens out, drop), an engine's setup in
# fleet_mixed's shape (pie.New, every app registered, one session), a session
# handoff between two replicas, one role-balancer window, one
# whole cluster tick (load snapshot, health, balancer, reconcile and scaler), one
# least-loaded launch placement and one kv-affinity placement of a keyed
# launch on a 6-replica prefill/decode cluster,
# the grammar matcher and the tokenizer,
# as the minimum over $count runs of `go test -bench` (more for a row whose
# samples fall in two modes, so that the minimum reads the fast one).
#
#   scripts/microbench.sh          measure this tree and rewrite the "change"
#                                  block of BENCH_micro.json; the "parent"
#                                  block (the parent commit of the change
#                                  that last re-measured it, with the same
#                                  benchmark bodies and this script) is kept
#                                  as it is
#   scripts/microbench.sh -check   measure this tree and compare it with the
#                                  committed "change" block.
#   scripts/microbench.sh -ref REF measure git ref REF (read with git
#                                  archive, so the working tree is untouched)
#                                  and this tree row by row, alternating which
#                                  tree runs a row first, and write both blocks
#                                  of BENCH_micro.json from that one session:
#                                  drift between the two trees' runs then
#                                  falls on both alike.
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
#     in a test file, which no kernel change moves. It is sampled ahead of
#     every row, on the row's tree, and the divisor is the minimum of all
#     the samples (the one $calib line written): a single reading moved
#     every ratio with it.
#   - LaunchSession's allocs/op, like every row's, exactly: a session's
#     lifecycle is a handful of records (TestSessionAllocations pins the
#     same count). ContextSession likewise: a context's buffers come back
#     from the engine's free list (support's TestContextAllocations).
#   - DecodeStep allocating at all, at any of its three context sizes: a
#     decode step may not pay for its context, and it allocates nothing
#     (embed_txt and forward return no result, a failed one reporting at the
#     queue's next synchronize; get_next_dist's result lives in the call's
#     record). FusedStep likewise: its sampled tokens are the call's result.
#   - NextDistTiming's ns/op at TopK 1024 above $topkband times that at 64: a
#     timing-mode distribution is a view, not a copy.
#   - Generate (one chat turn: an 8-token prefill and 32 tokens out) issuing
#     more inference calls (97: the last token issues no embed + forward) or
#     control-layer calls (4.58: a decode step makes none) than committed.
#   - RoomWait allocating at all: the wait list parks on the process's own
#     token and heap event (the allocs/op gate above, against a committed 0).
#     MailboxRecv likewise: a receive parks on the mailbox's wait list, not
#     on a future, and the Send that wakes it hands the message over in the
#     buffer. FutureWait likewise: a Get parks on the record cell's own
#     wait list, and the record recycles itself. ToolCall likewise: the response is a pooled timer record.
#     RoleBalance likewise: a balancer window reads counters and allocates
#     nothing; ClusterTick: a tick fills a snapshot the cluster keeps and
#     runs health, the balancer and the scaler over it; and Place:
#     placement scores replicas in a scratch slice the cluster keeps.
#     PlaceKeyed likewise: the kv-affinity key is read in place from the
#     launch blob and hashed inline. Handoff likewise: a page copy records
#     its copies on the source pages, and its grants and ids live in the
#     destination controller's scratch.
#   - EngineSetup's allocs/op, like every row's, exactly: standing an
#     engine up is deterministic, so its construction cost shows here and
#     not only in the benchmark's exec-timed setup_s.
#   - BatchRoundTrip (one single-call batch, enqueue to completion; 0
#     allocs/op) taking more sim events than committed (4: kick,
#     deserialised, kernel done, response), ToolCall more than 1 (the response timer) or Launch more
#     than 4 (admission, instantiation, the program's first dispatch, the
#     caller's wake): what only waits is a timer, not a process.
set -eu
cd "$(dirname "$0")/.."
file=BENCH_micro.json
count=5
calib=CalibScalar
nsband=0.50
topkband=1.5
fresh="$(mktemp)"
trap 'rm -f "$fresh"' EXIT

# bench <samples> <benchtime> <regexp> <package> [cpus]: min ns/op and min
# allocs/op (and min infer-calls/op, control-calls/op and events/op where
# reported) over samples runs, per benchmark, one `"Name": {...}` line each.
# With a -cpu list the GOMAXPROCS each line ran at becomes part of its name
# ("Name/cpu2").
bench() {
	go test -run '^$' -bench "$3" -benchmem -benchtime "$2" -count "$1" ${5:+-cpu "$5"} "$4" | awk -v cpus="${5:-}" '
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

# rows: one `bench` invocation a line (samples, benchtime, regexp, package,
# and the -cpu list if any). A row's benchtime makes one sample of each of
# its benchmarks take at least 10 ms, so that min-of-$count does not pick out
# one mode of a sub-microsecond row. DecodeStep and Handoff take 100
# samples: theirs fall in two modes about 1.7x apart, the fast one in as few
# as one sample in twenty, and the committed minimum is the fast mode.
rows() {
	cat <<'EOF'
5 50000x ^Benchmark(LogitsHead|Softmax|SiLU|TopK)$ ./internal/tensor
5 200000x ^BenchmarkMatVec64$ ./internal/tensor
5 200x ^Benchmark(ForwardDecodeStep|ForwardPrefill32|NextDist)$ ./internal/model
5 10000x ^BenchmarkStandardCatalog$ ./internal/model
5 5x ^BenchmarkClock(EventLoop|SparseTicker|SpawnChurn|Handoff)$ ./internal/sim 1,2
5 1000000x ^BenchmarkClockTimer$ ./internal/sim 1,2
5 200000x ^Benchmark(RoomWait|MailboxRecv|FutureWait)$ ./internal/sim
100 2000x ^BenchmarkDecodeStep$ .
5 2000x ^BenchmarkGenerate$ .
5 2000x ^BenchmarkContextSession$ ./support
5 50000x ^BenchmarkFusedStep$ .
5 20000x ^BenchmarkLaunchSession$ .
5 200x ^BenchmarkEngineSetup$ .
5 2000x ^Benchmark(SchedulerDispatch|SchedulerMixedForward|Tokenize)$ ./internal/core
5 20000x ^BenchmarkTieredPoolAllocEvict$ ./internal/core
100 20000x ^BenchmarkHandoff$ ./internal/core
5 100000x ^BenchmarkBatchRoundTrip$ ./internal/core
5 2000000x ^BenchmarkNextDistTiming$ ./internal/infer
5 200000x ^BenchmarkToolCall$ ./internal/netsim
5 20000x ^BenchmarkLaunch$ ./internal/ilm
5 500000x ^Benchmark(RoleBalance|ClusterTick|Place)$ ./internal/cluster
5 100000x ^BenchmarkPlaceKeyed$ ./internal/cluster
5 200x ^BenchmarkAllowedTokensJSON$ ./internal/grammar
5 2000x ^BenchmarkEncode$ ./internal/tokenizer
EOF
}

# sample <samples> <benchtime> <regexp> <package> [cpus]: $count samples of
# the calibration loop, then the row.
sample() {
	bench "$count" 50000x "^Benchmark$calib\$" ./internal/tensor
	bench "$@"
}

# mincalib <file>: rewrites the file with its calibration samples folded
# into one line, where the first was: the minimum of their ns/op.
mincalib() {
	awk -v calib="$calib" '
		{ line[++n] = $0 }
		index($0, "\"" calib "\":") {
			ns = $0; sub(/.*"ns_per_op": /, "", ns); sub(/[,}].*/, "", ns)
			if (!first) first = n
			if (min == "" || ns + 0 < min + 0) { min = ns; best = $0 }
		}
		END {
			for (i = 1; i <= n; i++) {
				if (i == first) print best
				else if (!index(line[i], "\"" calib "\":")) print line[i]
			}
		}' "$1" > "$1.min"
	mv "$1.min" "$1"
}

parent=""
if [ "${1:-}" = "-ref" ]; then
	[ $# -ge 2 ] || { echo "usage: scripts/microbench.sh -ref REF" >&2; exit 2; }
	tree="$(mktemp -d)"
	trap 'rm -rf "$fresh" "$fresh.parent" "$tree"' EXIT
	git archive "$2" | tar -x -C "$tree"
	parent="$fresh.parent"
	: > "$parent"
fi

# Each row runs on this tree; with -ref, on REF's tree too, REF first on odd
# rows and second on even ones. Each tree samples the calibration loop ahead
# of each of its rows.
: > "$fresh"
i=0
rows | while read -r samples benchtime re pkg cpus; do
	i=$((i + 1))
	if [ -n "$parent" ] && [ $((i % 2)) -eq 1 ]; then
		(cd "$tree" && sample "$samples" "$benchtime" "$re" "$pkg" $cpus) >> "$parent"
	fi
	sample "$samples" "$benchtime" "$re" "$pkg" $cpus >> "$fresh"
	if [ -n "$parent" ] && [ $((i % 2)) -eq 0 ]; then
		(cd "$tree" && sample "$samples" "$benchtime" "$re" "$pkg" $cpus) >> "$parent"
	fi
done
mincalib "$fresh"
[ -z "$parent" ] || mincalib "$parent"

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
				if (n ~ /^(DecodeStep\/|FusedStep$)/ && gotal[n] > 0) fail(n, sprintf("a decode step allocates (%d allocs/op)", gotal[n]))
			}
			lo = gotns["NextDistTiming/topk64"]; hi = gotns["NextDistTiming/topk1024"]
			if (lo > 0 && hi > lo * topkband) fail("NextDistTiming", sprintf("ns/op depends on TopK (%.1f at 64, %.1f at 1024)", lo, hi))
			exit bad
		}' "$fresh.want" "$fresh"
	exit
fi

{
	echo '{'
	echo "  \"settings\": {\"statistic\": \"min of $count runs, 100 for DecodeStep and Handoff\", \"benchtime\": \"long enough that one sample takes at least 10 ms: model and grammar 200x, DecodeStep, Generate, ContextSession, SchedulerDispatch, SchedulerMixedForward, Tokenize and Encode 2000x, StandardCatalog 10000x, tensor kernels 50000x but MatVec64 200000x, EngineSetup 200x, LaunchSession, TieredPoolAllocEvict, Handoff and Launch 20000x, FusedStep 50000x, BatchRoundTrip and PlaceKeyed 100000x, RoomWait, MailboxRecv, FutureWait and ToolCall 200000x, RoleBalance, ClusterTick and Place 500000x, ClockTimer 1000000x, NextDistTiming 2000000x, the other Clock* 5x; Clock* at -cpu 1,2\", \"ns_gate\": \"ratio to the minimum of $calib sampled ahead of every row of the same run, +$nsband\", \"command\": \"scripts/microbench.sh\"},"
	echo '  "parent": {'
	if [ -n "$parent" ]; then commas < "$parent"; else block parent | commas; fi
	echo '  },'
	echo '  "change": {'
	commas < "$fresh"
	echo '  }'
	echo '}'
} > "$file.tmp"
mv "$file.tmp" "$file"
echo "wrote $file"
