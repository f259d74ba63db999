#!/bin/sh
# ci.sh — the repository's continuous-integration gate.
#
# Runs the static checks, a full build, and the test suite under the race
# detector (the sweep executor, result cache and observer fan-out are
# concurrent by default, so -race is part of the gate, not an optional
# extra), then smoke-tests the observability layer end to end: artefact
# traces must validate strictly (tracer -check), a six-workload phase
# trace must replay into per-run timelines, and a live master+worker pair
# must serve /metrics, /jobs, /tasks and pprof while a real job runs.
set -eux

# Formatting drift gate: gofmt must be a no-op over the whole tree.
test -z "$(gofmt -l .)"

go vet ./...
go build ./...
go test -race ./...

# Determinism gate (engine half): the executor's suites — whole-Counters
# parity across parallelism, the collector property tests, the out-of-core
# and consolidation suites — must hold at one, two and four scheduler
# threads, under -race, repeatedly. Seconds, not minutes: a hang fails fast.
go test -race -cpu 1,2,4 -count=3 -timeout 300s ./internal/mapreduce/ .

# Determinism gate (dist half): the one runtime path — Submit + Wait against
# RunForeverCtx workers over the worker-served shuffle — including the
# idle-workers-then-submit regression, the loss/eviction/corruption
# recoveries and the chaos scenario, at the same thread counts. Every test
# job waits under a deadline that prints the job's status, so a stall fails
# in seconds with a state, never at the package timeout.
go test -race -cpu 1,2,4 -count=3 -timeout 300s ./internal/dist/

# Observability smoke: regenerate one artefact with a streaming trace and
# validate the emitted JSONL strictly (decodes line by line, spans balance,
# and an expt.artefact span covers table3) with tracer -check.
trace_file="$(mktemp /tmp/heterohadoop-trace.XXXXXX.jsonl)"
bench_file="$(mktemp /tmp/heterohadoop-bench.XXXXXX.json)"
mr_trace="$(mktemp /tmp/heterohadoop-mrtrace.XXXXXX.jsonl)"
smoke_dir="$(mktemp -d /tmp/heterohadoop-smoke.XXXXXX)"
cleanup() {
	[ -n "${worker_pid:-}" ] && kill "$worker_pid" 2>/dev/null || true
	[ -n "${master_pid:-}" ] && kill "$master_pid" 2>/dev/null || true
	rm -rf "$trace_file" "$bench_file" "$mr_trace" "$smoke_dir"
}
trap cleanup EXIT
go run ./cmd/experiments -only table3 -trace "$trace_file" -progress >/dev/null
go run ./cmd/tracer -check -artefacts table3 "$trace_file"

# Phase-timeline smoke: trace all six workloads through the in-process
# engine and replay the trace offline. The tracer must reconstruct every
# run (serial and parallel per workload), report the paper's four-way phase
# split and a critical path, and skip nothing — a live-written trace has no
# excuse for malformed lines.
go run ./cmd/benchmr -workloads wordcount,naivebayes,grep,sort,terasort,fpgrowth \
	-size 262144 -out "$smoke_dir/bench-trace.json" -trace "$mr_trace" \
	-allow-serial >/dev/null
tracer_out="$(go run ./cmd/tracer "$mr_trace")"
for wl in wordcount naivebayes grep sort terasort fpgrowth; do
	echo "$tracer_out" | grep -q "^run $wl/serial "
	echo "$tracer_out" | grep -q "^run $wl/parallel "
done
echo "$tracer_out" | grep -q '  paper split: '
echo "$tracer_out" | grep -q '  critical path: '
! echo "$tracer_out" | grep -q 'skipped'

# Energy-attribution smoke: two benchmr captures simulate the paper's two
# core classes (each run stamps its -power-profile class on every traced
# phase event), and tracer -energy over the concatenated mixed-class trace
# must attribute non-zero joules to all four paper phases, report per-job
# EDP, and render the big-vs-little comparison table. The recorded rows
# must carry the energy trajectory fields.
go run ./cmd/benchmr -workloads wordcount -size 262144 -power-profile big \
	-out "$smoke_dir/bench-big.json" -trace "$smoke_dir/trace-big.jsonl" \
	-allow-serial >/dev/null
go run ./cmd/benchmr -workloads terasort -size 262144 -power-profile little \
	-out "$smoke_dir/bench-little.json" -trace "$smoke_dir/trace-little.jsonl" \
	-allow-serial >/dev/null
grep -q '"est_joules"' "$smoke_dir/bench-big.json"
grep -q '"edp"' "$smoke_dir/bench-big.json"
grep -q '"go_version"' "$smoke_dir/bench-big.json"
grep -q '"os_arch"' "$smoke_dir/bench-big.json"
cat "$smoke_dir/trace-big.jsonl" "$smoke_dir/trace-little.jsonl" \
	>"$smoke_dir/trace-mixed.jsonl"
energy_out="$(go run ./cmd/tracer -energy "$smoke_dir/trace-mixed.jsonl")"
echo "$energy_out" | grep -q '^run wordcount/serial (epoch 0): energy .* J, edp .* J·s over '
echo "$energy_out" | grep -q '^run terasort/parallel (epoch 0): energy '
for bucket in map sort shuffle reduce; do
	echo "$energy_out" | grep "^  energy $bucket " | grep -qv ' 0\.000000 J'
done
echo "$energy_out" | grep -q '^class comparison:$'
echo "$energy_out" | grep -q '^  big/little energy ratio '

# Live-plane smoke: a real distributed job runs while master and worker
# each serve -http. The master's plane must expose the job and task tables
# and the required Prometheus series, the get_task counter must be
# monotone across scrapes (the worker keeps polling), and the worker's
# plane must serve phase histograms and pprof. The worker declares the
# little core class, so its plane must additionally export the live energy
# series (hh_energy_joules per paper phase, hh_edp per job), and the
# joule counter must be monotone non-decreasing across scrapes.
go build -o "$smoke_dir/hadoopd" ./cmd/hadoopd
"$smoke_dir/hadoopd" -role master -addr 127.0.0.1:0 -http 127.0.0.1:0 \
	>"$smoke_dir/master.log" 2>&1 &
master_pid=$!
for _ in $(seq 1 100); do
	grep -q '^http listening on ' "$smoke_dir/master.log" && break
	sleep 0.1
done
master_addr="$(sed -n 's/^master listening on //p' "$smoke_dir/master.log")"
master_http="$(sed -n 's/^http listening on //p' "$smoke_dir/master.log")"
"$smoke_dir/hadoopd" -role worker -id smoke-w0 -master "$master_addr" \
	-http 127.0.0.1:0 -power-profile little >"$smoke_dir/worker.log" 2>&1 &
worker_pid=$!
for _ in $(seq 1 100); do
	grep -q '^http listening on ' "$smoke_dir/worker.log" && break
	sleep 0.1
done
worker_http="$(sed -n 's/^http listening on //p' "$smoke_dir/worker.log")"
# The task tables are dropped when a job completes, so /jobs and /tasks
# are scraped while the job is in flight: submit in the background, poll
# until the tables show the running job, then wait for the result.
seq 1 100000 >"$smoke_dir/input.txt"
"$smoke_dir/hadoopd" -role submit -master "$master_addr" -workload wordcount \
	-input "$smoke_dir/input.txt" -reducers 2 -block 2048 >/dev/null &
submit_pid=$!
tables_seen=0
for _ in $(seq 1 200); do
	if curl -sf "http://$master_http/jobs" | grep -q '"workload": "wordcount"' &&
		curl -sf "http://$master_http/tasks" | grep -q '"kind": "map"' &&
		curl -sf "http://$master_http/tasks?job=job-1" | grep -q '"job": "job-1"'; then
		tables_seen=1
		break
	fi
	sleep 0.05
done
[ "$tables_seen" = 1 ]
wait "$submit_pid"
master_metrics="$(curl -sf "http://$master_http/metrics")"
echo "$master_metrics" | grep -q '^# TYPE hh_dist_rpc_get_task_total counter$'
echo "$master_metrics" | grep -q '^# TYPE hh_phase_map_schedule_seconds histogram$'
echo "$master_metrics" | grep -q '^hh_progress_done{label="dist.map",job="job-1"} '
first_polls="$(echo "$master_metrics" | sed -n 's/^hh_dist_rpc_get_task_total //p')"
sleep 0.3
second_polls="$(curl -sf "http://$master_http/metrics" | sed -n 's/^hh_dist_rpc_get_task_total //p')"
[ "$second_polls" -gt "$first_polls" ]
worker_metrics="$(curl -sf "http://$worker_http/metrics")"
echo "$worker_metrics" | grep -q '^# TYPE hh_phase_map_map_seconds histogram$'
echo "$worker_metrics" | grep -q '^# TYPE hh_phase_reduce_merge_fetch_seconds histogram$'
echo "$worker_metrics" | grep -q '^hh_phase_map_map_seconds_count [1-9]'
echo "$worker_metrics" | grep -q '^# TYPE hh_energy_joules counter$'
echo "$worker_metrics" | grep -q '^hh_energy_joules{job="wordcount",phase="map",class="little"} '
echo "$worker_metrics" | grep -q '^# TYPE hh_edp gauge$'
echo "$worker_metrics" | grep -q '^hh_edp{job="wordcount"} '
first_joules="$(echo "$worker_metrics" | awk -F'} ' '/^hh_energy_joules\{/ {sum += $2} END {printf "%.9f", sum}')"
sleep 0.2
second_joules="$(curl -sf "http://$worker_http/metrics" | awk -F'} ' '/^hh_energy_joules\{/ {sum += $2} END {printf "%.9f", sum}')"
awk -v a="$first_joules" -v b="$second_joules" 'BEGIN {exit !(a > 0 && b >= a)}'
curl -sf "http://$worker_http/debug/pprof/cmdline" >/dev/null
kill "$worker_pid" "$master_pid"
wait "$worker_pid" "$master_pid" 2>/dev/null || true
worker_pid='' master_pid=''

# Benchmark smoke: every engine, shuffle-merge, and telemetry benchmark
# must run one iteration cleanly (catches benchmarks broken by engine
# refactors without paying for a full measurement); BenchmarkNoopObserver
# additionally pins the no-observer phase path in the test suite above.
go test -run '^$' -bench 'BenchmarkEngine|BenchmarkShuffleMerge|BenchmarkSortedOutput|BenchmarkNoopObserver' -benchtime 1x ./internal/mapreduce/ .

# Contended-shuffle smoke: the sharded-collector stress case (many small
# map tasks fanning into 32 partitions) must complete at both 1 and 4
# scheduler widths — the -cpu 1 point pins the single-shard degenerate
# path, the -cpu 4 point the cross-shard handoff. One iteration each;
# the scaling lane below measures the actual speedup.
go test -run '^$' -bench 'BenchmarkContendedShuffle' -benchtime 1x -cpu 1,4 ./internal/mapreduce/

# Benchmark trajectory: re-measure the engine executor and print a
# benchstat-style delta against the committed BENCH_mapreduce.json (8 MB
# wordcount rows are the CI-sized comparison points; the 64 MB rows in the
# baseline are the paper-scale record). The speedup gate arms only on
# machines with at least 4 CPUs; the allocation gate is machine-independent
# and arms whenever the matching baseline row carries allocs_per_op — it is
# the regression fence for the flat-arena record path (a revived per-record
# allocation multiplies allocs/op by orders of magnitude, so 1.5x is
# generous headroom for noise while catching any real regression).
# -allow-serial keeps this lane runnable on single-core CI boxes; the
# committed baseline itself must come from a -cores matrix run.
go run ./cmd/benchmr -workloads wordcount -size 8388608 \
	-baseline BENCH_mapreduce.json -out "$bench_file" -minspeedup 2 \
	-maxallocfactor 1.5 -allow-serial

# Scaling smoke: on machines with real parallelism, re-measure the bench
# matrix point at GOMAXPROCS=4 with the speedup gate armed. Terasort is
# shuffle-dominated, so with the sharded collectors it must clear a real
# 2x speedup at 4 cores — parallel-barely-beating-serial is a regression
# fence for collector contention creeping back in. Wordcount's map phase
# dominates and its scaling varies more across machines, so it keeps the
# weaker does-not-regress gate. Skipped on smaller machines, where an
# oversubscribed scheduler measures contention, not scaling.
if [ "$(getconf _NPROCESSORS_ONLN)" -ge 4 ]; then
	go run ./cmd/benchmr -workloads terasort -size 8388608 \
		-cores 4 -out "$smoke_dir/bench-scaling.json" -minspeedup 2.0
	go run ./cmd/benchmr -workloads wordcount -size 8388608 \
		-cores 4 -out "$smoke_dir/bench-scaling-wc.json" -minspeedup 1.0
fi

# Memory-ceiling lane: a paper-scale terasort (1 GB by default; override
# with HH_MEMLANE_SIZE) runs out-of-core under a GOMEMLIMIT of a quarter of
# the input. benchmr exits non-zero unless the bounded runs actually spill
# (Spills and SpillFilesWritten > 0), produce output byte-identical to an
# unbounded in-memory reference both serial and parallel, and leave the spill
# directory empty afterwards — including on a probe run whose context is
# cancelled the moment the first spill file lands. The input itself is
# streamed to disk in chunks, so nothing in the lane ever holds the dataset
# resident; the grep pins that the recorded rows carry the spill counters.
memlane_size="${HH_MEMLANE_SIZE:-1073741824}"
go run ./cmd/benchmr -workloads terasort -size "$memlane_size" \
	-memlimit "$((memlane_size / 4))" -spill-dir "$smoke_dir/spill" \
	-out "$smoke_dir/bench-ooc.json"
grep -q '"spill_files_written"' "$smoke_dir/bench-ooc.json"
test -z "$(ls -A "$smoke_dir/spill")"

# String-vs-arena equivalence corpus plus the output-path parity suite:
# the parity fuzz seeds (all six workloads plus adversarial record shapes)
# already run inside the blanket race gate above; this re-runs them
# spotlighted, still under -race, so a corpus failure is easy to attribute.
# The second run covers the arena-backed output path end to end: the
# passthrough identity reduce, the collector's arrival-order property, the
# merge-based SortedOutput and the Result gob wire round-trip.
# Chaos lane: the multi-tenant fault path spotlighted under -race — eight
# concurrent jobs on three workers with one worker killed mid-run and a
# master restart from its snapshot, plus the lost-shuffle, eviction and
# snapshot-resume regressions. These run inside the blanket race gate too;
# -count=2 here shakes out scheduling-order flakes and makes a chaos
# failure easy to attribute.
go test -race -count=2 -run 'TestChaosMultiTenantRecovery|TestLostShuffleMapRerun|TestWorkerEvictionRequeuesInFlight|TestSnapshotRestartResumesJob' ./internal/dist/

go test -race -run 'TestArenaStringCounterParityAllWorkloads|FuzzStringVsArenaParity' .
go test -race -run 'TestPassthroughReduceParity|TestPassthroughDisabledUnderGrouping|TestCollectorArrivalOrderProperty|TestShuffleDegeneratePartitions|TestConsolidateRounds|TestConsolidateFailureLeavesNothing|TestSortedOutputMergeMatchesSort|TestSortedOutputUnsortedPartitionFallback|TestResultGobRoundTrip|TestParallelMatchesSerialConcurrentPublication' ./internal/mapreduce/
