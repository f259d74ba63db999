#!/bin/sh
# ci.sh — the repository's continuous-integration gate.
#
# Runs the static checks, a full build, and the test suite under the race
# detector (the engine's task slots and the dist master and workers are
# concurrent by default, so -race is part of the gate, not an optional
# extra), then the determinism gates, the build and tests of the bench/
# module (the only harness numbers come from; nothing else compiles it),
# the reachability check (reach_test.go, behind the reach build tag: every
# non-test declaration under internal/ is reachable from a cmd/, examples/
# or bench/ main or stands on its keep-list with a reason),
# and two observability smokes: an artefact trace must validate strictly
# (tracer -check), and a live master+worker pair must serve /metrics,
# /jobs, /tasks and pprof while a real job runs. Nothing here generates an
# input larger than 8 MB, except the one 64 MB iteration of
# BenchmarkEngineTeraSortOOC in the benchmark smoke.
set -eux

# Formatting drift gate: gofmt must be a no-op over the whole tree.
test -z "$(gofmt -l .)"

# Codec gate: spill files hold raw frames. The engine's non-test code imports
# nothing under compress/ — a codec on this path comes back as its own
# measured change, not as an import. (Spelled with test -z, like the gofmt
# gate: set -e does not act on a command negated with !.)
# shellcheck disable=SC2046
test -z "$(grep -l '"compress/' $(ls internal/mapreduce/*.go | grep -v _test.go))"

# Snapshot gate: the master's snapshot names a job's bytes (its data file
# and the extents in it) instead of carrying them, so snapshot.go touches
# neither the splits nor the buffered reduce outputs.
test -z "$(grep -nE 'SplitData|redOutputs' internal/dist/snapshot.go)"

# Codec gate: the master's journal records and a Result's counters are
# hand-encoded, so no non-test file under internal/dist or internal/mapreduce
# imports encoding/gob (net/rpc still gob-encodes the RPC messages itself).
# shellcheck disable=SC2046
test -z "$(grep -l '"encoding/gob"' $(ls internal/dist/*.go internal/mapreduce/*.go | grep -v _test.go))"

# Task gate: a cluster map task is the engine's map task — the master cuts
# the engine's byte-range splits and hands out their windows, and a
# spill-dir worker's spill files are the engine's — so non-test
# internal/dist cuts no split, ships no chunk and writes no map output
# itself.
# shellcheck disable=SC2046
test -z "$(grep -nE 'SplitInput|WriteSegmentsFile|SplitData' $(ls internal/dist/*.go | grep -v _test.go))"

# Side-data gate: a workload computes its own side data (workloads.Sider)
# and rebuilds its job from it (workloads.SideBuilder), so non-test
# internal/dist names no workload: the registry is one loop over
# workloads.All, PrepareAux one Side call, and the descriptor has no
# sort-only cut field.
# shellcheck disable=SC2046
test -z "$(grep -nE 'workloads\.(New|Build|SampleCuts|TeraKey|CountItems)|\bCuts\b|Register\("' $(ls internal/dist/*.go | grep -v _test.go))"

# Knob gate: scheduling is the master's alone and a failed engine task fails
# its job, so the per-job overrides, the engine retry loop and the task
# fields that restated the descriptor stay deleted outside tests.
test -z "$(grep -rnE 'ReduceSlowstart|SpecFraction|MaxAttempts|TaskRetries|NParts' --include='*.go' internal cmd examples | grep -v _test.go)"

# Model gate: the calibrated model runs the full evaluation in milliseconds
# as plain serial calls, so the sweep pool, the result cache and the width
# knob that tuned them stay deleted outside tests.
test -z "$(grep -rnE 'internal/pool|RunCached|SetParallelism|ResetCache' --include='*.go' internal cmd examples *.go | grep -v _test.go)"

# Job-shape gate: every job maps, shuffles and reduces grouped by exact key,
# the offline profiler's calibration contract lives in the workloads tests,
# and a phase event's core class comes from the task's worker, so the
# secondary-sort comparator, internal/trace and the class-stamping observer
# wrapper stay deleted outside tests.
test -z "$(grep -rnE 'GroupComparator|Grouping|internal/trace|energy\.Classify' --include='*.go' internal cmd examples | grep -v _test.go)"

# Data-plane gates: shuffle frames and reduce outputs are pulled from each
# worker's raw byte endpoint, not carried in net/rpc messages, so the
# Shuffle RPC service and its argument types stay deleted outside tests, and
# a TaskReport names the beat's endpoint instead of carrying an Output
# payload. The grep -q first keeps the sed range from matching nothing.
test -z "$(grep -rnE 'FetchPartReply|FetchPartArgs|shuffleRPC|Shuffle\.Fetch' --include='*.go' internal cmd examples | grep -v _test.go)"
grep -q '^type TaskReport struct' internal/dist/protocol.go
test -z "$(sed -n '/^type TaskReport struct/,/^}/p' internal/dist/protocol.go | grep -E '^[[:space:]]+Output[[:space:]]')"

# Protocol gate: a worker has one control call, the held Heartbeat that
# carries every report and returns the next task, so the per-report calls
# and their message types stay deleted outside tests, and the master's RPC
# facade declares exactly Heartbeat, FetchSegments and Submit.
test -z "$(grep -rnwE 'GetTaskArgs|MapDone|ReduceDone|TaskFailed|Ack' --include='*.go' internal cmd examples | grep -v _test.go)"
test -z "$(grep -rnE 'Master\.(GetTask|CompleteMap|CompleteReduce|ReportFailure|ReportLostSegments)\b' --include='*.go' internal cmd examples | grep -v _test.go)"
# shellcheck disable=SC2046
test "$(cat $(ls internal/dist/*.go | grep -v _test.go) | grep -cE '^func \([a-z]+ \*masterRPC\) ')" = 3

# Core-purity gate: every scheduling rule of the master lives in one
# deterministic core (internal/dist/core.go, with the per-job tables of
# job.go) that Master drives over RPC and the replay harness drives in
# virtual time, so it imports no socket, file or lock package and never
# reads a clock or sleeps: each transition takes the time as an argument.
test -z "$(grep -nE '"(net|net/rpc|os|sync)"' internal/dist/core.go internal/dist/job.go)"
test -z "$(grep -nE 'time\.(Now|NewTimer|NewTicker|Sleep)\(' internal/dist/core.go internal/dist/job.go)"

# Held-poll gate: the master holds a polling Heartbeat with no task and an
# empty FetchSegments until the next state change, so a worker has nothing
# left to sleep on between calls.
test -z "$(grep -nE 'time\.(NewTimer|After|Sleep)\(' internal/dist/worker.go)"

# Input-path gate: every map task, store-backed or file-backed, reads its
# own split window through hdfs.ReadWindow, so the two-branch input source,
# the exported Block type and Blocks field and the whole-file reader stay
# deleted outside tests, and the engine never reads a whole input into one
# buffer.
test -z "$(grep -rnE 'inputSource|hdfs\.Block\b|type Block struct|\.Blocks\b|\*File\) Reader\(|\.Reader\(\)' --include='*.go' internal cmd examples | grep -v _test.go)"
test -z "$(grep -nE 'ReadFull' internal/mapreduce/engine.go)"

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

# Replay lane: the seeded harness drives the master's core through 10 000
# interleavings of submits, polls, completions, failure and loss reports,
# evictions, speculation, slowstart, cancels and snapshot restarts, checking
# its invariants after every step. Without -race: the core has no
# goroutines, and the race lanes above run a 500-seed slice of it.
go test -count=1 -run TestReplay ./internal/dist/

# Allocation fences: in memory a whole job allocates at most a fixed
# fraction of its map output records; out of core a spilled job allocates at
# most three times its input in bytes. Their own lane because the tests skip
# themselves under the race detector, which is all the lanes above run with.
go test -count=1 -run 'TestEngineAllocsPerRecord|TestOutOfCoreAllocBytes' ./internal/mapreduce/

# Benchmark-module gate: bench/ is its own Go module, so the build and the
# race gate above never compile it — an internal/ rename could break the
# acceptance benchmark unseen. Its TestEveryWorkloadTiny runs all six
# BENCHMARK.json workloads end to end and layer by layer at 1/256 scale,
# requires spills on exactly the out-of-core workload, digest-checks every
# output against the engine-free reference and fails on leftover scratch
# files.
go -C bench vet ./...
go -C bench test -count=1 ./...

# Surface gate: type-checks both modules from source and fails, printing the
# names sorted by file, when a declaration under internal/ is reachable only
# from tests and is not on the keep-list, or when a keep-list entry has gone
# stale. Tagged so the plain test runs above do not pay for the type-check.
go test -tags reach -count=1 -run TestInternalSurfaceReachable .

# Observability smoke: regenerate one artefact with a streaming trace and
# validate the emitted JSONL strictly (decodes line by line, spans balance,
# and an expt.artefact span covers table3) with tracer -check.
trace_file="$(mktemp /tmp/heterohadoop-trace.XXXXXX.jsonl)"
smoke_dir="$(mktemp -d /tmp/heterohadoop-smoke.XXXXXX)"
cleanup() {
	[ -n "${worker_pid:-}" ] && kill "$worker_pid" 2>/dev/null || true
	[ -n "${master_pid:-}" ] && kill "$master_pid" 2>/dev/null || true
	rm -rf "$trace_file" "$smoke_dir"
}
trap cleanup EXIT
go run ./cmd/experiments -only table3 -trace "$trace_file" -progress >/dev/null
go run ./cmd/tracer -check -artefacts table3 "$trace_file"

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
# until the tables show the running job, then wait for the result. The
# input is 6.9 MB (about 3400 map tasks): with 0.6 MB the job could finish
# before the first scrape saw it in flight.
seq 1 1000000 >"$smoke_dir/input.txt"
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

# Benchmark smoke: every engine, map-side sort, shuffle-merge, and
# telemetry benchmark must run one iteration cleanly (catches benchmarks
# broken by engine refactors without paying for a full measurement);
# BenchmarkNoopObserver additionally pins the no-observer phase path in the
# test suite above.
go test -run '^$' -bench 'BenchmarkEngine|BenchmarkSpillSort|BenchmarkShuffleMerge|BenchmarkSortedOutput|BenchmarkNoopObserver' -benchtime 1x ./internal/mapreduce/ .
go test -run '^$' -bench 'BenchmarkSnapshotWrite' -benchtime 1x ./internal/dist/

# Contended-shuffle smoke: the sharded-collector stress case (many small
# map tasks fanning into 32 partitions) must complete at both 1 and 4
# scheduler widths — the -cpu 1 point pins the single-shard degenerate
# path, the -cpu 4 point the cross-shard handoff. One iteration each.
go test -run '^$' -bench 'BenchmarkContendedShuffle' -benchtime 1x -cpu 1,4 ./internal/mapreduce/

# Chaos lane: the multi-tenant fault path spotlighted under -race — eight
# concurrent jobs on three workers with one worker killed mid-run and a
# master restart from its snapshot, plus the lost-shuffle, closed-worker,
# eviction and snapshot-resume regressions, the held-call cases (jobs that
# only wake-ups can move, a zero-wait poll, held calls released by Close, a
# slow-heartbeat worker that is not evicted, a busy worker that still
# prunes), the heartbeat's guarantees
# (reports committed before the poll is answered, a completion flushed when
# the loop ends, only accepted reduce outputs pulled) and the per-job data
# files beside the snapshot (a finished reducer restored from its file,
# torn append included; the orphan sweep; nothing left behind; a snapshot
# whose size does not follow the input; a job restored queued under a lower
# cap; a journal of another version, a gob file of the old layout, an
# unknown or malformed record refused; a journal cut at every byte offset
# restoring the state of its last whole record and compacted before the
# next append; beats that do not wait for the snapshot writer while Submit
# does; Close flushing it, then stopping it), a grep pattern that
# does not compile and a sort whose side data cannot be cut, rejected in
# process and over RPC with the master still serving, an empty input
# refused before any side data is computed, every bundled workload byte-identical to the engine (side data
# included), and the engine's map task on a worker (absolute offsets at cuts
# inside, at and across lines; a block size of math.MaxInt; a restored job
# of block size 0 refused; several spills per map on a spill-dir worker,
# byte-identical to the engine; a map failing after its second spill
# leaving no file). These run inside the blanket race gate too; -count=2 here shakes out scheduling-order flakes
# and makes a chaos failure easy to attribute.
go test -race -count=2 -run 'TestChaosMultiTenantRecovery|TestLostShuffleMapRerun|TestClosedWorkerStopsServing|TestWorkerEvictionRequeuesInFlight|TestSnapshotRestartResumesJob|TestSnapshotRestartResumesFinishedReducer|TestSnapshotOrphanSweep|TestSnapshotLeavesOnlyItsFile|TestSnapshotSizeIndependentOfInput|TestSnapshotBlobsRoundTrip|TestSnapshotRestoredQueuedJobHasNoPhase|TestSnapshotVersionMismatchRejected|TestSnapshotUnknownKindOrVersionRefused|TestSnapshotTruncatedAtEveryOffset|TestSubmitChecksInputBeforeSideData|TestHeldPollIdleWorkersThenSubmit|TestHeldPollOverlappingJobs|TestHeldFetchReceivesMapTail|TestZeroWaitPollAnswersAtOnce|TestCloseReleasesHeldCalls|TestSlowPollWorkerSurvivesIdle|TestBusyWorkerPrunesFinishedJobs|TestPollingBeatAppliesReportsFirst|TestStoppedWorkerFlushesCompletion|TestHeartbeatPullsOnlyAcceptedReduceOutput|TestInvalidGrepPatternRejected|TestBundledWorkloadsMatchEngine|TestSnapshotWriteOffLock|TestSnapshotCloseFlushes|TestClusterOffsetsMatchEngine|TestSubmitMaxBlockSize|TestSnapshotZeroBlockSizeRejected|TestSpillDirWorkerMatchesEngine|TestSpillDirFailedMapLeavesNoFile' ./internal/dist/

# String-API equivalence corpus: the parity fuzz seeds (the echo job native
# and through the func adapters over the adversarial record shapes, all six
# workloads serial against parallel) already run inside the blanket race
# gate above; this re-runs them spotlighted, still under -race, so a corpus
# failure is easy to attribute.
go test -race -run 'FuzzStringVsArenaParity' .

# Output-path parity suite, spotlighted the same way: the map-side sort
# against its stable-sort oracle, the one merge against its own oracle and
# its aliasing contract over resident, single-frame and multi-frame runs,
# recycled frame scratch held across a churning pool, the one frame reader,
# the raw-frame file format (unknown codec, writer cap, ReadFrame
# ownership), the forced-hops consolidation table and hop count, the
# passthrough identity reduce, the reduce-side spill-read accounting, the
# collector's arrival-order property, the merge-based SortedOutput, the
# Result gob wire round-trip and the counters' fixed binary form (every
# field set by reflection).
go test -race -run 'TestSortMetaMatchesStableSort|TestMergeSegs|TestMergeStreamAliasing|TestRecycledFrameLifetime|TestFrameReader|TestSegmentFileRoundTrip|TestUnknownCodecIsCorrupt|TestSpillWriterFrameCap|TestReadFrameCallerOwns|TestReduceSideSpillReadsCounted|TestPassthroughReduceParity|TestCollectorArrivalOrderProperty|TestShuffleDegeneratePartitions|TestConsolidateRounds|TestConsolidateFailureLeavesNothing|TestOutOfCoreHopCount|TestSortedOutputMergeMatchesSort|TestSortedOutputUnsortedPartitionFallback|TestResultGobRoundTrip|TestCountersBinaryRoundTrip|TestParallelMatchesSerialConcurrentPublication' ./internal/mapreduce/

# Fuzz lane: everything above runs only the fuzz targets' seed corpora;
# here each target mutates for ten seconds (go test -fuzz takes one target
# and one package per run).
go test -run '^$' -fuzz '^FuzzStringVsArenaParity$' -fuzztime 10s .
go test -run '^$' -fuzz '^FuzzSortMeta$' -fuzztime 10s ./internal/mapreduce/
go test -run '^$' -fuzz '^FuzzMergeStream$' -fuzztime 10s ./internal/mapreduce/
go test -run '^$' -fuzz '^FuzzSplitRecords$' -fuzztime 10s ./internal/mapreduce/
go test -run '^$' -fuzz '^FuzzSplitInput$' -fuzztime 10s ./internal/mapreduce/
go test -run '^$' -fuzz '^FuzzStreamingShuffleParity$' -fuzztime 10s ./internal/mapreduce/
go test -run '^$' -fuzz '^FuzzSegmentFileReader$' -fuzztime 10s ./internal/mapreduce/
go test -run '^$' -fuzz '^FuzzResultGobDecode$' -fuzztime 10s ./internal/mapreduce/
go test -run '^$' -fuzz '^FuzzFrameReader$' -fuzztime 10s ./internal/dist/
go test -run '^$' -fuzz '^FuzzJournalRecord$' -fuzztime 10s ./internal/dist/
go test -run '^$' -fuzz '^FuzzWindow$' -fuzztime 10s ./internal/hdfs/
go test -run '^$' -fuzz '^FuzzFPTreeMine$' -fuzztime 10s ./internal/workloads/
go test -run '^$' -fuzz '^FuzzNaiveBayesModel$' -fuzztime 10s ./internal/workloads/
go test -run '^$' -fuzz '^FuzzGrepMapper$' -fuzztime 10s ./internal/workloads/
go test -run '^$' -fuzz '^FuzzForEachField$' -fuzztime 10s ./internal/workloads/
go test -run '^$' -fuzz '^FuzzReplay$' -fuzztime 10s ./internal/obs/timeline/
