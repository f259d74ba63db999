package main

// metrics.go declares every metric the benchmark reports. BENCHMARK.json
// carries the same names, units and directions; the smoke test holds the two
// together.

// decl is one metric's declaration. Bound is the share of the parent's
// median by which an end-to-end metric may worsen; per-layer metrics have
// none.
type decl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEndMetrics are what a user of the system sees, measured with no
// observer attached. Every workload reports all of them.
var endToEndMetrics = []decl{
	{"job_s", "s", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"jobs_per_s", "1/s", "higher", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
	{"setup_s", "s", "lower", 0.25},
}

// perLayerMetrics come from the traced run. A metric whose layer takes no
// part in a workload reads 0 there.
var perLayerMetrics = []decl{
	// Observer-off latency distribution of the traced run's base pass. The
	// tail is here, not among the end-to-end metrics, because only the
	// small-job loop has the samples to make it steady.
	{"job_latency_p50_ms", "ms", "lower", 0},
	{"job_latency_p95_ms", "ms", "lower", 0},

	{"workloads.generate_s", "s", "lower", 0},
	{"workloads.build_s", "s", "lower", 0},
	{"reference.job_s", "s", "lower", 0},

	{"hdfs.write_s", "s", "lower", 0},
	{"hdfs.read_block_s", "s", "lower", 0},
	{"hdfs.read_window_s", "s", "lower", 0},
	{"hdfs.read_mb_s", "MB/s", "higher", 0},

	{"mapreduce.split_s", "s", "lower", 0},
	{"mapreduce.map_task_s", "s", "lower", 0},
	{"mapreduce.map_task_max_ms", "ms", "lower", 0},
	{"mapreduce.map_out_mb", "MB", "lower", 0},
	{"mapreduce.map_out_records", "count", "lower", 0},

	{"mapreduce.phase.read_s", "s", "lower", 0},
	{"mapreduce.phase.map_s", "s", "lower", 0},
	{"mapreduce.phase.sort_s", "s", "lower", 0},
	{"mapreduce.phase.spill_s", "s", "lower", 0},
	{"mapreduce.phase.shuffle_s", "s", "lower", 0},
	{"mapreduce.phase.reduce_s", "s", "lower", 0},
	{"mapreduce.critical_path_s", "s", "lower", 0},

	{"mapreduce.reduce_task_s", "s", "lower", 0},
	{"mapreduce.reduce_out_records", "count", "lower", 0},
	{"mapreduce.materialize_s", "s", "lower", 0},
	{"mapreduce.partition_skew", "ratio", "lower", 0},

	{"mapreduce.staged_total_s", "s", "lower", 0},
	{"mapreduce.engine_overlap_ratio", "ratio", "lower", 0},

	{"mapreduce.alloc_mb", "MB", "lower", 0},
	{"mapreduce.allocs", "count", "lower", 0},
	{"mapreduce.gc_cycles", "count", "lower", 0},

	{"mapreduce.wire_encode_s", "s", "lower", 0},
	{"mapreduce.wire_decode_s", "s", "lower", 0},
	{"mapreduce.wire_mb", "MB", "lower", 0},

	{"mapreduce.segfile_write_s", "s", "lower", 0},
	{"mapreduce.segfile_read_s", "s", "lower", 0},
	{"mapreduce.segfile_stored_mb", "MB", "lower", 0},
	{"mapreduce.segfile_ratio", "ratio", "lower", 0},
	{"mapreduce.spills", "count", "lower", 0},
	{"mapreduce.spill_file_mb_written", "MB", "lower", 0},
	{"mapreduce.spill_file_mb_read", "MB", "lower", 0},
	{"mapreduce.merge_passes", "count", "lower", 0},

	{"dist.admit_s", "s", "lower", 0},
	{"dist.run_s", "s", "lower", 0},
	{"dist.submit_rpc_overhead_s", "s", "lower", 0},
	{"dist.snapshot_cost_s", "s", "lower", 0},
	{"dist.snapshot_mb", "MB", "lower", 0},
	{"dist.snapshot_writes", "count", "lower", 0},
	{"dist.overhead_vs_engine_ratio", "ratio", "lower", 0},
	{"dist.control_plane_ms", "ms", "lower", 0},
	{"dist.get_task_rpcs_per_job", "count", "lower", 0},
	{"dist.task_span_mean_ms", "ms", "lower", 0},
	{"dist.tasks_run", "count", "lower", 0},
	{"dist.task_redundancy_ratio", "ratio", "lower", 0},
	{"dist.reassigned", "count", "lower", 0},
	{"dist.speculative", "count", "lower", 0},
	{"dist.recovered_maps", "count", "lower", 0},
	{"dist.report_errors", "count", "lower", 0},

	{"obs.overhead_ratio", "ratio", "lower", 0},
	{"obs.events", "count", "lower", 0},
	{"obs.est_joules", "J", "lower", 0},
	{"obs.est_edp", "J.s", "lower", 0},
}
