package main

// The workloads the command runs. BENCHMARK.json gates the two solve
// workloads; serve-mixed runs with the same oracles and tracing but is
// not gated, because on a shared two-CPU box its latencies move by 10
// to 25% between identical runs (see README.md).
const (
	solveRecursive  = "solve-recursive"
	solveAggregates = "solve-aggregates"
	serveMixed      = "serve-mixed"
)

var workloadNames = []string{solveRecursive, solveAggregates, serveMixed}

// metricDef is one reported metric. For a per-layer metric, moves
// names the end-to-end metric it should move and on the workloads
// where it should move it; elsewhere the prediction is no change.
type metricDef struct {
	name  string
	unit  string
	what  string
	moves string
	on    []string
}

// endToEnd is what a user of mdl sees on the solve workloads: the
// BENCHMARK.json end-to-end metrics.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", what: "datalog.Load of the program text, median"},
	{name: "solve_ms_p50", unit: "ms", what: "one Program.Solve from scratch, closed loop"},
	{name: "solve_ms_p90", unit: "ms", what: "one Program.Solve from scratch, closed loop"},
	{name: "alloc_mb_per_op", unit: "MB", what: "TotalAlloc growth per solve"},
	{name: "peak_rss_mb", unit: "MB", what: "VmHWM at the end of the workload"},
}

// serveEndToEnd is what a client of mdl serve sees on serve-mixed.
var serveEndToEnd = []metricDef{
	{name: "setup_s", unit: "s", what: "server.New + Materialize + listener answering, median"},
	{name: "query_ms_p50", unit: "ms", what: "POST /v1/query op=cost on s/3, from when due if the connection was busy"},
	{name: "query_ms_p99", unit: "ms", what: "POST /v1/query op=cost on s/3, from when due if the connection was busy"},
	{name: "scan_ms_p50", unit: "ms", what: "POST /v1/query op=facts on s/3, first argument bound"},
	{name: "scan_ms_p90", unit: "ms", what: "POST /v1/query op=facts on s/3, first argument bound"},
	{name: "assert_ms_p50", unit: "ms", what: "POST /v1/assert of one arc until the durable ack, from when due if the connection was busy"},
	{name: "assert_ms_p90", unit: "ms", what: "POST /v1/assert of one arc until the durable ack, from when due if the connection was busy"},
	{name: "alloc_mb_per_op", unit: "MB", what: "TotalAlloc growth per request, server included"},
	{name: "peak_rss_mb", unit: "MB", what: "VmHWM at the end of the workload"},
}

var (
	bothSolves = []string{solveRecursive, solveAggregates}
	onlyServe  = []string{serveMixed}
)

// perLayer is measured by the traced run, by timing calls into each
// module's public functions from the benchmark's own code.
var perLayer = []metricDef{
	{name: "parser.parse_ms", unit: "ms", moves: "setup_s", on: []string{solveAggregates}},
	{name: "safety.check_ms", unit: "ms", moves: "setup_s", on: []string{solveAggregates}},
	{name: "consistency.conflict_free_ms", unit: "ms", moves: "setup_s", on: []string{solveAggregates}},
	{name: "monotone.check_ms", unit: "ms", moves: "setup_s", on: []string{solveAggregates}},
	{name: "deps.build_ms", unit: "ms", moves: "setup_s", on: []string{solveAggregates}},
	{name: "core.compile_ms", unit: "ms", moves: "setup_s", on: []string{solveAggregates}},
	{name: "core.rounds", unit: "count", moves: "solve_ms_p50", on: bothSolves},
	{name: "core.firings", unit: "count", moves: "solve_ms_p50", on: bothSolves},
	{name: "core.derived", unit: "count", moves: "solve_ms_p50", on: bothSolves},
	{name: "core.probes", unit: "count", moves: "solve_ms_p50", on: bothSolves},
	{name: "core.model_facts", unit: "count", moves: "peak_rss_mb", on: bothSolves},
	{name: "core.derived_per_fact", unit: "ratio", moves: "solve_ms_p50", on: []string{solveRecursive}},
	{name: "core.ns_per_derived", unit: "ns", moves: "solve_ms_p50", on: []string{solveRecursive}},
	{name: "core.comp_busy_ms_sum", unit: "ms", moves: "solve_ms_p50", on: []string{solveAggregates}},
	{name: "core.comp_busy_ms_max", unit: "ms", moves: "solve_ms_p50", on: []string{solveAggregates}},
	{name: "core.parallel_eff", unit: "fraction", moves: "solve_ms_p50", on: []string{solveAggregates}},
	{name: "runtime.gc_cpu_frac", unit: "fraction", moves: "solve_ms_p50", on: []string{solveRecursive}},
	{name: "runtime.allocs_per_op", unit: "count", moves: "alloc_mb_per_op", on: []string{solveRecursive}},
	{name: "relation.model_mb", unit: "MB", moves: "peak_rss_mb", on: []string{solveRecursive, serveMixed}},
	{name: "relation.bytes_per_fact", unit: "B", moves: "peak_rss_mb", on: []string{solveRecursive, serveMixed}},
	{name: "relation.clone_ms", unit: "ms", moves: "assert_ms_p50", on: onlyServe},
	{name: "datalog.solve_more_ms_p50", unit: "ms", moves: "assert_ms_p50", on: onlyServe},
	{name: "datalog.cost_lookup_us_p50", unit: "us", moves: "query_ms_p50", on: onlyServe},
	{name: "server.handler_query_us_p50", unit: "us", moves: "query_ms_p50", on: onlyServe},
	{name: "server.handler_scan_us_p50", unit: "us", moves: "scan_ms_p50", on: onlyServe},
	{name: "server.queue_wait_ms_p50", unit: "ms", moves: "assert_ms_p90", on: onlyServe},
	{name: "server.commit_solve_ms_p50", unit: "ms", moves: "assert_ms_p50", on: onlyServe},
	{name: "server.publish_ms_p50", unit: "ms", moves: "assert_ms_p50", on: onlyServe},
	{name: "wal.append_ms_p50", unit: "ms", moves: "assert_ms_p50", on: onlyServe},
	{name: "wal.fsync_ms_p50", unit: "ms", moves: "assert_ms_p50", on: onlyServe},
	{name: "wal.records", unit: "count", moves: "assert_ms_p90", on: onlyServe},
	{name: "wal.bytes_per_fact", unit: "B", moves: "assert_ms_p50", on: onlyServe},
	{name: "server.commit_batch_mean", unit: "count", moves: "assert_ms_p90", on: onlyServe},
	{name: "server.shed_frac", unit: "fraction", moves: "assert_ms_p90", on: onlyServe},
	{name: "loadgen.late_ms_p99", unit: "ms", moves: "query_ms_p99", on: onlyServe},
	{name: "baseline.direct_ms", unit: "ms", moves: "solve_ms_p50", on: []string{solveRecursive}},
	{name: "core.solve_over_baseline", unit: "ratio", moves: "solve_ms_p50", on: []string{solveRecursive}},
	{name: "trace.overhead_frac", unit: "fraction", moves: "solve_ms_p50", on: bothSolves},
}
