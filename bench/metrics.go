package main

// metric is one row of BENCHMARK.json; bench_test.go holds the two tables
// below and that file to each other.
type metric struct {
	name, unit, better string
	bound              float64 // end-to-end only: share of the parent's median
}

// endToEnd is what the operator and the searcher see. Every workload
// reports every one: the workloads are inputs to one pipeline, so each
// metric is defined on each. setup_s and the build timings are medians of
// the run's own repetitions, the serve metrics their good-side decile
// (stats.go, calmShare).
//
// The bound is the contract's: the share of the parent's median by which a
// later change may worsen the metric before the driver rejects it outright.
// It is 25 % on the wall-clock metrics because ten runs of unchanged code
// spread up to 16 % on this VM in a disturbed hour (README.md, "Bounds";
// STABILITY.md is a calm one) and the driver rejects a benchmark whose
// spread exceeds its bound. It is not the
// benchmark's resolution: a change that claims a gain, or no loss, shows it
// with paired runs against the spreads in STABILITY.md. search_cost repeats
// exactly for one seed, but about one seed in ten draws a common identity
// and publishes a few all-ones decoy columns, 3–14 % more positives at
// m = 4 000; three such seeds among the driver's ten put the quartile there,
// so its bound has to cover that too.
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"construct_s", "s", "lower", 0.25},
	{"publish_s", "s", "lower", 0.25},
	{"rollout_s", "s", "lower", 0.25},
	{"epoch_disk_mb", "MB", "lower", 0.02},
	{"node_heap_mb", "MB", "lower", 0.05},
	{"search_cost", "ratio", "lower", 0.25},
	{"eps_met_share", "ratio", "higher", 0.01},
	{"lookup_p10_us", "us", "lower", 0.25},
	{"lookup_qps", "1/s", "higher", 0.25},
	{"batch_owners_per_s", "1/s", "higher", 0.25},
}

// perLayer comes from the traced run: medians of the spans recorded round
// each call into a layer, registry counters, and direct probes the plain
// run never makes. Every timing is measured on both workloads; the
// counts and shares of the MPC stages are 0 on the trusted one, where those
// stages do not run.
var perLayer = []metric{
	{name: "workload.generate_s", unit: "s", better: "lower"},
	{name: "core.construct_w1_s", unit: "s", better: "lower"},
	{name: "core.parallel_speedup", unit: "ratio", better: "higher"},
	{name: "core.cells_per_s", unit: "1/s", better: "higher"},
	{name: "core.commons", unit: "count", better: "lower"},
	{name: "core.hidden", unit: "count", better: "lower"},
	{name: "core.stage_s.beta_thresholds", unit: "s", better: "lower"},
	{name: "core.stage_s.aggregate", unit: "s", better: "lower"},
	{name: "core.stage_s.mixing", unit: "s", better: "lower"},
	{name: "core.stage_s.publish", unit: "s", better: "lower"},
	{name: "core.secure_mpc_share", unit: "ratio", better: "lower"},
	{name: "core.secure_secsum_bytes", unit: "count", better: "lower"},
	{name: "core.secure_mpc_bytes", unit: "count", better: "lower"},
	{name: "core.secure_mpc_rounds", unit: "count", better: "lower"},
	{name: "core.secure_mpc_msgs", unit: "count", better: "lower"},
	{name: "gmw.and_instances_per_s", unit: "1/s", better: "higher"},
	{name: "secsum.run_s", unit: "s", better: "lower"},
	{name: "gmw.dealer_triple_words_per_s", unit: "1/s", better: "higher"},
	{name: "gmw.ot_triple_word_s", unit: "s", better: "lower"},
	{name: "circuit.compile_s", unit: "s", better: "lower"},
	{name: "privacy.compute_s", unit: "s", better: "lower"},
	{name: "privacy.violations", unit: "count", better: "lower"},
	{name: "shard.partition_s", unit: "s", better: "lower"},
	{name: "index.encode_s", unit: "s", better: "lower"},
	{name: "index.encode_mb", unit: "MB", better: "lower"},
	{name: "epoch.publish_s", unit: "s", better: "lower"},
	{name: "replica.sync_s", unit: "s", better: "lower"},
	{name: "replica.sync_mb", unit: "MB", better: "lower"},
	{name: "replica.sync_mb_per_s", unit: "MB/s", better: "higher"},
	{name: "epoch.load_verify_s", unit: "s", better: "lower"},
	{name: "index.load_s", unit: "s", better: "lower"},
	{name: "httpapi.swap_us", unit: "us", better: "lower"},
	{name: "index.read_p50_us", unit: "us", better: "lower"},
	{name: "index.read_p99_us", unit: "us", better: "lower"},
	{name: "index.read_allocs", unit: "count", better: "lower"},
	{name: "index.batch_owner_us", unit: "us", better: "lower"},
	{name: "httpapi.node_lookup_p10_us", unit: "us", better: "lower"},
	{name: "httpapi.node_batch_owner_us", unit: "us", better: "lower"},
	{name: "httpapi.response_bytes_mean", unit: "count", better: "lower"},
	{name: "gateway.hop_p10_us", unit: "us", better: "lower"},
	{name: "gateway.lookup_hit_ns", unit: "ns", better: "lower"},
	{name: "gateway.batch_hit_owner_ns", unit: "ns", better: "lower"},
	{name: "gateway.cache_hit_share", unit: "ratio", better: "higher"},
	{name: "gateway.upstream_requests", unit: "count", better: "lower"},
	{name: "client.lookup_p50_us", unit: "us", better: "lower"},
	{name: "client.lookup_p99_us", unit: "us", better: "lower"},
	{name: "client.lookup_max_us", unit: "us", better: "lower"},
	{name: "client.batch_p50_us", unit: "us", better: "lower"},
	{name: "go.alloc_bytes_per_lookup", unit: "count", better: "lower"},
	{name: "go.gc_cycles", unit: "count", better: "lower"},
	{name: "go.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "bench.trace_overhead_share", unit: "ratio", better: "lower"},
}
