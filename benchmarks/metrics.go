package benchmarks

// MetricDef names one metric of the benchmark. BENCHMARK.json lists the same
// names, units, directions and bounds; the smoke test keeps the two equal.
type MetricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression (0 for
	// per-layer metrics, which are never gated).
	Bound float64
}

// WorkloadDef names one workload and why it exists.
type WorkloadDef struct{ Name, Why string }

// Workloads are the benchmark's five traffic mixes.
var Workloads = []WorkloadDef{
	{"steady-pea", "twelve programs in compiled steady state under Partial Escape Analysis: exec/closure and rt do the work, the compiler almost none"},
	{"steady-noea", "the same programs and op counts with escape analysis off: rt allocation, monitors and Go GC carry what PEA removes; the bypass side of every PEA change"},
	{"compile", "cold starts of all 32 programs from source, then every installed method recompiled directly: front end, interpreter warm-up and every compiler phase"},
	{"serve-warm", "in-process peaserve, two closed-loop tenants, eight repeated programs: every request hits the program memo and the code cache (read side of the broker)"},
	{"serve-cold", "same server and tenants, every request a never-seen program: front end and pipeline on the request path, store write-through, LRU eviction (write side)"},
}

// EndToEnd are the metrics a user of the system sees. Every workload reports
// every one of them: each workload has a unit of work — a guest op in steady
// state, a program's cold start, a request — and the metrics are stated per
// unit (README.md gives the per-workload definitions).
var EndToEnd = []MetricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_ms", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"compile_ms_per_program", "ms", "lower", 0.25},
	{"guest_allocs_per_op", "count", "lower", 0.005},
	{"guest_kb_per_op", "KB", "lower", 0.005},
	{"peak_rss_mb", "MB", "lower", 0.15},
}

// PerLayer are the single-layer metrics of the traced run, layer = module
// name. A metric whose layer does no work on a workload reads 0 there.
var PerLayer = []MetricDef{
	{Name: "mj.parse_us", Unit: "us", Better: "lower"},
	{Name: "mj.compile_us", Unit: "us", Better: "lower"},
	{Name: "mj.src_kb_per_s", Unit: "KB/s", Better: "higher"},
	{Name: "bc.verify_us", Unit: "us", Better: "lower"},
	{Name: "bc.methods", Unit: "count", Better: "lower"},
	{Name: "bc.instrs", Unit: "count", Better: "lower"},
	{Name: "interp.ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "interp.warmup_ms", Unit: "ms", Better: "lower"},
	{Name: "interp.go_allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "build.us", Unit: "us", Better: "lower"},
	{Name: "build.nodes", Unit: "count", Better: "lower"},
	{Name: "opt.inline.us", Unit: "us", Better: "lower"},
	{Name: "opt.inline.count", Unit: "count", Better: "higher"},
	{Name: "opt.canon.us", Unit: "us", Better: "lower"},
	{Name: "opt.simplify.us", Unit: "us", Better: "lower"},
	{Name: "opt.gvn.us", Unit: "us", Better: "lower"},
	{Name: "opt.dce.us", Unit: "us", Better: "lower"},
	{Name: "opt.post.us", Unit: "us", Better: "lower"},
	{Name: "opt.nodes_after", Unit: "count", Better: "lower"},
	{Name: "summary.compute_us", Unit: "us", Better: "lower"},
	{Name: "summary.noescape_params", Unit: "count", Better: "higher"},
	{Name: "ea.us", Unit: "us", Better: "lower"},
	{Name: "ea.virtualized", Unit: "count", Better: "higher"},
	{Name: "pea.us", Unit: "us", Better: "lower"},
	{Name: "pea.virtualized", Unit: "count", Better: "higher"},
	{Name: "pea.materialized", Unit: "count", Better: "lower"},
	{Name: "pea.locks_elided", Unit: "count", Better: "higher"},
	{Name: "pea.nodes_after", Unit: "count", Better: "lower"},
	{Name: "pea.share_of_compile_pct", Unit: "%", Better: "lower"},
	{Name: "pea.speedup_pct", Unit: "%", Better: "higher"},
	{Name: "pea.allocs_delta_pct", Unit: "%", Better: "lower"},
	{Name: "pea.kb_delta_pct", Unit: "%", Better: "lower"},
	{Name: "check.basic_us", Unit: "us", Better: "lower"},
	{Name: "sched.us", Unit: "us", Better: "lower"},
	{Name: "closure.lower_us", Unit: "us", Better: "lower"},
	{Name: "closure.code_nodes", Unit: "count", Better: "lower"},
	{Name: "closure.p90_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "exec.oracle_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "rt.monitor_ops_per_op", Unit: "count", Better: "lower"},
	{Name: "rt.field_ops_per_op", Unit: "count", Better: "lower"},
	{Name: "rt.materializations_per_op", Unit: "count", Better: "lower"},
	{Name: "rt.go_allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "rt.go_heap_kb_per_op", Unit: "KB", Better: "lower"},
	{Name: "rt.gc_cycles_per_kop", Unit: "count", Better: "lower"},
	{Name: "rt.gc_cpu_pct", Unit: "%", Better: "lower"},
	{Name: "rt.gc_pause_us_per_kop", Unit: "us", Better: "lower"},
	{Name: "vm.compile_us_per_method", Unit: "us", Better: "lower"},
	{Name: "vm.glue_us", Unit: "us", Better: "lower"},
	{Name: "vm.new_us", Unit: "us", Better: "lower"},
	{Name: "vm.compiled_methods", Unit: "count", Better: "higher"},
	{Name: "vm.deopts_per_kop", Unit: "count", Better: "lower"},
	{Name: "vm.osr_entries", Unit: "count", Better: "higher"},
	{Name: "ir.encode_us", Unit: "us", Better: "lower"},
	{Name: "ir.decode_us", Unit: "us", Better: "lower"},
	{Name: "ir.artifact_kb", Unit: "KB", Better: "lower"},
	{Name: "broker.hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "broker.cache_hits", Unit: "count", Better: "higher"},
	{Name: "broker.disk_hits", Unit: "count", Better: "higher"},
	{Name: "broker.pipeline_compiles", Unit: "count", Better: "lower"},
	{Name: "broker.busy_ms", Unit: "ms", Better: "lower"},
	{Name: "broker.cache_evictions", Unit: "count", Better: "lower"},
	{Name: "broker.store_save_us", Unit: "us", Better: "lower"},
	{Name: "broker.store_load_us", Unit: "us", Better: "lower"},
	{Name: "broker.store_artifacts", Unit: "count", Better: "lower"},
	{Name: "broker.store_mb", Unit: "MB", Better: "lower"},
	{Name: "serve.decode_us", Unit: "us", Better: "lower"},
	{Name: "serve.link_us", Unit: "us", Better: "lower"},
	{Name: "serve.run_us", Unit: "us", Better: "lower"},
	{Name: "serve.encode_us", Unit: "us", Better: "lower"},
	{Name: "serve.http_us", Unit: "us", Better: "lower"},
	{Name: "serve.p95_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.programs_memo", Unit: "count", Better: "lower"},
	{Name: "serve.rejected", Unit: "count", Better: "lower"},
	{Name: "trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "trace_coverage_pct", Unit: "%", Better: "higher"},
}
