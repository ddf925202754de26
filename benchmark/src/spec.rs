//! The benchmark's names: workloads, end-to-end metrics and per-layer
//! metrics, each with its unit. `BENCHMARK.json` lists the same names; the
//! smoke test in `tests/` fails when the two drift apart.

/// Workload names, in the order `all` runs them.
pub const WORKLOADS: [&str; 4] = [
    "oneshot_front",
    "refactor_numeric",
    "solve_mix",
    "daemon_jobs",
];

/// End-to-end metrics (`--trace 0`): `(name, unit, lower_is_better)`.
pub const END_TO_END: [(&str, &str, bool); 4] = [
    ("setup_s", "s", true),
    ("op_min_ms", "ms", true),
    ("best_window_ops_per_s", "1/s", false),
    ("peak_rss_mb", "MB", true),
];

/// Per-layer metrics (`--trace 1`): `(name, unit)`. The prefix before the
/// first dot is the module (layer) the number belongs to.
pub const PER_LAYER: [(&str, &str); 62] = [
    ("sparse.mm_parse_ms", "ms"),
    ("sparse.mm_parse_mb_per_s", "MB/s"),
    ("sparse.permute_ms", "ms"),
    ("ordering.transversal_ms", "ms"),
    ("ordering.mindeg_ms", "ms"),
    ("symbolic.fill_ms", "ms"),
    ("symbolic.postorder_ms", "ms"),
    ("symbolic.supernode_ms", "ms"),
    ("symbolic.fill_nnz", "count"),
    ("symbolic.supernodes", "count"),
    ("sched.graph_build_ms", "ms"),
    ("sched.tasks", "count"),
    ("sched.edges", "count"),
    ("sched.edges_vs_sstar", "ratio"),
    ("dense.gemm_gflops", "GFLOP/s"),
    ("dense.trsm_gflops", "GFLOP/s"),
    ("dense.panel_lu_gflops", "GFLOP/s"),
    ("core.assemble_ms", "ms"),
    ("core.numeric_ms", "ms"),
    ("core.model_gflop", "GFLOP"),
    ("core.numeric_gflops", "GFLOP/s"),
    ("core.kernel_efficiency", "ratio"),
    ("core.refactor_ms", "ms"),
    ("core.refactor_overhead_ms", "ms"),
    ("core.numeric_t2_ms", "ms"),
    ("core.par2_speedup", "ratio"),
    ("core.par2_speedup_min", "ratio"),
    ("core.par2_speedup_max", "ratio"),
    ("core.solve_ms", "ms"),
    ("core.solve_t_ms", "ms"),
    ("core.solve_many8_ms", "ms"),
    ("core.solve_par2_ms", "ms"),
    ("core.factor_mb", "MB"),
    ("core.solve_gb_per_s", "GB/s"),
    ("serve.solve_job_p50_ms", "ms"),
    ("serve.refactor_job_p50_ms", "ms"),
    ("serve.job_p99_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.parse_share", "ratio"),
    ("serve.refused", "count"),
    ("persist.append_strict_us", "us"),
    ("persist.append_relaxed_us", "us"),
    ("persist.journal_bytes_per_job", "bytes"),
    ("persist.replay_ms", "ms"),
    ("persist.replay_jobs", "count"),
    ("client.call_overhead_us", "us"),
    ("bench.op_p50_ms", "ms"),
    ("bench.op_p90_ms", "ms"),
    ("bench.op_min_ms", "ms"),
    ("bench.op_max_ms", "ms"),
    ("bench.samples", "count"),
    ("bench.ops_per_s", "1/s"),
    ("bench.fail_frac", "ratio"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.layer_sum_ratio", "ratio"),
    ("share.sparse", "ratio"),
    ("share.ordering", "ratio"),
    ("share.symbolic", "ratio"),
    ("share.sched", "ratio"),
    ("share.core", "ratio"),
    ("share.serve", "ratio"),
    ("share.harness", "ratio"),
];

/// Unit of a metric of either list.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|&(n, u, _)| (n, u))
        .chain(PER_LAYER.iter().copied())
        .find(|&(n, _)| n == name)
        .map(|(_, u)| u)
}
