//! Shared machinery for the table/figure binaries (one binary per table or
//! figure of the paper — see DESIGN.md §4), and the experiment-only code
//! they run that production never does: the list-scheduling simulator
//! ([`simulate()`], [`simulate_static_order`]) that stands in for the
//! paper's 8-processor machine, and the fine-grained `Apply`/`Trsm`/`Gemm`
//! decomposition of Section 6's future work ([`build_fine_graph`],
//! [`simulate_fine`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coletree;
mod fine;
pub mod json;
mod simulate;

pub use fine::{build_fine_graph, simulate_fine, FineGraph, FineTask, Grid};
pub use simulate::{simulate, simulate_static_order, CostModel, SimResult};

use splu_core::{analyze, estimate_task_costs, NumericRequest, Options, RangePlan, SymbolicLu};
use splu_matgen::{paper_suite, BenchMatrix, Scale};
use splu_sched::{build_sstar_graph, Mapping, TaskGraph, TraceConfig};
use splu_sparse::CscMatrix;
use std::time::{Duration, Instant};

/// Number of repetitions for wall-clock measurements (minimum reported —
/// the host is small and shared, so the minimum is the stable statistic).
pub const REPS: usize = 5;

/// Loads the benchmark suite at the scale selected by the
/// `PARSPLU_REDUCED` environment variable (any value → reduced), so CI can
/// exercise the binaries quickly.
pub fn suite() -> Vec<BenchMatrix> {
    let scale = if std::env::var_os("PARSPLU_REDUCED").is_some() {
        Scale::Reduced
    } else {
        Scale::Full
    };
    paper_suite(scale)
}

/// Minimum wall time of `REPS` runs of `f`.
pub fn min_time<F: FnMut()>(mut f: F) -> Duration {
    (0..REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed()
        })
        .min()
        .expect("REPS > 0")
}

/// A prepared problem: matrix, analysis, prebuilt graphs and the permuted
/// matrix (so the numerical phase alone is timed).
pub struct Prepared {
    /// Matrix name from the paper's Table 1.
    pub name: &'static str,
    /// The matrix itself (original order).
    pub a: CscMatrix,
    /// Symbolic analysis (with postordering).
    pub sym: SymbolicLu,
    /// The matrix permuted into factorization order.
    pub permuted: CscMatrix,
    /// The paper's least-dependence task graph.
    pub eforest: TaskGraph,
    /// The S* task graph.
    pub sstar: TaskGraph,
}

/// Analyzes every suite matrix once and prebuilds both task graphs.
pub fn prepare_suite() -> Vec<Prepared> {
    suite()
        .into_iter()
        .map(|m| {
            let sym = analyze(m.a.pattern(), &Options::default()).expect("analysis succeeds");
            let permuted = sym.permute_matrix(&m.a);
            let eforest = sym.build_graph();
            let sstar = build_sstar_graph(&sym.block_structure);
            Prepared {
                name: m.name,
                a: m.a,
                sym,
                permuted,
                eforest,
                sstar,
            }
        })
        .collect()
}

/// Times the numerical factorization (minimum of [`REPS`]) on a prepared
/// problem. Block storage is allocated once outside the timed region (the
/// paper's Table 2 also times the numerical phase only); each repetition
/// re-scatters the values and factors in place.
pub fn time_factor(p: &Prepared, graph: &TaskGraph, threads: usize) -> Duration {
    factor_times(p, graph, threads, REPS, TraceConfig::off())
        .into_iter()
        .map(|(t, _)| t)
        .min()
        .expect("REPS > 0")
}

/// Untimed runs before the timed ones: on a virtual machine whose idle
/// second core wakes slowly the first two-thread runs after a
/// single-threaded stretch run up to 1.8× slower (EXPERIMENTS.md, "Range
/// tasks").
pub const WARMUP: usize = 5;

/// `runs` numerical factorizations of a prepared problem after [`WARMUP`]
/// untimed ones, as a session runs them (storage reset in place; on
/// several threads the range plan of `graph` contracted once, before the
/// first run, and handed to every run), each with its wall time and the
/// measured critical path of the report (full tracing on several threads
/// only).
pub fn factor_times(
    p: &Prepared,
    graph: &TaskGraph,
    threads: usize,
    runs: usize,
    trace: TraceConfig,
) -> Vec<(Duration, Option<f64>)> {
    let mut bm = splu_core::BlockMatrix::assemble(&p.permuted, &p.sym.block_structure);
    let coarse = NumericRequest::coarse(graph, Mapping::Static1D).threads(threads);
    let plan = RangePlan::contract(&bm, &coarse);
    let req = (plan.as_ref().map_or(coarse, NumericRequest::planned)).trace(trace);
    (0..WARMUP + runs)
        .map(|_| {
            bm.reset_from(&p.permuted, &p.sym.block_structure);
            let t = Instant::now();
            let report = splu_core::factor_numeric_with(&bm, &req).expect("factorization succeeds");
            (t.elapsed(), report.stats.critical_path_s)
        })
        .skip(WARMUP)
        .collect()
}

/// A cost model calibrated so that the simulated one-processor makespan of
/// `graph` matches the measured serial factorization time — grounding the
/// Origin-2000 simulator in this machine's reality (DESIGN.md §5.2). Every
/// constant is a multiple of the time per flop, so the calibration scales
/// simulated times and leaves their ratios alone.
pub fn calibrated_model(p: &Prepared, graph: &TaskGraph, serial: Duration) -> CostModel {
    // Dispatch overhead: a few hundred flop-equivalents per task.
    const TASK_OVERHEAD_FLOPS: f64 = 400.0;
    let costs = estimate_task_costs(&p.sym.block_structure, graph);
    let flops: f64 = costs.iter().map(|c| c.flops).sum();
    // On one processor a task costs its flops plus the dispatch overhead.
    let serial_flops = flops + TASK_OVERHEAD_FLOPS * costs.len() as f64;
    let spf = if serial_flops > 0.0 {
        serial.as_secs_f64() / serial_flops
    } else {
        2.0e-8
    };
    CostModel {
        seconds_per_flop: spf,
        // Remote reads modelled at 8 bytes/word over an interconnect ~25x
        // slower than a local flop stream, per the Origin's ~100 MB/s
        // effective remote bandwidth vs its cached flop rate.
        seconds_per_word: spf * 4.0,
        task_overhead: spf * TASK_OVERHEAD_FLOPS,
        // Run-time messaging/dispatch latency per cross-processor
        // dependence: a few thousand flop-equivalents (≈10 µs at 1999 flop
        // rates) — the cost RAPID pays on every inter-processor DAG edge.
        edge_latency: spf * 3000.0,
    }
}

/// Simulated makespan of `graph` on `nprocs` virtual processors under
/// `model` and the given mapping discipline.
///
/// Figures 5-6 and Table 2 use [`Mapping::Dynamic`]: RAPID derives task
/// placement from the dependence graph ("assigns tasks to processors in an
/// optimal way"), which a greedy earliest-free-processor list schedule
/// emulates; the static 1D discipline is available as an ablation.
pub fn simulated_seconds(
    prepared: &Prepared,
    graph: &TaskGraph,
    nprocs: usize,
    mapping: Mapping,
    model: &CostModel,
) -> f64 {
    let costs = estimate_task_costs(&prepared.sym.block_structure, graph);
    simulate(graph, nprocs, mapping, &costs, model).makespan
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduced_suite_prepares_and_factors() {
        std::env::set_var("PARSPLU_REDUCED", "1");
        let prepared = prepare_suite();
        assert_eq!(prepared.len(), 7);
        for p in &prepared {
            let t = time_factor(p, &p.eforest, 1);
            assert!(t.as_nanos() > 0);
            let model = calibrated_model(p, &p.eforest, t);
            let s1 = simulated_seconds(p, &p.eforest, 1, Mapping::Dynamic, &model);
            // Calibration: simulated serial time within 2x of measured
            // (overheads shift it somewhat).
            assert!(
                s1 > 0.3 * t.as_secs_f64() && s1 < 3.0 * t.as_secs_f64(),
                "{}: calibration off (sim {s1} vs real {})",
                p.name,
                t.as_secs_f64()
            );
        }
        std::env::remove_var("PARSPLU_REDUCED");
    }
}
