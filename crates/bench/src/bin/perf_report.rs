//! Scheduler telemetry report for the parallel numeric factorization.
//!
//! For every suite matrix (or the one named on the command line) this binary
//! factors under the executor's two placements — `static1d` (owner-computes
//! priority pools) and `dynamic` (work stealing) — and for each one:
//!
//! 1. measures the **tracing-off** median over [`splu_bench::REPS`] reps,
//!    then the **tracing-on** ([`TraceConfig::full`]) median, reporting the
//!    instrumentation overhead in percent (budget: ≤ 5% on suite matrices);
//! 2. prints the [`SchedStats`] table decomposing each worker's wall clock
//!    into busy / steal-scan / idle time with task and steal counters;
//! 3. diffs the achieved wall clock against the calibrated simulator's
//!    prediction for the same task graph ([`simulate`] for `static1d`,
//!    [`simulate_dynamic_traced`] with the `Priority` ready policy for
//!    `dynamic`).
//!
//! Artifacts, self-validated against the schemas in [`splu_bench::json`]
//! before being written:
//!
//! * `BENCH_sched.json` — one record per (matrix, mode): overhead, wall
//!   clock, per-worker busy/idle/steal arrays, steal counters, zero-copy
//!   panel counter; plus one `kind: "simulated"` record per mode with the
//!   predicted makespan.
//! * `TRACE_<matrix>.json` — Chrome `trace_event` stream of the traced
//!   `dynamic` run (load in Perfetto / `chrome://tracing`).
//! * `TRACE_<matrix>_sim.json` — the simulator's predicted schedule for the
//!   same graph in the same format, for side-by-side Gantt comparison.
//!
//! Usage: `perf_report [matrix] [--threads N]` (default: all suite
//! matrices, 8 threads). `PARSPLU_REDUCED=1` shrinks the suite for CI.

use splu_bench::{calibrated_model, json, prepare_suite, Prepared, REPS};
use splu_core::{
    estimate_task_costs, factor_numeric_with, BlockMatrix, ExecReport, KernelChoice,
    NumericRequest, TraceConfig,
};
use splu_sched::{
    sim_chrome_json, simulate, simulate_dynamic_traced, Mapping, ReadyPolicy, Task, TaskGraph,
};
use std::fmt::Write as _;
use std::time::Instant;

/// The scheduling disciplines under measurement.
const MODES: [&str; 2] = ["static1d", "dynamic"];

/// Median over `REPS` timed runs of `f`, in seconds.
fn median_time<F: FnMut()>(mut f: F) -> f64 {
    let mut times: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
    times[times.len() / 2]
}

/// One factorization under `mode`, traced per `config`.
fn factor_mode(
    bm: &BlockMatrix,
    graph: &TaskGraph,
    threads: usize,
    mode: &str,
    config: &TraceConfig,
) -> ExecReport {
    let mapping = match mode {
        "static1d" => Mapping::Static1D,
        "dynamic" => Mapping::Dynamic,
        other => unreachable!("unknown mode {other}"),
    };
    factor_numeric_with(
        bm,
        &NumericRequest::coarse(graph, mapping)
            .threads(threads)
            .kernels(KernelChoice::Auto)
            .trace(*config),
    )
    .expect("factorization succeeds")
}

/// Tracing-off median, tracing-on median, and the final traced report
/// (full event stream) for one (matrix, mode, threads) cell.
///
/// Off and traced reps are **interleaved pairwise** rather than timed in
/// two separate blocks: on a shared (and possibly oversubscribed) host,
/// slow drift between blocks otherwise dwarfs the instrumentation cost the
/// overhead number is meant to expose.
fn measure(p: &Prepared, threads: usize, mode: &str) -> (f64, f64, ExecReport) {
    let mut bm = BlockMatrix::assemble(&p.permuted, &p.sym.block_structure);
    let full = TraceConfig::full(p.eforest.len(), threads);
    let mut off_times = Vec::with_capacity(REPS);
    let mut traced_times = Vec::with_capacity(REPS);
    let mut last: Option<ExecReport> = None;
    for _ in 0..REPS {
        bm.reset_from(&p.permuted, &p.sym.block_structure);
        let t = Instant::now();
        factor_mode(&bm, &p.eforest, threads, mode, &TraceConfig::off());
        off_times.push(t.elapsed().as_secs_f64());

        bm.reset_from(&p.permuted, &p.sym.block_structure);
        let t = Instant::now();
        last = Some(factor_mode(&bm, &p.eforest, threads, mode, &full));
        traced_times.push(t.elapsed().as_secs_f64());
    }
    let median = |mut v: Vec<f64>| {
        v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
        v[v.len() / 2]
    };
    (
        median(off_times),
        median(traced_times),
        last.expect("REPS > 0"),
    )
}

/// Writes `text` to `path` after confirming it parses as JSON.
fn write_validated(path: &str, text: &str, check: impl Fn(&json::Json) -> Result<usize, String>) {
    let doc = json::parse(text).unwrap_or_else(|e| panic!("{path}: invalid JSON: {e}"));
    check(&doc).unwrap_or_else(|e| panic!("{path}: schema violation: {e}"));
    std::fs::write(path, text).unwrap_or_else(|e| panic!("write {path}: {e}"));
}

fn task_label(graph: &TaskGraph) -> impl Fn(usize) -> String + '_ {
    move |tid| match graph.task(tid) {
        Task::Factor(k) => format!("F({k})"),
        Task::Update { src, dst } => format!("U({src},{dst})"),
    }
}

fn main() {
    let mut threads = 8usize;
    let mut filter: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--threads" {
            threads = args
                .next()
                .and_then(|v| v.parse().ok())
                .expect("--threads takes a positive integer");
        } else {
            filter = Some(arg);
        }
    }

    let prepared = prepare_suite();
    let selected: Vec<&Prepared> = prepared
        .iter()
        .filter(|p| filter.as_deref().is_none_or(|f| p.name == f))
        .collect();
    if selected.is_empty() {
        eprintln!(
            "no suite matrix named {:?}; available: {}",
            filter.unwrap_or_default(),
            prepared
                .iter()
                .map(|p| p.name)
                .collect::<Vec<_>>()
                .join(", ")
        );
        std::process::exit(1);
    }

    let mut records = String::new();
    let mut n_records = 0usize;
    for p in &selected {
        println!(
            "== {} ({} tasks, {} threads, {} kernels) ==",
            p.name,
            p.eforest.len(),
            threads,
            splu_core::Dispatch::resolve(KernelChoice::Auto).name()
        );

        // Calibrate the simulator on the measured serial time so predicted
        // makespans live in this machine's seconds.
        let mut bm = BlockMatrix::assemble(&p.permuted, &p.sym.block_structure);
        let serial_req =
            NumericRequest::coarse(&p.eforest, Mapping::Static1D).kernels(KernelChoice::Auto);
        let serial = median_time(|| {
            bm.reset_from(&p.permuted, &p.sym.block_structure);
            factor_numeric_with(&bm, &serial_req).expect("factorization succeeds");
        });
        let model = calibrated_model(p, &p.eforest, std::time::Duration::from_secs_f64(serial));
        let costs = estimate_task_costs(&p.sym.block_structure, &p.eforest);

        for mode in MODES {
            let (off, traced, report) = measure(p, threads, mode);
            let overhead_pct = if off > 0.0 {
                100.0 * (traced - off) / off
            } else {
                0.0
            };
            let predicted = match mode {
                "static1d" => {
                    simulate(&p.eforest, threads, Mapping::Static1D, &costs, &model).makespan
                }
                _ => {
                    let (res, events) = simulate_dynamic_traced(
                        &p.eforest,
                        threads,
                        &costs,
                        &model,
                        ReadyPolicy::Priority,
                    );
                    let sim_json = sim_chrome_json(&events, threads, &task_label(&p.eforest));
                    write_validated(
                        &format!("TRACE_{}_sim.json", p.name),
                        &sim_json,
                        json::validate_chrome_trace,
                    );
                    res.makespan
                }
            };
            let stats = &report.stats;
            stats.assert_consistent();
            println!(
                "\n-- mode {mode}: off {off:.6}s, traced {traced:.6}s \
                 (overhead {overhead_pct:+.2}%), predicted span {predicted:.6}s \
                 (achieved/predicted {:.2}x)",
                stats.wall_s / predicted.max(1e-12),
            );
            print!("{}", stats.table());

            if mode == "dynamic" {
                let trace = report.trace.as_ref().expect("full tracing keeps events");
                let chrome = trace.chrome_json(&task_label(&p.eforest));
                write_validated(
                    &format!("TRACE_{}.json", p.name),
                    &chrome,
                    json::validate_chrome_trace,
                );
                println!(
                    "wrote TRACE_{}.json ({} events)",
                    p.name,
                    trace.events.len()
                );
            }

            let join = |f: &dyn Fn(&splu_sched::WorkerStats) -> String| {
                stats.workers.iter().map(f).collect::<Vec<_>>().join(", ")
            };
            writeln!(
                records,
                "  {{\"matrix\": \"{}\", \"mode\": \"{mode}\", \"kind\": \"measured\", \
                 \"threads\": {threads}, \"median_off_s\": {off:.9}, \
                 \"median_traced_s\": {traced:.9}, \"overhead_pct\": {overhead_pct:.3}, \
                 \"wall_s\": {:.9}, \"tasks_total\": {}, \"panel_copies\": {}, \
                 \"predicted_span_s\": {predicted:.9}, \
                 \"busy_s\": [{}], \"idle_s\": [{}], \"steal_s\": [{}], \
                 \"tasks\": [{}], \"steals_in\": [{}]}},",
                p.name,
                stats.wall_s,
                stats.n_tasks,
                stats.panel_copies,
                join(&|w| format!("{:.9}", w.busy_s)),
                join(&|w| format!("{:.9}", w.idle_s)),
                join(&|w| format!("{:.9}", w.steal_s)),
                join(&|w| w.tasks_run.to_string()),
                join(&|w| w.steals_in.to_string()),
            )
            .expect("string write");
            writeln!(
                records,
                "  {{\"matrix\": \"{}\", \"mode\": \"{mode}\", \"kind\": \"simulated\", \
                 \"threads\": {threads}, \"makespan_s\": {predicted:.9}}},",
                p.name,
            )
            .expect("string write");
            n_records += 2;
        }
        println!();
    }

    let body = records.trim_end().trim_end_matches(',');
    let doc = format!("[\n{body}\n]\n");
    write_validated("BENCH_sched.json", &doc, json::validate_bench_sched);
    println!("wrote BENCH_sched.json ({n_records} records)");
}
