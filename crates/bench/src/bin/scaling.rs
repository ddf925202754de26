//! Thread-scaling benchmark of the numerical factorization under the
//! executor's two placements.
//!
//! For every suite matrix, every thread count in {1, 2, 4, 8} and both
//! mappings — `static1d` (owner-computes priority pools, the paper's
//! deployment) and `dynamic` (work stealing) — the median of
//! [`splu_bench::REPS`] factorization times is recorded to
//! `BENCH_factor.json` in the working directory:
//!
//! ```json
//! [{"matrix": "...", "threads": 8, "mapping": "dynamic",
//!   "kind": "measured", "median_seconds": 0.0123}, ...]
//! ```
//!
//! Each record carries a `kind` field — `"measured"` for wall-clock rows,
//! `"simulated"` for the calibrated-simulator rows — so downstream tooling
//! never averages simulator ticks into wall-clock aggregates.
//!
//! The host may have fewer physical cores than the paper's 8-processor
//! Origin 2000 (this container has one), in which case wall-clock numbers
//! only expose scheduler overhead, not scheduling quality. Two additional
//! rows per matrix therefore evaluate the *policy* itself on the calibrated
//! simulator (DESIGN.md §5, substitution 2) at 8 virtual processors:
//! `sim8-priority` (the executor's critical-path inspector) versus
//! `sim8-fifo` (the pre-rework FIFO inspector), identical costs and
//! mapping otherwise.
//!
//! The closing summary prints the simulated 8-way priority-over-FIFO ratio
//! on the largest matrix. Set `PARSPLU_REDUCED=1` for a fast CI-sized run.

use splu_bench::{calibrated_model, prepare_suite, Prepared, REPS};
use splu_core::{
    estimate_task_costs, factor_numeric_with, BlockMatrix, Dispatch, KernelChoice, NumericRequest,
};
use splu_sched::{simulate_dynamic, Mapping, ReadyPolicy};
use std::fmt::Write as _;
use std::time::Instant;

/// Median wall time of `REPS` runs of `f`, in seconds.
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

/// One timed configuration. `kind` distinguishes wall-clock measurements
/// from calibrated-simulator predictions in the JSON output.
struct Record {
    matrix: String,
    threads: usize,
    mapping: &'static str,
    kind: &'static str,
    kernel: &'static str,
    median_seconds: f64,
}

fn time_mapping(p: &Prepared, threads: usize, mapping: Mapping) -> f64 {
    let mut bm = BlockMatrix::assemble(&p.permuted, &p.sym.block_structure);
    let req = NumericRequest::coarse(&p.eforest, mapping)
        .threads(threads)
        .kernels(KernelChoice::Auto);
    median_time(|| {
        bm.reset_from(&p.permuted, &p.sym.block_structure);
        factor_numeric_with(&bm, &req).expect("factorization succeeds");
    })
}

fn main() {
    let prepared = prepare_suite();
    // One resolved name for every measured row: the same Auto choice the
    // timing loops run through.
    let kernel = Dispatch::resolve(KernelChoice::Auto).name();
    let threads_axis = [1usize, 2, 4, 8];
    let mut records: Vec<Record> = Vec::new();

    println!(
        "{:<14} {:>7} {:>13} {:>13}",
        "matrix", "threads", "static1d", "dynamic"
    );
    for p in &prepared {
        for &threads in &threads_axis {
            let t_static = time_mapping(p, threads, Mapping::Static1D);
            let t_dynamic = time_mapping(p, threads, Mapping::Dynamic);
            println!(
                "{:<14} {:>7} {:>12.6}s {:>12.6}s",
                p.name, threads, t_static, t_dynamic
            );
            for (mapping, secs) in [("static1d", t_static), ("dynamic", t_dynamic)] {
                records.push(Record {
                    matrix: p.name.to_string(),
                    threads,
                    mapping,
                    kind: "measured",
                    kernel,
                    median_seconds: secs,
                });
            }
        }
        // Scheduling-policy comparison at 8 virtual processors on the
        // calibrated simulator (ground truth for hosts with < 8 cores).
        let serial = records
            .iter()
            .find(|r| r.matrix == p.name && r.threads == 1 && r.mapping == "static1d")
            .map(|r| std::time::Duration::from_secs_f64(r.median_seconds))
            .expect("serial measurement recorded first");
        let model = calibrated_model(p, &p.eforest, serial);
        let costs = estimate_task_costs(&p.sym.block_structure, &p.eforest);
        let sim_prio =
            simulate_dynamic(&p.eforest, 8, &costs, &model, ReadyPolicy::Priority).makespan;
        let sim_fifo = simulate_dynamic(&p.eforest, 8, &costs, &model, ReadyPolicy::Fifo).makespan;
        println!(
            "{:<14} {:>7} {:>12.6}s {:>12.6}s   (sim8 priority vs fifo: {:.2}x)",
            p.name,
            "sim8",
            sim_prio,
            sim_fifo,
            sim_fifo / sim_prio
        );
        for (mapping, secs) in [("sim8-priority", sim_prio), ("sim8-fifo", sim_fifo)] {
            records.push(Record {
                matrix: p.name.to_string(),
                threads: 8,
                mapping,
                kind: "simulated",
                kernel: "none",
                median_seconds: secs,
            });
        }
    }

    // Headline: the ready-policy comparison on the largest matrix.
    if let Some(largest) = prepared.iter().max_by_key(|p| p.a.ncols()) {
        let find = |mapping: &str| {
            records
                .iter()
                .find(|r| r.matrix == largest.name && r.threads == 8 && r.mapping == mapping)
                .map(|r| r.median_seconds)
        };
        if let (Some(prio), Some(fifo)) = (find("sim8-priority"), find("sim8-fifo")) {
            println!(
                "\n{}@8 virtual procs: priority {:.6}s vs FIFO {:.6}s  ({:.2}x simulated)",
                largest.name,
                prio,
                fifo,
                fifo / prio
            );
        }
    }

    let mut json = String::from("[\n");
    for (i, r) in records.iter().enumerate() {
        let sep = if i + 1 == records.len() { "" } else { "," };
        writeln!(
            json,
            "  {{\"matrix\": \"{}\", \"threads\": {}, \"mapping\": \"{}\", \"kind\": \"{}\", \"kernel\": \"{}\", \"median_seconds\": {:.9}}}{}",
            r.matrix, r.threads, r.mapping, r.kind, r.kernel, r.median_seconds, sep
        )
        .expect("string write");
    }
    json.push_str("]\n");
    let parsed = splu_bench::json::parse(&json).expect("BENCH_factor.json is valid JSON");
    splu_bench::json::validate_bench_factor(&parsed).expect("BENCH_factor.json matches schema");
    std::fs::write("BENCH_factor.json", json).expect("write BENCH_factor.json");
    println!("\nwrote BENCH_factor.json ({} records)", records.len());
}
