//! Per-layer probes of the traced run: each calls one layer through its
//! public entry points on the workload's own matrix (or, for the dense
//! kernels, on three fixed shapes) and reports a median.

use crate::inputs::{reference_session, solution_hash};
use crate::stats::{max, median, min};
use crate::trace::Tracer;
use crate::walk::{walk, Walked};
use crate::workloads::MANY_RHS;
use parsplu::core::{
    factor_numeric_with, solve_permuted_parallel, NumericRequest, Options, SparseLu,
};
use parsplu::dense::{lu_panel, DenseMat, Dispatch};
use parsplu::persist::{Durability, Journal, Record};
use parsplu::sched::Mapping;
use parsplu::sparse::CscMatrix;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Metric name → value.
pub type Metrics = BTreeMap<&'static str, f64>;

/// Calls `f` until `max_reps` calls or `budget_s` seconds (at least three
/// calls) and returns each call's milliseconds.
pub fn reps_ms(max_reps: usize, budget_s: f64, mut f: impl FnMut() -> f64) -> Vec<f64> {
    let t0 = Instant::now();
    let mut out = Vec::new();
    while out.len() < 3 || (out.len() < max_reps && t0.elapsed().as_secs_f64() < budget_s) {
        out.push(f());
    }
    out
}

/// Runs `f` once; returns its result and the milliseconds it took.
pub fn timed_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64() * 1e3)
}

// ---------------------------------------------------------------------------
// dense
// ---------------------------------------------------------------------------

/// Deterministic fill in `[-1, 1)` (xorshift), scaled by `scale`.
fn dense_mat(r: usize, c: usize, seed: u64, scale: f64) -> DenseMat {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    DenseMat::from_fn(r, c, |_, _| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        ((state % 2000) as f64 / 1000.0 - 1.0) * scale
    })
}

/// GFLOP/s of `call` (which performs `flops` operations): the median over
/// batches of about 2 ms, measured for about 0.15 s.
fn gflops(flops: f64, mut call: impl FnMut()) -> f64 {
    let (_, once_ms) = timed_ms(&mut call);
    let iters = ((2.0 / once_ms.max(1e-4)).ceil() as usize).clamp(1, 100_000);
    let batches = reps_ms(1000, 0.15, || {
        timed_ms(|| {
            for _ in 0..iters {
                call();
            }
        })
        .1
    });
    flops * iters as f64 / (median(&batches) * 1e-3) / 1e9
}

/// The portable kernel table on three fixed supernode-typical shapes:
/// `gemm` C[384×32] −= A[384×48]·B[48×32] (1 179 648 flops), unit-lower
/// `trsm` L[48×48]·X = B[48×32] (73 728 flops), and the partial-pivoting
/// panel LU of a 384×48 panel (847 872 flops).
pub fn dense_probes(m: &mut Metrics) {
    let d = Dispatch::portable();
    let (a, b) = (dense_mat(384, 48, 1, 1.0), dense_mat(48, 32, 2, 1.0));
    let mut c = dense_mat(384, 32, 3, 1.0);
    m.insert(
        "dense.gemm_gflops",
        gflops(2.0 * (384 * 48 * 32) as f64, || {
            d.gemm_sub(c.as_view_mut(), a.as_view(), b.as_view())
        }),
    );
    black_box(c.data());
    // The triangular solve and the panel LU overwrite their operand, so each
    // call starts from a fresh copy (2–3 % of the call's time).
    let l = dense_mat(48, 48, 4, 1.0 / 48.0);
    let x0 = dense_mat(48, 32, 5, 1.0);
    let mut x = x0.clone();
    m.insert(
        "dense.trsm_gflops",
        gflops((48 * 48 * 32) as f64, || {
            x.data_mut().copy_from_slice(x0.data());
            d.trsm_lower_unit(l.as_view(), x.as_view_mut());
        }),
    );
    black_box(x.data());
    let p0 = dense_mat(384, 48, 6, 1.0);
    let mut p = p0.clone();
    let (rows, w) = (384.0_f64, 48.0_f64);
    m.insert(
        "dense.panel_lu_gflops",
        gflops(rows * w * w - w * w * w / 3.0, || {
            p.data_mut().copy_from_slice(p0.data());
            black_box(lu_panel(&mut p, 0.0).is_ok());
        }),
    );
}

// ---------------------------------------------------------------------------
// the pipeline on the workload's matrix
// ---------------------------------------------------------------------------

/// Walks the pipeline on `(a, b)` and times the numeric, refactor and solve
/// paths on the result. Fails if any path's solution is not bitwise equal
/// to the one-shot `SparseLu::factor` + `solve`.
pub fn pipeline_probes(
    a: &CscMatrix,
    b: &[f64],
    nproc: usize,
    m: &mut Metrics,
) -> Result<(), String> {
    let want = SparseLu::factor(a, &Options::default())
        .map(|lu| solution_hash(&lu.solve(b)))
        .map_err(|e| format!("one-shot factor: {e}"))?;
    let same = |what: &str, x: &[f64]| {
        if solution_hash(x) == want {
            Ok(())
        } else {
            Err(format!(
                "{what}: solution differs from the one-shot factor's"
            ))
        }
    };

    // Three walks; each phase reports the median of its summed span time.
    let mut per_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut walked: Option<Walked> = None;
    for _ in 0..3 {
        let mut tr = Tracer::on(Instant::now());
        let w = walk(a, &mut tr)?;
        same("phase walk", &w.solve(b, &mut tr))?;
        let mut sums: BTreeMap<&'static str, f64> = BTreeMap::new();
        for s in tr.spans() {
            *sums.entry(s.name).or_insert(0.0) += (s.end_ns - s.start_ns) as f64 / 1e6;
        }
        for (name, ms) in sums {
            per_name.entry(name).or_default().push(ms);
        }
        walked = Some(w);
    }
    let mut w = walked.expect("three walks ran");
    for (metric, span) in [
        ("sparse.permute_ms", "sparse.permute"),
        ("ordering.transversal_ms", "ordering.transversal"),
        ("ordering.mindeg_ms", "ordering.mindeg"),
        ("symbolic.fill_ms", "symbolic.fill"),
        ("symbolic.postorder_ms", "symbolic.postorder"),
        ("symbolic.supernode_ms", "symbolic.supernode"),
        ("sched.graph_build_ms", "sched.graph_build"),
        ("core.assemble_ms", "core.assemble"),
    ] {
        m.insert(metric, median(&per_name[span]));
    }
    m.insert("symbolic.fill_nnz", w.fill_nnz as f64);
    m.insert("symbolic.supernodes", w.bs.num_blocks() as f64);
    m.insert("sched.tasks", w.graph.len() as f64);
    m.insert("sched.edges", w.graph.num_edges() as f64);
    m.insert(
        "sched.edges_vs_sstar",
        w.graph.num_edges() as f64 / w.sstar_edges().max(1) as f64,
    );

    // Numeric phase alone, as a session replays it: storage reset outside
    // the clock, cached schedule, one thread — then two.
    let numeric = |w: &mut Walked, threads: usize| -> Result<Vec<f64>, String> {
        let mut err = None;
        let ms = reps_ms(9, 1.5, || {
            w.bm.reset_from(&w.permuted, &w.bs);
            let req = NumericRequest::coarse(&w.graph, Mapping::Static1D)
                .threads(threads)
                .schedule(Arc::clone(&w.schedule));
            let (r, ms) = timed_ms(|| factor_numeric_with(&w.bm, &req));
            if let Err(e) = r {
                err.get_or_insert(format!("numeric phase at {threads} thread(s): {e}"));
            }
            ms
        });
        err.map_or(Ok(ms), Err)
    };
    let t1 = numeric(&mut w, 1)?;
    same("numeric replay", &w.solve(b, &mut Tracer::off()))?;
    let numeric_ms = median(&t1);
    m.insert("core.numeric_ms", numeric_ms);
    m.insert("core.model_gflop", w.model_flops / 1e9);
    // The cost model's count: the run-time kernel counters add up to the
    // same number, so this is the flop count the program itself reports.
    let numeric_gflops = w.model_flops / 1e9 / (numeric_ms * 1e-3);
    m.insert("core.numeric_gflops", numeric_gflops);
    if let Some(&gemm) = m.get("dense.gemm_gflops") {
        m.insert("core.kernel_efficiency", numeric_gflops / gemm);
    }
    if nproc >= 2 {
        let t2 = numeric(&mut w, 2)?;
        same("two-thread numeric phase", &w.solve(b, &mut Tracer::off()))?;
        let speedups: Vec<f64> = t2.iter().map(|t| numeric_ms / t).collect();
        m.insert("core.numeric_t2_ms", median(&t2));
        m.insert("core.par2_speedup", median(&speedups));
        m.insert("core.par2_speedup_min", min(&speedups));
        m.insert("core.par2_speedup_max", max(&speedups));
    }
    let factor_bytes = 8.0 * w.bm.storage_words() as f64;
    drop(w);

    // Session paths: refactor (reset + scatter + numeric) and the solves.
    let mut s = reference_session(a).map_err(|e| format!("session: {e}"))?;
    let mut err = None;
    let refactor = reps_ms(9, 1.5, || {
        let (r, ms) = timed_ms(|| s.refactor(a));
        if let Err(e) = r {
            err.get_or_insert(format!("refactor: {e}"));
        }
        ms
    });
    if let Some(e) = err {
        return Err(e);
    }
    m.insert("core.refactor_ms", median(&refactor));
    m.insert("core.refactor_overhead_ms", median(&refactor) - numeric_ms);

    let n = a.ncols();
    let solve_ms = median(&reps_ms(15, 0.5, || timed_ms(|| s.try_solve(b)).1));
    same("session solve", &s.try_solve(b).map_err(|e| e.to_string())?)?;
    m.insert("core.solve_ms", solve_ms);
    m.insert(
        "core.solve_t_ms",
        median(&reps_ms(15, 0.5, || {
            timed_ms(|| s.try_solve_transposed(b)).1
        })),
    );
    let bb: Vec<f64> = (0..MANY_RHS).flat_map(|_| b.iter().copied()).collect();
    m.insert(
        "core.solve_many8_ms",
        median(&reps_ms(9, 0.5, || {
            timed_ms(|| s.try_solve_many(&bb, MANY_RHS)).1
        })),
    );
    let many = s.try_solve_many(&bb, MANY_RHS).map_err(|e| e.to_string())?;
    same("solve_many column", &many[(MANY_RHS - 1) * n..])?;
    if nproc >= 2 {
        let sym = s.symbolic();
        let bm = s.block_matrix().ok_or("session holds no factors")?;
        let par2 = || {
            let mut y = sym.row_perm.apply_vec(b);
            solve_permuted_parallel(bm, &sym.block_structure, &mut y, 2);
            sym.col_perm.apply_inverse_vec(&y)
        };
        m.insert(
            "core.solve_par2_ms",
            median(&reps_ms(15, 0.5, || timed_ms(par2).1)),
        );
        same("two-thread solve", &par2())?;
    }
    // Computed, not measured: one solve reads every stored factor word once.
    m.insert("core.factor_mb", factor_bytes / 1e6);
    m.insert(
        "core.solve_gb_per_s",
        factor_bytes / 1e9 / (solve_ms * 1e-3),
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// persist
// ---------------------------------------------------------------------------

/// Median time of one journal append of `line` under each durability mode,
/// on a fresh journal in `dir`.
pub fn persist_probes(dir: &std::path::Path, line: &str, m: &mut Metrics) -> Result<(), String> {
    for (metric, mode, appends) in [
        ("persist.append_strict_us", Durability::Strict, 64),
        ("persist.append_relaxed_us", Durability::Relaxed, 512),
    ] {
        let state = dir.join(metric);
        std::fs::create_dir_all(&state).map_err(|e| format!("{}: {e}", state.display()))?;
        let (journal, _) = Journal::open(&state, mode)?;
        let record = Record::Job {
            job_id: None,
            line: line.to_string(),
        };
        let mut us = Vec::with_capacity(appends);
        for _ in 0..appends {
            let (r, ms) = timed_ms(|| journal.append(&record));
            r.map_err(|e| format!("journal append: {e}"))?;
            us.push(ms * 1e3);
        }
        m.insert(metric, median(&us));
    }
    Ok(())
}
