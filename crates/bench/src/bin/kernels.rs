//! Kernel dispatch microbench: GFLOP/s of the dense panel kernels
//! (`gemm_sub`, `trsm_lower_unit`, `trsm_upper`, `lu_panel`) at
//! supernode-typical panel shapes (DESIGN.md §5.2).
//!
//! Every instantiation the host CPU supports ([`Dispatch::available`]) is
//! measured: `baseline` always, `avx2` and `avx512f` when detected. Before
//! timing, each one's output is checked **bitwise** against the baseline on
//! every shape — the dispatch layer's equivalence contract, enforced here
//! one more time on the exact buffers being timed.
//!
//! Writes `BENCH_kernels.json` (one record per kernel × op × shape),
//! self-validated against [`json::validate_bench_kernels`] before the file
//! is written. `PARSPLU_REDUCED=1` shrinks the per-measurement work so CI
//! can smoke-test the binary and schema quickly.
//!
//! ```text
//! cargo run --release -p splu-bench --bin kernels
//! ```

use splu_bench::{json, min_time};
use splu_dense::{DenseMat, Dispatch, PanelBreakdown, PanelOutcome, PivotRule};
use std::fmt::Write as _;

/// `(m, k, n)` for `C[m×n] ← C − A[m×k]·B[k×n]`: tall panels times small
/// `Ū` blocks, the shape family the supernodal update produces. The last
/// entry is deliberately ragged (odd `m`, `k`, `n`).
const GEMM_SHAPES: &[(usize, usize, usize)] = &[
    (64, 16, 16),
    (128, 32, 16),
    (256, 32, 32),
    (384, 48, 32),
    (512, 48, 48),
    (512, 64, 8),
    (768, 64, 48),
    (101, 17, 9),
];

/// `(n, rhs)` for the triangular solves: diagonal-block width × update
/// width.
const TRSM_SHAPES: &[(usize, usize)] = &[(16, 16), (32, 32), (48, 48), (64, 24), (17, 9)];

/// Deterministic pseudo-random fill (no rand dependency in release bins).
fn mat(r: usize, c: usize, seed: u64) -> DenseMat {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    DenseMat::from_fn(r, c, |_, _| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % 2000) as f64 / 1000.0 - 1.0
    })
}

/// `(m, w)` for the panel LU: stacked supernode panels, tall and narrow up
/// to the near-square root panel.
const PANEL_SHAPES: &[(usize, usize)] = &[(64, 16), (384, 48), (640, 128), (232, 232), (101, 17)];

/// Iteration count so each timed repetition does about `target` flops
/// (keeps tiny shapes out of timer-resolution noise).
fn iters_for(flops: f64, target: f64) -> usize {
    ((target / flops).ceil() as usize).max(1)
}

/// One measurement: seconds per call (min over [`splu_bench::REPS`] reps of
/// an `iters`-call batch) and the derived GFLOP/s.
fn measure(flops: f64, target: f64, mut call: impl FnMut()) -> (f64, f64) {
    let iters = iters_for(flops, target);
    let t = min_time(|| {
        for _ in 0..iters {
            call();
        }
    });
    let secs = t.as_secs_f64() / iters as f64;
    (secs, flops / secs / 1e9)
}

struct Row {
    op: &'static str,
    shape: String,
    kernel: &'static str,
    gflops: f64,
    seconds: f64,
}

fn main() {
    let reduced = std::env::var_os("PARSPLU_REDUCED").is_some();
    // Flops per timed repetition: large enough at full scale that the
    // per-call clone/reset is amortized and the timer quantization is
    // irrelevant.
    let target = if reduced { 2.0e6 } else { 5.0e7 };
    let tables = Dispatch::available();
    println!(
        "kernel instantiations: {}",
        tables
            .iter()
            .map(Dispatch::name)
            .collect::<Vec<_>>()
            .join(", ")
    );
    assert_eq!(tables[0], Dispatch::portable());

    let mut rows: Vec<Row> = Vec::new();

    // gemm_sub: C ← C − A·B.
    for &(m, k, n) in GEMM_SHAPES {
        let a = mat(m, k, 1);
        let b = mat(k, n, 2);
        let c0 = mat(m, n, 3);
        // Bitwise contract check on the exact buffers being timed.
        let mut reference = c0.clone();
        tables[0].gemm_sub(reference.as_view_mut(), a.as_view(), b.as_view());
        for d in &tables[1..] {
            let mut c = c0.clone();
            d.gemm_sub(c.as_view_mut(), a.as_view(), b.as_view());
            assert_eq!(
                c.data(),
                reference.data(),
                "{}: gemm_sub differs from baseline at {m}x{k}x{n}",
                d.name()
            );
        }
        let flops = 2.0 * (m * k * n) as f64;
        for d in &tables {
            let mut c = c0.clone();
            let (seconds, gflops) = measure(flops, target, || {
                c.data_mut().copy_from_slice(c0.data());
                d.gemm_sub(c.as_view_mut(), a.as_view(), b.as_view());
            });
            rows.push(Row {
                op: "gemm_sub",
                shape: format!("{m}x{k}x{n}"),
                kernel: d.name(),
                gflops,
                seconds,
            });
        }
    }

    // The two triangular solves: X ← L⁻¹X (unit lower) and X ← U⁻¹X.
    for &(n, rhs) in TRSM_SHAPES {
        let l = mat(n, n, 4);
        let mut u = mat(n, n, 5);
        for i in 0..n {
            u[(i, i)] += 4.0; // keep the upper solve well conditioned
        }
        let x0 = mat(n, rhs, 6);
        for (op, tri) in [("trsm_lower_unit", &l), ("trsm_upper", &u)] {
            let run = |d: &Dispatch, x: &mut DenseMat| match op {
                "trsm_lower_unit" => d.trsm_lower_unit(tri.as_view(), x.as_view_mut()),
                _ => d.trsm_upper(tri.as_view(), x.as_view_mut()),
            };
            let mut reference = x0.clone();
            run(&tables[0], &mut reference);
            for d in &tables[1..] {
                let mut x = x0.clone();
                run(d, &mut x);
                assert_eq!(
                    x.data(),
                    reference.data(),
                    "{}: {op} differs from baseline at {n}x{rhs}",
                    d.name()
                );
            }
            let flops = (n * n * rhs) as f64;
            for d in &tables {
                let mut x = x0.clone();
                let (seconds, gflops) = measure(flops, target, || {
                    x.data_mut().copy_from_slice(x0.data());
                    run(d, &mut x);
                });
                rows.push(Row {
                    op,
                    shape: format!("{n}x{rhs}"),
                    kernel: d.name(),
                    gflops,
                    seconds,
                });
            }
        }
    }

    // Panel LU with partial pivoting (flops: m·w² − w³/3).
    for &(m, w) in PANEL_SHAPES {
        let p0 = mat(m, w, 7);
        let factor = |d: &Dispatch, p: &mut DenseMat, out: &mut PanelOutcome| {
            d.lu_panel_into(p, PivotRule::Partial, 0.0, PanelBreakdown::Error, None, out)
                .expect("random panels are nonsingular");
        };
        let (mut reference, mut ref_out) = (p0.clone(), PanelOutcome::default());
        factor(&tables[0], &mut reference, &mut ref_out);
        for d in &tables[1..] {
            let (mut p, mut out) = (p0.clone(), PanelOutcome::default());
            factor(d, &mut p, &mut out);
            assert!(
                p.data() == reference.data() && out == ref_out,
                "{}: lu_panel differs from baseline at {m}x{w}",
                d.name()
            );
        }
        let (rows_f, w_f) = (m as f64, w as f64);
        let flops = rows_f * w_f * w_f - w_f * w_f * w_f / 3.0;
        for d in &tables {
            let (mut p, mut out) = (p0.clone(), PanelOutcome::default());
            let (seconds, gflops) = measure(flops, target, || {
                p.data_mut().copy_from_slice(p0.data());
                factor(d, &mut p, &mut out);
            });
            rows.push(Row {
                op: "lu_panel",
                shape: format!("{m}x{w}"),
                kernel: d.name(),
                gflops,
                seconds,
            });
        }
    }

    // Console table: one line per op × shape, instantiations side by side
    // with their speedup over the baseline.
    println!(
        "\n{:<16} {:>12} {:>10} {:>12} {:>8}",
        "op", "shape", "kernel", "GFLOP/s", "vs base"
    );
    for (op, shape) in rows
        .iter()
        .map(|r| (r.op, r.shape.clone()))
        .collect::<std::collections::BTreeSet<_>>()
    {
        let group: Vec<&Row> = rows
            .iter()
            .filter(|r| r.op == op && r.shape == shape)
            .collect();
        let base = group
            .iter()
            .find(|r| r.kernel == "baseline")
            .expect("baseline row always present")
            .gflops;
        for r in &group {
            println!(
                "{:<16} {:>12} {:>10} {:>12.3} {:>7.2}x",
                r.op,
                r.shape,
                r.kernel,
                r.gflops,
                r.gflops / base
            );
        }
    }

    let mut body = String::new();
    for (i, r) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        writeln!(
            body,
            "  {{\"op\": \"{}\", \"shape\": \"{}\", \"kernel\": \"{}\", \
             \"gflops\": {:.6}, \"seconds_per_call\": {:.12}}}{}",
            r.op, r.shape, r.kernel, r.gflops, r.seconds, sep
        )
        .expect("string write");
    }
    let doc = format!("[\n{}]\n", body);
    let parsed = json::parse(&doc).expect("BENCH_kernels.json: generated invalid JSON");
    let n = json::validate_bench_kernels(&parsed).expect("BENCH_kernels.json: schema violation");
    std::fs::write("BENCH_kernels.json", &doc).expect("write BENCH_kernels.json");
    println!("wrote BENCH_kernels.json ({n} records)");
}
