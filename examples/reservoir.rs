//! Oil-reservoir time stepping: one symbolic analysis, many numerical
//! refactorizations of one session.
//!
//! Implicit reservoir simulators (the source of the orsreg/saylr/sherman
//! matrices the paper evaluates on) solve a pressure system every time step.
//! The coefficients change with the saturation field, but the *pattern*
//! stays fixed — exactly the situation static symbolic factorization is
//! built for: analyze once, then re-run only the numerical phase each step
//! (`SluSession::refactor`, which also reuses the factor storage).
//!
//! ```text
//! cargo run --release --example reservoir
//! ```

use parsplu::core::{Options, SluSession};
use parsplu::matgen::{grid3d_anisotropic, GridOptions};
use parsplu::sparse::{relative_residual, CscMatrix};
use std::time::Instant;

/// Pressure-dependent refresh of the matrix coefficients: same pattern,
/// time-varying values (mobility changes as the front moves).
fn refresh_values(a: &CscMatrix, step: usize) -> CscMatrix {
    let n = a.nrows();
    let trips: Vec<(usize, usize, f64)> = a
        .triplets()
        .map(|(i, j, v)| {
            let wobble = 1.0 + 0.05 * (((i * 31 + j * 17 + step * 101) % 97) as f64 / 97.0);
            (i, j, v * wobble)
        })
        .collect();
    CscMatrix::from_triplets(n, n, &trips).expect("same pattern, new values")
}

fn main() {
    // orsreg1-style grid: 21 × 21 × 5.
    let a0 = grid3d_anisotropic(21, 21, 5, GridOptions::default());
    let n = a0.ncols();
    println!("reservoir grid 21x21x5: n = {n}, nnz = {}", a0.nnz());

    let t0 = Instant::now();
    let opts = Options {
        threads: 2,
        ..Options::default()
    };
    let mut session = SluSession::analyze(a0.pattern(), &opts).expect("analysis succeeds");
    println!(
        "analysis once: {:?} (supernodes = {}, tasks = {})",
        t0.elapsed(),
        session.stats().supernodes,
        session.stats().graph_tasks
    );

    // Pseudo time loop: pressure solve per step, reusing the analysis.
    let mut pressure = vec![0.0_f64; n];
    let mut total_numeric = std::time::Duration::ZERO;
    let steps = 10;
    for step in 0..steps {
        let a = refresh_values(&a0, step);
        // Source/sink terms: injection at one corner, production at the
        // other, plus the previous pressure as the accumulation term.
        let mut b: Vec<f64> = pressure.iter().map(|p| 0.2 * p).collect();
        b[0] += 100.0;
        b[n - 1] -= 80.0;

        let t = Instant::now();
        session
            .refactor(&a)
            .expect("numeric factorization succeeds");
        total_numeric += t.elapsed();
        pressure = session.solve(&b);

        let resid = relative_residual(&a, &pressure, &b);
        assert!(resid < 1e-10, "step {step}: residual {resid}");
        if step % 3 == 0 {
            println!(
                "step {step:>2}: factor {:>8.2?}  residual {resid:.2e}  p[mid] = {:+.3}",
                t.elapsed(),
                pressure[n / 2]
            );
        }
    }
    println!(
        "{steps} steps: total numeric time {total_numeric:?} (analysis amortized {:.1}x)",
        steps as f64
    );
    println!("ok");
}
