//! Numerical-stability report across the benchmark suite: growth factors,
//! condition estimates, residuals with and without refinement, and the
//! pivot-rule trade-off (partial vs threshold vs static-diagonal).
//!
//! ```text
//! cargo run --release --example stability_report
//! ```

use parsplu::core::{estimate_inverse_1norm, Options, PivotRule, SparseLu};
use parsplu::matgen::{manufactured_rhs, paper_suite, Scale};
use parsplu::sparse::relative_residual;

fn main() {
    println!(
        "{:<10} {:>10} {:>10} {:>11} {:>11} {:>12}",
        "matrix", "growth", "cond_1", "resid", "refined", "swaps(thr.)"
    );
    for m in paper_suite(Scale::Reduced) {
        let (_, b) = manufactured_rhs(&m.a, 77);
        let lu = SparseLu::factor(&m.a, &Options::default()).expect("factors");
        let growth = lu.growth(&m.a);
        let cond = estimate_inverse_1norm(&lu, m.a.ncols(), 5) * m.a.one_norm();
        let x = lu.solve(&b);
        let resid = relative_residual(&m.a, &x, &b);
        let (xr, _) = lu.try_solve_refined(&m.a, &b, false).expect("refines");
        let resid_ref = relative_residual(&m.a, &xr, &b);

        // Threshold pivoting: same matrix, fewer interchanges.
        let thr = SparseLu::factor(
            &m.a,
            &Options {
                pivot_rule: PivotRule::Threshold(0.1),
                ..Options::default()
            },
        )
        .expect("threshold pivoting succeeds on the suite");
        let xt = thr.solve(&b);
        let resid_thr = relative_residual(&m.a, &xt, &b);
        assert!(resid_thr < 1e-8, "{}: threshold pivoting unstable", m.name);

        println!(
            "{:<10} {:>10.2e} {:>10.2e} {:>11.2e} {:>11.2e} {:>12.2e}",
            m.name, growth, cond, resid, resid_ref, resid_thr
        );
    }
    println!("\n(resid = scaled residual with partial pivoting; refined = after iterative");
    println!(" refinement; swaps(thr.) = residual under τ=0.1 threshold pivoting)");
}
