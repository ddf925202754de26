//! Tour of the full pipeline on the paper's benchmark suite: per-phase
//! timings, structural statistics and solve residuals for all seven
//! matrices.
//!
//! ```text
//! cargo run --release --example pipeline_tour
//! ```

use parsplu::core::{Options, SluSession};
use parsplu::matgen::{manufactured_rhs, paper_suite, Scale};
use parsplu::sparse::relative_residual;
use std::time::Instant;

fn main() {
    println!(
        "{:<9} {:>6} {:>8} {:>6} {:>6} {:>9} {:>9} {:>9} {:>10}",
        "matrix", "n", "nnz", "fill", "SN", "analyze", "factor", "solve", "residual"
    );
    for m in paper_suite(Scale::Full) {
        let t0 = Instant::now();
        let mut session =
            SluSession::analyze(m.a.pattern(), &Options::default()).expect("analysis succeeds");
        let t_analyze = t0.elapsed();
        let t1 = Instant::now();
        session.factor(&m.a).expect("factorization succeeds");
        let t_factor = t1.elapsed();
        let (_, b) = manufactured_rhs(&m.a, 5);
        let t2 = Instant::now();
        let x = session.solve(&b);
        let t_solve = t2.elapsed();
        let stats = session.stats();
        let resid = relative_residual(&m.a, &x, &b);
        println!(
            "{:<9} {:>6} {:>8} {:>6.1} {:>6} {:>9.2?} {:>9.2?} {:>9.2?} {:>10.2e}",
            m.name,
            stats.n,
            stats.nnz_a,
            stats.fill_ratio,
            stats.supernodes,
            t_analyze,
            t_factor,
            t_solve,
            resid
        );
        assert!(resid < 1e-10, "{}: residual too large", m.name);
    }
    println!("ok");
}
