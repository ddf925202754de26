//! The fill-reducing ordering, priced: what the minimum-degree column
//! ordering costs to compute and what the permutation it returns costs
//! downstream (DESIGN.md §5.3 and §6).
//!
//! One row per suite matrix plus the 40 × 40 two-unknown FEM mesh the
//! benchmark refactors: ordering wall time (minimum of [`splu_bench::REPS`]
//! runs on the transversal-permuted pattern, as the analysis calls it),
//! entries of the static structure `Ā`, the cost model's flops, and the
//! dense words the block storage of `Ā` allocates. The natural and RCM columns
//! are the ablation: the same structure count when minimum degree is
//! replaced.
//!
//! ```text
//! cargo run --release -p splu-bench --bin orderings
//! ```

use splu_bench::{min_time, suite};
use splu_core::{analyze, Options, OrderingChoice, SparseLu};
use splu_matgen::fem2d_unsymmetric;
use splu_ordering::{column_min_degree, maximum_transversal, StructuralRank};
use splu_sparse::{CscMatrix, Permutation};

fn main() {
    println!("Ordering: time of minimum degree and the structure it leaves");
    println!(
        "{:<10} {:>9} {:>11} {:>11} {:>11}   {:>11} {:>11}",
        "Matrix", "order ms", "MD |Abar|", "MD flops", "MD words", "natural", "RCM"
    );
    let mut rows: Vec<(&str, CscMatrix)> = suite().into_iter().map(|m| (m.name, m.a)).collect();
    rows.push(("mesh40x40", fem2d_unsymmetric(40, 40, 2, 1)));
    for (name, a) in &rows {
        let StructuralRank::Full(rp0) = maximum_transversal(a.pattern()) else {
            panic!("{name}: structurally singular");
        };
        let p1 = a
            .pattern()
            .permuted(&rp0, &Permutation::identity(a.ncols()));
        let order = min_time(|| {
            std::hint::black_box(column_min_degree(std::hint::black_box(&p1)));
        });
        let lu = SparseLu::factor(a, &Options::default()).expect("factorization succeeds");
        let filled_under = |ordering: OrderingChoice| {
            analyze(
                a.pattern(),
                &Options {
                    ordering,
                    ..Options::default()
                },
            )
            .expect("analysis succeeds")
            .stats
            .nnz_filled
        };
        println!(
            "{:<10} {:>9.2} {:>11} {:>11.4e} {:>11}   {:>11} {:>11}",
            name,
            order.as_secs_f64() * 1e3,
            lu.stats().nnz_filled,
            lu.stats().flops_estimate,
            lu.storage().static_words,
            filled_under(OrderingChoice::Natural),
            filled_under(OrderingChoice::Rcm),
        );
    }
    println!("\n(MD = approximate minimum degree on the rows of A, the AtA column ordering)");
}
