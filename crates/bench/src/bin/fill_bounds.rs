//! Quantifies the paper's Section 3 motivation: the SuperLU column-etree
//! bound (Cholesky of `AᵀA`) "substantially overestimates" the factor
//! structures, while the George–Ng static structure is much tighter — yet
//! still an overestimate of the entries a dynamic (Gilbert–Peierls)
//! factorization actually produces — and prices what a session gives back
//! when it refactors on the structure its own pivots fill.
//!
//! First table: nonzeros of `A`; the actual `|L|+|U|` from Gilbert–Peierls
//! with partial pivoting; the static structure `|Ā|`; the `AᵀA` Cholesky
//! bound; and the two overestimation factors. Second table, at the
//! granularity the compact storage has (a row of `R_K`, a column of
//! `S_KJ`): stored words and model flops of the static block structure
//! against those of the realised structure a session derives from the
//! pivot history of one factorization (DESIGN.md §5.5), and the
//! interchanges that history took. The second table also prices the
//! 40×40×2 mesh `benchmark/` refactors.
//!
//! ```text
//! cargo run --release -p splu-bench --bin fill_bounds
//! ```

use splu_bench::coletree::ata_cholesky_bound;
use splu_bench::suite;
use splu_core::gp::gp_factor;
use splu_core::{analyze, estimate_task_costs, total_flops, Options, SluSession, TaskGraphKind};
use splu_matgen::fem2d_unsymmetric;

fn main() {
    println!("Structure bounds: actual fill vs static structure vs AtA (SuperLU) bound");
    println!(
        "{:<10} {:>9} {:>10} {:>10} {:>11} {:>9} {:>9}",
        "Matrix", "|A|", "GP actual", "static", "AtA bound", "sta/act", "ata/act"
    );
    let mut rows: Vec<_> = suite().into_iter().map(|m| (m.name, m.a)).collect();
    for (name, a) in &rows {
        let sym = analyze(a.pattern(), &Options::default()).expect("analysis succeeds");
        // Run GP on the same permuted matrix so the orderings match.
        let permuted = sym.permute_matrix(a);
        let gp = gp_factor(&permuted, 0.0).expect("factorization succeeds");
        let actual = gp.l_nnz() + gp.u_nnz();
        let stat = sym.stats.nnz_filled;
        let bound = ata_cholesky_bound(permuted.pattern());
        println!(
            "{:<10} {:>9} {:>10} {:>10} {:>11} {:>9.2} {:>9.2}",
            name,
            a.nnz(),
            actual,
            stat,
            bound,
            stat as f64 / actual as f64,
            bound as f64 / actual as f64
        );
    }
    println!("\n(static/actual is the price of a pivoting-independent structure;");
    println!(" AtA/actual shows how much looser the column-etree bound is)");

    println!("\nRealised structure: what the pivot history of one factorization fills");
    println!(
        "{:<10} {:>10} {:>11} {:>11} {:>11} {:>7} {:>7} {:>8}",
        "Matrix", "GP actual", "static wds", "realised", "static fl", "real fl", "fl x", "interch"
    );
    rows.push(("mesh40x40", fem2d_unsymmetric(40, 40, 2, 1)));
    for (name, a) in &rows {
        let mut s = SluSession::analyze(a.pattern(), &Options::default()).expect("analysis");
        // Two factorizations on one history move the third onto its
        // realised structure.
        for _ in 0..3 {
            s.refactor(a).expect("factorization succeeds");
        }
        assert!(
            s.is_realised(),
            "{name}: the same values repeat their pivots"
        );
        let gp = gp_factor(&s.symbolic().permute_matrix(a), 0.0).expect("factorization succeeds");
        let graph = s.symbolic().build_graph(TaskGraphKind::EForest);
        let flops = |bs| total_flops(&estimate_task_costs(bs, &graph));
        let (stat, real) = (s.static_structure(), &s.symbolic().block_structure);
        let history = s.block_matrix().expect("factored").pivot_rows();
        println!(
            "{:<10} {:>10} {:>11} {:>11} {:>11.4e} {:>7.4e} {:>7.2} {:>8}",
            name,
            gp.l_nnz() + gp.u_nnz(),
            stat.storage_words(),
            real.storage_words(),
            flops(stat),
            flops(real),
            flops(stat) / flops(real),
            history.iter().enumerate().filter(|&(c, &r)| c != r).count(),
        );
    }
    println!("\n(words and model flops of the compact block storage, default amalgamation;");
    println!(" `fl x` = static flops / realised flops, the ceiling of a refactor's gain)");
}
