//! Ablation: the amalgamation knobs (DESIGN.md §6) — supernode count,
//! storage padding and measured factor time as the relative-fill tolerance
//! and width cap vary.
//!
//! The paper applies amalgamation because exact supernodes are tiny ("2 or
//! 3 columns"); this binary shows the trade-off it buys into: fewer, wider
//! supernodes → better BLAS-3 shape and fewer tasks, at the price of
//! explicit zeros.
//!
//! ```text
//! cargo run --release -p splu-bench --bin amalgamation
//! ```

use splu_bench::min_time;
use splu_core::{analyze, factor_numeric_with, BlockMatrix, NumericRequest, Options};
use splu_matgen::{paper_matrix, Scale};
use splu_sched::Mapping;
use splu_symbolic::SupernodeOptions;

fn main() {
    let scale = if std::env::var_os("PARSPLU_REDUCED").is_some() {
        Scale::Reduced
    } else {
        Scale::Full
    };
    let a = paper_matrix("saylr4", scale).expect("known matrix");
    println!("Amalgamation ablation on saylr4 (n = {})", a.ncols());
    println!(
        "{:<22} {:>6} {:>8} {:>10} {:>10} {:>12} {:>10}",
        "config", "SN", "max w", "words", "pad frac", "tasks", "factor"
    );
    let configs: Vec<(String, Option<SupernodeOptions>)> = vec![
        ("exact (none)".into(), None),
        (
            "rel_fill 0.1, w 32".into(),
            Some(SupernodeOptions {
                max_width: 32,
                rel_fill: 0.1,
            }),
        ),
        (
            "rel_fill 0.3, w 48".into(),
            Some(SupernodeOptions {
                max_width: 48,
                rel_fill: 0.3,
            }),
        ),
        (
            "rel_fill 0.5, w 96".into(),
            Some(SupernodeOptions {
                max_width: 96,
                rel_fill: 0.5,
            }),
        ),
        (
            "rel_fill 0.8, w 192".into(),
            Some(SupernodeOptions {
                max_width: 192,
                rel_fill: 0.8,
            }),
        ),
    ];
    for (label, amalgamation) in configs {
        let opts = Options {
            amalgamation,
            ..Options::default()
        };
        let sym = analyze(a.pattern(), &opts).expect("analysis succeeds");
        let graph = sym.build_graph();
        let permuted = sym.permute_matrix(&a);
        let mut bm = BlockMatrix::assemble(&permuted, &sym.block_structure);
        let req = NumericRequest::coarse(&graph, Mapping::Static1D);
        let t = min_time(|| {
            bm.reset_from(&permuted, &sym.block_structure);
            factor_numeric_with(&bm, &req).expect("factorization succeeds");
        });
        let words = bm.storage_words();
        let pad = 1.0 - sym.stats.nnz_filled as f64 / words as f64;
        println!(
            "{:<22} {:>6} {:>8} {:>10} {:>10.3} {:>12} {:>9.1?}",
            label,
            sym.stats.supernodes,
            sym.stats.max_supernode_width,
            words,
            pad,
            sym.stats.graph_tasks,
            t
        );
    }
}
