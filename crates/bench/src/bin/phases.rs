//! Per-phase wall-time breakdown of the full pipeline — parse through the
//! triangular solves — on one thread, written to `BENCH_phases.json`
//! (schema: [`splu_bench::json::validate_bench_phases`]).
//!
//! ```text
//! cargo run --release -p splu-bench --bin phases [-- <matrix-name> ...]
//! ```
//!
//! With no arguments every suite matrix is measured; naming matrices
//! restricts the run (the CI smoke job passes `goodwin`). Set
//! `PARSPLU_REDUCED=1` for CI-sized inputs.
//!
//! Every row walks the front half `analyze_with` runs: `symbolic_fill` is
//! the skeleton pass, `eforest_postorder` the postorder from the skeleton's
//! parents plus relabelling the skeleton and permuting the original
//! entries, `supernode_partition` the partition and amalgamation decided
//! on the skeleton's lengths plus the row and column lists walked out of
//! its forest — no filled structure is written.
//!
//! One record per matrix, `kind = "measured"`. The constant
//! `front_threads = 1` key stays in the record so that `bench_diff` pairs
//! artifacts written before the threaded fill was removed with new ones.

use splu_bench::{json, min_time, suite};
use splu_core::{
    analyze, factor_numeric_with, BlockMatrix, KernelChoice, NumericRequest, Options, SparseLu,
    TaskGraphKind,
};
use splu_matgen::manufactured_rhs;
use splu_ordering::{column_min_degree, maximum_transversal, StructuralRank};
use splu_sched::Mapping;
use splu_sparse::io::{read_matrix_market, write_matrix_market};
use splu_sparse::scaling::equilibrate;
use splu_sparse::Permutation;
use splu_symbolic::supernode::BlockStructure;
use splu_symbolic::{fill_skeleton, EliminationForest, SupernodeOptions};
use std::fmt::Write as _;

/// One record: per-phase wall times in seconds, keyed and ordered as in
/// [`json::PHASE_NAMES`].
struct Record {
    matrix: String,
    /// Entries of the static structure `Ā` and the cost model's flops
    /// under the ordering the walls were measured with.
    fill_nnz: usize,
    model_flops: f64,
    phases: [f64; json::PHASE_NAMES.len()],
}

fn secs<F: FnMut()>(f: F) -> f64 {
    min_time(f).as_secs_f64()
}

fn main() {
    let filter: Vec<String> = std::env::args().skip(1).collect();
    let matrices: Vec<_> = suite()
        .into_iter()
        .filter(|m| filter.is_empty() || filter.iter().any(|f| f == m.name))
        .collect();
    if matrices.is_empty() {
        eprintln!("no suite matrix matches {filter:?}");
        std::process::exit(2);
    }

    let mut records: Vec<Record> = Vec::new();
    println!("{:<10}  phase walls (ms, pipeline order)", "matrix");
    for m in &matrices {
        // -- parse: round-trip through a real Matrix Market file.
        let mtx = std::env::temp_dir().join(format!(
            "parsplu_phases_{}_{}.mtx",
            m.name,
            std::process::id()
        ));
        write_matrix_market(&m.a, &mtx).expect("write temp matrix");
        let t_parse = secs(|| {
            read_matrix_market(&mtx).expect("re-read temp matrix");
        });
        let _ = std::fs::remove_file(&mtx);

        // -- scale/transversal: equilibration scaling plus the zero-free
        //    diagonal row permutation.
        let p = m.a.pattern();
        let rp = match maximum_transversal(p) {
            StructuralRank::Full(x) => x,
            StructuralRank::Deficient { rank } => panic!("{}: structural rank {rank}", m.name),
        };
        let t_scale = secs(|| {
            let _ = equilibrate(&m.a);
            let _ = maximum_transversal(p);
        });
        let p1 = p.permuted(&rp, &Permutation::identity(p.ncols()));

        // -- ordering: approximate minimum degree on the graph of AᵀA.
        let q = column_min_degree(&p1);
        let t_ord = secs(|| {
            let _ = column_min_degree(&p1);
        });
        let p2 = p1.permuted(&q, &q);

        // -- symbolic fill: the skeleton pass. Nothing is filled.
        let skel2 = fill_skeleton(&p2).expect("zero-free diagonal");
        let t_fill = secs(|| {
            let _ = fill_skeleton(&p2).expect("zero-free diagonal");
        });

        // -- eforest + postorder: the forest and its postorder from the
        //    skeleton's parents, the skeleton relabelled, the original
        //    entries permuted.
        let postordered = || {
            let po = EliminationForest::from_parent_vec(skel2.parents().to_vec()).postorder();
            (p2.permuted(&po, &po), skel2.relabeled(&po))
        };
        let t_po = secs(|| {
            let _ = postordered();
        });
        let (p3, skel) = postordered();

        // -- supernode partition (incl. amalgamation and the row and column
        //    lists of the block structure).
        let t_sn = secs(|| {
            let part = skel.amalgamate(&skel.supernode_partition(), &SupernodeOptions::default());
            let _ = BlockStructure::from_skeleton(&p3, &skel, part);
        });

        // -- graph build, numeric, solve: via the driver's analysis so the
        //    numeric phase runs on exactly the structure `solve` uses.
        let sym = analyze(m.a.pattern(), &Options::default()).expect("analysis succeeds");
        let (fill_nnz, model_flops) = (sym.stats.nnz_filled, sym.stats.flops_estimate);
        let t_graph = secs(|| {
            let _ = sym.build_graph(TaskGraphKind::EForest);
        });
        let graph = sym.build_graph(TaskGraphKind::EForest);
        let permuted = sym.permute_matrix(&m.a);
        let mut bm = BlockMatrix::assemble(&permuted, &sym.block_structure);
        let req = NumericRequest::coarse(&graph, Mapping::Static1D).kernels(KernelChoice::Auto);
        let t_num = secs(|| {
            bm.reset_from(&permuted, &sym.block_structure);
            factor_numeric_with(&bm, &req).expect("factorization succeeds");
        });

        let lu = SparseLu::factor(&m.a, &Options::default()).expect("factorization succeeds");
        let b = manufactured_rhs(&m.a, 1).1;
        let t_solve = secs(|| {
            let _ = lu.solve(&b);
        });

        // Pipeline order must match json::PHASE_NAMES.
        let phases = [
            t_parse, t_scale, t_ord, t_fill, t_po, t_sn, t_graph, t_num, t_solve,
        ];
        let mut line = String::new();
        for t in phases {
            let _ = write!(line, " {:>8.2}", t * 1e3);
        }
        println!("{:<10} {}", m.name, line);
        records.push(Record {
            matrix: m.name.to_string(),
            fill_nnz,
            model_flops,
            phases,
        });
    }

    let mut doc = String::from("[\n");
    for (i, r) in records.iter().enumerate() {
        let sep = if i + 1 == records.len() { "" } else { "," };
        let mut phases = String::new();
        for (name, t) in json::PHASE_NAMES.iter().zip(r.phases) {
            if !phases.is_empty() {
                phases.push_str(", ");
            }
            let _ = write!(phases, "\"{name}\": {t:.9}");
        }
        writeln!(
            doc,
            "  {{\"matrix\": \"{}\", \"front_threads\": 1, \"kind\": \"measured\", \"fill_nnz\": {}, \"model_flops\": {:e}, \"phases\": {{{}}}}}{}",
            r.matrix, r.fill_nnz, r.model_flops, phases, sep
        )
        .expect("string write");
    }
    doc.push_str("]\n");
    let parsed = json::parse(&doc).expect("BENCH_phases.json is valid JSON");
    json::validate_bench_phases(&parsed).expect("BENCH_phases.json matches schema");
    std::fs::write("BENCH_phases.json", &doc).expect("write BENCH_phases.json");
    println!("\nwrote BENCH_phases.json ({} records)", records.len());
}
