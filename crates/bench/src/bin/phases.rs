//! Per-phase wall-time breakdown of the full pipeline — parse through the
//! triangular solves — at one and at eight front-half threads, written to
//! `BENCH_phases.json` (schema: [`splu_bench::json::validate_bench_phases`]).
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
//! the skeleton pass plus [`splu_core::fill_from_skeleton`] on the
//! relabelled skeleton, `eforest_postorder` is the postorder from the
//! skeleton's parents plus relabelling the skeleton and permuting the
//! original entries — no filled structure is ever permuted.
//!
//! Three records per matrix:
//!
//! * `front_threads = 1, kind = "measured"` — one front thread;
//! * `front_threads = 8, kind = "measured"` — eight front threads
//!   ([`splu_core::fill_from_skeleton`] and
//!   [`splu_core::postorder_parallel`]) and the 8-thread numeric phase,
//!   measured on *this* host, however many cores it has;
//! * `front_threads = 8, kind = "simulated"` — the projection onto 8 real
//!   cores: `symbolic_fill = skeleton + (fill + assembly) / 8` from the
//!   individually measured sub-phase times (the skeleton pass is the only
//!   sequential part; fill chunks and the assembly scatters both run
//!   thread-parallel), and `numeric` from the calibrated Origin-2000
//!   simulator at 8 virtual processors. Phases that stay sequential carry
//!   their measured wall time unchanged.
//!
//! The `kind` field keeps downstream tooling from averaging projections
//! into wall-clock rows, exactly as in `BENCH_factor.json`.

use splu_bench::{calibrated_model, json, min_time, simulated_seconds, suite, Prepared};
use splu_core::{
    analyze, factor_numeric_with, fill_from_skeleton, postorder_parallel, BlockMatrix,
    KernelChoice, NumericRequest, Options, SparseLu, SymbolicRequest, TaskGraphKind,
};
use splu_matgen::manufactured_rhs;
use splu_ordering::{column_min_degree, maximum_transversal, StructuralRank};
use splu_sched::Mapping;
use splu_sparse::io::{read_matrix_market, write_matrix_market};
use splu_sparse::scaling::equilibrate;
use splu_sparse::Permutation;
use splu_symbolic::supernode::BlockStructure;
use splu_symbolic::{
    amalgamate, assemble_filled, fill_columns, fill_skeleton, supernode_partition,
    EliminationForest, FillScratch, SupernodeOptions,
};
use std::fmt::Write as _;

/// The thread count of the "after" rows, matching the paper's 8-processor
/// target machine.
const FRONT_THREADS: usize = 8;

/// One record: per-phase wall times in seconds, keyed and ordered as in
/// [`json::PHASE_NAMES`].
struct Record {
    matrix: String,
    front_threads: usize,
    kind: &'static str,
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
    println!(
        "{:<10} {:>6} {:>9}  phase walls (ms, pipeline order)",
        "matrix", "front", "kind"
    );
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

        // -- eforest + postorder: the forest and its postorder from the
        //    skeleton's parents, the skeleton relabelled, the original
        //    entries permuted.
        let skel2 = fill_skeleton(&p2).expect("zero-free diagonal");
        let postordered = |threads: usize| {
            let forest = EliminationForest::from_parent_vec(skel2.parents().to_vec());
            let po = postorder_parallel(&forest, threads);
            (p2.permuted(&po, &po), skel2.relabeled(&po))
        };
        let t_po_seq = secs(|| {
            let _ = postordered(1);
        });
        let t_po_par = secs(|| {
            let _ = postordered(FRONT_THREADS);
        });
        let (p3, skel) = postordered(1);

        // -- symbolic fill: the skeleton pass plus the fill from the
        //    relabelled skeleton, at one and at eight threads.
        let t_skel = secs(|| {
            let _ = fill_skeleton(&p2).expect("zero-free diagonal");
        });
        let fill_at = |threads: usize| {
            let req = SymbolicRequest::new().front_threads(threads);
            t_skel
                + secs(|| {
                    let _ = fill_from_skeleton(&p3, &skel, &req).expect("fill succeeds");
                })
        };
        let t_fill_seq = fill_at(1);
        let t_fill_par = fill_at(FRONT_THREADS);
        // Sub-phases for the 8-core projection: the skeleton pass is
        // sequential; fill chunks and the assembly scatters are
        // thread-parallel with no cross-chunk dependencies.
        let ranges = skel.partition(&p3, FRONT_THREADS * 4);
        let chunks: Vec<_> = {
            let mut scratch = FillScratch::new(skel.n());
            ranges
                .iter()
                .map(|r| fill_columns(&p3, &skel, r.clone(), &mut scratch))
                .collect()
        };
        let t_chunks = secs(|| {
            let mut scratch = FillScratch::new(skel.n());
            for r in &ranges {
                let _ = fill_columns(&p3, &skel, r.clone(), &mut scratch);
            }
        });
        let t_asm = secs(|| {
            let _ = assemble_filled(&skel, &chunks).expect("assembly succeeds");
        });
        let t_fill_sim = t_skel + (t_chunks + t_asm) / FRONT_THREADS as f64;
        let f2 = assemble_filled(&skel, &chunks).expect("assembly succeeds");

        // -- supernode partition (incl. amalgamation and block structure).
        let t_sn = secs(|| {
            let part = supernode_partition(&f2);
            let am = amalgamate(&f2, &part, &SupernodeOptions::default());
            let _ = BlockStructure::new(&f2, am);
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
        let mut numeric_at = |threads: usize| {
            let req = NumericRequest::coarse(&graph, Mapping::Static1D)
                .threads(threads)
                .kernels(KernelChoice::Auto);
            secs(|| {
                bm.reset_from(&permuted, &sym.block_structure);
                factor_numeric_with(&bm, &req).expect("factorization succeeds");
            })
        };
        let t_num_1 = numeric_at(1);
        let t_num_8 = numeric_at(FRONT_THREADS);
        let prep = Prepared {
            name: m.name,
            a: m.a.clone(),
            sym,
            permuted,
            eforest: graph.clone(),
            sstar: graph.clone(),
        };
        let model = calibrated_model(
            &prep,
            &prep.eforest,
            std::time::Duration::from_secs_f64(t_num_1),
        );
        let t_num_sim = simulated_seconds(
            &prep,
            &prep.eforest,
            FRONT_THREADS,
            Mapping::Dynamic,
            &model,
        );

        let lu = SparseLu::factor(&m.a, &Options::default()).expect("factorization succeeds");
        let b = manufactured_rhs(&m.a, 1).1;
        let t_solve = secs(|| {
            let _ = lu.solve(&b);
        });

        // Pipeline order must match json::PHASE_NAMES.
        let rows: [(usize, &'static str, f64, f64, f64); 3] = [
            (1, "measured", t_fill_seq, t_po_seq, t_num_1),
            (FRONT_THREADS, "measured", t_fill_par, t_po_par, t_num_8),
            (FRONT_THREADS, "simulated", t_fill_sim, t_po_par, t_num_sim),
        ];
        for (front_threads, kind, t_fill, t_po, t_num) in rows {
            let phases = [
                t_parse, t_scale, t_ord, t_fill, t_po, t_sn, t_graph, t_num, t_solve,
            ];
            let mut line = String::new();
            for t in phases {
                let _ = write!(line, " {:>8.2}", t * 1e3);
            }
            println!("{:<10} {:>6} {:>9} {}", m.name, front_threads, kind, line);
            records.push(Record {
                matrix: m.name.to_string(),
                front_threads,
                kind,
                fill_nnz,
                model_flops,
                phases,
            });
        }
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
            "  {{\"matrix\": \"{}\", \"front_threads\": {}, \"kind\": \"{}\", \"fill_nnz\": {}, \"model_flops\": {:e}, \"phases\": {{{}}}}}{}",
            r.matrix, r.front_threads, r.kind, r.fill_nnz, r.model_flops, phases, sep
        )
        .expect("string write");
    }
    doc.push_str("]\n");
    let parsed = json::parse(&doc).expect("BENCH_phases.json is valid JSON");
    json::validate_bench_phases(&parsed).expect("BENCH_phases.json matches schema");
    std::fs::write("BENCH_phases.json", &doc).expect("write BENCH_phases.json");
    println!("\nwrote BENCH_phases.json ({} records)", records.len());

    // Headline: the tentpole's before/after on the largest matrix run.
    if let Some(largest) = matrices.iter().max_by_key(|m| m.a.ncols()) {
        let fill = |kind: &str, threads: usize| {
            records
                .iter()
                .find(|r| r.matrix == largest.name && r.kind == kind && r.front_threads == threads)
                .map(|r| r.phases[3])
        };
        if let (Some(before), Some(after)) = (fill("measured", 1), fill("simulated", FRONT_THREADS))
        {
            println!(
                "{}: symbolic fill {:.2} ms sequential -> {:.2} ms projected @ {} threads ({:.2}x)",
                largest.name,
                before * 1e3,
                after * 1e3,
                FRONT_THREADS,
                before / after
            );
        }
    }
}
