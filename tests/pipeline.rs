//! End-to-end integration tests: the full pipeline on every benchmark
//! generator, across task graphs, thread counts and mappings.

use parsplu::core::{analyze, Options, SparseLu, TaskGraphKind};
use parsplu::matgen::{manufactured_rhs, paper_suite, Scale};
use parsplu::sched::Mapping;
use parsplu::sparse::relative_residual;

#[test]
fn whole_suite_factors_and_solves_with_both_graphs() {
    for m in paper_suite(Scale::Reduced) {
        let (_, b) = manufactured_rhs(&m.a, 17);
        for task_graph in [TaskGraphKind::EForest, TaskGraphKind::SStar] {
            let opts = Options {
                task_graph,
                ..Options::default()
            };
            let lu = SparseLu::factor(&m.a, &opts).unwrap_or_else(|e| panic!("{}: {e}", m.name));
            let x = lu.solve(&b);
            let r = relative_residual(&m.a, &x, &b);
            assert!(r < 1e-10, "{} ({task_graph:?}): residual {r}", m.name);
        }
    }
}

#[test]
fn parallel_runs_reproduce_sequential_bits() {
    for m in paper_suite(Scale::Reduced) {
        let (_, b) = manufactured_rhs(&m.a, 23);
        let seq = SparseLu::factor(&m.a, &Options::default()).expect("sequential");
        let x_seq = seq.solve(&b);
        for threads in [2usize, 4] {
            for mapping in [Mapping::Static1D, Mapping::Dynamic] {
                let opts = Options {
                    threads,
                    mapping,
                    ..Options::default()
                };
                let par = SparseLu::factor(&m.a, &opts).expect("parallel");
                let x = par.solve(&b);
                // Same pivots, same arithmetic order within tasks → the
                // results must agree to the last bit.
                assert_eq!(
                    x, x_seq,
                    "{}: threads={threads} {mapping:?} changed the numbers",
                    m.name
                );
            }
        }
    }
}

#[test]
fn postorder_and_amalgamation_toggles_preserve_solutions() {
    let m = &paper_suite(Scale::Reduced)[4]; // orsreg1
    let (x_true, b) = manufactured_rhs(&m.a, 31);
    for postorder in [false, true] {
        for amalgamation in [None, Some(Default::default())] {
            let opts = Options {
                postorder,
                amalgamation,
                ..Options::default()
            };
            let lu = SparseLu::factor(&m.a, &opts).expect("factors");
            let x = lu.solve(&b);
            let err = x
                .iter()
                .zip(&x_true)
                .map(|(p, q)| (p - q).abs())
                .fold(0.0_f64, f64::max);
            assert!(err < 1e-8, "postorder={postorder}: error {err}");
        }
    }
}

#[test]
fn supernode_counts_shrink_with_postordering_suitewide() {
    // The paper's Table 3 claim, asserted as a suite-wide invariant: the
    // total supernode count with postordering never exceeds the count
    // without it (individual matrices may tie).
    let mut with_total = 0usize;
    let mut without_total = 0usize;
    for m in paper_suite(Scale::Reduced) {
        let with = analyze(m.a.pattern(), &Options::default()).expect("analysis");
        let without = analyze(
            m.a.pattern(),
            &Options {
                postorder: false,
                ..Options::default()
            },
        )
        .expect("analysis");
        with_total += with.stats.supernodes;
        without_total += without.stats.supernodes;
    }
    assert!(
        with_total < without_total,
        "postordering should reduce supernodes overall: {with_total} vs {without_total}"
    );
}

#[test]
fn eforest_graph_is_sparser_suitewide() {
    for m in paper_suite(Scale::Reduced) {
        let sym = analyze(m.a.pattern(), &Options::default()).expect("analysis");
        let e = sym.build_graph(TaskGraphKind::EForest);
        let s = sym.build_graph(TaskGraphKind::SStar);
        assert_eq!(e.len(), s.len(), "{}: task sets differ", m.name);
        assert!(
            e.num_edges() <= s.num_edges(),
            "{}: eforest graph has more edges",
            m.name
        );
        assert!(
            e.critical_path_len() <= s.critical_path_len(),
            "{}: eforest graph has a longer critical path",
            m.name
        );
    }
}

/// At paper size the compact storage pads little: what amalgamation adds
/// stays under 15 % of the stored words on the four front patterns of the
/// benchmark and on its 40×40 mesh, and nothing at all is added without it.
#[test]
fn compact_storage_pads_only_what_amalgamation_adds() {
    use parsplu::matgen::{fem2d_unsymmetric, paper_matrix};
    let mut inputs: Vec<(&str, parsplu::sparse::CscMatrix)> =
        ["sherman3", "orsreg1", "lnsp3937", "saylr4"]
            .into_iter()
            .map(|name| (name, paper_matrix(name, Scale::Full).unwrap()))
            .collect();
    inputs.push(("mesh40x40", fem2d_unsymmetric(40, 40, 2, 1)));
    for (name, a) in inputs {
        let sym = analyze(a.pattern(), &Options::default()).unwrap();
        let words = sym.block_structure.storage_words();
        let padding = 1.0 - sym.stats.nnz_filled as f64 / words as f64;
        assert!((0.0..=0.15).contains(&padding), "{name}: padding {padding}");
        let exact = Options {
            amalgamation: None,
            ..Options::default()
        };
        let sym = analyze(a.pattern(), &exact).unwrap();
        assert_eq!(
            sym.block_structure.storage_words(),
            sym.stats.nnz_filled,
            "{name}"
        );
    }
}

/// The analysis reports the task graph's tasks, edges, critical path and
/// model flops without building it; those values are the ones read off
/// the built graph — to the bit for the flops — on the whole suite at
/// both scales and the benchmark's mesh, for both graph kinds, postordered
/// or not, with or without amalgamation.
#[test]
fn graph_statistics_without_a_graph_are_the_built_graphs() {
    use parsplu::core::{estimate_task_costs, total_flops};
    use parsplu::matgen::fem2d_unsymmetric;
    let mut matrices: Vec<(String, parsplu::sparse::CscMatrix)> = Vec::new();
    for scale in [Scale::Reduced, Scale::Full] {
        for m in paper_suite(scale) {
            matrices.push((format!("{} ({scale:?})", m.name), m.a));
        }
    }
    matrices.push(("mesh40x40".into(), fem2d_unsymmetric(40, 40, 2, 1)));
    for (name, a) in &matrices {
        for task_graph in [TaskGraphKind::EForest, TaskGraphKind::SStar] {
            for (postorder, amalgamation) in [(true, true), (false, true), (true, false)] {
                let opts = Options {
                    task_graph,
                    postorder,
                    amalgamation: amalgamation.then(Default::default),
                    ..Options::default()
                };
                let sym = analyze(a.pattern(), &opts).unwrap();
                let g = sym.build_graph(task_graph);
                let s = &sym.stats;
                let what = format!(
                    "{name} {task_graph:?} postorder={postorder} amalgamation={amalgamation}"
                );
                assert_eq!(s.graph_tasks, g.len(), "{what}");
                assert_eq!(s.graph_edges, g.num_edges(), "{what}");
                assert_eq!(s.critical_path, g.critical_path_len(), "{what}");
                let flops = total_flops(&estimate_task_costs(&sym.block_structure, &g));
                assert_eq!(s.flops_estimate.to_bits(), flops.to_bits(), "{what}");
            }
        }
    }
}
