//! Full-scale stress runs (ignored by default — run with
//! `cargo test --release --test stress -- --ignored`).

use parsplu::core::{factor_numeric_with, BlockMatrix, NumericRequest, Options, SparseLu};
use parsplu::matgen::{manufactured_rhs, paper_suite, random_unsymmetric, Scale};
use parsplu::sched::{build_sstar_graph, Mapping};
use parsplu::sparse::relative_residual;

/// The complete paper-scale suite through the default pipeline, and the S*
/// graph handed to the range plan factoring it bitwise alike.
#[test]
#[ignore = "full-scale run (~2 s per matrix in release, much slower in debug)"]
fn full_scale_suite_end_to_end() {
    for m in paper_suite(Scale::Full) {
        let (_, b) = manufactured_rhs(&m.a, 1);
        let opts = Options {
            threads: 2,
            ..Options::default()
        };
        let lu = SparseLu::factor(&m.a, &opts).unwrap_or_else(|e| panic!("{}: {e}", m.name));
        let x = lu.solve(&b);
        let r = relative_residual(&m.a, &x, &b);
        assert!(r < 1e-9, "{}: residual {r}", m.name);

        let sym = lu.symbolic();
        let (bs, permuted) = (&sym.block_structure, sym.permute_matrix(&m.a));
        let want = lu.session().block_matrix().unwrap();
        let sstar = build_sstar_graph(bs);
        for threads in [2, 4] {
            for mapping in [Mapping::Static1D, Mapping::Dynamic] {
                let bm = BlockMatrix::assemble(&permuted, bs);
                let req = NumericRequest::coarse(&sstar, mapping).threads(threads);
                factor_numeric_with(&bm, &req).unwrap();
                let what = format!("{} S* threads={threads} {mapping:?}", m.name);
                assert_eq!(bm.factor_difference(want), None, "{what}");
            }
        }
    }
}

/// A large random matrix exercising deep elimination chains.
#[test]
#[ignore = "full-scale run"]
fn large_random_matrix() {
    let a = random_unsymmetric(10_000, 5, 2024);
    let (_, b) = manufactured_rhs(&a, 3);
    let lu = SparseLu::factor(
        &a,
        &Options {
            threads: 2,
            ..Options::default()
        },
    )
    .unwrap();
    let x = lu.solve(&b);
    assert!(relative_residual(&a, &x, &b) < 1e-9);
}
