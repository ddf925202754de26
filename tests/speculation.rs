//! Differential suite for the speculative one-shot factorization (DESIGN.md
//! §5.4): `SparseLu::factor` — a session's first `factor` — runs on the
//! in-block structure, derived from the static lists and the input's
//! pattern, and falls back to the static structure only when a pivot leaves
//! its diagonal block. Whichever structure answers, the factors are the
//! static oracle's (`common::StaticFactors`), bit for bit.
//!
//! In a debug build the suite cases are the reduced suite; a release build
//! (CI's "Speculation differential" step) runs the full-scale suite and the
//! benchmark's 40×40 mesh.

mod common;

use common::{first_out_of_block, StaticFactors};
use parsplu::core::{ObsSession, Options, RefactorPath, RunStatus, SluSession, SparseLu};
use parsplu::matgen::{
    cross_block_pivots, fem2d_unsymmetric, in_block_pivots, paper_suite, random_pattern, Scale,
};
use parsplu::obs::Counter;
use parsplu::sched::{block_forest, Mapping};
use parsplu::sparse::{CscMatrix, SparsityPattern};
use parsplu::symbolic::SupernodeOptions;
use proptest::prelude::*;

const MANY: usize = 4;

fn options(threads: usize, mapping: Mapping) -> Options {
    Options {
        threads,
        mapping,
        ..Options::default()
    }
}

/// The static oracle: `a` factored on one thread under `opts`.
fn static_factor(a: &CscMatrix, opts: &Options) -> StaticFactors {
    let opts = Options {
        threads: 1,
        ..opts.clone()
    };
    StaticFactors::factor(a, &opts).unwrap()
}

/// A session after a `factor` and a `refactor` of `a`: on the in-block
/// structure, derived once.
fn settled(a: &CscMatrix, opts: &Options) -> SluSession {
    let mut s = SluSession::analyze(a.pattern(), opts).unwrap();
    s.factor(a).unwrap();
    assert!(s.is_realised(), "the pivots stay in their blocks");
    let lists = s.symbolic().block_structure.clone();
    s.refactor(a).unwrap();
    assert!(s.is_realised() && s.symbolic().block_structure == lists);
    s
}

/// Values on `p` with a strictly dominant diagonal in every column:
/// partial pivoting takes no interchange (the identity history).
fn dominant(p: &SparsityPattern, seed: u64) -> CscMatrix {
    let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x % 2048) as f64 / 1024.0 - 1.0
    };
    let mut trips = Vec::new();
    for j in 0..p.ncols() {
        let mut off = 0.0;
        for i in p.col(j).iter().map(|&i| i as usize).filter(|&i| i != j) {
            let v = next();
            off += v.abs();
            trips.push((i, j, v));
        }
        trips.push((j, j, 1.0 + off));
    }
    CscMatrix::from_triplets(p.nrows(), p.ncols(), &trips).unwrap()
}

fn bits(x: &[f64]) -> Vec<u64> {
    x.iter().map(|v| v.to_bits()).collect()
}

/// Interchanges of a pivot history: rows other than the column's own.
fn interchanges(history: &[usize]) -> usize {
    history.iter().enumerate().filter(|&(c, &r)| c != r).count()
}

/// The one-shot factorization against the static oracle: the same factors
/// (pivots as global rows, every word both store, zeros where only the
/// static storage has one), the storage of the structure it hands out, and
/// every solve to the bit.
fn assert_bitwise_static(lu: &SparseLu, reference: &StaticFactors, what: &str) {
    let bm = lu.session().block_matrix().unwrap();
    assert_eq!(bm.factor_difference(&reference.bm), None, "{what}");
    let (held, static_bs) = (
        &lu.symbolic().block_structure,
        &reference.sym.block_structure,
    );
    if !lu.session().is_realised() {
        assert_eq!(
            held, static_bs,
            "{what}: a fallback rebuilds the static lists"
        );
    }
    assert_eq!(
        block_forest(held),
        block_forest(static_bs),
        "{what}: the eforest edges stay"
    );
    assert_eq!(bm.storage_words(), held.storage_words(), "{what}");
    let st = lu.storage();
    assert_eq!(
        (st.words, st.static_words),
        (held.storage_words(), reference.bm.storage_words())
    );

    let n = bm.n();
    let b: Vec<f64> = (0..n)
        .map(|i| ((i * 7919) % 1009) as f64 / 504.5 - 1.0)
        .collect();
    let bb: Vec<f64> = (0..MANY * n)
        .map(|i| ((i * 104_729) % 2003) as f64 / 1001.5 - 1.0)
        .collect();
    assert_eq!(
        bits(&lu.solve(&b)),
        bits(&reference.solve(&b)),
        "{what}: solve"
    );
    assert_eq!(
        bits(&lu.solve_transposed(&b)),
        bits(&reference.solve_transposed(&b)),
        "{what}: transposed solve"
    );
    assert_eq!(
        bits(&lu.solve_many(&bb, MANY)),
        bits(&reference.solve_many(&bb, MANY)),
        "{what}: {MANY} right-hand sides"
    );
}

/// On the suite and the mesh, whose values take the identity history, the
/// speculation holds, leaves words out, and its factors are the static
/// ones; a session's `factor` and `refactor` run on the same lists. (That
/// the lists are the boolean replay of the identity history over the static
/// storage is `blocks`' unit test, on the same cases.)
#[test]
fn derived_lists_are_the_replay_of_the_identity_history() {
    let scale = if cfg!(debug_assertions) {
        Scale::Reduced
    } else {
        Scale::Full
    };
    let mut cases: Vec<(&str, CscMatrix)> = paper_suite(scale)
        .into_iter()
        .map(|m| (m.name, m.a))
        .collect();
    if scale == Scale::Full {
        cases.push(("mesh40x40", fem2d_unsymmetric(40, 40, 2, 1)));
    }
    for (name, a) in &cases {
        let opts = Options::default();
        let obs = ObsSession::new();
        let lu = SparseLu::factor_observed(a, &opts, &obs).unwrap();
        assert_eq!(obs.metrics().get(Counter::RefactorRealised), 1, "{name}");
        assert!(lu.session().is_realised(), "{name}");
        let history = lu.session().block_matrix().unwrap().pivot_rows();
        assert_eq!(interchanges(&history), 0, "{name}: the identity history");
        let s = settled(a, &opts);
        assert_eq!(
            lu.symbolic().block_structure,
            s.symbolic().block_structure,
            "{name}"
        );
        assert!(lu.storage().words < lu.storage().static_words, "{name}");
        let st = s.storage().unwrap();
        assert!(st.words < st.static_words, "{name}");
        assert_bitwise_static(&lu, &static_factor(a, &opts), name);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The same on random patterns, postordered or not, with amalgamation
    /// on or off.
    #[test]
    fn derived_lists_are_the_replay_on_random_patterns(
        n in 8usize..64,
        extra in 1usize..4,
        seed in 0u64..1000,
        postorder in 0usize..2,
        amalgamation in 0usize..2,
    ) {
        let a = dominant(&random_pattern(n, extra * n, seed), seed);
        let opts = Options {
            postorder: postorder == 1,
            amalgamation: (amalgamation == 1).then(SupernodeOptions::default),
            ..Options::default()
        };
        let lu = SparseLu::factor(&a, &opts).unwrap();
        prop_assert!(lu.session().is_realised());
        let history = lu.session().block_matrix().unwrap().pivot_rows();
        prop_assert_eq!(interchanges(&history), 0);
        let s = settled(&a, &opts);
        prop_assert_eq!(&lu.symbolic().block_structure, &s.symbolic().block_structure);
        assert_bitwise_static(&lu, &static_factor(&a, &opts), "random pattern");
    }
}

/// Pivots that leave their diagonal block trip the wire: the job is
/// answered through the static structure, bit for bit, the report names
/// the fallback and its column, and the session holds the static storage
/// and no scatter map (a held session that falls back on the same input
/// holds one 4-byte slot per nonzero more) — at 1/2/4/8 threads under
/// both mappings.
#[test]
fn a_pivot_that_leaves_its_block_is_answered_statically() {
    for (n, seed) in [(60, 1), (90, 2), (140, 3)] {
        let a = cross_block_pivots(n, seed);
        let reference = static_factor(&a, &Options::default());
        let history = reference.bm.pivot_rows();
        let first = first_out_of_block(&reference.bm).expect("a pivot leaves its block");
        for threads in [1usize, 2, 4, 8] {
            for mapping in [Mapping::Static1D, Mapping::Dynamic] {
                let what = format!("n={n} threads={threads} {mapping:?}");
                let obs = ObsSession::new();
                let lu = SparseLu::factor_observed(&a, &options(threads, mapping), &obs).unwrap();
                assert_eq!(obs.metrics().get(Counter::RefactorFallback), 1, "{what}");
                assert_eq!(obs.metrics().get(Counter::RefactorRealised), 0, "{what}");
                let report = obs.report(Default::default(), lu.options(), RunStatus::success());
                let Some(RefactorPath::Fallback { column }) = report.refactor else {
                    panic!("{what}: expected a fallback, got {:?}", report.refactor);
                };
                // One worker meets the first such column; several may meet
                // another one first — still one whose pivot left its block.
                if threads == 1 {
                    assert_eq!(column, first, "{what}");
                }
                let bm = &reference.bm;
                let k = (0..bm.num_block_cols())
                    .rfind(|&k| bm.global_col_start(k) <= column)
                    .unwrap();
                assert!(
                    history[column] >= bm.global_col_start(k + 1),
                    "{what}: {column}"
                );
                let doc = splu_bench::json::parse(&report.to_json()).expect("the report parses");
                let refactor = doc.get("refactor").expect("a refactor object");
                assert_eq!(
                    refactor.get("path").and_then(|p| p.as_str()),
                    Some("fallback")
                );
                let diverged = refactor.get("diverged_column").and_then(|c| c.as_num());
                assert_eq!(diverged, Some(column as f64), "{what}");
                assert!(!lu.session().is_realised(), "{what}");
                assert_eq!(lu.storage().words, lu.storage().static_words, "{what}");
                assert_bitwise_static(&lu, &reference, &what);
                let mut held = SluSession::analyze(a.pattern(), lu.options()).unwrap();
                held.factor(&a).unwrap();
                assert!(!held.is_realised(), "{what}");
                assert_eq!(
                    held.resident_bytes() - lu.session().resident_bytes(),
                    4 * a.nnz() as u64,
                    "{what}: the one-shot keeps no map"
                );
            }
        }
    }
}

/// Values on `a`'s pattern that keep its block-diagonal dominance pattern
/// but reorder the magnitudes inside each column: other interchanges,
/// inside the same blocks.
fn reshuffled(a: &CscMatrix, salt: u64) -> CscMatrix {
    let mut b = a.clone();
    for (t, v) in b.values_mut().iter_mut().enumerate() {
        if v.abs() >= 1.0 {
            let wig = ((t as u64).wrapping_mul(2 * salt + 1) % 89) as f64 / 89.0;
            *v = v.signum() * (1.0 + wig);
        }
    }
    b
}

/// Pivots that stay inside their diagonal blocks keep the in-block
/// structure: the one-shot factorization answers from it, and a session
/// that factored values of one in-block history refactors values with
/// another on it too — bitwise the static factors, at 1/2/4/8 threads
/// under both mappings.
#[test]
fn in_block_interchanges_keep_the_realised_structure() {
    for (blocks, width, seed) in [(12, 5, 1), (20, 8, 2), (9, 16, 3)] {
        let a = in_block_pivots(blocks, width, seed);
        let other = reshuffled(&a, seed);
        let reference = static_factor(&a, &Options::default());
        let other_reference = static_factor(&other, &Options::default());
        let (bm, other_bm) = (&reference.bm, &other_reference.bm);
        let (history, other_history) = (bm.pivot_rows(), other_bm.pivot_rows());
        let what = format!("{blocks}x{width}");
        assert!(
            interchanges(&history) >= a.ncols() / 2,
            "{what}: {}",
            interchanges(&history)
        );
        assert_eq!(first_out_of_block(bm), None, "{what}");
        assert_eq!(first_out_of_block(other_bm), None, "{what}");
        assert_ne!(history, other_history, "{what}: another in-block history");
        for threads in [1usize, 2, 4, 8] {
            for mapping in [Mapping::Static1D, Mapping::Dynamic] {
                let what = format!("{what} threads={threads} {mapping:?}");
                let opts = options(threads, mapping);
                let obs = ObsSession::new();
                let lu = SparseLu::factor_observed(&a, &opts, &obs).unwrap();
                assert_eq!(obs.metrics().get(Counter::RefactorRealised), 1, "{what}");
                assert!(lu.session().is_realised(), "{what}");
                assert_bitwise_static(&lu, &reference, &what);

                // A session's lists are the one-shot's, and another
                // in-block history keeps them.
                let mut s = settled(&a, &opts);
                let lists = &s.symbolic().block_structure;
                assert_eq!(lists, &lu.symbolic().block_structure, "{what}");
                let obs = ObsSession::new();
                s.refactor_observed(&other, &obs).unwrap();
                assert_eq!(obs.metrics().get(Counter::RefactorRealised), 1, "{what}");
                assert_eq!(obs.metrics().get(Counter::RefactorFallback), 0, "{what}");
                assert!(s.is_realised(), "{what}");
                let (got, want) = (s.block_matrix().unwrap(), other_bm);
                assert_eq!(got.factor_difference(want), None, "{what}: refactor");
            }
        }
    }
}
