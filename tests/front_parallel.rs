//! Gate for the front half against both scalar oracles.
//!
//! The analysis is skeleton → postorder → block lists and never writes
//! `L̄`/`Ū`. Pinned here, across the reduced paper suite and random
//! matrices (proptest):
//!
//! * what `analyze` returns — supernodes and their row and column lists —
//!   is what the scalar path computes from the brute-force reference
//!   structure of the matrix `analyze` says it factors
//!   (`supernode_partition` → `amalgamate` → `BlockStructure::new`), with
//!   the postorder and without it, with amalgamation and without it;
//! * relabelling the skeleton by the postorder of its own forest gives the
//!   skeleton of the permuted pattern, and filling from it gives the
//!   reference structure, permuted (Theorem 3) — on the scalar oracle;
//! * an observability session changes nothing about either.

use parsplu::core::{analyze, analyze_with, ObsSession, Options};
use parsplu::matgen::{paper_suite, random_pattern, random_unsymmetric, Scale};
use parsplu::ordering::{maximum_transversal, StructuralRank};
use parsplu::sparse::{Permutation, SparsityPattern};
use parsplu::symbolic::{
    amalgamate, assemble_filled, fill_columns, fill_skeleton,
    static_fact::static_symbolic_reference, supernode_partition, BlockStructure, EliminationForest,
    FillSkeleton, FilledLu, SupernodeOptions,
};
use proptest::prelude::*;

/// Permute a pattern onto a zero-free diagonal so the symbolic phase is
/// defined (suite patterns already have one; random ones need the
/// transversal).
fn diagonalized(p: &SparsityPattern) -> SparsityPattern {
    match maximum_transversal(p) {
        StructuralRank::Full(rp) => p.permuted(&rp, &Permutation::identity(p.ncols())),
        StructuralRank::Deficient { .. } => p.clone(),
    }
}

/// `analyze` under every postorder × amalgamation setting against the
/// scalar path run on the brute-force reference structure.
fn assert_analysis_matches_the_scalar_oracles(pattern: &SparsityPattern, what: &str) {
    for postorder in [true, false] {
        for amalgamation in [Some(SupernodeOptions::default()), None] {
            let opts = Options {
                postorder,
                amalgamation,
                ..Options::default()
            };
            let sym = analyze(pattern, &opts).expect("analysis succeeds");
            let factored = pattern.permuted(&sym.row_perm, &sym.col_perm);
            let want = static_symbolic_reference(&factored).expect("zero-free diagonal");
            let exact = supernode_partition(&want);
            let partition = match &amalgamation {
                Some(sn_opts) => amalgamate(&want, &exact, sn_opts),
                None => exact.clone(),
            };
            let ctx = format!("{what}: postorder {postorder}, amalgamation {amalgamation:?}");
            assert_eq!(
                *sym.block_structure,
                BlockStructure::new(&want, partition),
                "{ctx}"
            );
            assert_eq!(sym.stats.nnz_filled, want.nnz_filled(), "{ctx}");
            assert_eq!(sym.stats.supernodes_exact, exact.num_blocks(), "{ctx}");
        }
    }
}

/// The fill written straight into postordered labels — postorder from
/// the skeleton's parents, skeleton relabelled, postordered pattern filled
/// from it — against the brute-force reference permuted after the fact.
fn assert_direct_postorder_fill_matches_reference(p: &SparsityPattern, what: &str) {
    let fill =
        |p: &SparsityPattern, skel: &FillSkeleton| assemble_filled(skel, &fill_columns(p, skel));
    let reference = static_symbolic_reference(p).expect("reference fill succeeds");
    let skel = fill_skeleton(p).expect("skeleton succeeds");
    let po = EliminationForest::from_parent_vec(skel.parents().to_vec()).postorder();
    let p3 = p.permuted(&po, &po);
    let skel3 = skel.relabeled(&po);
    assert_eq!(
        skel3,
        fill_skeleton(&p3).expect("postorder keeps the diagonal"),
        "{what}: relabelled skeleton is not the permuted pattern's"
    );
    let want = FilledLu::from_parts(
        reference.l.permuted(&po, &po),
        reference.u.permuted(&po, &po),
    );
    assert_eq!(fill(&p3, &skel3), want, "{what}: postordered");
    // `postorder: false` is the same code with the identity.
    assert_eq!(fill(p, &skel), reference, "{what}: unpermuted");
}

#[test]
fn direct_postorder_fill_on_a_forest_of_several_trees() {
    let p = parsplu::symbolic::fixtures::fig1_pattern();
    let skel = fill_skeleton(&p).unwrap();
    let roots = skel.parents().iter().filter(|&&x| x == usize::MAX);
    assert!(roots.count() > 1);
    assert_direct_postorder_fill_matches_reference(&p, "fig1");
}

#[test]
fn analyze_block_structure_is_the_scalar_oracles_on_the_suite() {
    for m in paper_suite(Scale::Reduced) {
        assert_analysis_matches_the_scalar_oracles(m.a.pattern(), m.name);
    }
}

#[test]
fn traced_front_half_is_bitwise_identical_to_untraced() {
    // Observability must be a pure observer: a session recording full
    // event streams changes *nothing* about what the analysis returns.
    for m in paper_suite(Scale::Reduced).into_iter().take(3) {
        let opts = Options::default();
        let plain = analyze(m.a.pattern(), &opts).expect("untraced analysis");
        let session = ObsSession::with_events();
        let traced = analyze_with(m.a.pattern(), &opts, Some(&session)).expect("traced analysis");
        assert_eq!(traced.row_perm, plain.row_perm, "{}", m.name);
        assert_eq!(traced.col_perm, plain.col_perm, "{}", m.name);
        assert_eq!(traced.block_structure, plain.block_structure, "{}", m.name);
        assert_eq!(traced.stats, plain.stats, "{}", m.name);
    }
}

#[test]
fn traced_end_to_end_factorization_is_bitwise_identical() {
    use parsplu::core::SparseLu;
    let m = &paper_suite(Scale::Reduced)[1];
    let b: Vec<f64> = (0..m.a.ncols()).map(|i| (i % 11) as f64 - 5.0).collect();
    let opts = Options {
        threads: 2,
        ..Options::default()
    };
    let plain = SparseLu::factor(&m.a, &opts).expect("untraced factorization");
    let session = ObsSession::with_events();
    let traced = SparseLu::factor_observed(&m.a, &opts, &session).expect("traced factorization");
    // Same factors bit-for-bit: the solves agree exactly.
    let (x_plain, x_traced) = (plain.solve(&b), traced.solve(&b));
    assert_eq!(
        x_plain, x_traced,
        "{}: traced solve differs bitwise",
        m.name
    );
}

#[test]
fn front_spans_land_on_the_session_trace_as_chrome_tracks() {
    use splu_bench::json::{parse, validate_chrome_trace};
    let m = &paper_suite(Scale::Reduced)[0];
    let session = ObsSession::with_events();
    let opts = Options::default();
    analyze_with(m.a.pattern(), &opts, Some(&session)).expect("analysis succeeds");
    // The session's own export must already be a valid Chrome trace with
    // each symbolic phase as one span, in pipeline order.
    let doc = parse(&session.chrome_json()).expect("valid JSON");
    validate_chrome_trace(&doc).expect("valid Chrome trace");
    let events = session.span_events();
    let front: Vec<&str> = events
        .iter()
        .map(|e| e.name.as_str())
        .filter(|n| *n != "scale_transversal" && *n != "graph_build")
        .collect();
    assert_eq!(
        front,
        [
            "ordering",
            "symbolic_fill",
            "eforest_postorder",
            "supernode_partition"
        ]
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Filling straight into postordered labels equals permuting the
    /// brute-force reference afterwards, on forests of one tree and of
    /// many (density 0 is the identity: `n` roots).
    #[test]
    fn direct_postorder_fill_matches_permuted_reference(
        n in 1usize..40,
        density in 0usize..5,
        seed in 0u64..1024,
    ) {
        let p = diagonalized(&random_pattern(n, n * density, seed));
        // Structurally singular draws (no transversal) have no symbolic
        // factorization to compare; skip them.
        if p.has_zero_free_diagonal() {
            assert_direct_postorder_fill_matches_reference(&p, "random pattern");
        }
    }

    /// The driver's block structure is the scalar path's on the reference
    /// structure of the matrix it says it factors, and its fill count that
    /// structure's, with the postorder and amalgamation on and off.
    #[test]
    fn analyze_fill_is_the_reference_of_the_permuted_input(
        n in 2usize..40,
        extra in 1usize..5,
        seed in 0u64..512,
    ) {
        let a = random_unsymmetric(n, extra, seed);
        assert_analysis_matches_the_scalar_oracles(a.pattern(), "random matrix");
    }
}
