//! Invariance gate for the front half.
//!
//! There is one front half: skeleton, postorder from its parents, fill
//! written straight into postordered labels. Its guarantees, pinned here
//! across the reduced paper suite and random patterns (proptest):
//!
//! * the fill from a skeleton (chunk climbs on the executor, threaded
//!   assembly, per-subtree postorder) is **bitwise identical** for every
//!   thread count and chunking — the executor only decides *when* chunks
//!   run, never *what* they produce nor *where* it lands;
//! * filling the postordered pattern from the *relabelled* skeleton gives
//!   exactly the brute-force reference structure, permuted (Theorem 3).

use parsplu::core::{
    analyze, analyze_with, fill_from_skeleton, postorder_parallel, postorder_parallel_obs,
    ObsSession, Options, SymbolicRequest,
};
use parsplu::matgen::{paper_suite, random_pattern, random_unsymmetric, Scale};
use parsplu::ordering::{column_min_degree, maximum_transversal, StructuralRank};
use parsplu::sparse::{Permutation, SparsityPattern};
use parsplu::symbolic::{
    fill_skeleton, postorder_permutation, static_fact::static_symbolic_reference,
    static_symbolic_factorization, EliminationForest, FilledLu,
};
use proptest::prelude::*;

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Permute a pattern onto a zero-free diagonal so the symbolic phase is
/// defined (suite patterns already have one; random ones need the
/// transversal).
fn diagonalized(p: &SparsityPattern) -> SparsityPattern {
    match maximum_transversal(p) {
        StructuralRank::Full(rp) => p.permuted(&rp, &Permutation::identity(p.ncols())),
        StructuralRank::Deficient { .. } => p.clone(),
    }
}

fn assert_parallel_fill_matches(p: &SparsityPattern, what: &str) {
    let f_seq = static_symbolic_factorization(p).expect("sequential fill succeeds");
    let forest_seq = EliminationForest::from_filled(&f_seq);
    let po_seq = postorder_permutation(&f_seq);
    let skel = fill_skeleton(p).expect("skeleton succeeds");
    for threads in THREADS {
        let req = SymbolicRequest::new().front_threads(threads);
        let f_par = fill_from_skeleton(p, &skel, &req).expect("parallel fill succeeds");
        // L and U patterns: bitwise identical (same pointer and index
        // arrays), not merely isomorphic.
        assert_eq!(f_par, f_seq, "{what}: fill differs at {threads} threads");
        // Eforest parents come straight from the skeleton pass.
        let forest_par = EliminationForest::from_parent_vec(skel.parents().to_vec());
        assert_eq!(
            forest_par, forest_seq,
            "{what}: eforest differs at {threads} threads"
        );
        // Postorder: segments stitched in root order equal the DFS.
        assert_eq!(
            postorder_parallel(&forest_par, threads),
            po_seq,
            "{what}: postorder differs at {threads} threads"
        );
    }
}

/// The fill written straight into postordered labels — postorder from
/// the skeleton's parents, skeleton relabelled, postordered pattern filled
/// from it — against the brute-force reference permuted after the fact.
fn assert_direct_postorder_fill_matches_reference(p: &SparsityPattern, what: &str) {
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
    for threads in THREADS {
        for chunks in [1usize, 3] {
            let req = SymbolicRequest::new()
                .front_threads(threads)
                .chunks_per_thread(chunks);
            let direct = fill_from_skeleton(&p3, &skel3, &req).expect("fill succeeds");
            assert_eq!(direct, want, "{what}: {threads} threads x {chunks} chunks");
            // `postorder: false` is the same code with the identity.
            let plain = fill_from_skeleton(p, &skel, &req).expect("fill succeeds");
            assert_eq!(plain, reference, "{what}: unpermuted, {threads} x {chunks}");
        }
    }
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
fn parallel_fill_is_bitwise_identical_on_the_suite() {
    for m in paper_suite(Scale::Reduced) {
        // The suite patterns reach the symbolic phase transversal-permuted
        // and mindeg-ordered; test exactly that input.
        let p = diagonalized(m.a.pattern());
        let q = column_min_degree(&p);
        assert_parallel_fill_matches(&p.permuted(&q, &q), m.name);
    }
}

#[test]
fn analyze_with_front_threads_is_bitwise_identical_end_to_end() {
    for m in paper_suite(Scale::Reduced) {
        let base = analyze(m.a.pattern(), &Options::default()).expect("analysis succeeds");
        for threads in THREADS {
            let opts = Options {
                front_threads: threads,
                ..Options::default()
            };
            let req = SymbolicRequest::from_options(&opts);
            let sym = analyze_with(m.a.pattern(), &opts, &req).expect("analysis succeeds");
            assert_eq!(sym.row_perm, base.row_perm, "{}@{threads}", m.name);
            assert_eq!(sym.col_perm, base.col_perm, "{}@{threads}", m.name);
            assert_eq!(sym.filled.l, base.filled.l, "{}@{threads}", m.name);
            assert_eq!(sym.filled.u, base.filled.u, "{}@{threads}", m.name);
            assert_eq!(
                sym.block_structure, base.block_structure,
                "{}@{threads}",
                m.name
            );
            assert_eq!(sym.stats.nnz_filled, base.stats.nnz_filled);
            assert_eq!(sym.stats.supernodes, base.stats.supernodes);
        }
    }
}

#[test]
fn traced_front_half_is_bitwise_identical_to_untraced() {
    // Observability must be a pure observer: a session recording full
    // event streams changes *nothing* about the front half's output at
    // any thread count.
    for m in paper_suite(Scale::Reduced).into_iter().take(3) {
        let p = diagonalized(m.a.pattern());
        let q = column_min_degree(&p);
        let pq = p.permuted(&q, &q);
        let skel = fill_skeleton(&pq).expect("skeleton succeeds");
        for threads in THREADS {
            let plain_req = SymbolicRequest::new().front_threads(threads);
            let f_plain = fill_from_skeleton(&pq, &skel, &plain_req).expect("untraced fill");
            let session = ObsSession::with_events();
            let traced_req = SymbolicRequest::new()
                .front_threads(threads)
                .observe(session.clone());
            let f_traced = fill_from_skeleton(&pq, &skel, &traced_req).expect("traced fill");
            assert_eq!(f_traced, f_plain, "{}@{threads}: fill differs", m.name);
            let forest = EliminationForest::from_parent_vec(skel.parents().to_vec());
            assert_eq!(
                postorder_parallel_obs(&forest, threads, Some(&session)),
                postorder_parallel(&forest, threads),
                "{}@{threads}: postorder differs under tracing",
                m.name
            );
        }
    }
}

#[test]
fn traced_end_to_end_factorization_is_bitwise_identical() {
    use parsplu::core::SparseLu;
    let m = &paper_suite(Scale::Reduced)[1];
    let b: Vec<f64> = (0..m.a.ncols()).map(|i| (i % 11) as f64 - 5.0).collect();
    let opts = Options {
        threads: 2,
        front_threads: 2,
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
    let opts = Options {
        front_threads: 4,
        ..Options::default()
    };
    let req = SymbolicRequest::from_options(&opts).observe(session.clone());
    analyze_with(m.a.pattern(), &opts, &req).expect("analysis succeeds");
    // The session's own export must already be a valid Chrome trace with
    // the front half's spans on driver + front tracks.
    let doc = parse(&session.chrome_json()).expect("valid JSON");
    validate_chrome_trace(&doc).expect("valid Chrome trace");
    let events = session.span_events();
    assert!(
        events.iter().any(|e| e.name == "fill_skeleton"),
        "no skeleton span"
    );
    assert!(
        events.iter().any(|e| e.name.starts_with("fill ")),
        "no per-chunk fill spans"
    );
    assert!(
        events.iter().any(|e| e.name.starts_with("postorder root ")),
        "no postorder segment spans"
    );
    // Chunk and postorder spans sit on front tracks (tid >= 1), the
    // skeleton on the driver track.
    for e in &events {
        if e.name.starts_with("fill ") || e.name.starts_with("postorder root ") {
            assert!(e.track.tid() >= 1, "span {} not on a front track", e.name);
        }
    }
}

proptest! {
    // Each case runs 4 thread counts over a fresh random pattern; keep the
    // case count moderate.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Parallel symbolic fill, eforest parents and postorder are bitwise
    /// identical to the sequential path on random patterns of every
    /// shape the transversal can make factorable.
    #[test]
    fn parallel_fill_matches_sequential_on_random_patterns(
        n in 1usize..48,
        density in 0usize..6,
        seed in 0u64..1024,
    ) {
        let p = diagonalized(&random_pattern(n, n * density, seed));
        // Structurally singular draws (no transversal) have no symbolic
        // factorization to compare; skip them.
        if p.has_zero_free_diagonal() {
            assert_parallel_fill_matches(&p, "random pattern");
        }
    }

    /// Filling straight into postordered labels equals permuting the
    /// brute-force reference afterwards, for every thread count and
    /// chunking, on forests of one tree and of many (density 0 is the
    /// identity: `n` roots).
    #[test]
    fn direct_postorder_fill_matches_permuted_reference(
        n in 1usize..40,
        density in 0usize..5,
        seed in 0u64..1024,
    ) {
        let p = diagonalized(&random_pattern(n, n * density, seed));
        if p.has_zero_free_diagonal() {
            assert_direct_postorder_fill_matches_reference(&p, "random pattern");
        }
    }

    /// The driver's filled structure is the reference structure of the
    /// matrix it says it factors, with the postorder and without it.
    #[test]
    fn analyze_fill_is_the_reference_of_the_permuted_input(
        n in 2usize..36,
        extra in 1usize..5,
        seed in 0u64..512,
    ) {
        let a = random_unsymmetric(n, extra, seed);
        for postorder in [true, false] {
            for front_threads in [1usize, 4] {
                let opts = Options { postorder, front_threads, ..Options::default() };
                let sym = analyze(a.pattern(), &opts).expect("analysis succeeds");
                let factored = a.pattern().permuted(&sym.row_perm, &sym.col_perm);
                let want = static_symbolic_reference(&factored).expect("zero-free diagonal");
                prop_assert_eq!(&sym.filled, &want);
            }
        }
    }

    /// The full driver (transversal, ordering, fill, postorder, blocks)
    /// is invariant in `front_threads` on random matrices.
    #[test]
    fn analyze_is_front_thread_invariant_on_random_matrices(
        n in 2usize..40,
        extra in 1usize..5,
        seed in 0u64..512,
    ) {
        let a = random_unsymmetric(n, extra, seed);
        let base = analyze(a.pattern(), &Options::default()).expect("analysis succeeds");
        for threads in [2usize, 8] {
            let opts = Options {
                front_threads: threads,
                ..Options::default()
            };
            let sym = analyze(a.pattern(), &opts).expect("analysis succeeds");
            prop_assert_eq!(&sym.filled.l, &base.filled.l);
            prop_assert_eq!(&sym.filled.u, &base.filled.u);
            prop_assert_eq!(&sym.col_perm, &base.col_perm);
            prop_assert_eq!(&sym.block_structure, &base.block_structure);
        }
    }
}
