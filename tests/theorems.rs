//! Property-based tests (proptest) for the paper's theorems and the core
//! structural invariants, on randomly generated sparse matrices.

use proptest::prelude::*;

use parsplu::core::{analyze, Options};
use parsplu::ordering::{maximum_transversal, StructuralRank};
use parsplu::sched::{block_forest, build_eforest_graph, build_sstar_graph};
use parsplu::sparse::{Permutation, SparsityPattern};
use parsplu::symbolic::{
    postorder_permutation, static_fact::static_symbolic_reference, static_symbolic_factorization,
    EliminationForest, ExtendedEforest,
};

/// Strategy: a random square pattern with a zero-free diagonal.
fn diag_pattern(max_n: usize) -> impl Strategy<Value = SparsityPattern> {
    (1..=max_n).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n), 0..4 * n).prop_map(move |extra| {
            let mut entries: Vec<(usize, usize)> = (0..n).map(|i| (i, i)).collect();
            entries.extend(extra);
            SparsityPattern::from_entries(n, n, entries).expect("entries in range")
        })
    })
}

/// Strategy: an arbitrary square pattern (diagonal not guaranteed).
fn square_pattern(max_n: usize) -> impl Strategy<Value = SparsityPattern> {
    (1..=max_n).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n), 0..5 * n).prop_map(move |entries| {
            SparsityPattern::from_entries(n, n, entries).expect("entries in range")
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The union–find static symbolic factorization agrees with the O(n³)
    /// reference implementation.
    #[test]
    fn static_factorization_matches_reference(p in diag_pattern(24)) {
        let fast = static_symbolic_factorization(&p).expect("valid input");
        let slow = static_symbolic_reference(&p).expect("valid input");
        prop_assert_eq!(&fast.l, &slow.l);
        prop_assert_eq!(&fast.u, &slow.u);
    }

    /// Theorem 3: postordering the LU eforest leaves the static symbolic
    /// factorization invariant (only labels move).
    #[test]
    fn theorem3_postorder_invariance(p in diag_pattern(28)) {
        let f = static_symbolic_factorization(&p).expect("valid input");
        let po = postorder_permutation(&f);
        let f2 = static_symbolic_factorization(&p.permuted(&po, &po)).expect("still valid");
        prop_assert_eq!(&f2.l, &f.l.permuted(&po, &po));
        prop_assert_eq!(&f2.u, &f.u.permuted(&po, &po));
    }

    /// Rows of L̄ are branches of the eforest; columns of Ū are unions of
    /// column subtrees: the compact storage reconstructs both exactly.
    #[test]
    fn compact_storage_reconstructs(p in diag_pattern(28)) {
        let f = static_symbolic_factorization(&p).expect("valid input");
        let ext = ExtendedEforest::new(&f);
        prop_assert_eq!(&ext.reconstruct_l(), &f.l);
        prop_assert_eq!(&ext.reconstruct_u(), &f.u);
    }

    /// Theorem 1: Ū columns are closed under taking ancestors below the
    /// column index.
    #[test]
    fn theorem1_ancestor_closure(p in diag_pattern(24)) {
        let f = static_symbolic_factorization(&p).expect("valid input");
        let forest = EliminationForest::from_filled(&f);
        for j in 0..f.n() {
            for &i in f.u.col(j) {
                let mut x = i as usize;
                while let Some(k) = forest.parent(x) {
                    if k >= j { break; }
                    prop_assert!(f.u.contains(k, j), "ū({},{}) missing", k, j);
                    x = k;
                }
            }
        }
    }

    /// The source-column disjointness behind the paper's Section 4
    /// concurrency claim: L̄ columns of independent (non-ancestor-related)
    /// nodes have disjoint off-diagonal row sets.
    #[test]
    fn independent_columns_have_disjoint_l_structures(p in diag_pattern(20)) {
        let f = static_symbolic_factorization(&p).expect("valid input");
        let forest = EliminationForest::from_filled(&f);
        let n = f.n();
        for i1 in 0..n {
            for i2 in i1 + 1..n {
                if forest.is_ancestor(i2, i1) || forest.is_ancestor(i1, i2) {
                    continue;
                }
                let s1: std::collections::HashSet<usize> =
                    f.l_col(i1).iter().map(|&r| r as usize).filter(|&r| r > i1).collect();
                for &r in f.l_col(i2) {
                    let r = r as usize;
                    if r > i2 {
                        prop_assert!(
                            !s1.contains(&r),
                            "row {} shared by independent columns {} and {}", r, i1, i2
                        );
                    }
                }
            }
        }
    }

    /// Maximum transversal: either returns a permutation realizing a
    /// zero-free diagonal, or correctly reports deficiency (cross-checked
    /// against a brute-force matching for small n).
    #[test]
    fn transversal_is_a_maximum_matching(p in square_pattern(10)) {
        let n = p.ncols();
        // Brute force maximum bipartite matching by augmenting search over
        // all columns (same algorithm family, independent implementation).
        fn try_all(p: &SparsityPattern, col: usize, used: &mut Vec<bool>) -> usize {
            if col == p.ncols() {
                return 0;
            }
            // Either skip this column...
            let mut best = try_all(p, col + 1, used);
            // ...or match it to any free row.
            for &r in p.col(col) {
                let r = r as usize;
                if !used[r] {
                    used[r] = true;
                    best = best.max(1 + try_all(p, col + 1, used));
                    used[r] = false;
                }
            }
            best
        }
        let brute = try_all(&p, 0, &mut vec![false; n]);
        match maximum_transversal(&p) {
            StructuralRank::Full(perm) => {
                prop_assert_eq!(brute, n);
                let b = p.permuted(&perm, &Permutation::identity(n));
                prop_assert!(b.has_zero_free_diagonal());
            }
            StructuralRank::Deficient { rank } => {
                prop_assert_eq!(rank, brute);
                prop_assert!(rank < n);
            }
        }
    }
}

/// `children(p)` is exactly `{ j : parent(j) = p }`, in ascending order.
fn assert_children_invert_parents(forest: &EliminationForest, what: &str) {
    let n = forest.n();
    let mut want = vec![Vec::new(); n];
    for j in 0..n {
        if let Some(p) = forest.parent(j) {
            want[p].push(j as u32);
        }
    }
    for (p, kids) in want.iter().enumerate() {
        assert_eq!(
            forest.children(p),
            kids.as_slice(),
            "{what}: children of {p}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every forest's children pattern is the inverse of its parents: the
    /// scalar eforest of a filled pattern, as labelled and postordered, the
    /// block forest of its analysis, and a forest of random parents. Both
    /// task graphs over those blocks list each task's successors in
    /// ascending order.
    #[test]
    fn children_patterns_invert_the_parents(
        p in diag_pattern(40),
        parents in proptest::collection::vec(0usize..1000, 0..60),
    ) {
        let scalar = EliminationForest::from_filled(&static_symbolic_factorization(&p).unwrap());
        assert_children_invert_parents(&scalar, "scalar");
        let po = scalar.relabel(&scalar.postorder());
        assert_children_invert_parents(&po, "postordered");
        let bs = analyze(&p, &Options::default()).unwrap().block_structure;
        assert_children_invert_parents(&block_forest(&bs), "block");
        for g in [build_sstar_graph(&bs), build_eforest_graph(&bs)] {
            prop_assert_eq!(g.edges().ncols(), g.len());
            prop_assert!((0..g.len()).all(|t| g.successors(t).windows(2).all(|w| w[0] < w[1])));
        }
        // A parent above each node, or none when the draw lands past `n`.
        let n = parents.len();
        let random = (0..n).map(|j| j + 1 + parents[j] % (2 * (n - j))).map(|q| {
            if q < n { q } else { usize::MAX }
        });
        let forest = EliminationForest::from_parent_vec(random.collect());
        assert_children_invert_parents(&forest, "random");
    }
}
