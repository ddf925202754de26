//! Property tests for the sparse substrate's algebra: permutations,
//! patterns, equilibration, matrix-vector products, residuals and the
//! infinity norm.

use proptest::prelude::*;
use splu_matgen::{paper_suite, Scale};
use splu_sparse::scaling::equilibrate;
use splu_sparse::{CscMatrix, Permutation, ScaledResidual, SparseError, SparsityPattern};

fn arb_perm(max_n: usize) -> impl Strategy<Value = Permutation> {
    (1..=max_n).prop_flat_map(|n| {
        Just(n).prop_perturb(move |n, mut rng| {
            let mut v: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                let j = (rng.next_u64() % (i as u64 + 1)) as usize;
                v.swap(i, j);
            }
            Permutation::from_vec(v).expect("shuffle is a bijection")
        })
    })
}

fn arb_square(max_n: usize) -> impl Strategy<Value = CscMatrix> {
    (1..=max_n).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n, -10.0f64..10.0), 0..5 * n)
            .prop_map(move |trips| CscMatrix::from_triplets(n, n, &trips).expect("in range"))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn permutation_inverse_is_involutive(p in arb_perm(24)) {
        prop_assert_eq!(p.inverse().inverse(), p.clone());
        prop_assert!(p.compose(&p.inverse()).is_identity());
        prop_assert!(p.inverse().compose(&p).is_identity());
    }

    #[test]
    fn permutation_parity_multiplies(p in arb_perm(16), q in arb_perm(16)) {
        if p.len() == q.len() {
            let pq = p.compose(&q);
            prop_assert_eq!(pq.is_even(), p.is_even() == q.is_even());
        }
    }

    #[test]
    fn apply_then_unapply_roundtrips(p in arb_perm(20)) {
        let x: Vec<f64> = (0..p.len()).map(|i| i as f64 * 1.5 - 3.0).collect();
        let y = p.apply_vec(&x);
        prop_assert_eq!(p.apply_inverse_vec(&y), x);
    }

    #[test]
    fn pattern_transpose_is_involutive_and_preserves_nnz(a in arb_square(20)) {
        let p = a.pattern();
        let t = p.transpose();
        prop_assert_eq!(t.nnz(), p.nnz());
        prop_assert_eq!(&t.transpose(), p);
    }

    #[test]
    fn union_is_commutative_and_idempotent(a in arb_square(15), b in arb_square(15)) {
        if a.ncols() == b.ncols() && a.nrows() == b.nrows() {
            let (pa, pb) = (a.pattern(), b.pattern());
            prop_assert_eq!(pa.union(pb), pb.union(pa));
            prop_assert_eq!(&pa.union(pa), pa);
        }
    }

    #[test]
    fn matvec_is_linear(a in arb_square(20)) {
        let n = a.ncols();
        let x: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let y: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        let xy: Vec<f64> = x.iter().zip(&y).map(|(a, b)| 2.0 * a - 3.0 * b).collect();
        let lhs = a.mat_vec(&xy);
        let ax = a.mat_vec(&x);
        let ay = a.mat_vec(&y);
        for i in 0..n {
            let rhs = 2.0 * ax[i] - 3.0 * ay[i];
            prop_assert!((lhs[i] - rhs).abs() <= 1e-9 * rhs.abs().max(1.0));
        }
    }

    #[test]
    fn the_transposed_residual_is_the_residual_of_the_transpose(a in arb_square(20)) {
        // Bit for bit: `‖A‖₁` sums each column as `‖Aᵀ‖∞` sums each row,
        // and each dot subtracts its terms in the transpose's order.
        let n = a.ncols();
        let x: Vec<f64> = (0..n).map(|i| (i as f64 + 0.5).sin()).collect();
        let b: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        let (r, w) = ScaledResidual::new(&a, true).of(&x, &b);
        let (rt, wt) = ScaledResidual::new(&a.transpose(), false).of(&x, &b);
        prop_assert_eq!(w.to_bits(), wt.to_bits());
        prop_assert_eq!(r, rt);
    }

    #[test]
    fn permuted_matrix_preserves_values_as_a_multiset(a in arb_square(15), p in arb_perm(15)) {
        if p.len() == a.ncols() {
            let b = a.permuted(&p, &p);
            let mut va: Vec<u64> = a.values().iter().map(|v| v.to_bits()).collect();
            let mut vb: Vec<u64> = b.values().iter().map(|v| v.to_bits()).collect();
            va.sort_unstable();
            vb.sort_unstable();
            prop_assert_eq!(va, vb);
        }
    }

    #[test]
    fn equilibrated_matrix_has_unit_column_norms(a in arb_square(15)) {
        let eq = equilibrate(&a);
        let n = a.ncols();
        let mut col_max = vec![0.0f64; n];
        for (_, j, v) in eq.scaled.triplets() {
            col_max[j] = col_max[j].max(v.abs());
        }
        for (j, &cm) in col_max.iter().enumerate() {
            // Columns with at least one entry end up with max exactly 1.
            if a.col(j).0.iter().len() > 0 && a.col(j).1.iter().any(|v| *v != 0.0) {
                prop_assert!((cm - 1.0).abs() < 1e-12, "col {}: {}", j, cm);
            }
        }
    }

    #[test]
    fn triangular_split_reassembles(a in arb_square(18)) {
        let p = a.pattern();
        prop_assert_eq!(p.lower().union(&p.upper()), p.clone());
        prop_assert!(p.lower().is_lower_triangular());
        prop_assert!(p.upper().is_upper_triangular());
    }
}

/// The infinity norm summed along the triplet walk: the reference order.
/// The sort-and-dedup reference `SparsityPattern::from_entries` must equal:
/// per column, its rows sorted and deduplicated.
fn sorted_pattern(nrows: usize, ncols: usize, entries: &[(usize, usize)]) -> SparsityPattern {
    let mut col_ptr = vec![0];
    let mut row_idx = Vec::new();
    for j in 0..ncols {
        let mut rows: Vec<u32> = (entries.iter())
            .filter(|&&(_, c)| c == j)
            .map(|&(r, _)| r as u32)
            .collect();
        rows.sort_unstable();
        rows.dedup();
        row_idx.extend(rows);
        col_ptr.push(row_idx.len());
    }
    SparsityPattern::new(nrows, ncols, col_ptr, row_idx).expect("sorted, in range")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Duplicates, empty columns and rows, `0 × n`, `n × 0` and `0 × 0`;
    /// an entry outside the shape is the error the first such entry names,
    /// wherever it falls in the list.
    #[test]
    fn from_entries_is_sort_and_dedup(
        (nrows, ncols, entries) in (0usize..12, 0usize..12).prop_flat_map(|(m, n)| {
            let entry = (0..m.max(1), 0..n.max(1));
            let entries = proptest::collection::vec(entry, 0..4 * (m + n) + 1)
                .prop_map(move |mut e| {
                    if m == 0 || n == 0 {
                        e.clear();
                    }
                    e.extend_from_within(..e.len() / 3);
                    e
                });
            (Just(m), Just(n), entries)
        }),
        bad in (0usize..3, 0usize..40),
    ) {
        let p = SparsityPattern::from_entries(nrows, ncols, entries.iter().copied()).unwrap();
        prop_assert_eq!(&p, &sorted_pattern(nrows, ncols, &entries));
        prop_assert_eq!(p.row_indices().len(), p.nnz());
        // One entry out of range, at a random position, after an in-range
        // prefix: its coordinates come back.
        let (which, at) = bad;
        let out = match which {
            0 => (nrows, ncols.saturating_sub(1)),
            1 => (nrows.saturating_sub(1), ncols + 3),
            _ => (nrows + 7, ncols + 7),
        };
        let mut with_bad = entries.clone();
        with_bad.insert(at.min(with_bad.len()), out);
        with_bad.push((nrows + 100, 0));
        let err = SparsityPattern::from_entries(nrows, ncols, with_bad).unwrap_err();
        prop_assert_eq!(
            err,
            SparseError::IndexOutOfBounds { row: out.0, col: out.1, nrows, ncols }
        );
    }
}

fn triplet_inf_norm(a: &CscMatrix) -> f64 {
    let mut row_sum = vec![0.0_f64; a.nrows()];
    for (i, _, v) in a.triplets() {
        row_sum[i] += v.abs();
    }
    row_sum.iter().fold(0.0_f64, |m, &s| m.max(s))
}

#[test]
fn inf_norm_is_bitwise_the_triplet_order_sum_on_the_suite() {
    for m in paper_suite(Scale::Reduced) {
        let (got, want) = (m.a.inf_norm(), triplet_inf_norm(&m.a));
        assert_eq!(got.to_bits(), want.to_bits(), "{}", m.name);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn inf_norm_is_bitwise_the_triplet_order_sum(a in arb_square(20)) {
        prop_assert_eq!(a.inf_norm().to_bits(), triplet_inf_norm(&a).to_bits());
    }
}
