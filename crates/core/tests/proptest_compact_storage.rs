//! Property test: the compact supernodal storage under **forced
//! interchanges**.
//!
//! The layout leans on two structural facts (DESIGN.md §5.5): a row that
//! `Factor(K)` may pick as a pivot stores at least the columns the rows of
//! `K` store, and holds zeros in whatever else it stores when `K` is
//! eliminated. Diagonally dominant matrices never exercise either — no row
//! ever moves. Here the diagonal is weak and every column's large entry
//! sits at a random off-diagonal row, so nearly every column interchanges,
//! across supernode boundaries, while the matrix stays well conditioned.
//!
//! Each case runs the full pipeline with amalgamation on and off at 1, 2
//! and 4 threads and checks, against oracles that share no code with the
//! block storage:
//!
//! * the solution against the Gilbert–Peierls baseline and a dense LU;
//! * `P·A = L·U`: the stored `L̄` panels and pivot sequences, replayed in
//!   product form on a dense copy of the permuted matrix, leave exactly the
//!   stored `Ū` — every stored word of it, and zeros everywhere else.

use proptest::prelude::*;
use splu_core::gp::gp_factor;
use splu_core::{Options, SparseLu};
use splu_dense::{lu_full, lu_solve, DenseMat};
use splu_sparse::CscMatrix;
use splu_symbolic::SupernodeOptions;

/// Random unsymmetric matrices whose diagonal is weak (`1e-3`) and whose
/// columns are each dominated by one entry of magnitude 4 at a random row
/// (the rows form a permutation, so the matrix is a row-permuted strictly
/// column-dominant one: nonsingular, well conditioned, and partial
/// pivoting must leave the diagonal in almost every column).
fn arb_weak_diagonal(max_n: usize) -> impl Strategy<Value = CscMatrix> {
    (6..=max_n).prop_flat_map(|n| {
        (
            proptest::collection::vec(0..1000usize, n),
            proptest::collection::vec((0..n, 0..n, -0.2f64..0.2), n..3 * n),
        )
            .prop_map(move |(keys, mut t)| {
                let mut strong_row: Vec<usize> = (0..n).collect();
                strong_row.sort_by_key(|&i| (keys[i], i));
                for j in 0..n {
                    t.push((j, j, 1e-3));
                    let sign = if keys[j] % 2 == 0 { 1.0 } else { -1.0 };
                    t.push((strong_row[j], j, sign * 4.0));
                }
                CscMatrix::from_triplets(n, n, &t).expect("indices in range")
            })
    })
}

/// Replays the stored factorization on a dense copy of the permuted matrix
/// and returns the largest deviation of the result from the stored `Ū`.
fn product_form_defect(lu: &SparseLu, a: &CscMatrix) -> f64 {
    let sym = lu.symbolic();
    let (bs, bm) = (&sym.block_structure, lu.session().block_matrix().unwrap());
    let n = bm.n();
    let pa = sym.permute_matrix(a);
    let mut m = DenseMat::from_fn(n, n, |i, j| pa.get(i, j));
    let mut stored = DenseMat::zeros(n, n);
    bm.for_each_entry(|i, j, v| stored[(i, j)] = v);
    // Step c of Factor(K) exchanged global rows c and the row its pivot
    // came from.
    let pivot_rows = bm.pivot_rows();
    for k in 0..bs.num_blocks() {
        let (cols, rows) = (bs.partition.range(k), bs.l_rows.col(k));
        for c in cols.clone() {
            m.swap_rows(c, pivot_rows[c]);
        }
        for c in cols.clone() {
            let below = (c + 1..cols.end).chain(rows.iter().map(|&r| r as usize));
            for i in below {
                let l = stored[(i, c)];
                for j in 0..n {
                    let pivot_row = m[(c, j)];
                    m[(i, j)] -= l * pivot_row;
                }
            }
        }
    }
    let mut defect = 0.0f64;
    for j in 0..n {
        for i in 0..n {
            let u = if i <= j { stored[(i, j)] } else { 0.0 };
            defect = defect.max((m[(i, j)] - u).abs());
        }
    }
    defect
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn forced_interchanges_keep_the_factors_and_the_solution(a in arb_weak_diagonal(40)) {
        let n = a.ncols();
        let b: Vec<f64> = (0..n).map(|i| ((i * 7) % 11) as f64 - 5.0).collect();
        let mut x_gp = b.clone();
        gp_factor(&a, 0.0).unwrap().solve(&mut x_gp);
        let mut dense = DenseMat::from_fn(n, n, |i, j| a.get(i, j));
        let piv = lu_full(&mut dense).unwrap();
        let mut x_dense = b.clone();
        lu_solve(&dense, &piv, &mut x_dense);
        let scale = x_dense.iter().fold(1.0f64, |m, v| m.max(v.abs()));

        let mut interchanges = 0usize;
        for amalgamation in [Some(SupernodeOptions::default()), None] {
            for threads in [1usize, 2, 4] {
                let opts = Options { threads, amalgamation, ..Options::default() };
                let lu = SparseLu::factor(&a, &opts).unwrap();
                let x = lu.solve(&b);
                for i in 0..n {
                    prop_assert!(
                        (x[i] - x_gp[i]).abs() <= 1e-9 * scale
                            && (x[i] - x_dense[i]).abs() <= 1e-9 * scale,
                        "x[{}] = {} vs gp {} / dense {} (threads {}, amalgamation {:?})",
                        i, x[i], x_gp[i], x_dense[i], threads, amalgamation
                    );
                }
                let defect = product_form_defect(&lu, &a);
                prop_assert!(
                    defect <= 1e-10,
                    "P·A − L·U = {} (threads {}, amalgamation {:?})",
                    defect, threads, amalgamation
                );
                let bm = lu.session().block_matrix().unwrap();
                let rows = bm.pivot_rows();
                interchanges += rows.iter().enumerate().filter(|&(c, &r)| c != r).count();
            }
        }
        prop_assert!(interchanges > 0, "the weak diagonal moved no row");
    }
}
