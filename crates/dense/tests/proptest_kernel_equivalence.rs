//! Property test: every kernel instantiation the host CPU supports is
//! **bitwise identical** to the baseline one.
//!
//! The dispatch layer's contract (documented on `Dispatch::gemm_sub`) is that a
//! `KernelChoice` changes only throughput, never bits: all instantiations
//! are the same source and run the same per-element IEEE-754 operation
//! sequence. This suite drives `gemm`, both `trsm`s and the panel LU
//! (pivots and values) through every table of `Dispatch::available()` on
//! random **ragged** shapes — dimensions deliberately not multiples of any
//! tile height, including 0- and 1-extent edge panels and extents past one
//! `KB = 64` block — through both full and strided sub-views (leading
//! dimension larger than the row count, exactly how stacked-panel blocks
//! reach the kernels), with zero-heavy operands, signed zeros and
//! subnormals, and compares every output bit for bit. `gemm` is also held
//! to the axpy-shaped kernel it replaced, kept below as an oracle, the
//! solves to their skip rule written out element by element, and the
//! solves and the panel LU to plain substitution and elimination: every
//! oracle applies a term as one fused multiply-add, `sub_term`, the
//! per-element contract of the kernels. The sweeps' dot product is held to
//! its lane order, written out term by term.

use proptest::prelude::*;
use splu_dense::{DenseMat, Dispatch, MatMut, MatRef, PanelBreakdown, PivotRule, Pivots};

fn bits(m: &DenseMat) -> Vec<u64> {
    m.data().iter().map(|x| x.to_bits()).collect()
}

/// One term of the contract: `c − a·s` rounded once, `fma(−a, s, c)`.
fn sub_term(c: f64, a: f64, s: f64) -> f64 {
    (-a).mul_add(s, c)
}

/// The portable `gemm_sub` as it was before the register-tiled
/// kernels, with the fused term: four `C` columns updated by one `A` column
/// per `k`, `C` re-read and re-stored each time. The tiled kernels must
/// reproduce its bits.
fn gemm_axpy_oracle(c: &mut MatMut<'_>, a: MatRef<'_>, b: MatRef<'_>) {
    let (m, n, inner) = (c.nrows(), c.ncols(), a.ncols());
    let quads = n / 4 * 4;
    for k0 in (0..inner).step_by(64) {
        let k1 = (k0 + 64).min(inner);
        for j in (0..quads).step_by(4) {
            for k in k0..k1 {
                let s: [f64; 4] = std::array::from_fn(|q| b[(k, j + q)]);
                if s.iter().all(|&v| v == 0.0) {
                    continue;
                }
                for (q, &sq) in s.iter().enumerate() {
                    for i in 0..m {
                        c[(i, j + q)] = sub_term(c[(i, j + q)], a[(i, k)], sq);
                    }
                }
            }
        }
        for j in quads..n {
            for k in k0..k1 {
                let s = b[(k, j)];
                if s == 0.0 {
                    continue;
                }
                for i in 0..m {
                    c[(i, j)] = sub_term(c[(i, j)], a[(i, k)], s);
                }
            }
        }
    }
}

/// The triangular solves term by term, on `t`'s unit-lower (`upper`
/// false) or upper triangle: the column groups of `gemm_axpy_oracle`,
/// strips of four rows (from the top for `L`, aligned to the bottom for
/// `U`), and the skip rule of each place. Inside a strip a term is skipped
/// when its own column's scalar is zero; outside it (below for `L`, above
/// for `U`) only when the scalars of the whole group are.
fn trsm_oracle(t: MatRef<'_>, x: &mut MatMut<'_>, upper: bool) {
    let (n, rhs) = (x.nrows(), x.ncols());
    let quads = rhs / 4 * 4;
    let groups = (0..quads).step_by(4).map(|j| j..j + 4);
    for g in groups.chain((quads..rhs).map(|j| j..j + 1)) {
        let strips: Vec<(usize, usize)> = if upper {
            (1..=n)
                .rev()
                .step_by(4)
                .map(|k1| (k1.saturating_sub(4), k1))
                .collect()
        } else {
            (0..n).step_by(4).map(|k0| (k0, (k0 + 4).min(n))).collect()
        };
        for (k0, k1) in strips {
            let order: Vec<usize> = if upper {
                (k0..k1).rev().collect()
            } else {
                (k0..k1).collect()
            };
            for &k in &order {
                for j in g.clone() {
                    if upper {
                        x[(k, j)] /= t[(k, k)];
                    }
                    let s = x[(k, j)];
                    let inside = if upper { k0..k } else { k + 1..k1 };
                    for i in inside {
                        if s != 0.0 {
                            x[(i, j)] = sub_term(x[(i, j)], t[(i, k)], s);
                        }
                    }
                }
            }
            let outside = if upper { 0..k0 } else { k1..n };
            for &k in &order {
                if g.clone().all(|j| x[(k, j)] == 0.0) {
                    continue;
                }
                for j in g.clone() {
                    let s = x[(k, j)];
                    for i in outside.clone() {
                        x[(i, j)] = sub_term(x[(i, j)], t[(i, k)], s);
                    }
                }
            }
        }
    }
}

/// A matrix of "awkward" doubles: mixed magnitudes and signs, subnormals,
/// and exact zeros of both signs with probability `zeros / 10` — values
/// whose rounding and zero-skip behaviour expose any deviation from the
/// reference operation sequence.
fn arb_mat(rows: usize, cols: usize, zeros: usize) -> impl Strategy<Value = DenseMat> {
    collection::vec((0usize..10, 0usize..4, -1.0e3f64..1.0e3), rows * cols).prop_map(move |v| {
        DenseMat::from_fn(rows, cols, |i, j| {
            let (zero, class, x) = v[i + j * rows];
            match (zero < zeros, class) {
                (true, 0 | 1) => 0.0,
                (true, _) => -0.0,
                (false, 0) => x * 1.0e-10,
                (false, 1) => x * f64::MIN_POSITIVE * 0.25,
                (false, _) => x,
            }
        })
    })
}

/// One ragged dimension: 0 and 1 (edge panels), a value past one `KB = 64`
/// block boundary, or a small extent that is a multiple of no tile height.
fn ragged_dim() -> impl Strategy<Value = usize> + Clone {
    (0usize..10, 2usize..39).prop_map(|(sel, r)| match sel {
        0 => 0,
        1 => 1,
        2 => 67,
        _ => r,
    })
}

/// Strided gemm operands: backing matrices `pad` rows taller than the
/// operands, to be viewed from row `pad` on (`pad = 0` is the full view).
/// `B` is zero-heavy, so whole quads of scalars vanish. `k`/`n` stay ≥ 1
/// when padded — `row_range` on a 0-column matrix has no backing storage to
/// offset into.
fn gemm_case() -> impl Strategy<Value = (usize, DenseMat, DenseMat, DenseMat)> {
    (ragged_dim(), ragged_dim(), ragged_dim(), 0usize..4).prop_flat_map(|(m, k, n, pad)| {
        let (k, n) = if pad > 0 {
            (k.max(1), n.max(1))
        } else {
            (k, n)
        };
        (
            Just(pad),
            arb_mat(m + pad, k, 2),
            arb_mat(k, n, 6),
            arb_mat(m + pad, n, 2),
        )
    })
}

/// `(pad, L-candidate, U-candidate, X)` trsm operands with ragged orders
/// and right-hand sides (diagonals fixed up in the test body); `X` sits
/// `pad` rows down a taller backing matrix.
fn trsm_case() -> impl Strategy<Value = (usize, DenseMat, DenseMat, DenseMat)> {
    let n = (0usize..10, 2usize..30).prop_map(|(sel, r)| match sel {
        0 => 1,
        1 => 35,
        _ => r,
    });
    (n, ragged_dim(), 0usize..3).prop_flat_map(|(n, rhs, pad)| {
        let rhs = if pad > 0 { rhs.max(1) } else { rhs };
        (
            Just(pad),
            arb_mat(n, n, 1),
            arb_mat(n, n, 1),
            arb_mat(n + pad, rhs, 4),
        )
    })
}

/// A ragged `m × w` panel (`m ≥ w ≥ 1`), zero-heavy so that skipped terms
/// and tied pivots occur.
fn panel_case() -> impl Strategy<Value = DenseMat> {
    (1usize..30, 0usize..45, 0usize..5)
        .prop_flat_map(|(w, extra, zeros)| arb_mat(w + extra, w, zeros))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `C ← C − A·B` matches the baseline — and the kernel it replaced —
    /// bitwise, through views with `ld > nrows`.
    #[test]
    fn gemm_sub_bitwise_identical((pad, a_full, b, c_full) in gemm_case()) {
        let m = a_full.nrows() - pad;
        let rows = pad..pad + m;
        let mut c_ref = c_full.clone();
        gemm_axpy_oracle(&mut c_ref.row_range_mut(rows.clone()), a_full.row_range(rows.clone()), b.as_view());

        for d in Dispatch::available() {
            let mut c = c_full.clone();
            d.gemm_sub(c.row_range_mut(rows.clone()), a_full.row_range(rows.clone()), b.as_view());
            prop_assert_eq!(
                bits(&c), bits(&c_ref),
                "{}: gemm {}x{}x{} pad {}", d.name(), m, a_full.ncols(), b.ncols(), pad
            );
        }
    }

    /// Both triangular solves match `trsm_oracle` bitwise under every
    /// instantiation, on ragged right-hand sides with zeros of both signs,
    /// including 0- and 1-column edge panels.
    #[test]
    fn trsm_bitwise_identical((pad, mut l, mut u, x0) in trsm_case()) {
        let n = l.nrows();
        for i in 0..n {
            l[(i, i)] = 1.0;
            u[(i, i)] = 3.0 + u[(i, i)].abs();
        }
        let rows = pad..pad + n;
        let mut xl_ref = x0.clone();
        trsm_oracle(l.as_view(), &mut xl_ref.row_range_mut(rows.clone()), false);
        let mut xu_ref = x0.clone();
        trsm_oracle(u.as_view(), &mut xu_ref.row_range_mut(rows.clone()), true);

        for d in Dispatch::available() {
            let mut xl = x0.clone();
            d.trsm_lower_unit(l.as_view(), xl.row_range_mut(rows.clone()));
            prop_assert_eq!(
                bits(&xl), bits(&xl_ref),
                "{}: trsm_lower {}x{} pad {}", d.name(), n, x0.ncols(), pad
            );
            let mut xu = x0.clone();
            d.trsm_upper(u.as_view(), xu.row_range_mut(rows.clone()));
            prop_assert_eq!(
                bits(&xu), bits(&xu_ref),
                "{}: trsm_upper {}x{} pad {}", d.name(), n, x0.ncols(), pad
            );
        }
    }

    /// The panel LU picks the same pivots and leaves the same bits under
    /// every instantiation — also when it perturbs a column without a pivot.
    #[test]
    fn panel_lu_bitwise_identical(p0 in panel_case(), threshold in 0usize..2) {
        let rule = if threshold == 1 { PivotRule::Threshold(0.5) } else { PivotRule::Partial };
        let breakdown = PanelBreakdown::Perturb { value: 1.0e-3 };
        let factor = |d: &Dispatch| {
            let mut p = p0.clone();
            let slots = Pivots::slots(p.ncols());
            let status = d.lu_panel_into(p.as_view_mut(), rule, 1.0e-300, breakdown, None, &slots);
            (status, Pivots::recorded(slots), bits(&p))
        };
        let reference = factor(&Dispatch::portable());
        for d in Dispatch::available() {
            prop_assert_eq!(
                &factor(&d), &reference,
                "{}: panel {}x{}", d.name(), p0.nrows(), p0.ncols()
            );
        }
    }
}

/// A factored panel's shape for the one-column steps: `w` columns, `m`
/// rows below the diagonal block, and the vector the step works on.
fn column_case() -> impl Strategy<Value = (DenseMat, DenseMat)> {
    (1usize..40, 0usize..70, 0usize..4)
        .prop_flat_map(|(w, m, zeros)| (arb_mat(w + m, w, zeros), arb_mat(w + m, 1, 3)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The one-column steps a sweep takes (`Fused`) are the matrix kernels
    /// on one column, bit for bit, under every instantiation: the forward
    /// step is `trsm_lower_unit` on the top and `gemm_sub` into a zeroed
    /// rest, the backward step `trsm_upper`, `gemv_sub` a one-column
    /// `gemm_sub`.
    #[test]
    fn one_column_steps_are_the_matrix_kernels((mut panel, v) in column_case()) {
        let (w, m) = (panel.ncols(), panel.nrows() - panel.ncols());
        for i in 0..w {
            panel[(i, i)] = 2.0 + panel[(i, i)].abs();
        }
        let top = || panel.row_range(0..w);
        let below = || panel.row_range(w..w + m);
        let base = Dispatch::portable();
        // References from the matrix kernels, baseline instantiation.
        let mut x_fwd = v.row_range(0..w).to_dense();
        base.trsm_lower_unit(top(), x_fwd.as_view_mut());
        let mut y_fwd = DenseMat::zeros(m, 1);
        base.gemm_sub(y_fwd.as_view_mut(), below(), x_fwd.as_view());
        let mut x_bwd = v.row_range(0..w).to_dense();
        base.trsm_upper(top(), x_bwd.as_view_mut());
        let mut y_gemv = v.row_range(w..w + m).to_dense();
        base.gemm_sub(y_gemv.as_view_mut(), below(), x_fwd.as_view());
        for d in Dispatch::available() {
            let (mut x, mut y) = (v.data()[..w].to_vec(), vec![f64::NAN; m]);
            d.sweep(|f| f.forward_column(panel.as_view(), &mut x, &mut y));
            prop_assert_eq!(bits(&DenseMat::from_col_major(w, 1, x)), bits(&x_fwd), "{}: x", d.name());
            prop_assert_eq!(bits(&DenseMat::from_col_major(m, 1, y)), bits(&y_fwd), "{}: y", d.name());
            let mut x = v.data()[..w].to_vec();
            d.sweep(|f| f.backward_column(panel.as_view(), &mut x));
            prop_assert_eq!(bits(&DenseMat::from_col_major(w, 1, x)), bits(&x_bwd), "{}: backward", d.name());
            let mut y = v.data()[w..].to_vec();
            d.sweep(|f| f.gemv_sub(&mut y, below(), x_fwd.data().iter().copied()));
            prop_assert_eq!(bits(&DenseMat::from_col_major(m, 1, y)), bits(&y_gemv), "{}: gemv", d.name());
        }
    }
}

/// The lane contract of `Fused::dot`, term by term: eight lanes from `+0`,
/// term `r` one fused multiply-add into lane `r mod 8`, then lane `l` plus
/// lane `l + 4`, and those four sums `m` as `(m0 + m2) + (m1 + m3)`.
fn dot_reference(a: &[f64], x: &[f64]) -> f64 {
    let mut lane = [0.0f64; 8];
    for (r, (&v, &s)) in a.iter().zip(x).enumerate() {
        lane[r % 8] = v.mul_add(s, lane[r % 8]);
    }
    let m: [f64; 4] = std::array::from_fn(|l| lane[l] + lane[l + 4]);
    (m[0] + m[2]) + (m[1] + m[3])
}

/// Dot operands as columns of a strided view: `len` rows (0 to 40, so
/// every tail length and the empty dot) starting `pad` rows down a taller
/// backing panel, as the transposed solve reads them.
fn dot_case() -> impl Strategy<Value = (usize, usize, DenseMat)> {
    (0usize..=40, 0usize..4, 2usize..5, 0usize..5).prop_flat_map(|(len, pad, cols, zeros)| {
        (Just(len), Just(pad), arb_mat(len + pad + 3, cols, zeros))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `Fused::dot` inside a sweep is the reference of its lane order, bit
    /// for bit, under every instantiation: column 0 of the view dotted
    /// with each other column.
    #[test]
    fn dot_is_the_lane_order_reference((len, pad, panel) in dot_case()) {
        let view = panel.row_range(pad..pad + len);
        let x = view.col(0);
        for c in 1..view.ncols() {
            let a = view.col(c);
            let want = dot_reference(a, x).to_bits();
            for d in Dispatch::available() {
                let got = d.sweep(|f| f.dot(a, x)).to_bits();
                prop_assert_eq!(got, want, "{}: len {}, column {}", d.name(), len, c);
            }
        }
    }
}

/// The triangular solves and the panel LU agree with plain per-column
/// substitution / unblocked elimination on data without signed zeros — the
/// only inputs on which skipping a zero term and applying it can differ.
#[test]
fn strips_match_unblocked_references() {
    let fill = |r: usize, c: usize, seed: usize| {
        DenseMat::from_fn(r, c, |i, j| {
            let h = (i * 31 + j * 17 + seed * 7) % 23;
            if h < 5 {
                0.0
            } else {
                h as f64 / 7.0 - 1.5
            }
        })
    };
    for (n, rhs) in [(1, 1), (5, 3), (8, 4), (13, 9), (35, 6)] {
        let mut l = fill(n, n, 1);
        let mut u = fill(n, n, 2);
        for i in 0..n {
            l[(i, i)] = 1.0;
            u[(i, i)] = 4.0;
        }
        let x0 = fill(n, rhs, 3);
        let (mut lower, mut upper) = (x0.clone(), x0.clone());
        for j in 0..rhs {
            for k in 0..n {
                let s = lower[(k, j)];
                for i in k + 1..n {
                    if s != 0.0 {
                        lower[(i, j)] = sub_term(lower[(i, j)], l[(i, k)], s);
                    }
                }
            }
            for k in (0..n).rev() {
                upper[(k, j)] /= u[(k, k)];
                let s = upper[(k, j)];
                for i in 0..k {
                    if s != 0.0 {
                        upper[(i, j)] = sub_term(upper[(i, j)], u[(i, k)], s);
                    }
                }
            }
        }
        for d in Dispatch::available() {
            let mut x = x0.clone();
            d.trsm_lower_unit(l.as_view(), x.as_view_mut());
            assert_eq!(bits(&x), bits(&lower), "{}: lower {n}x{rhs}", d.name());
            let mut x = x0.clone();
            d.trsm_upper(u.as_view(), x.as_view_mut());
            assert_eq!(bits(&x), bits(&upper), "{}: upper {n}x{rhs}", d.name());
        }
    }
    for (m, w) in [(1, 1), (9, 9), (20, 7), (40, 19)] {
        let p0 = DenseMat::from_fn(m, w, |i, j| ((i * 13 + j * 29) % 31) as f64 / 9.0 - 1.7);
        // Unblocked right-looking elimination with partial pivoting.
        let mut expect = p0.clone();
        let mut swaps = Vec::new();
        for c in 0..w {
            let best = (c..m).rev().max_by(|&a, &b| {
                expect[(a, c)]
                    .abs()
                    .partial_cmp(&expect[(b, c)].abs())
                    .expect("finite")
            });
            let best = best.expect("non-empty column");
            swaps.push(best as u32);
            expect.swap_rows(c, best);
            for r in c + 1..m {
                expect[(r, c)] /= expect[(c, c)];
            }
            for j in c + 1..w {
                let s = expect[(c, j)];
                for r in c + 1..m {
                    if s != 0.0 {
                        expect[(r, j)] = sub_term(expect[(r, j)], expect[(r, c)], s);
                    }
                }
            }
        }
        for d in Dispatch::available() {
            let mut p = p0.clone();
            let slots = Pivots::slots(w);
            d.lu_panel_into(
                p.as_view_mut(),
                PivotRule::Partial,
                0.0,
                PanelBreakdown::Error,
                None,
                &slots,
            )
            .expect("nonsingular panel");
            assert_eq!(
                Pivots::recorded(slots).swaps(),
                &swaps[..],
                "{}: pivots {m}x{w}",
                d.name()
            );
            assert_eq!(bits(&p), bits(&expect), "{}: panel {m}x{w}", d.name());
        }
    }
}
