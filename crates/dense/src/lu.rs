//! Panel and full dense LU with partial pivoting.

use crate::kernels::tile::{strip, sub_term, NR, SB};
use crate::{DenseMat, MatMut};
use std::sync::atomic::{AtomicU32, Ordering};

/// A partial-pivoting interchange sequence, LAPACK `ipiv`-style: at step
/// `c`, rows `c` and `swap[c]` were exchanged (`swap[c] ≥ c`).
///
/// Indices are **local to the panel** that produced them and `u32`, the
/// width the sparse driver records them at: one slot per column of the
/// matrix, which [`crate::Dispatch::lu_panel_into`] writes in place.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Pivots {
    swaps: Vec<u32>,
}

impl Pivots {
    /// The identity sequence of length `w` (no interchanges).
    pub fn identity(w: usize) -> Self {
        Pivots {
            swaps: (0..w as u32).collect(),
        }
    }

    /// `w` slots for [`crate::Dispatch::lu_panel_into`] to record into.
    pub fn slots(w: usize) -> Vec<AtomicU32> {
        (0..w).map(|_| AtomicU32::new(0)).collect()
    }

    /// The sequence recorded into `slots` by
    /// [`crate::Dispatch::lu_panel_into`].
    pub fn recorded(slots: Vec<AtomicU32>) -> Self {
        Pivots {
            swaps: slots.into_iter().map(AtomicU32::into_inner).collect(),
        }
    }

    /// The raw swap targets (`swaps[c] ≥ c`).
    pub fn swaps(&self) -> &[u32] {
        &self.swaps
    }

    /// Number of elimination steps recorded.
    pub fn len(&self) -> usize {
        self.swaps.len()
    }

    /// `true` when no steps are recorded.
    pub fn is_empty(&self) -> bool {
        self.swaps.is_empty()
    }

    /// `true` when no actual interchange happens.
    pub fn is_identity(&self) -> bool {
        self.swaps.iter().enumerate().all(|(c, &r)| c == r as usize)
    }

    /// Applies the interchanges to a vector (in factorization order).
    pub fn apply_vec(&self, v: &mut [f64]) {
        for (c, &r) in self.swaps.iter().enumerate() {
            v.swap(c, r as usize);
        }
    }
}

/// Applies a pivot sequence to the rows of a matrix (in factorization
/// order) — LAPACK's `laswp`.
pub fn apply_row_swaps(m: &mut DenseMat, pivots: &Pivots) {
    for (c, &r) in pivots.swaps().iter().enumerate() {
        m.swap_rows(c, r as usize);
    }
}

/// Errors from panel factorization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PanelError {
    /// No usable pivot in this panel column (all candidates ~ 0): the matrix
    /// is numerically singular.
    Singular {
        /// Panel-local column index where elimination broke down.
        column: usize,
    },
    /// A NaN or infinity reached the pivot region of this column — either
    /// present in the input or produced by overflow during elimination.
    NonFinite {
        /// Panel-local column index where the non-finite value was found.
        column: usize,
    },
}

impl std::fmt::Display for PanelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PanelError::Singular { column } => {
                write!(f, "no nonzero pivot available in panel column {column}")
            }
            PanelError::NonFinite { column } => {
                write!(f, "non-finite value in panel column {column}")
            }
        }
    }
}

impl std::error::Error for PanelError {}

/// What the panel factorization does when a column offers no pivot above
/// the rejection threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PanelBreakdown {
    /// Fail with [`PanelError::Singular`] (the classic behaviour).
    Error,
    /// GESP-style static pivoting: replace the diagonal entry with
    /// `sign(d) · value` (a zero diagonal counts as positive), take it as
    /// the pivot without interchange, record the column, and continue.
    /// `value` is the perturbation magnitude — typically `ε · ‖A‖₁`,
    /// precomputed once by the caller; it must be finite and positive.
    Perturb {
        /// Replacement magnitude for the broken-down diagonal.
        value: f64,
    },
}

/// Pivot-selection policy for the panel factorization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PivotRule {
    /// Classic partial pivoting: the maximum-magnitude candidate wins.
    Partial,
    /// Threshold pivoting: keep the diagonal candidate whenever
    /// `|a_cc| ≥ τ · max |a_rc|` (0 < τ ≤ 1). Reduces interchanges — and
    /// therefore the pivot traffic every `Update` must replay — at a
    /// bounded cost in element growth (`≤ (1 + 1/τ)` per step).
    Threshold(f64),
    /// No interchanges at all ("static pivoting"): fail on a zero diagonal.
    Diagonal,
}

/// Factorizes an `m × w` panel (`m ≥ w`) in place with partial pivoting —
/// the oracle and benchmark convenience over
/// [`crate::Dispatch::lu_panel_into`] (baseline instantiation,
/// [`PivotRule::Partial`], [`PanelBreakdown::Error`]), which documents the
/// result.
pub fn lu_panel(panel: &mut DenseMat, pivot_threshold: f64) -> Result<Pivots, PanelError> {
    let slots = Pivots::slots(panel.ncols());
    crate::Dispatch::portable().lu_panel_into(
        panel.as_view_mut(),
        PivotRule::Partial,
        pivot_threshold,
        PanelBreakdown::Error,
        None,
        &slots,
    )?;
    Ok(Pivots::recorded(slots))
}

/// The panel LU source, generic over the tile height `MR` (see
/// [`crate::kernels`]): column strips of width [`SB`]. A strip is factored
/// unblocked — pivot search, interchange, scaling, rank-1 updates that stay
/// inside the strip — and then eliminated from every trailing column group
/// at once by [`strip`]: its `U` rows by substitution, all rows
/// below by one tile pass. Each element sees its `c ← fma(−l, u, c)` terms
/// in ascending column order, as in the unblocked algorithm.
#[inline(always)]
pub(crate) fn panel_lu<const MR: usize>(
    mut panel: MatMut<'_>,
    rule: PivotRule,
    pivot_threshold: f64,
    breakdown: PanelBreakdown,
    force_breakdown_at: Option<usize>,
    pivots: &[AtomicU32],
    perturbed: &mut Vec<(usize, f64)>,
) -> Result<(), PanelError> {
    let m = panel.nrows();
    let w = panel.ncols();
    assert!(m >= w, "panel must be at least as tall as wide");
    assert_eq!(pivots.len(), w, "one pivot slot per panel column");
    debug_assert!(u32::try_from(m).is_ok(), "panel rows fit the u32 pivots");
    if let PanelBreakdown::Perturb { value } = breakdown {
        assert!(
            value.is_finite() && value > 0.0,
            "perturbation magnitude must be finite and positive"
        );
    }
    for c0 in (0..w).step_by(SB) {
        let c1 = (c0 + SB).min(w);
        for c in c0..c1 {
            // Pivot search down column c. Magnitudes are compared as the
            // integers their bit patterns are (the same order for finite
            // values, and a reduction the compiler vectorizes), which also
            // ranks ∞ and every NaN above all finite values: one pass finds
            // the largest magnitude and whether the range is all finite.
            let col = panel.col(c);
            let magnitude = |x: f64| x.to_bits() & (u64::MAX >> 1);
            let top = col[c..].iter().fold(0, |top, &x| top.max(magnitude(x)));
            if top >= f64::INFINITY.to_bits() {
                return Err(PanelError::NonFinite { column: c });
            }
            let mut best = c + col[c..]
                .iter()
                .position(|&x| magnitude(x) == top)
                .expect("the maximum is attained");
            let mut best_abs = f64::from_bits(top);
            match rule {
                PivotRule::Partial => {}
                PivotRule::Threshold(tau) => {
                    debug_assert!((0.0..=1.0).contains(&tau), "threshold in (0, 1]");
                    if col[c].abs() >= tau * best_abs {
                        best = c;
                        best_abs = col[c].abs();
                    }
                }
                PivotRule::Diagonal => {
                    best = c;
                    best_abs = col[c].abs();
                }
            }
            if best_abs <= pivot_threshold || force_breakdown_at == Some(c) {
                match breakdown {
                    PanelBreakdown::Error => return Err(PanelError::Singular { column: c }),
                    PanelBreakdown::Perturb { value } => {
                        // Static pivoting: keep the diagonal position, replace
                        // its value by sign(d)·value (zero counts as positive).
                        let d = panel[(c, c)];
                        let sign = if d < 0.0 { -1.0 } else { 1.0 };
                        panel[(c, c)] = sign * value;
                        best = c;
                        perturbed.push((c, value));
                    }
                }
            }
            pivots[c].store(best as u32, Ordering::Relaxed);
            panel.swap_rows(c, best);
            // Scale multipliers.
            let diag = panel[(c, c)];
            for l in &mut panel.col_mut(c)[c + 1..] {
                *l /= diag;
            }
            // Rank-1 update of the strip's remaining columns.
            for j in c + 1..c1 {
                let s = panel[(c, j)];
                if s == 0.0 {
                    continue;
                }
                let (col_c, col_j) = panel.two_cols_mut(c, j);
                for r in c + 1..m {
                    col_j[r] = sub_term(col_j[r], col_c[r], s);
                }
            }
        }
        let (factored, mut trailing) = panel.split_at_col(c1);
        let factored = factored.rb();
        let quads = trailing.ncols() / NR * NR;
        for j in (0..quads).step_by(NR) {
            strip::<MR, NR, false>(factored, &mut trailing.cols_mut(j), c0, c1);
        }
        for j in quads..trailing.ncols() {
            strip::<MR, 1, false>(factored, &mut trailing.cols_mut(j), c0, c1);
        }
    }
    Ok(())
}

/// Full dense LU with partial pivoting, in place (`getrf`).
pub fn lu_full(a: &mut DenseMat) -> Result<Pivots, PanelError> {
    assert_eq!(a.nrows(), a.ncols(), "lu_full requires a square matrix");
    lu_panel(a, 0.0)
}

/// Solves `A x = b` given the in-place factorization from [`lu_full`]
/// (`getrs`): applies the interchanges, then unit-lower forward and upper
/// backward substitution. `b` is overwritten with the solution.
pub fn lu_solve(lu: &DenseMat, pivots: &Pivots, b: &mut [f64]) {
    let n = lu.nrows();
    assert_eq!(b.len(), n, "rhs length mismatch");
    pivots.apply_vec(b);
    // Forward: L y = Pb (unit diagonal).
    for k in 0..n {
        let s = b[k];
        if s != 0.0 {
            let col = lu.col(k);
            for i in k + 1..n {
                b[i] -= col[i] * s;
            }
        }
    }
    // Backward: U x = y.
    for k in (0..n).rev() {
        b[k] /= lu[(k, k)];
        let s = b[k];
        if s != 0.0 {
            let col = lu.col(k);
            for i in 0..k {
                b[i] -= col[i] * s;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn random_mat(r: usize, c: usize, rng: &mut SmallRng) -> DenseMat {
        DenseMat::from_fn(r, c, |_, _| rng.gen_range(-1.0..1.0))
    }

    /// [`crate::Dispatch::lu_panel_into`] on the baseline instantiation,
    /// into fresh slots: the pivots and the perturbed columns.
    fn lu_panel_into(
        panel: &mut DenseMat,
        rule: PivotRule,
        pivot_threshold: f64,
        breakdown: PanelBreakdown,
        force_breakdown_at: Option<usize>,
    ) -> Result<(Pivots, Vec<(usize, f64)>), PanelError> {
        let slots = Pivots::slots(panel.ncols());
        let perturbed = crate::Dispatch::portable().lu_panel_into(
            panel.as_view_mut(),
            rule,
            pivot_threshold,
            breakdown,
            force_breakdown_at,
            &slots,
        )?;
        Ok((Pivots::recorded(slots), perturbed))
    }

    /// The pivots under `rule`, zero threshold, [`PanelBreakdown::Error`].
    fn ruled(panel: &mut DenseMat, rule: PivotRule) -> Result<Pivots, PanelError> {
        lu_panel_into(panel, rule, 0.0, PanelBreakdown::Error, None).map(|out| out.0)
    }

    /// Reconstructs `P·A` from the in-place panel factorization and checks
    /// it equals `L·U`.
    fn check_panel(orig: &DenseMat, lu: &DenseMat, piv: &Pivots) {
        let m = orig.nrows();
        let w = orig.ncols();
        // P*orig
        let mut pa = orig.clone();
        apply_row_swaps(&mut pa, piv);
        // L (m×w trapezoid, unit diagonal) * U (w×w upper)
        let mut l = DenseMat::zeros(m, w);
        for j in 0..w {
            l[(j, j)] = 1.0;
            for i in j + 1..m {
                l[(i, j)] = lu[(i, j)];
            }
        }
        let mut u = DenseMat::zeros(w, w);
        for j in 0..w {
            for i in 0..=j {
                u[(i, j)] = lu[(i, j)];
            }
        }
        let prod = l.matmul(&u);
        for j in 0..w {
            for i in 0..m {
                assert!(
                    (prod[(i, j)] - pa[(i, j)]).abs() < 1e-10,
                    "PA != LU at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn panel_factorization_reconstructs() {
        let mut rng = SmallRng::seed_from_u64(10);
        for (m, w) in [(1, 1), (4, 4), (8, 3), (20, 20), (33, 7), (64, 16)] {
            let orig = random_mat(m, w, &mut rng);
            let mut lu = orig.clone();
            let piv = lu_panel(&mut lu, 0.0).expect("random panels are nonsingular");
            check_panel(&orig, &lu, &piv);
        }
    }

    #[test]
    fn pivoting_picks_largest_magnitude() {
        // First column is [1e-8, 5.0]: row 1 must be chosen.
        let mut a = DenseMat::from_col_major(2, 2, vec![1e-8, 5.0, 1.0, 2.0]);
        let piv = lu_panel(&mut a, 0.0).unwrap();
        assert_eq!(piv.swaps()[0], 1);
        assert!(!piv.is_identity());
    }

    #[test]
    fn singular_panel_reports_column() {
        let mut a = DenseMat::from_col_major(3, 2, vec![0.0, 0.0, 0.0, 1.0, 2.0, 3.0]);
        assert_eq!(
            lu_panel(&mut a, 0.0),
            Err(PanelError::Singular { column: 0 })
        );
        let e = PanelError::Singular { column: 0 };
        assert!(e.to_string().contains("column 0"));
    }

    #[test]
    fn full_lu_solve_residual_small() {
        let mut rng = SmallRng::seed_from_u64(20);
        for n in [1usize, 2, 5, 17, 50] {
            let a = random_mat(n, n, &mut rng);
            let x_true: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let b = a.matvec(&x_true);
            let mut lu = a.clone();
            let piv = lu_full(&mut lu).unwrap();
            let mut x = b.clone();
            lu_solve(&lu, &piv, &mut x);
            let err: f64 = x
                .iter()
                .zip(&x_true)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            assert!(err < 1e-8, "n={n}, err={err}");
        }
    }

    #[test]
    fn pivots_vector_application_and_permutation() {
        // swap sequence: step 0 ↔ row 2, step 1 ↔ row 1 (no-op).
        let piv = Pivots { swaps: vec![2, 1] };
        let mut v = vec![10.0, 20.0, 30.0];
        piv.apply_vec(&mut v);
        assert_eq!(v, vec![30.0, 20.0, 10.0]);
        assert!(Pivots::identity(2).is_identity());
        assert_eq!(piv.len(), 2);
        assert!(!piv.is_empty());
    }

    #[test]
    fn threshold_rule_keeps_acceptable_diagonals() {
        // Column [2.0, -3.0]: partial pivoting swaps; τ = 0.5 keeps the
        // diagonal (2 ≥ 0.5·3); τ = 0.9 swaps (2 < 0.9·3).
        let base = DenseMat::from_col_major(2, 2, vec![2.0, -3.0, 1.0, 1.0]);
        let mut a = base.clone();
        let p = ruled(&mut a, PivotRule::Threshold(0.5)).unwrap();
        assert!(p.is_identity(), "τ=0.5 must keep the diagonal");
        let mut b = base.clone();
        let p = ruled(&mut b, PivotRule::Threshold(0.9)).unwrap();
        assert_eq!(p.swaps()[0], 1, "τ=0.9 must swap");
        // Either way the factorization is exact.
        check_panel(&base, &a, &Pivots::identity(2));
    }

    #[test]
    fn diagonal_rule_never_swaps_and_fails_on_zero_diagonal() {
        let mut ok = DenseMat::from_col_major(2, 2, vec![1.0, 5.0, 2.0, 3.0]);
        let p = ruled(&mut ok, PivotRule::Diagonal).unwrap();
        assert!(p.is_identity());
        let mut bad = DenseMat::from_col_major(2, 2, vec![0.0, 5.0, 2.0, 3.0]);
        assert_eq!(
            ruled(&mut bad, PivotRule::Diagonal),
            Err(PanelError::Singular { column: 0 })
        );
    }

    #[test]
    fn threshold_one_equals_partial_pivoting() {
        let mut rng = SmallRng::seed_from_u64(9);
        let orig = random_mat(12, 6, &mut rng);
        let mut a = orig.clone();
        let pa = lu_panel(&mut a, 0.0).unwrap();
        let mut b = orig.clone();
        // τ = 1.0 only keeps the diagonal on exact ties; random data has
        // none, so the factorizations coincide.
        let pb = ruled(&mut b, PivotRule::Threshold(1.0)).unwrap();
        assert_eq!(pa, pb);
        assert_eq!(a.data(), b.data());
    }

    #[test]
    fn threshold_rejects_tiny_pivots() {
        let mut a = DenseMat::from_col_major(2, 2, vec![1e-30, 1e-31, 1.0, 1.0]);
        assert!(matches!(
            lu_panel(&mut a, 1e-20),
            Err(PanelError::Singular { column: 0 })
        ));
    }

    #[test]
    fn perturb_policy_completes_and_reports_columns() {
        // Column 0 has no candidate above the threshold; Perturb replaces
        // the diagonal by sign(d)·value and finishes.
        let mut a = DenseMat::from_col_major(2, 2, vec![-1e-30, 1e-31, 1.0, 2.0]);
        let (pivots, perturbed) = lu_panel_into(
            &mut a,
            PivotRule::Partial,
            1e-20,
            PanelBreakdown::Perturb { value: 0.5 },
            None,
        )
        .unwrap();
        assert_eq!(perturbed, vec![(0, 0.5)]);
        assert!(pivots.is_identity(), "perturbation never interchanges");
        assert_eq!(a[(0, 0)], -0.5, "sign of the tiny diagonal is kept");
        // The factorization continued: multiplier and trailing update exist.
        assert_eq!(a[(1, 0)], 1e-31 / -0.5);
        assert_eq!(a[(1, 1)], (-a[(1, 0)]).mul_add(1.0, 2.0));
    }

    #[test]
    fn perturb_policy_matches_error_policy_on_clean_panels() {
        let mut rng = SmallRng::seed_from_u64(42);
        let orig = random_mat(10, 5, &mut rng);
        let mut a = orig.clone();
        let pa = lu_panel(&mut a, 0.0).unwrap();
        let mut b = orig.clone();
        let (pivots, perturbed) = lu_panel_into(
            &mut b,
            PivotRule::Partial,
            0.0,
            PanelBreakdown::Perturb { value: 1e-8 },
            None,
        )
        .unwrap();
        assert!(perturbed.is_empty());
        assert_eq!(pa, pivots);
        assert_eq!(a.data(), b.data(), "clean panels must be untouched");
    }

    #[test]
    fn forced_breakdown_is_deterministic() {
        // A perfectly healthy column breaks down when forced — the
        // fault-injection hook used by the `failpoints` suite.
        let mut rng = SmallRng::seed_from_u64(77);
        let orig = random_mat(6, 3, &mut rng);
        let mut a = orig.clone();
        assert_eq!(
            lu_panel_into(
                &mut a,
                PivotRule::Partial,
                0.0,
                PanelBreakdown::Error,
                Some(1)
            ),
            Err(PanelError::Singular { column: 1 })
        );
        let mut b = orig.clone();
        let (_, perturbed) = lu_panel_into(
            &mut b,
            PivotRule::Partial,
            0.0,
            PanelBreakdown::Perturb { value: 1e-6 },
            Some(1),
        )
        .unwrap();
        assert_eq!(perturbed, vec![(1, 1e-6)]);
    }

    #[test]
    fn non_finite_pivot_region_is_rejected() {
        for poison in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut a = DenseMat::from_col_major(2, 2, vec![1.0, poison, 1.0, 2.0]);
            let err = lu_panel_into(
                &mut a,
                PivotRule::Partial,
                0.0,
                PanelBreakdown::Perturb { value: 1.0 },
                None,
            )
            .unwrap_err();
            assert_eq!(err, PanelError::NonFinite { column: 0 });
            assert!(err.to_string().contains("non-finite"));
        }
        // A NaN produced mid-elimination surfaces at the column it reaches.
        let mut a = DenseMat::from_col_major(2, 2, vec![1.0, 1.0, 1.0, f64::NAN]);
        assert_eq!(
            lu_panel(&mut a, 0.0),
            Err(PanelError::NonFinite { column: 1 })
        );
    }
}
