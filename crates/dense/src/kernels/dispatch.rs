//! Kernel selection: a [`KernelChoice`] names a policy, a [`Dispatch`] is
//! the resolved instantiation the numeric phase calls through.
//!
//! There is one kernel source (`super::tile` and the panel LU in
//! `crate::lu`), generic over the register-tile height `MR`. This module
//! compiles it once per instruction set — baseline (`MR = 4`), AVX2
//! (`MR = 8`) and AVX-512F (`MR = 16`) on x86_64 — by inlining it into one
//! `#[target_feature]` entry function each, and [`Dispatch::resolve`]
//! picks the widest one the CPU reports. The sparse driver resolves once
//! per factorization and hands the same `Dispatch` to every `Factor` and
//! `Update` task. All instantiations run the same per-element operation
//! sequence (see `super::tile`), so factors are bit-for-bit independent
//! of the choice.

use super::tile;
use crate::lu::{panel_lu, PanelBreakdown, PanelError, PivotRule};
use crate::view::{MatMut, MatRef};
use std::sync::atomic::AtomicU32;

/// Which dense kernel instantiation the numeric phase uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelChoice {
    /// The widest instantiation the host CPU supports (the default).
    #[default]
    Auto,
    /// The baseline instantiation, which needs no CPU feature beyond the
    /// compilation target's: the reference the bitwise suites compare
    /// every other instantiation against.
    Portable,
}

/// One instantiation of the kernel source.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Isa {
    Baseline,
    #[cfg(target_arch = "x86_64")]
    Avx2,
    #[cfg(target_arch = "x86_64")]
    Avx512f,
}

impl Isa {
    /// Every instantiation compiled in, narrowest first.
    const ALL: &'static [Isa] = &[
        Isa::Baseline,
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2,
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512f,
    ];

    /// Whether the running CPU has what this instantiation was compiled for.
    fn detected(self) -> bool {
        match self {
            Isa::Baseline => true,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512f => std::arch::is_x86_feature_detected!("avx512f"),
        }
    }
}

/// One kernel call, so that each instruction set needs a single entry
/// point (and the crate a single `unsafe` call per instruction set).
enum Op<'a> {
    GemmSub(MatMut<'a>, MatRef<'a>, MatRef<'a>),
    TrsmLowerUnit(MatRef<'a>, MatMut<'a>),
    TrsmUpper(MatRef<'a>, MatMut<'a>),
    PanelLu {
        panel: MatMut<'a>,
        rule: PivotRule,
        pivot_threshold: f64,
        breakdown: PanelBreakdown,
        force_breakdown_at: Option<usize>,
        pivots: &'a [AtomicU32],
        perturbed: &'a mut Vec<(usize, f64)>,
    },
}

/// Runs `op` with `MR`-row tiles. Only the panel LU can fail.
#[inline(always)]
fn run<const MR: usize>(op: Op<'_>) -> Result<(), PanelError> {
    match op {
        Op::GemmSub(c, a, b) => tile::gemm_sub::<MR>(c, a, b),
        Op::TrsmLowerUnit(l, x) => tile::trsm_lower_unit::<MR>(l, x),
        Op::TrsmUpper(u, x) => tile::trsm_upper::<MR>(u, x),
        Op::PanelLu {
            panel,
            rule,
            pivot_threshold,
            breakdown,
            force_breakdown_at,
            pivots,
            perturbed,
        } => {
            return panel_lu::<MR>(
                panel,
                rule,
                pivot_threshold,
                breakdown,
                force_breakdown_at,
                pivots,
                perturbed,
            )
        }
    }
    Ok(())
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn run_avx2(op: Op<'_>) -> Result<(), PanelError> {
    run::<8>(op)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn run_avx512f(op: Op<'_>) -> Result<(), PanelError> {
    run::<16>(op)
}

/// The resolved kernel instantiation. Copy it around freely.
///
/// The field is private and only [`Dispatch::portable`] and the CPU probe
/// behind [`Dispatch::available`] / [`Dispatch::resolve`] set it: a
/// `Dispatch` is the proof that the CPU can run its instantiation.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Dispatch {
    isa: Isa,
}

impl Dispatch {
    /// The baseline instantiation ([`KernelChoice::Portable`]).
    pub const fn portable() -> Self {
        Dispatch { isa: Isa::Baseline }
    }

    /// The instantiations this CPU can run, narrowest first (the first is
    /// always [`Dispatch::portable`]). Probes the CPU.
    fn detected() -> impl DoubleEndedIterator<Item = Self> {
        Isa::ALL
            .iter()
            .filter(|isa| isa.detected())
            .map(|&isa| Dispatch { isa })
    }

    /// Every instantiation this CPU can run, narrowest first (the first is
    /// always [`Dispatch::portable`]).
    pub fn available() -> Vec<Self> {
        Self::detected().collect()
    }

    /// Resolves a [`KernelChoice`], probing the CPU once per call — do this
    /// once per factorization, not per task. Does not allocate.
    pub fn resolve(choice: KernelChoice) -> Self {
        match choice {
            KernelChoice::Portable => Self::portable(),
            KernelChoice::Auto => Self::detected()
                .next_back()
                .expect("the baseline is always detected"),
        }
    }

    /// Instantiation name: `"baseline"`, `"avx2"` or `"avx512f"` — recorded
    /// in run reports and benchmark artifacts.
    pub fn name(&self) -> &'static str {
        match self.isa {
            Isa::Baseline => "baseline",
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => "avx2",
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512f => "avx512f",
        }
    }

    #[inline]
    fn run(&self, op: Op<'_>) -> Result<(), PanelError> {
        match self.isa {
            Isa::Baseline => run::<4>(op),
            // SAFETY: a `Dispatch` other than the baseline is only ever
            // built by `detected`, in this module, after
            // `is_x86_feature_detected!` reported the very feature the entry
            // was compiled for, and a running CPU does not lose features.
            #[cfg(target_arch = "x86_64")]
            #[allow(unsafe_code)]
            Isa::Avx2 => unsafe { run_avx2(op) },
            // SAFETY: as above, for `avx512f`.
            #[cfg(target_arch = "x86_64")]
            #[allow(unsafe_code)]
            Isa::Avx512f => unsafe { run_avx512f(op) },
        }
    }

    /// `C ← C − A · B` on strided views, through the selected instantiation.
    ///
    /// The supernodal update kernel: `B̄(i, j) ← B̄(i, j) − L(i, k) · Ū(k, j)`,
    /// where `L(i, k)` is typically a row range of column `k`'s stacked panel.
    ///
    /// # The bitwise-equivalence contract
    ///
    /// For each element `C(i, j)` the sequence of IEEE-754 operations is fixed:
    /// one `c ← c − a·s` (round(mul) then round(sub), never fused) per inner
    /// index `k`, in ascending `k`, skipping exactly the `k` whose scalars
    /// `B(k, ·)` over the element's column group are all zero. Column groups
    /// are the aligned quads `4q..4q + 4` and, past the last full quad, single
    /// columns. Which registers hold `c` between two steps, how many rows a
    /// tile covers and which instruction set the loop was compiled for only
    /// regroup *independent* element streams, so every instantiation — and the
    /// axpy-shaped kernel this replaced — produces **bitwise identical**
    /// results. That is what keeps factors independent of the selected
    /// kernels, lets the determinism property tests double as cross-kernel
    /// equivalence tests, and is asserted by `proptest_kernel_equivalence` on
    /// ragged shapes.
    ///
    /// The triangular solves and the panel LU apply the same rule to the rows
    /// they update by tile (everything outside the current strip of
    /// `tile::SB` columns); inside a strip they skip per column, on that
    /// column's own scalar.
    #[inline]
    pub fn gemm_sub(&self, c: MatMut<'_>, a: MatRef<'_>, b: MatRef<'_>) {
        let done = self.run(Op::GemmSub(c, a, b));
        debug_assert!(done.is_ok());
    }

    /// `X ← L⁻¹ · X` where `L` is **unit** lower triangular (strict lower
    /// part of `l` is read; the diagonal is taken as 1, the upper part
    /// ignored), on strided views, through the selected instantiation.
    ///
    /// Used to turn a factored diagonal block into the `Ū` row blocks:
    /// `Ū(k, j) = L(k, k)⁻¹ B̄(k, j)` — with `L(k, k)` read straight from the
    /// top of column `k`'s stacked panel.
    #[inline]
    pub fn trsm_lower_unit(&self, l: MatRef<'_>, x: MatMut<'_>) {
        let done = self.run(Op::TrsmLowerUnit(l, x));
        debug_assert!(done.is_ok());
    }

    /// `X ← U⁻¹ · X` where `U` is upper triangular with a nonzero diagonal
    /// (strict lower part of `u` is ignored), on strided views, through the
    /// selected instantiation.
    #[inline]
    pub fn trsm_upper(&self, u: MatRef<'_>, x: MatMut<'_>) {
        let done = self.run(Op::TrsmUpper(u, x));
        debug_assert!(done.is_ok());
    }

    /// Factorizes an `m × w` panel (`m ≥ w`) in place through the selected
    /// instantiation, recording into caller-provided storage.
    ///
    /// On return the strict lower trapezoid holds the multipliers `L` (unit
    /// diagonal implicit) and the upper `w × w` triangle holds `U`. The pivot
    /// rows are chosen by `rule` over **all** panel rows `c..m` — in the
    /// sparse driver those are exactly the candidate pivot rows of the static
    /// symbolic factorization, so any choice stays inside the static
    /// structure.
    ///
    /// A column whose chosen candidate falls at or below `pivot_threshold`
    /// fails with [`PanelError::Singular`] under [`PanelBreakdown::Error`];
    /// under [`PanelBreakdown::Perturb`] its diagonal is replaced by
    /// `sign(d) · value`, elimination continues, and the column is reported
    /// in the returned list, as `(panel-local column, magnitude)` — empty,
    /// and unallocated, on a breakdown-free factorization. Any NaN/∞ in a
    /// column's pivot region fails with [`PanelError::NonFinite`] under
    /// either policy.
    ///
    /// `force_breakdown_at` is a deterministic fault-injection hook for the
    /// robustness test-suite: the named panel-local column is treated as if
    /// its best candidate fell below the threshold, regardless of the actual
    /// values. Production callers pass `None`.
    ///
    /// Step `c` records the panel row it exchanged row `c` with in
    /// `pivots[c]` (one slot per panel column, the [`crate::Pivots`]
    /// representation), by a relaxed store: the slots may be part of an
    /// array other threads read, and the caller orders those reads — the
    /// sparse driver writes them under the column's write lock. On error
    /// the slots' contents are unspecified.
    pub fn lu_panel_into(
        &self,
        panel: MatMut<'_>,
        rule: PivotRule,
        pivot_threshold: f64,
        breakdown: PanelBreakdown,
        force_breakdown_at: Option<usize>,
        pivots: &[AtomicU32],
    ) -> Result<Vec<(usize, f64)>, PanelError> {
        let mut perturbed = Vec::new();
        self.run(Op::PanelLu {
            panel,
            rule,
            pivot_threshold,
            breakdown,
            force_breakdown_at,
            pivots,
            perturbed: &mut perturbed,
        })?;
        Ok(perturbed)
    }
}

impl Default for Dispatch {
    fn default() -> Self {
        Self::portable()
    }
}

impl std::fmt::Debug for Dispatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dispatch")
            .field("name", &self.name())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn portable_is_the_baseline_and_auto_is_the_widest_available() {
        assert_eq!(Dispatch::resolve(KernelChoice::Portable).name(), "baseline");
        assert_eq!(Dispatch::default(), Dispatch::portable());
        assert_eq!(KernelChoice::default(), KernelChoice::Auto);
        let all = Dispatch::available();
        assert_eq!(all[0], Dispatch::portable());
        assert_eq!(
            Dispatch::resolve(KernelChoice::Auto),
            *all.last().expect("baseline is always available")
        );
    }
}
