//! Kernel selection: a [`KernelChoice`] names a policy, a [`Dispatch`] is
//! the resolved instantiation the numeric phase calls through.
//!
//! There is one kernel source (`super::tile` and the panel LU in
//! `crate::lu`), generic over the register-tile height `MR`. This module
//! compiles it once per instruction set — baseline (`MR = 4`), AVX2 with
//! FMA (`MR = 8`) and AVX-512F with FMA (`MR = 16`) on x86_64 — by inlining
//! it into one `#[target_feature]` entry function each, and
//! [`Dispatch::resolve`] picks the widest one the CPU reports (the wide
//! ones only where the CPU also has `fma`). The sparse driver resolves once
//! per factorization and hands the same `Dispatch` to every `Factor` and
//! `Update` task, and a session's solves run their sweeps through it
//! ([`Dispatch::sweep`]). All instantiations run the same per-element
//! operation sequence, one fused multiply-add per term (see `super::tile`),
//! so factors and solutions are bit-for-bit independent of the choice.

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
            Isa::Avx2 => {
                std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("fma")
            }
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512f => {
                std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("fma")
            }
        }
    }
}

/// One kernel call, holding its arguments. Each instruction set has one
/// generic entry point, instantiated per call type (and the crate a single
/// `unsafe` call per instruction set), so a small call does not pay for the
/// frame of a large one.
trait Kernel {
    type Out;
    /// Runs the call with `MR`-row tiles.
    fn call<const MR: usize>(self) -> Self::Out;
}

struct GemmSub<'a>(MatMut<'a>, MatRef<'a>, MatRef<'a>);
struct TrsmLowerUnit<'a>(MatRef<'a>, MatMut<'a>);
struct TrsmUpper<'a>(MatRef<'a>, MatMut<'a>);
/// A caller's computation over [`Fused`] steps ([`Dispatch::sweep`]).
struct Sweep<F>(F);
struct PanelLu<'a> {
    panel: MatMut<'a>,
    rule: PivotRule,
    pivot_threshold: f64,
    breakdown: PanelBreakdown,
    force_breakdown_at: Option<usize>,
    pivots: &'a [AtomicU32],
    perturbed: &'a mut Vec<(usize, f64)>,
}

impl Kernel for GemmSub<'_> {
    type Out = ();
    #[inline(always)]
    fn call<const MR: usize>(self) {
        tile::gemm_sub::<MR>(self.0, self.1, self.2)
    }
}

impl Kernel for TrsmLowerUnit<'_> {
    type Out = ();
    #[inline(always)]
    fn call<const MR: usize>(self) {
        tile::trsm::<MR, false>(self.0, self.1)
    }
}

impl Kernel for TrsmUpper<'_> {
    type Out = ();
    #[inline(always)]
    fn call<const MR: usize>(self) {
        tile::trsm::<MR, true>(self.0, self.1)
    }
}

impl<R, F: FnOnce(&Fused) -> R> Kernel for Sweep<F> {
    type Out = R;
    #[inline(always)]
    fn call<const MR: usize>(self) -> R {
        (self.0)(&Fused(()))
    }
}

impl Kernel for PanelLu<'_> {
    type Out = Result<(), PanelError>;
    #[inline(always)]
    fn call<const MR: usize>(self) -> Self::Out {
        panel_lu::<MR>(
            self.panel,
            self.rule,
            self.pivot_threshold,
            self.breakdown,
            self.force_breakdown_at,
            self.pivots,
            self.perturbed,
        )
    }
}

/// Kept out of line like the other entries, so that no call site holds a
/// copy of a kernel.
#[inline(never)]
fn run_baseline<K: Kernel>(k: K) -> K::Out {
    k.call::<4>()
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn run_avx2<K: Kernel>(k: K) -> K::Out {
    k.call::<8>()
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,fma")]
fn run_avx512f<K: Kernel>(k: K) -> K::Out {
    k.call::<16>()
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
    fn run<K: Kernel>(&self, k: K) -> K::Out {
        match self.isa {
            Isa::Baseline => run_baseline(k),
            // SAFETY: a `Dispatch` other than the baseline is only ever
            // built by `detected`, in this module, after
            // `is_x86_feature_detected!` reported the very features the
            // entry was compiled for, and a running CPU does not lose them.
            #[cfg(target_arch = "x86_64")]
            #[allow(unsafe_code)]
            Isa::Avx2 => unsafe { run_avx2(k) },
            // SAFETY: as above, for `avx512f` and `fma`.
            #[cfg(target_arch = "x86_64")]
            #[allow(unsafe_code)]
            Isa::Avx512f => unsafe { run_avx512f(k) },
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
    /// one fused multiply-add `c ← fma(−a, s, c)` (the exact `c − a·s`,
    /// rounded once) per inner index `k`, in ascending `k`, skipping exactly
    /// the `k` whose scalars `B(k, ·)` over the element's column group are all
    /// zero. Column groups are the aligned quads `4q..4q + 4` and, past the
    /// last full quad, single columns. Which registers hold `c` between two
    /// steps, how many rows a tile covers and which instruction set the loop
    /// was compiled for only regroup *independent* element streams, and a
    /// fused multiply-add has one correctly rounded result whether it is one
    /// instruction (the AVX2 and AVX-512F entries are compiled and detected
    /// with `fma`) or the C library's `fma` (the baseline, through
    /// `f64::mul_add`, about 14× slower on x86_64 and still the oracle). So
    /// every instantiation — and the axpy-shaped kernel this replaced, with
    /// the same fused step — produces **bitwise identical** results. That is
    /// what keeps factors independent of the selected kernels, lets the
    /// determinism property tests double as cross-kernel equivalence tests,
    /// and is asserted by `proptest_kernel_equivalence` on ragged shapes.
    ///
    /// The triangular solves and the panel LU apply the same rule to the rows
    /// they update by tile (everything outside the current strip of
    /// `tile::SB` columns); inside a strip they skip per column, on that
    /// column's own scalar. The strip is substituted in registers by one
    /// unrolled body per strip width, which skips by select — a zero scalar
    /// keeps the element's old value, never `fma(−a, 0, c)`, whose sign of
    /// zero (or NaN, for a non-finite `a`) can differ from `c`.
    #[inline]
    pub fn gemm_sub(&self, c: MatMut<'_>, a: MatRef<'_>, b: MatRef<'_>) {
        self.run(GemmSub(c, a, b));
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
        self.run(TrsmLowerUnit(l, x));
    }

    /// `X ← U⁻¹ · X` where `U` is upper triangular with a nonzero diagonal
    /// (strict lower part of `u` is ignored), on strided views, through the
    /// selected instantiation.
    #[inline]
    pub fn trsm_upper(&self, u: MatRef<'_>, x: MatMut<'_>) {
        self.run(TrsmUpper(u, x));
    }

    /// Runs `sweep` inside the selected instantiation: the one-column steps
    /// it takes through its [`Fused`] handle compile for that instruction
    /// set, inlined with the caller's loop around them, so a sweep of many
    /// small steps pays for one dispatch. For that the closure must be
    /// inlined into the entry — mark it `#[inline(always)]`, and any helper
    /// it calls too; code that is not still gives the same bits, through
    /// the C library's `fma`, only slower.
    #[inline]
    pub fn sweep<R>(&self, sweep: impl FnOnce(&Fused) -> R) -> R {
        self.run(Sweep(sweep))
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
        self.run(PanelLu {
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

/// The one-column steps of a triangular solve, each bit for bit one
/// column of the matrix kernel named, and a dot product, for
/// [`Dispatch::sweep`] to run in its instantiation. Only a sweep hands one
/// out.
pub struct Fused(());

impl Fused {
    /// `x ← L⁻¹ · x` on the unit-lower top `w × w` of `panel`
    /// (`w = x.len()`), then `y ← −L_below · x` for the next `y.len()` rows:
    /// [`Dispatch::trsm_lower_unit`] on `x` followed by
    /// [`Dispatch::gemm_sub`] into a zeroed `y`, in one pass over the panel.
    #[inline(always)]
    pub fn forward_column(&self, panel: MatRef<'_>, x: &mut [f64], y: &mut [f64]) {
        tile::forward_column(panel, x, y)
    }

    /// `x ← U⁻¹ · x` on the upper triangular top `w × w` of `panel`
    /// (`w = x.len()`): [`Dispatch::trsm_upper`] on one column.
    #[inline(always)]
    pub fn backward_column(&self, panel: MatRef<'_>, x: &mut [f64]) {
        tile::backward_column(panel, x)
    }

    /// `y ← y − A · x`, `x` given as its entries in order (a gather, say):
    /// [`Dispatch::gemm_sub`] on one column.
    #[inline(always)]
    pub fn gemv_sub(&self, y: &mut [f64], a: MatRef<'_>, x: impl ExactSizeIterator<Item = f64>) {
        tile::gemv_sub(y, a, x)
    }

    /// `Σ_r a[r]·x[r]` (`a` and `x` of one length) in eight independent
    /// accumulators: term `r` is one fused multiply-add into lane `r mod 8`,
    /// every lane starting at `+0`; then lane `l` is added to lane `l + 4`,
    /// and those four sums `m` combine as `(m0 + m2) + (m1 + m3)`. No term
    /// is skipped, so the bits depend on where each term sits, not only on
    /// the nonzero ones. The baseline gets the same bits through
    /// `f64::mul_add`. The transposed solve's steps are all dots
    /// (`splu_core::solve_transposed_permuted_with`).
    #[inline(always)]
    pub fn dot(&self, a: &[f64], x: &[f64]) -> f64 {
        tile::dot(a, x)
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
