//! Deterministic fault-injection points for the robustness test harness.
//!
//! Compiled only under the test-only `failpoints` cargo feature. A test
//! arms one [`FailScenario`] at a time (a process-wide lock serializes
//! scenarios, so `cargo test`'s default parallelism cannot interleave
//! them), sets the injection knobs, runs a factorization, and the guard
//! resets every knob on drop — panicking test bodies included.
//!
//! Four injection points exist, all keyed deterministically so a fault
//! fires at the same place on every thread count and mapping:
//!
//! * [`FailScenario::panic_at_factor`] — the `Factor(k)` task body panics
//!   before touching the panel, exercising the executors' panic
//!   containment ([`crate::LuError::WorkerPanic`]);
//! * [`FailScenario::force_breakdown_at`] — the pivot search at one global
//!   column behaves as if every candidate were below the threshold,
//!   exercising the breakdown policy
//!   ([`crate::BreakdownPolicy`]);
//! * [`FailScenario::stall_at_factor`] — the `Factor(k)` task body parks
//!   (sleep-loops) until the run is cancelled or fails, simulating a hung
//!   worker for the liveness watchdog ([`crate::LuError::Stalled`]). The
//!   stall is cooperative: the watchdog's abort cancels the run token,
//!   which releases the parked task so the run drains instead of leaking
//!   a thread;
//! * [`FailScenario::cancel_during_symbolic`] — the analysis driver
//!   cancels the run token between the skeleton and the block lists,
//!   exercising cancel-during-symbolic in the front half
//!   ([`crate::analyze_with`]).
//!
//! The scenario lock is a `parking_lot`-style mutex that **never
//! poisons**: a test that panics while holding a scenario (the panic
//! containment tests do this on purpose, on worker threads) must not
//! poison the lock and cascade spurious failures into every later
//! scenario. `tests/failpoints.rs` carries a regression test for exactly
//! that.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Duration;

/// Sentinel for "injection point disarmed".
const OFF: usize = usize::MAX;

static SCENARIO_LOCK: Mutex<()> = Mutex::new(());
static PANIC_AT_FACTOR: AtomicUsize = AtomicUsize::new(OFF);
static FORCE_BREAKDOWN_AT: AtomicUsize = AtomicUsize::new(OFF);
static STALL_AT_FACTOR: AtomicUsize = AtomicUsize::new(OFF);
static CANCEL_DURING_SYMBOLIC: AtomicBool = AtomicBool::new(false);

fn reset() {
    PANIC_AT_FACTOR.store(OFF, Ordering::SeqCst);
    FORCE_BREAKDOWN_AT.store(OFF, Ordering::SeqCst);
    STALL_AT_FACTOR.store(OFF, Ordering::SeqCst);
    CANCEL_DURING_SYMBOLIC.store(false, Ordering::SeqCst);
}

/// RAII guard over one fault-injection scenario: creation takes the
/// process-wide scenario lock and clears every knob; drop clears them
/// again, so a panicking test cannot leak an armed failpoint into the
/// next one.
pub struct FailScenario {
    _guard: parking_lot::MutexGuard<'static, ()>,
}

impl FailScenario {
    /// Starts a clean scenario (all injection points disarmed), blocking
    /// until any other live scenario is dropped.
    pub fn new() -> Self {
        let guard = SCENARIO_LOCK.lock();
        reset();
        FailScenario { _guard: guard }
    }

    /// Arms a panic inside the `Factor(k)` task body for block column `k`.
    pub fn panic_at_factor(&self, k: usize) {
        PANIC_AT_FACTOR.store(k, Ordering::SeqCst);
    }

    /// Forces the pivot search at **global** column `col` to report no
    /// acceptable pivot, as if every candidate were below the threshold.
    pub fn force_breakdown_at(&self, col: usize) {
        FORCE_BREAKDOWN_AT.store(col, Ordering::SeqCst);
    }

    /// Arms an indefinite cooperative stall inside the `Factor(k)` task
    /// body for block column `k`: the task sleep-loops until the run is
    /// cancelled or another failure aborts it. Pair with a watchdog (or a
    /// cancellation) so the run can drain.
    pub fn stall_at_factor(&self, k: usize) {
        STALL_AT_FACTOR.store(k, Ordering::SeqCst);
    }

    /// Arms a cancellation of the run token inside the analysis, after
    /// the skeleton pass and before the block lists are built: the budget
    /// trips with the symbolic phases half done, deterministically.
    pub fn cancel_during_symbolic(&self) {
        CANCEL_DURING_SYMBOLIC.store(true, Ordering::SeqCst);
    }
}

impl Default for FailScenario {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for FailScenario {
    fn drop(&mut self) {
        reset();
    }
}

/// Checked by the `Factor(k)` task body: panics if this block column is
/// the armed injection target.
pub(crate) fn maybe_panic_factor(k: usize) {
    if PANIC_AT_FACTOR.load(Ordering::SeqCst) == k {
        panic!("failpoint: injected panic in Factor({k})");
    }
}

/// The armed forced-breakdown global column, if any.
pub(crate) fn forced_breakdown_column() -> Option<usize> {
    let v = FORCE_BREAKDOWN_AT.load(Ordering::SeqCst);
    (v != OFF).then_some(v)
}

/// Checked by the analysis driver at the checkpoint between the skeleton
/// and the block lists: cancels the run token when armed. The knob is
/// cleared on firing so retries (or the next scenario) see it disarmed.
pub(crate) fn maybe_cancel_symbolic(token: Option<&crate::CancelToken>) {
    if CANCEL_DURING_SYMBOLIC.swap(false, Ordering::SeqCst) {
        if let Some(t) = token {
            t.cancel();
        }
    }
}

/// Checked by the `Factor(k)` task body: if this block column is the armed
/// stall target, sleep-loop until `release` reports the run is being torn
/// down (token cancelled, abort latched, or another task failed). The knob
/// is cleared on entry so a retry of the same column (or the next
/// scenario) is not re-stalled.
pub(crate) fn maybe_stall_factor(k: usize, release: &dyn Fn() -> bool) {
    if STALL_AT_FACTOR
        .compare_exchange(k, OFF, Ordering::SeqCst, Ordering::SeqCst)
        .is_ok()
    {
        while !release() {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}
