//! The executor's hand-rolled synchronization primitives, extracted so
//! they can be model-checked.
//!
//! Everything the worker loop in `crate::executor` synchronizes through
//! lives here: the sleep [`Gate`] (park/notify with the no-lost-wakeup
//! protocol), the [`Countdown`] of unretired tasks, and the [`AbortFlag`].
//! The module is public so the loom harness (`tests/loom.rs`, built with
//! `RUSTFLAGS="--cfg loom"`) can drive the same types the production
//! executor uses.
//!
//! Under `cfg(loom)` the [`Mutex`]/[`Condvar`]/atomic backends swap from
//! `parking_lot`/`std` to the `loom` instrumented types, so every
//! synchronization operation becomes a model-checker schedule point; the
//! shim re-exposes parking_lot's ergonomics (guards without poison
//! results) either way, so the executor code is identical under both
//! configurations.

#[cfg(not(loom))]
pub use parking_lot::{Condvar, Mutex, MutexGuard};
#[cfg(not(loom))]
pub use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};

#[cfg(loom)]
pub use loom::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
#[cfg(loom)]
pub use loom_shim::{Condvar, Mutex, MutexGuard};

/// parking_lot-style wrappers over the `loom` instrumented primitives:
/// `lock()` returns the guard directly and `wait` takes `&mut guard`, so
/// the executor source is byte-identical under `cfg(loom)`.
#[cfg(loom)]
mod loom_shim {
    use std::ops::{Deref, DerefMut};

    /// Instrumented mutex with parking_lot ergonomics.
    #[derive(Debug, Default)]
    pub struct Mutex<T: ?Sized>(loom::sync::Mutex<T>);

    /// RAII guard of [`Mutex`]; holds an `Option` so [`Condvar::wait`] can
    /// move the inner guard out and back without unsafe code.
    #[derive(Debug)]
    pub struct MutexGuard<'a, T: ?Sized>(Option<loom::sync::MutexGuard<'a, T>>);

    impl<T> Mutex<T> {
        /// Creates a mutex protecting `value`.
        pub fn new(value: T) -> Self {
            Mutex(loom::sync::Mutex::new(value))
        }

        /// Consumes the mutex, returning the protected value.
        pub fn into_inner(self) -> T {
            self.0.into_inner().unwrap_or_else(|e| e.into_inner())
        }
    }

    impl<T: ?Sized> Mutex<T> {
        /// Acquires the lock, blocking the current thread.
        pub fn lock(&self) -> MutexGuard<'_, T> {
            MutexGuard(Some(self.0.lock().unwrap_or_else(|e| e.into_inner())))
        }
    }

    impl<T: ?Sized> Deref for MutexGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            self.0.as_deref().expect("guard present outside wait")
        }
    }

    impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            self.0.as_deref_mut().expect("guard present outside wait")
        }
    }

    /// Instrumented condition variable compatible with [`Mutex`].
    #[derive(Debug, Default)]
    pub struct Condvar(loom::sync::Condvar);

    impl Condvar {
        /// Creates a condition variable.
        pub fn new() -> Self {
            Condvar(loom::sync::Condvar::new())
        }

        /// Blocks until notified, releasing `guard`'s mutex while parked.
        pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
            let inner = guard.0.take().expect("guard present before wait");
            let inner = self.0.wait(inner).unwrap_or_else(|e| e.into_inner());
            guard.0 = Some(inner);
        }

        /// Blocks until notified or `timeout` elapses (the one caller
        /// re-checks its condition either way).
        pub fn wait_for<T>(&self, guard: &mut MutexGuard<'_, T>, timeout: std::time::Duration) {
            let inner = guard.0.take().expect("guard present before wait");
            let (inner, _timed_out) = self
                .0
                .wait_timeout(inner, timeout)
                .unwrap_or_else(|e| e.into_inner());
            guard.0 = Some(inner);
        }

        /// Wakes one parked waiter.
        pub fn notify_one(&self) {
            self.0.notify_one();
        }

        /// Wakes every parked waiter.
        pub fn notify_all(&self) {
            self.0.notify_all();
        }
    }
}

/// What [`Gate::park_if`] decided under the gate lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Park {
    /// The run is over (all tasks retired, or aborted): exit the worker.
    Exit,
    /// Work appeared between the last pool scan and taking the gate lock:
    /// retry acquisition without waiting.
    Retry,
    /// The worker parked and has been woken: re-scan for work.
    Waited,
}

/// Sleep gate: pushers notify **under the gate lock**, parkers re-check
/// both termination and work availability under that same lock before
/// waiting.
///
/// The no-lost-wakeup argument: a pusher that makes work available
/// acquires the gate lock before notifying, so its notify cannot fall
/// into the window between a parker's emptiness re-check (done under the
/// lock, via [`Gate::park_if`]'s `has_work` closure) and its wait — the
/// pusher either notifies before the parker locks (and the parker's
/// re-check then sees the work) or after the parker waits (and the wait
/// receives the notify). The same protocol covers shutdown: the
/// last-retire and abort broadcasts go through [`Gate::notify_all`],
/// which also locks first, and parkers re-check `should_exit` under the
/// lock. This is the invariant the loom harness model-checks.
#[derive(Debug, Default)]
pub struct Gate {
    lock: Mutex<()>,
    cv: Condvar,
}

impl Gate {
    /// Creates a gate.
    pub fn new() -> Self {
        Gate {
            lock: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    /// Wakes one parked worker (locking first — see the type docs).
    pub fn notify_one(&self) {
        let _guard = self.lock.lock();
        self.cv.notify_one();
    }

    /// Wakes every parked worker (locking first — see the type docs).
    pub fn notify_all(&self) {
        let _guard = self.lock.lock();
        self.cv.notify_all();
    }

    /// The park protocol: under the gate lock, first consult
    /// `should_exit`, then `has_work`; park only when the run is live and
    /// no work is visible. Both closures are evaluated while the lock is
    /// held, which is what makes the decision atomic against pushers.
    pub fn park_if<E, W>(&self, should_exit: E, has_work: W) -> Park
    where
        E: FnOnce() -> bool,
        W: FnOnce() -> bool,
    {
        let mut guard = self.lock.lock();
        if should_exit() {
            return Park::Exit;
        }
        if has_work() {
            return Park::Retry;
        }
        self.cv.wait(&mut guard);
        Park::Waited
    }
}

/// Count of unretired tasks; the retire path's `started == retired`
/// accounting hinges on [`Countdown::retire`] returning `true` exactly
/// once, for the last task.
#[derive(Debug)]
pub struct Countdown(AtomicUsize);

impl Countdown {
    /// Starts the countdown at `n` unretired tasks.
    pub fn new(n: usize) -> Self {
        Countdown(AtomicUsize::new(n))
    }

    /// Retires one task; `true` exactly for the last retirement.
    pub fn retire(&self) -> bool {
        self.0.fetch_sub(1, Ordering::AcqRel) == 1
    }

    /// Tasks not yet retired.
    pub fn remaining(&self) -> usize {
        self.0.load(Ordering::Acquire)
    }

    /// `true` once every task has retired.
    pub fn is_done(&self) -> bool {
        self.remaining() == 0
    }
}

/// One-way abort latch: set once (panic, cancellation, deadline, stall),
/// observed by every worker at its next task boundary.
#[derive(Debug, Default)]
pub struct AbortFlag(AtomicBool);

impl AbortFlag {
    /// Creates an unset flag.
    pub fn new() -> Self {
        AbortFlag(AtomicBool::new(false))
    }

    /// Latches the abort.
    pub fn set(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether the abort has been latched.
    pub fn is_set(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn countdown_retires_exactly_once() {
        let c = Countdown::new(3);
        assert!(!c.retire());
        assert!(!c.retire());
        assert_eq!(c.remaining(), 1);
        assert!(c.retire());
        assert!(c.is_done());
    }

    #[test]
    fn gate_park_if_prefers_exit_then_work() {
        let g = Gate::new();
        assert_eq!(g.park_if(|| true, || true), Park::Exit);
        assert_eq!(g.park_if(|| false, || true), Park::Retry);
    }

    #[test]
    fn gate_wakes_parked_thread() {
        let g = std::sync::Arc::new(Gate::new());
        let stop = std::sync::Arc::new(AbortFlag::new());
        let (g2, s2) = (g.clone(), stop.clone());
        let h = std::thread::spawn(move || loop {
            match g2.park_if(|| s2.is_set(), || false) {
                Park::Exit => return,
                _ => continue,
            }
        });
        stop.set();
        g.notify_all();
        h.join().unwrap();
    }
}
