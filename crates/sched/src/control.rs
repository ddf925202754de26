//! Cancellation, deadlines, and the liveness watchdog for the DAG
//! executor.
//!
//! A [`RunBudget`] bounds one executor run three ways, all cooperative
//! and all funneled through the executor's existing abort-broadcast
//! path, so an interrupted run **drains** — every worker observes the
//! abort at its next task boundary, parks are woken, and the run returns
//! a report instead of hanging:
//!
//! * **Cancellation** — a [`CancelToken`] shared with the caller (or a
//!   SIGINT handler). Checked at every task-acquisition boundary.
//! * **Deadline** — an absolute [`Instant`]; also checked at task
//!   boundaries, so enforcement latency is bounded by the longest single
//!   task.
//! * **Watchdog** — an opt-in monitor thread ([`WatchdogConfig`]) driven
//!   by per-worker heartbeat epochs (bumped on task start, steal-scan,
//!   and park transitions). When no heartbeat and no retirement happens
//!   for a full stall window while tasks remain, the monitor captures a
//!   [`StallReport`] (per-worker state, last task, queue depths) and
//!   aborts the run — turning a lost-wakeup-class hang into a
//!   structured, diagnosable failure. The heartbeats are always compiled
//!   in (a few relaxed atomic stores per task); only the monitor thread
//!   is opt-in.
//!
//! The interrupt reason lands in [`crate::ExecReport::interrupt`]; the
//! numeric driver maps it onto `LuError::{Cancelled, DeadlineExceeded,
//! Stalled}` with progress counters attached.

use crate::sync::{
    AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Condvar, Countdown, Mutex, Ordering,
};
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sentinel for a [`CancelToken`] whose checkpoint countdown is disarmed.
const UNARMED: usize = usize::MAX;

/// A shareable cancellation handle.
///
/// Cloning is cheap (an `Arc` bump) and every clone observes the same
/// state. [`CancelToken::cancel`] is sticky: once cancelled, a token
/// stays cancelled. Workers poll it through [`CancelToken::checkpoint`]
/// at task boundaries; tests can arm a deterministic trip with
/// [`CancelToken::cancel_after_checkpoints`].
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Arc<TokenInner>,
}

#[derive(Debug, Default)]
struct TokenInner {
    cancelled: AtomicBool,
    countdown: AtomicUsize,
    /// Ancestor chain for derived tokens: [`CancelToken::is_cancelled`]
    /// consults every ancestor, so cancelling a parent cancels the whole
    /// subtree, while cancelling a child leaves the parent untouched.
    parent: Option<Arc<TokenInner>>,
}

fn chain_cancelled(inner: &TokenInner) -> bool {
    inner.cancelled.load(Ordering::Acquire) || inner.parent.as_deref().is_some_and(chain_cancelled)
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        CancelToken {
            inner: Arc::new(TokenInner {
                cancelled: AtomicBool::new(false),
                countdown: AtomicUsize::new(UNARMED),
                parent: None,
            }),
        }
    }

    /// A derived token scoped under this one: cancelling the parent (or
    /// any ancestor) cancels the child, while cancelling the child leaves
    /// the parent untouched.
    ///
    /// This is the right shape for handing a long-lived cancellation
    /// handle (a serve connection, a SIGINT watcher) to an executor run:
    /// the executor's abort-drain path cancels the run's own token to
    /// release parked workers (see [`WatchdogConfig`] and the stall
    /// containment), and a *contained* failure must not stick that
    /// cancellation onto the caller's handle.
    pub fn child(&self) -> Self {
        CancelToken {
            inner: Arc::new(TokenInner {
                cancelled: AtomicBool::new(false),
                countdown: AtomicUsize::new(UNARMED),
                parent: Some(Arc::clone(&self.inner)),
            }),
        }
    }

    /// Requests cancellation (sticky, idempotent, callable from any
    /// thread — e.g. a SIGINT handler's watcher).
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested, on this token or any
    /// ancestor it was derived from.
    pub fn is_cancelled(&self) -> bool {
        chain_cancelled(&self.inner)
    }

    /// Arms the token to self-cancel at the `n`-th subsequent
    /// [`CancelToken::checkpoint`] call (immediately for `n == 0`) —
    /// the deterministic trip the cancellation tests inject.
    pub fn cancel_after_checkpoints(&self, n: usize) {
        assert_ne!(n, UNARMED, "countdown sentinel");
        self.inner.countdown.store(n, Ordering::Release);
    }

    /// Polls the token at a task boundary: returns `true` when the run
    /// should stop, decrementing the armed countdown (if any) as a side
    /// effect.
    pub fn checkpoint(&self) -> bool {
        if self.is_cancelled() {
            return true;
        }
        match self
            .inner
            .countdown
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |c| {
                if c == UNARMED || c == 0 {
                    None
                } else {
                    Some(c - 1)
                }
            }) {
            // This checkpoint consumed the last credit.
            Ok(1) => {
                self.cancel();
                true
            }
            Ok(_) => false,
            Err(c) if c == UNARMED => false,
            // Armed with zero credits (or raced to exhaustion).
            Err(_) => {
                self.cancel();
                true
            }
        }
    }
}

impl PartialEq for CancelToken {
    /// Identity equality: two tokens are equal when they share state.
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

impl Eq for CancelToken {}

/// Configuration of the liveness watchdog monitor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// How long the run may go without **any** global progress (worker
    /// heartbeat or task retirement) before the monitor declares a stall.
    /// Must exceed the longest single task: a task body that runs longer
    /// than the window without returning is indistinguishable from a
    /// stalled scheduler at this (task-boundary) heartbeat granularity.
    pub stall_window: Duration,
    /// Monitor poll period; `None` derives `stall_window / 4`, clamped
    /// to `[1 ms, 100 ms]`.
    pub poll_interval: Option<Duration>,
}

impl WatchdogConfig {
    /// A watchdog with the given stall window and the derived poll rate.
    pub fn new(stall_window: Duration) -> Self {
        WatchdogConfig {
            stall_window,
            poll_interval: None,
        }
    }

    /// The effective poll period.
    pub fn poll(&self) -> Duration {
        self.poll_interval.unwrap_or_else(|| {
            (self.stall_window / 4)
                .max(Duration::from_millis(1))
                .min(Duration::from_millis(100))
        })
    }
}

/// Everything that may bound one executor run. The default budget is
/// unbounded (no token, no deadline, no watchdog) and adds no overhead
/// beyond a dead branch per task boundary.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunBudget {
    /// Absolute wall-clock deadline for the run.
    pub deadline: Option<Instant>,
    /// Cooperative cancellation handle.
    pub token: Option<CancelToken>,
    /// Liveness watchdog (monitor thread spawned only when set).
    pub watchdog: Option<WatchdogConfig>,
}

impl RunBudget {
    /// An unbounded budget (the default).
    pub fn unbounded() -> Self {
        RunBudget::default()
    }

    /// Sets the deadline.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the cancellation token.
    pub fn with_token(mut self, token: CancelToken) -> Self {
        self.token = Some(token);
        self
    }

    /// Arms the watchdog.
    pub fn with_watchdog(mut self, watchdog: WatchdogConfig) -> Self {
        self.watchdog = Some(watchdog);
        self
    }

    /// Whether any task-boundary check (token or deadline) is armed.
    pub fn is_armed(&self) -> bool {
        self.deadline.is_some() || self.token.is_some()
    }
}

/// What a worker was last seen doing (stall reports).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerState {
    /// Spawned, no heartbeat recorded yet.
    Starting,
    /// Inside a task runner.
    Running,
    /// Scanning for work (own pool or victim pools).
    Scanning,
    /// Parked on its sleep gate.
    Parked,
    /// Exited its work loop.
    Exited,
}

impl WorkerState {
    fn from_u8(v: u8) -> Self {
        match v {
            1 => WorkerState::Running,
            2 => WorkerState::Scanning,
            3 => WorkerState::Parked,
            4 => WorkerState::Exited,
            _ => WorkerState::Starting,
        }
    }
}

impl fmt::Display for WorkerState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            WorkerState::Starting => "starting",
            WorkerState::Running => "running",
            WorkerState::Scanning => "scanning",
            WorkerState::Parked => "parked",
            WorkerState::Exited => "exited",
        };
        f.write_str(s)
    }
}

/// One worker's liveness snapshot at the moment a stall was declared.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerSnapshot {
    /// Worker index.
    pub worker: usize,
    /// Last observed state.
    pub state: WorkerState,
    /// Executor id of the last task the worker started, if any.
    pub last_task: Option<usize>,
    /// Heartbeat epoch (transitions since the run started).
    pub heartbeats: u64,
}

/// The watchdog's diagnosis of a stalled run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StallReport {
    /// How long the run went without any global progress.
    pub stalled_for: Duration,
    /// Tasks not yet retired when the stall was declared.
    pub tasks_pending: usize,
    /// Per-worker liveness snapshots.
    pub workers: Vec<WorkerSnapshot>,
    /// Ready-pool depths, one per worker.
    pub queue_depths: Vec<usize>,
}

impl fmt::Display for StallReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "no scheduler progress for {} ms with {} task(s) pending; queue depths {:?}",
            self.stalled_for.as_millis(),
            self.tasks_pending,
            self.queue_depths
        )?;
        writeln!(
            f,
            "{:>6} {:>9} {:>9} {:>10}",
            "worker", "state", "last_task", "heartbeats"
        )?;
        for w in &self.workers {
            writeln!(
                f,
                "{:>6} {:>9} {:>9} {:>10}",
                w.worker,
                w.state.to_string(),
                w.last_task.map_or("-".to_string(), |t| t.to_string()),
                w.heartbeats
            )?;
        }
        Ok(())
    }
}

/// Why an executor run was interrupted before retiring every task.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Interrupt {
    /// The run's [`CancelToken`] was cancelled.
    Cancelled {
        /// Tasks not yet retired at the moment the interrupt tripped.
        tasks_pending: usize,
    },
    /// The run's deadline passed.
    DeadlineExceeded {
        /// Tasks not yet retired at the moment the interrupt tripped.
        tasks_pending: usize,
    },
    /// The watchdog declared a stall.
    Stalled(StallReport),
}

impl fmt::Display for Interrupt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Interrupt::Cancelled { tasks_pending } => {
                write!(f, "run cancelled with {tasks_pending} task(s) pending")
            }
            Interrupt::DeadlineExceeded { tasks_pending } => {
                write!(f, "deadline exceeded with {tasks_pending} task(s) pending")
            }
            Interrupt::Stalled(r) => write!(f, "scheduler stall detected: {r}"),
        }
    }
}

// ---------------------------------------------------------------------------
// Executor-side runtime (crate-internal).
// ---------------------------------------------------------------------------

const STATE_STARTING: u8 = 0;
const STATE_RUNNING: u8 = 1;
const STATE_SCANNING: u8 = 2;
const STATE_PARKED: u8 = 3;
const STATE_EXITED: u8 = 4;

/// One worker's liveness cell: heartbeat epoch + last observed state +
/// last started task. All accesses are relaxed — the watchdog only needs
/// eventual visibility, and the hot path must stay a handful of
/// uncontended stores per task.
#[derive(Debug)]
struct Heart {
    beats: AtomicU64,
    state: AtomicU8,
    last_task: AtomicUsize,
}

impl Heart {
    fn new() -> Self {
        Heart {
            beats: AtomicU64::new(0),
            state: AtomicU8::new(STATE_STARTING),
            last_task: AtomicUsize::new(usize::MAX),
        }
    }
}

/// Stop signal for the watchdog monitor thread.
#[derive(Debug)]
struct MonitorStop {
    lock: Mutex<bool>,
    cv: Condvar,
}

/// Shared run-control state for one executor run: the abort latch, the
/// unretired-task countdown, the first-interrupt slot, the per-worker
/// liveness cells, and the watchdog plumbing. The executor threads one
/// `Supervisor` through its worker loop.
pub(crate) struct Supervisor<'b> {
    budget: &'b RunBudget,
    /// `true` when a token or deadline needs checking at task boundaries.
    armed: bool,
    pub(crate) abort: crate::sync::AbortFlag,
    pub(crate) remaining: Countdown,
    /// Tasks no worker has acquired yet; counted on armed runs only.
    unacquired: Countdown,
    interrupted: Mutex<Option<Interrupt>>,
    hearts: Vec<Heart>,
    stop: MonitorStop,
}

impl<'b> Supervisor<'b> {
    pub(crate) fn new(n_tasks: usize, nthreads: usize, budget: &'b RunBudget) -> Self {
        Supervisor {
            budget,
            armed: budget.is_armed(),
            abort: crate::sync::AbortFlag::new(),
            remaining: Countdown::new(n_tasks),
            unacquired: Countdown::new(n_tasks),
            interrupted: Mutex::new(None),
            hearts: (0..nthreads).map(|_| Heart::new()).collect(),
            stop: MonitorStop {
                lock: Mutex::new(false),
                cv: Condvar::new(),
            },
        }
    }

    pub(crate) fn is_aborted(&self) -> bool {
        self.abort.is_set()
    }

    /// The task-boundary budget check. Returns `true` when the worker
    /// must stop acquiring work — because the run is already aborted, or
    /// because this very check tripped the token/deadline. `wake` is the
    /// executor's broadcast (all gates).
    pub(crate) fn check_budget<W: Fn()>(&self, wake: &W) -> bool {
        if self.abort.is_set() {
            return true;
        }
        if !self.armed {
            return false;
        }
        let tasks_pending = self.remaining.remaining();
        let why = if self.budget.token.as_ref().is_some_and(|t| t.checkpoint()) {
            Interrupt::Cancelled { tasks_pending }
        } else if self.budget.deadline.is_some_and(|d| Instant::now() >= d) {
            Interrupt::DeadlineExceeded { tasks_pending }
        } else {
            return false;
        };
        // A run whose every task has been acquired can no longer be
        // interrupted: an abort only blocks acquisitions, so it completes.
        // Read after the token, so that a cancel issued from inside the
        // last task (ordered after its acquisition) finds the count at zero.
        if self.unacquired.is_done() {
            return false;
        }
        self.trip(why, wake);
        true
    }

    /// Records the interrupt (first one wins) and aborts the run: cancel
    /// the shared token (releases cooperative waiters inside task
    /// bodies), latch the abort, broadcast every gate, stop the monitor.
    /// The slot is written before the token/abort stores so a concurrent
    /// tripper cannot observe the abort and skip recording its reason.
    pub(crate) fn trip<W: Fn()>(&self, why: Interrupt, wake: &W) {
        {
            let mut slot = self.interrupted.lock();
            if slot.is_none() {
                *slot = Some(why);
            }
        }
        if let Some(t) = &self.budget.token {
            t.cancel();
        }
        self.abort.set();
        wake();
        self.stop_monitor();
    }

    /// The panic-containment abort: same drain path as [`Self::trip`]
    /// but records no interrupt — the panic itself is the reason and
    /// travels through [`crate::ExecReport::panic`].
    pub(crate) fn abort_for_panic<W: Fn()>(&self, wake: &W) {
        if let Some(t) = &self.budget.token {
            t.cancel();
        }
        self.abort.set();
        wake();
        self.stop_monitor();
    }

    /// Clean-shutdown hook for the retiring worker that took the last
    /// task: stop the monitor so the scope join does not wait out a poll.
    pub(crate) fn on_last_retire(&self) {
        self.stop_monitor();
    }

    // -- heartbeats (always compiled in; relaxed, uncontended) --

    /// Worker `w` acquired task `tid` and is about to run it.
    pub(crate) fn note_acquired(&self, w: usize, tid: usize) {
        if self.armed {
            self.unacquired.retire();
        }
        let h = &self.hearts[w];
        h.beats.fetch_add(1, Ordering::Relaxed);
        h.last_task.store(tid, Ordering::Relaxed);
        h.state.store(STATE_RUNNING, Ordering::Relaxed);
    }

    pub(crate) fn beat_scan(&self, w: usize) {
        let h = &self.hearts[w];
        h.beats.fetch_add(1, Ordering::Relaxed);
        h.state.store(STATE_SCANNING, Ordering::Relaxed);
    }

    pub(crate) fn beat_park(&self, w: usize) {
        let h = &self.hearts[w];
        h.beats.fetch_add(1, Ordering::Relaxed);
        h.state.store(STATE_PARKED, Ordering::Relaxed);
    }

    pub(crate) fn beat_unpark(&self, w: usize) {
        let h = &self.hearts[w];
        h.beats.fetch_add(1, Ordering::Relaxed);
        h.state.store(STATE_SCANNING, Ordering::Relaxed);
    }

    pub(crate) fn mark_exited(&self, w: usize) {
        self.hearts[w].state.store(STATE_EXITED, Ordering::Relaxed);
    }

    // -- watchdog monitor --

    fn progress_signature(&self) -> (u64, usize) {
        let beats = self
            .hearts
            .iter()
            .fold(0u64, |s, h| s.wrapping_add(h.beats.load(Ordering::Relaxed)));
        (beats, self.remaining.remaining())
    }

    fn snapshot_workers(&self) -> Vec<WorkerSnapshot> {
        self.hearts
            .iter()
            .enumerate()
            .map(|(w, h)| {
                let last = h.last_task.load(Ordering::Relaxed);
                WorkerSnapshot {
                    worker: w,
                    state: WorkerState::from_u8(h.state.load(Ordering::Relaxed)),
                    last_task: (last != usize::MAX).then_some(last),
                    heartbeats: h.beats.load(Ordering::Relaxed),
                }
            })
            .collect()
    }

    pub(crate) fn stop_monitor(&self) {
        if self.budget.watchdog.is_none() {
            return;
        }
        *self.stop.lock.lock() = true;
        self.stop.cv.notify_all();
    }

    /// The watchdog monitor body, run on its own scoped thread when
    /// [`RunBudget::watchdog`] is set. Polls the progress signature; when
    /// it freezes for a full stall window while tasks remain, captures a
    /// [`StallReport`] and trips the run.
    pub(crate) fn monitor<W, D>(&self, cfg: WatchdogConfig, wake: &W, queue_depths: &D)
    where
        W: Fn(),
        D: Fn() -> Vec<usize>,
    {
        let poll = cfg.poll();
        let mut last_sig = self.progress_signature();
        let mut last_change = Instant::now();
        loop {
            {
                let mut stopped = self.stop.lock.lock();
                if *stopped {
                    return;
                }
                let _ = self.stop.cv.wait_for(&mut stopped, poll);
                if *stopped {
                    return;
                }
            }
            if self.abort.is_set() {
                return;
            }
            let sig = self.progress_signature();
            if sig != last_sig {
                last_sig = sig;
                last_change = Instant::now();
                continue;
            }
            let pending = self.remaining.remaining();
            if pending == 0 {
                return;
            }
            if last_change.elapsed() >= cfg.stall_window {
                let report = StallReport {
                    stalled_for: last_change.elapsed(),
                    tasks_pending: pending,
                    workers: self.snapshot_workers(),
                    queue_depths: queue_depths(),
                };
                self.trip(Interrupt::Stalled(report), wake);
                return;
            }
        }
    }

    /// Consumes the supervisor after the scope joins, yielding the
    /// recorded interrupt, if any.
    pub(crate) fn finish(self) -> Option<Interrupt> {
        self.interrupted.into_inner()
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn token_cancel_is_sticky_and_shared() {
        let t = CancelToken::new();
        let t2 = t.clone();
        assert!(!t.is_cancelled());
        t2.cancel();
        assert!(t.is_cancelled());
        assert!(t.checkpoint());
        assert_eq!(t, t2);
        assert_ne!(t, CancelToken::new());
    }

    #[test]
    fn child_cancellation_is_one_directional() {
        // Parent → child propagates (through a grandchild too)...
        let parent = CancelToken::new();
        let child = parent.child();
        let grandchild = child.child();
        assert!(!child.is_cancelled());
        parent.cancel();
        assert!(child.is_cancelled());
        assert!(grandchild.is_cancelled());
        assert!(child.checkpoint());

        // ...but a child cancelled by a contained abort (the executor's
        // drain path) must not poison its parent.
        let conn = CancelToken::new();
        let job = conn.child();
        job.cancel();
        assert!(job.is_cancelled());
        assert!(!conn.is_cancelled());
        // The next job derived from the same handle starts clean.
        assert!(!conn.child().is_cancelled());
    }

    #[test]
    fn checkpoint_countdown_trips_at_the_armed_index() {
        let t = CancelToken::new();
        t.cancel_after_checkpoints(3);
        assert!(!t.checkpoint());
        assert!(!t.checkpoint());
        assert!(t.checkpoint(), "third checkpoint consumes the last credit");
        assert!(t.is_cancelled());

        let zero = CancelToken::new();
        zero.cancel_after_checkpoints(0);
        assert!(zero.checkpoint(), "zero credits: first checkpoint trips");
    }

    #[test]
    fn unarmed_checkpoints_never_trip() {
        let t = CancelToken::new();
        for _ in 0..1000 {
            assert!(!t.checkpoint());
        }
        assert!(!t.is_cancelled());
    }

    #[test]
    fn watchdog_poll_derivation_clamps() {
        let w = WatchdogConfig::new(Duration::from_millis(2));
        assert_eq!(w.poll(), Duration::from_millis(1));
        let w = WatchdogConfig::new(Duration::from_secs(10));
        assert_eq!(w.poll(), Duration::from_millis(100));
        let w = WatchdogConfig {
            stall_window: Duration::from_secs(1),
            poll_interval: Some(Duration::from_millis(7)),
        };
        assert_eq!(w.poll(), Duration::from_millis(7));
    }

    #[test]
    fn supervisor_first_interrupt_wins() {
        let budget = RunBudget::unbounded().with_token(CancelToken::new());
        let sup = Supervisor::new(5, 2, &budget);
        sup.trip(Interrupt::Cancelled { tasks_pending: 5 }, &|| {});
        sup.trip(Interrupt::DeadlineExceeded { tasks_pending: 4 }, &|| {});
        assert!(sup.is_aborted());
        assert!(budget.token.as_ref().unwrap().is_cancelled());
        assert_eq!(
            sup.finish(),
            Some(Interrupt::Cancelled { tasks_pending: 5 })
        );
    }

    #[test]
    fn check_budget_is_inert_when_unarmed_or_done() {
        let unarmed = RunBudget::unbounded();
        let sup = Supervisor::new(3, 1, &unarmed);
        assert!(!sup.check_budget(&|| {}));

        // A cancelled token no longer trips once every task has been
        // acquired — the run completes whatever happens now — and stays
        // inert after the last retirement.
        let token = CancelToken::new();
        let budget = RunBudget::unbounded().with_token(token.clone());
        let sup = Supervisor::new(1, 1, &budget);
        sup.note_acquired(0, 0);
        token.cancel();
        assert!(!sup.check_budget(&|| {}));
        assert!(sup.remaining.retire() && sup.remaining.is_done());
        assert!(!sup.check_budget(&|| {}));
        assert_eq!(sup.finish(), None);
    }

    /// The other side of the contract: with a task still unacquired the
    /// same cancelled token trips, and the interrupt counts what is pending.
    #[test]
    fn check_budget_trips_while_a_task_is_unacquired() {
        let token = CancelToken::new();
        let budget = RunBudget::unbounded().with_token(token.clone());
        let sup = Supervisor::new(2, 1, &budget);
        sup.note_acquired(0, 0);
        token.cancel();
        assert!(sup.check_budget(&|| {}));
        assert_eq!(
            sup.finish(),
            Some(Interrupt::Cancelled { tasks_pending: 2 })
        );
    }

    #[test]
    fn expired_deadline_trips_deadline_exceeded() {
        let budget = RunBudget::unbounded().with_deadline(Instant::now() - Duration::from_secs(1));
        let sup = Supervisor::new(4, 1, &budget);
        assert!(sup.check_budget(&|| {}));
        assert_eq!(
            sup.finish(),
            Some(Interrupt::DeadlineExceeded { tasks_pending: 4 })
        );
    }

    #[test]
    fn stall_report_renders_every_worker() {
        let r = StallReport {
            stalled_for: Duration::from_millis(250),
            tasks_pending: 3,
            workers: vec![
                WorkerSnapshot {
                    worker: 0,
                    state: WorkerState::Parked,
                    last_task: Some(7),
                    heartbeats: 12,
                },
                WorkerSnapshot {
                    worker: 1,
                    state: WorkerState::Starting,
                    last_task: None,
                    heartbeats: 0,
                },
            ],
            queue_depths: vec![2, 0],
        };
        let s = r.to_string();
        assert!(s.contains("250 ms"));
        assert!(s.contains("parked"));
        assert!(s.contains("starting"));
        assert!(s.contains("[2, 0]"));
        let i = Interrupt::Stalled(r);
        assert!(i.to_string().contains("stall"));
    }
}
