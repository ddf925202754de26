//! Lock-free monotone counters for the factorization pipeline.
//!
//! The registry is a fixed array of `AtomicU64`s indexed by [`Counter`];
//! recording is a single relaxed `fetch_add`, so hot loops (kernel
//! dispatch) can count unconditionally once they hold a registry
//! reference. Counters are *facts about the run* — entry counts,
//! flop counts, event counts — not timings; timings live in
//! [`crate::span`] and in the scheduler's own per-worker clocks.

use std::sync::atomic::{AtomicU64, Ordering};

/// Every counter the pipeline records. The discriminant indexes the
/// registry array; `ALL` and [`Counter::name`] keep the set iterable and
/// self-describing for reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Counter {
    /// Entries of the filled `L̄` pattern (diagonal included):
    /// `Σ_j l_len(j)` from the skeleton pass.
    FillL,
    /// Entries of the filled `Ū` pattern (diagonal included):
    /// `Σ_i u_len(i)` from the skeleton pass.
    FillU,
    /// Factor-task kernel invocations (panel factorizations).
    FactorCalls,
    /// Floating-point operations performed by factor kernels, per the
    /// cost model in `splu-core::costs`.
    FactorFlops,
    /// Triangular-solve kernel invocations (`trsm_lower_unit`).
    TrsmCalls,
    /// Flops performed by trsm kernels: `w_k·(w_k−1)·w_j` per call.
    TrsmFlops,
    /// Rank-`w_k` update kernel invocations (`gemm_sub`).
    GemmCalls,
    /// Flops performed by gemm kernels: `2·rows·w_k·w_j` per call.
    GemmFlops,
    /// Columns whose pivot was perturbed by graceful-degradation
    /// pivoting (matches `FactorHealth::perturbed.len()`).
    PerturbedColumns,
    /// Budget polls observed by the front half (ordering pivots, phase
    /// boundaries) — how often a cancellation could have landed.
    BudgetCheckpoints,
    /// Serve-daemon sessions evicted under the session memory budget
    /// (LRU order; pinned in-flight sessions are never chosen).
    SessionsEvicted,
    /// Serve-daemon jobs refused with a structured `overloaded` response
    /// because their lane's bounded queue was full.
    JobsRejectedOverload,
    /// Serve-daemon client connections that ended without a clean `quit`
    /// or `shutdown` (EOF mid-stream, write failure, idle timeout).
    ConnectionsDropped,
    /// High-water mark of any serve-daemon lane's queue depth (recorded
    /// with [`MetricsRegistry::record_max`], not summed).
    QueueDepthPeak,
    /// High-water mark of the serve-daemon session pool's resident bytes
    /// (symbolic structures + panel storage + retained values), recorded
    /// after budget enforcement — staying at or below the configured
    /// budget is the eviction invariant.
    ResidentSessionBytesPeak,
    /// Sessions revived bitwise-identically from the durable journal on
    /// daemon startup (replayed `analyze` lines that produced a live
    /// session).
    SessionsReplayed,
    /// Jobs answered from the idempotency replay cache instead of being
    /// re-executed, because their `job_id` was already applied.
    JobsDedupedReplay,
    /// Records appended to the durable session journal (acknowledged
    /// mutating jobs plus compaction markers).
    JournalAppends,
    /// Journal compactions that completed (atomic snapshot + rename).
    JournalCompactions,
    /// Pivot steps of the minimum-degree ordering (each eliminates one
    /// supervariable and whatever is mass-eliminated with it). Every
    /// column is counted once in pivots + merged + mass-eliminated.
    OrderingPivots,
    /// Supervariables merged into another by the ordering's
    /// indistinguishability test.
    OrderingMerged,
    /// Elements of the ordering's quotient graph absorbed into a newer one:
    /// those of each pivot beyond the first, plus aggressive absorptions.
    OrderingAbsorbed,
    /// Supervariables eliminated together with a pivot of the ordering
    /// because only its new element was left on them.
    OrderingMassEliminated,
    /// Session factorizations and refactorizations that ran to completion
    /// on the in-block structure — what the input fills while every pivot
    /// comes from its own supernode's diagonal block.
    RefactorRealised,
    /// Session factorizations and refactorizations whose pivots left their
    /// diagonal blocks and that were answered through the static structure
    /// instead.
    RefactorFallback,
    /// Words of factor storage held on the in-block structure (recorded
    /// with [`MetricsRegistry::record_max`], not summed; zero while every
    /// factorization ran on the static structure).
    RealisedWords,
}

impl Counter {
    /// All counters, in registry order.
    pub const ALL: [Counter; 26] = [
        Counter::FillL,
        Counter::FillU,
        Counter::FactorCalls,
        Counter::FactorFlops,
        Counter::TrsmCalls,
        Counter::TrsmFlops,
        Counter::GemmCalls,
        Counter::GemmFlops,
        Counter::PerturbedColumns,
        Counter::BudgetCheckpoints,
        Counter::SessionsEvicted,
        Counter::JobsRejectedOverload,
        Counter::ConnectionsDropped,
        Counter::QueueDepthPeak,
        Counter::ResidentSessionBytesPeak,
        Counter::SessionsReplayed,
        Counter::JobsDedupedReplay,
        Counter::JournalAppends,
        Counter::JournalCompactions,
        Counter::OrderingPivots,
        Counter::OrderingMerged,
        Counter::OrderingAbsorbed,
        Counter::OrderingMassEliminated,
        Counter::RefactorRealised,
        Counter::RefactorFallback,
        Counter::RealisedWords,
    ];

    /// Stable snake_case name, used as the JSON key in run reports.
    pub fn name(self) -> &'static str {
        match self {
            Counter::FillL => "fill_l_entries",
            Counter::FillU => "fill_u_entries",
            Counter::FactorCalls => "factor_calls",
            Counter::FactorFlops => "factor_flops",
            Counter::TrsmCalls => "trsm_calls",
            Counter::TrsmFlops => "trsm_flops",
            Counter::GemmCalls => "gemm_calls",
            Counter::GemmFlops => "gemm_flops",
            Counter::PerturbedColumns => "perturbed_columns",
            Counter::BudgetCheckpoints => "budget_checkpoints",
            Counter::SessionsEvicted => "sessions_evicted",
            Counter::JobsRejectedOverload => "jobs_rejected_overload",
            Counter::ConnectionsDropped => "connections_dropped",
            Counter::QueueDepthPeak => "queue_depth_peak",
            Counter::ResidentSessionBytesPeak => "resident_session_bytes_peak",
            Counter::SessionsReplayed => "sessions_replayed",
            Counter::JobsDedupedReplay => "jobs_deduped_replay",
            Counter::JournalAppends => "journal_appends",
            Counter::JournalCompactions => "journal_compactions",
            Counter::OrderingPivots => "ordering_pivots",
            Counter::OrderingMerged => "ordering_merged",
            Counter::OrderingAbsorbed => "ordering_absorbed",
            Counter::OrderingMassEliminated => "ordering_mass_eliminated",
            Counter::RefactorRealised => "refactor_realised",
            Counter::RefactorFallback => "refactor_fallback",
            Counter::RealisedWords => "realised_words",
        }
    }
}

/// A snapshot of every counter at one instant, detached from the atomics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    values: [u64; Counter::ALL.len()],
}

impl MetricsSnapshot {
    /// The snapshotted value of one counter.
    pub fn get(&self, c: Counter) -> u64 {
        self.values[c as usize]
    }

    /// `(name, value)` pairs in registry order — the report serializer's
    /// iteration order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        Counter::ALL.iter().map(|&c| (c.name(), self.get(c)))
    }
}

/// The lock-free counter registry. Shared by `Arc` across phases and
/// worker threads; all operations are wait-free.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: [AtomicU64; Counter::ALL.len()],
}

impl MetricsRegistry {
    /// A fresh registry with every counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to a counter. Relaxed: counters are commutative sums
    /// with no ordering relationship to any other memory.
    #[inline]
    pub fn add(&self, c: Counter, delta: u64) {
        self.counters[c as usize].fetch_add(delta, Ordering::Relaxed);
    }

    /// Increments a counter by one.
    #[inline]
    pub fn incr(&self, c: Counter) {
        self.add(c, 1);
    }

    /// Raises a high-water-mark counter to `value` if it is below it.
    /// For gauges observed at instants (peak queue depth, peak resident
    /// bytes) where summing increments would be meaningless.
    #[inline]
    pub fn record_max(&self, c: Counter, value: u64) {
        self.counters[c as usize].fetch_max(value, Ordering::Relaxed);
    }

    /// The current value of one counter.
    pub fn get(&self, c: Counter) -> u64 {
        self.counters[c as usize].load(Ordering::Relaxed)
    }

    /// Snapshots every counter.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut values = [0u64; Counter::ALL.len()];
        for (i, slot) in self.counters.iter().enumerate() {
            values[i] = slot.load(Ordering::Relaxed);
        }
        MetricsSnapshot { values }
    }

    /// Resets every counter to zero (between factorizations reusing one
    /// registry).
    pub fn reset(&self) {
        for slot in &self.counters {
            slot.store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let reg = MetricsRegistry::new();
        reg.add(Counter::GemmFlops, 100);
        reg.add(Counter::GemmFlops, 23);
        reg.incr(Counter::GemmCalls);
        assert_eq!(reg.get(Counter::GemmFlops), 123);
        let snap = reg.snapshot();
        assert_eq!(snap.get(Counter::GemmFlops), 123);
        assert_eq!(snap.get(Counter::GemmCalls), 1);
        assert_eq!(snap.get(Counter::FillL), 0);
        reg.reset();
        assert_eq!(reg.get(Counter::GemmFlops), 0);
    }

    #[test]
    fn names_are_unique_and_ordered() {
        let names: Vec<_> = Counter::ALL.iter().map(|c| c.name()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate counter name");
        // Registry order round-trips through the snapshot iterator.
        let snap = MetricsRegistry::new().snapshot();
        let iter_names: Vec<_> = snap.iter().map(|(n, _)| n).collect();
        assert_eq!(iter_names, names);
    }

    #[test]
    fn concurrent_adds_are_lossless() {
        let reg = Arc::new(MetricsRegistry::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let reg = Arc::clone(&reg);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        reg.incr(Counter::TrsmCalls);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(reg.get(Counter::TrsmCalls), 8000);
    }

    #[test]
    fn record_max_keeps_the_high_water_mark() {
        let reg = MetricsRegistry::new();
        reg.record_max(Counter::QueueDepthPeak, 3);
        reg.record_max(Counter::QueueDepthPeak, 9);
        reg.record_max(Counter::QueueDepthPeak, 5);
        assert_eq!(reg.get(Counter::QueueDepthPeak), 9);
        let snap = reg.snapshot();
        assert_eq!(snap.get(Counter::QueueDepthPeak), 9);
    }
}
