//! Error type for the factorization driver.

use splu_sparse::SparseError;
use splu_symbolic::SymbolicError;

/// Errors from analysis or numerical factorization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LuError {
    /// The matrix is not square.
    NotSquare {
        /// Number of rows.
        nrows: usize,
        /// Number of columns.
        ncols: usize,
    },
    /// The matrix is structurally singular: no full transversal exists.
    StructurallySingular {
        /// Size of the maximum matching found.
        rank: usize,
    },
    /// Numerical breakdown: no acceptable pivot in this (post-ordering)
    /// column despite a structurally full rank.
    NumericallySingular {
        /// Global column index (in factorization order) of the breakdown.
        column: usize,
    },
    /// A NaN or infinity in the input matrix values, detected before the
    /// factorization starts.
    NonFiniteInput {
        /// Original (pre-permutation) column index of the offending entry.
        column: usize,
    },
    /// A NaN or infinity surfaced in a pivot region during the
    /// factorization (overflow-scale element growth).
    NonFinitePivot {
        /// Global column index (in factorization order) where it appeared.
        column: usize,
    },
    /// A run on storage laid out from the in-block structure took a pivot
    /// from below its column's diagonal block — it may fill what that
    /// storage leaves out; the remaining tasks drained as no-ops. Neither a
    /// session nor [`crate::SparseLu`] returns this: they answer the job
    /// through the static structure instead.
    PivotHistoryDiverged {
        /// Global column index (in factorization order) of the first such
        /// pivot of the block column that noticed.
        column: usize,
    },
    /// A worker thread panicked during the parallel factorization. The
    /// executors contain the panic (no unwind, no hang, no poisoned state)
    /// and the driver reports it as this structured error.
    WorkerPanic {
        /// Index of the worker thread that panicked.
        worker: usize,
        /// The task that panicked, as the graph labels it: `F(k)` or
        /// `U(src,dst)` (`splu_sched::Task`'s `Display`).
        task: String,
    },
    /// The run's [`CancelToken`](splu_sched::CancelToken) was cancelled
    /// (caller request or Ctrl-C). The factorization drained cleanly; the
    /// fields record how far it got.
    Cancelled {
        /// Block columns fully factored before the cancellation landed.
        columns_done: usize,
        /// Scheduler tasks not yet retired when the interrupt tripped.
        tasks_pending: usize,
    },
    /// The run's deadline ([`RunBudget::deadline`](splu_sched::RunBudget))
    /// passed. Checked at task boundaries, so detection latency is bounded
    /// by the longest single task.
    DeadlineExceeded {
        /// Block columns fully factored before the deadline fired.
        columns_done: usize,
        /// Scheduler tasks not yet retired when the interrupt tripped.
        tasks_pending: usize,
    },
    /// The liveness watchdog observed no scheduler progress for a full
    /// stall window and aborted the run.
    Stalled {
        /// Block columns fully factored before the stall was declared.
        columns_done: usize,
        /// The watchdog's diagnosis: per-worker states, last tasks,
        /// heartbeat epochs, and ready-queue depths.
        report: splu_sched::StallReport,
    },
    /// A right-hand side (or solution block) whose length does not match
    /// the factored matrix order. The fallible `try_solve*` entry points
    /// return this where the panicking `solve*` forms assert.
    DimensionMismatch {
        /// Length the operation required.
        expected: usize,
        /// Length the caller supplied.
        got: usize,
    },
    /// Values handed to a session `factor`/`refactor` whose sparsity
    /// pattern differs from the one the session was analyzed for (the
    /// pattern hashes disagree). Re-analyze to factor the new pattern.
    PatternMismatch {
        /// Pattern hash the session was built from.
        expected: u64,
        /// Hash of the pattern the values came with.
        got: u64,
    },
    /// A solve (or refactorization) was requested on a session that holds
    /// no factors yet: call `factor` first.
    NotFactored,
    /// The named session was evicted from a session pool under its memory
    /// budget (LRU order, idle sessions only). The symbolic analysis and
    /// factors are gone; re-run `analyze` to rebuild them. The field
    /// records how many resident bytes the eviction reclaimed.
    SessionEvicted {
        /// Resident bytes the session held when it was evicted.
        resident_bytes: u64,
    },
    /// [`Options::validate`](crate::Options::validate) rejected an
    /// incoherent setting; analysis runs it first.
    InvalidOptions {
        /// What was wrong.
        message: String,
    },
    /// Propagated symbolic-phase error.
    Symbolic(SymbolicError),
    /// Propagated substrate error.
    Sparse(SparseError),
}

impl std::fmt::Display for LuError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LuError::NotSquare { nrows, ncols } => {
                write!(f, "matrix is {nrows}x{ncols}, LU needs a square matrix")
            }
            LuError::StructurallySingular { rank } => {
                write!(
                    f,
                    "structurally singular: maximum transversal has size {rank}"
                )
            }
            LuError::NumericallySingular { column } => {
                write!(f, "numerically singular at factorization column {column}")
            }
            LuError::NonFiniteInput { column } => {
                write!(f, "non-finite value (NaN/Inf) in input column {column}")
            }
            LuError::NonFinitePivot { column } => {
                write!(
                    f,
                    "non-finite pivot region at factorization column {column}"
                )
            }
            LuError::PivotHistoryDiverged { column } => {
                write!(
                    f,
                    "the pivot of factorization column {column} left its diagonal block"
                )
            }
            LuError::WorkerPanic { worker, task } => {
                write!(f, "worker {worker} panicked in task {task}")
            }
            LuError::Cancelled {
                columns_done,
                tasks_pending,
            } => {
                write!(
                    f,
                    "factorization cancelled: {columns_done} column(s) done, \
                     {tasks_pending} task(s) pending"
                )
            }
            LuError::DeadlineExceeded {
                columns_done,
                tasks_pending,
            } => {
                write!(
                    f,
                    "factorization deadline exceeded: {columns_done} column(s) done, \
                     {tasks_pending} task(s) pending"
                )
            }
            LuError::Stalled {
                columns_done,
                report,
            } => {
                write!(
                    f,
                    "factorization stalled after {columns_done} column(s): {report}"
                )
            }
            LuError::DimensionMismatch { expected, got } => {
                write!(
                    f,
                    "dimension mismatch: expected a vector of length {expected}, got {got}"
                )
            }
            LuError::PatternMismatch { expected, got } => {
                write!(
                    f,
                    "sparsity pattern mismatch: session analyzed hash {expected:#018x}, \
                     values carry hash {got:#018x} (re-analyze for a new pattern)"
                )
            }
            LuError::NotFactored => {
                write!(f, "session holds no factors yet: call factor() first")
            }
            LuError::SessionEvicted { resident_bytes } => {
                write!(
                    f,
                    "session was evicted under the memory budget \
                     ({resident_bytes} resident bytes reclaimed); re-analyze to continue"
                )
            }
            LuError::InvalidOptions { message } => {
                write!(f, "invalid options: {message}")
            }
            LuError::Symbolic(e) => write!(f, "symbolic phase: {e}"),
            LuError::Sparse(e) => write!(f, "sparse substrate: {e}"),
        }
    }
}

impl std::error::Error for LuError {}

impl From<SymbolicError> for LuError {
    fn from(e: SymbolicError) -> Self {
        LuError::Symbolic(e)
    }
}

impl From<SparseError> for LuError {
    fn from(e: SparseError) -> Self {
        LuError::Sparse(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_the_relevant_index() {
        assert!(LuError::NumericallySingular { column: 7 }
            .to_string()
            .contains('7'));
        assert!(LuError::StructurallySingular { rank: 3 }
            .to_string()
            .contains('3'));
        assert!(LuError::NotSquare { nrows: 2, ncols: 5 }
            .to_string()
            .contains("2x5"));
        assert!(LuError::NonFiniteInput { column: 4 }
            .to_string()
            .contains('4'));
        assert!(LuError::NonFinitePivot { column: 9 }
            .to_string()
            .contains('9'));
        let wp = LuError::WorkerPanic {
            worker: 2,
            task: "F(5)".into(),
        };
        assert!(wp.to_string().contains("worker 2"));
        assert!(wp.to_string().contains("task F(5)"));
    }

    #[test]
    fn interrupt_errors_report_progress() {
        let c = LuError::Cancelled {
            columns_done: 11,
            tasks_pending: 4,
        };
        assert!(c.to_string().contains("11 column(s)"));
        assert!(c.to_string().contains("4 task(s)"));
        let d = LuError::DeadlineExceeded {
            columns_done: 0,
            tasks_pending: 9,
        };
        assert!(d.to_string().contains("deadline"));
        assert!(d.to_string().contains("9 task(s)"));
        let s = LuError::Stalled {
            columns_done: 3,
            report: splu_sched::StallReport {
                stalled_for: std::time::Duration::from_millis(120),
                tasks_pending: 2,
                workers: vec![],
                queue_depths: vec![1],
            },
        };
        assert!(s.to_string().contains("stalled after 3 column(s)"));
        assert!(s.to_string().contains("120 ms"));
        // Structured comparison works (the variants are Eq).
        assert_eq!(c.clone(), c);
        assert_ne!(c, d);
    }

    #[test]
    fn session_errors_render_their_context() {
        let d = LuError::DimensionMismatch {
            expected: 100,
            got: 99,
        };
        assert!(d.to_string().contains("100"));
        assert!(d.to_string().contains("99"));
        let p = LuError::PatternMismatch {
            expected: 0xabcd,
            got: 0x1234,
        };
        assert!(p.to_string().contains("0x000000000000abcd"));
        assert!(p.to_string().contains("0x0000000000001234"));
        assert!(LuError::NotFactored.to_string().contains("factor()"));
        let e = LuError::SessionEvicted {
            resident_bytes: 4096,
        };
        assert!(e.to_string().contains("4096"));
        assert!(e.to_string().contains("re-analyze"));
        let i = LuError::InvalidOptions {
            message: "threads must be positive".into(),
        };
        assert!(i.to_string().contains("threads must be positive"));
    }
}
