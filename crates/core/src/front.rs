//! The request that bounds and observes the analysis phases.
//!
//! The front half — transversal, ordering, the skeleton of the static
//! symbolic factorization, eforest postorder, supernodes and their row and
//! column lists — runs on the calling thread (see [`crate::analyze_with`]).
//! A [`RunBudget`] bounds it as it bounds the numeric phase: the ordering
//! polls it once per pivot and the driver between phases, so
//! `--time-limit` covers symbolic runs too.

use crate::observe::ObsSession;
use crate::{LuError, Options};
use splu_sched::RunBudget;
use std::time::Instant;

/// Parameters of one symbolic front half (the analysis phases before the
/// numeric factorization). Build with [`SymbolicRequest::new`] or
/// [`SymbolicRequest::from_options`], adjust with the chainable setters,
/// run with [`crate::analyze_with`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SymbolicRequest {
    /// Bounds on the front half: cancellation token and wall-clock
    /// deadline, checked once per ordering pivot and between phases; an
    /// interrupted run returns [`LuError::Cancelled`] /
    /// [`LuError::DeadlineExceeded`].
    pub budget: RunBudget,
    /// Observability session: when set, the front half records phase spans
    /// into its [`crate::observe::ObsSession::trace`] and counts fill
    /// entries / budget checkpoints into its metrics registry. `None` (the
    /// default) records and counts nothing — the unobserved path never
    /// reads the clock.
    pub obs: Option<ObsSession>,
}

impl SymbolicRequest {
    /// The default request: unbounded, unobserved.
    pub fn new() -> Self {
        Self::default()
    }

    /// The front-half request implied by driver options: the budget is
    /// lifted from [`Options::budget`].
    pub fn from_options(opts: &Options) -> Self {
        SymbolicRequest::new().budget(opts.budget.clone())
    }

    /// Sets the run budget (cancellation / deadline).
    pub fn budget(mut self, budget: RunBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Attaches an observability session (spans + counters).
    pub fn observe(mut self, session: ObsSession) -> Self {
        self.obs = Some(session);
        self
    }

    /// Whether the budget asks the front half to stop (token cancelled or
    /// deadline passed).
    pub(crate) fn tripped(&self) -> bool {
        self.budget.token.as_ref().is_some_and(|t| t.is_cancelled())
            || self.budget.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// The error a tripped budget maps to, mirroring the numeric phase's
    /// interrupt mapping. `columns_done` counts factor columns whose
    /// structure was completed before the trip.
    pub(crate) fn trip_error(&self, columns_done: usize, tasks_pending: usize) -> LuError {
        if self.budget.deadline.is_some_and(|d| Instant::now() >= d) {
            LuError::DeadlineExceeded {
                columns_done,
                tasks_pending,
            }
        } else {
            LuError::Cancelled {
                columns_done,
                tasks_pending,
            }
        }
    }
}
