//! Persistent solver sessions: analyze once, factor and refactor many
//! times (the HYLU-style analyze / factor / re-factor split).
//!
//! The paper's premise is that the symbolic work — ordering, static
//! George–Ng fill, eforest postordering, supernode partition, task graph —
//! depends only on the sparsity pattern, while device- and
//! circuit-simulation workloads change the numeric *values* every step. An
//! [`Analysis`] holds all of the symbolic state (keyed by a pattern hash,
//! [`pattern_hash`]) — on several threads also the range plan the numeric
//! phase runs: the eforest task graph of the held structure, contracted
//! once at analysis (`crate::request`) and then dropped; one thread
//! factors the whole matrix as one range and holds no plan. A
//! [`SluSession`] is an analysis — its own, or one it shares with the
//! other sessions of the pattern ([`SluSession::on`]) — and its own
//! factors, and exposes:
//!
//! * [`SluSession::analyze`] — the symbolic half, run once per pattern;
//! * [`SluSession::factor`] / [`SluSession::refactor`] — numeric-only: the
//!   first call assembles block storage for the given values, every later
//!   one reuses it and the cached scatter map, so with one thread, tracing
//!   off, and no watchdog it performs **zero heap allocation** (asserted
//!   under the `alloc-track` counting allocator);
//! * [`SluSession::solve`] / [`SluSession::try_solve`] /
//!   [`SluSession::solve_refined`] / [`SluSession::solve_op`] — operate on
//!   the latest factors.
//!
//! **The scatter map.** The first `factor` on an analysis lays the storage
//! out for every session on it: the index maps and, in a held analysis,
//! the slot of each input nonzero — the offset of the word that receives
//! it inside its block column's buffer (4 bytes per nonzero) — both
//! functions of the pattern. Every session fills its storage through the
//! slots, at its first `factor` and at every later one. Built lazily at
//! the first `refactor`, the map would be allocated after the storage,
//! between factorizations, and a prototype of that raised the daemon
//! benchmark's peak RSS (EXPERIMENTS.md). The session inside a
//! [`crate::SparseLu`] is never refactored: its `factor` places `A`'s
//! values in the one pass that locates them, and its analysis keeps no
//! map.
//!
//! Values whose pattern hash disagrees with the analyzed one are rejected
//! with [`LuError::PatternMismatch`]; a solve before the first successful
//! factorization returns [`LuError::NotFactored`]. The refactorization is
//! **bitwise identical** to a fresh factorization of the same values —
//! same task bodies in a topological order of the same DAG — which the
//! session invariance suite asserts across thread counts and mappings.
//!
//! **One structure.** The static `Ā` is valid for every pivot sequence;
//! the factorizations the pattern sees rarely need that. The analysis
//! derives from the static lists and the pattern's entries the
//! sub-structure that those entries can fill while every pivot comes from
//! its own supernode's diagonal block ([`crate::blocks`]' `in_block_flags`),
//! and the session holds that one alone: the storage is laid out on it, and
//! every `Factor(K)` on it checks that its pivots did — the wire. A held
//! wire means, by induction over the columns, that every word left out was
//! exactly zero, so the factors are bitwise the static ones. A tripped wire
//! drains the run; the session rebuilds the static lists from the pattern,
//! the held permutations and partition — in a private copy of its
//! analysis when it shares one — answers the job on them, and stays static
//! for its life. DESIGN.md §5.4–5.5.
//!
//! Equilibration is a *values* transformation, so the session itself
//! ignores [`Options::equilibrate`]; [`crate::SparseLu`] (a thin wrapper
//! over this API) scales the values before handing them to the session.

use crate::blocks::{factor_bytes, in_block_flags, realised_structure, seed_flags};
use crate::blocks::{BlockMatrix, Layout};
use crate::observe::{ObsSession, RefactorPath};
use crate::request::{factor_numeric_with, NumericRequest, RangePlan};
use crate::solve::{solve_many_permuted, solve_permuted_with, solve_transposed_permuted_with};
use crate::{analyze_with, LuError, Options, Stats, SymbolicLu, SymbolicRequest};
use splu_dense::Dispatch;
use splu_obs::Counter;
use splu_sched::{FactorHealth, RunBudget};
use splu_sparse::{CscRef, SparsityPattern};
use std::mem::size_of_val;
use std::sync::{Arc, OnceLock};

/// Hash of a sparsity pattern (dimensions, column pointers, row indices) —
/// the session cache key. Two matrices share a hash exactly when they share
/// the structure the symbolic phases consume (up to 64-bit collisions), so
/// cached orderings, fill, supernodes, and task graphs apply to either.
///
/// It runs on every `factor` and `refactor`, so the words are eaten by four
/// independent multiply-rotate chains (word `t` of each array by lane
/// `t mod 4`, each lane seeded apart), which the CPU overlaps. The lanes,
/// then the two dimensions, are folded into one, and a splitmix64-style
/// avalanche ends it. The value is compared within one process only and never
/// persisted, so the function may change between versions.
pub fn pattern_hash(pattern: &SparsityPattern) -> u64 {
    let (nrows, ncols) = (pattern.nrows(), pattern.ncols());
    hash_arrays(nrows, ncols, pattern.col_ptr(), pattern.row_indices())
}

/// [`pattern_hash`] of the arrays of a pattern.
fn hash_arrays(nrows: usize, ncols: usize, col_ptr: &[usize], row_indices: &[u32]) -> u64 {
    const SEED: u64 = 0x9e37_79b9_7f4a_7c15;
    const MUL: u64 = 0xbf58_476d_1ce4_e5b9;
    #[inline]
    fn eat(h: u64, x: u64) -> u64 {
        (h ^ x).wrapping_mul(MUL).rotate_left(29)
    }
    /// `words` through the four lanes, then its length through lane 0.
    fn lanes<T: Copy>(mut h: [u64; 4], words: &[T], word: impl Fn(T) -> u64) -> [u64; 4] {
        let quads = words.chunks_exact(4);
        let tail = quads.remainder();
        for q in quads {
            h = std::array::from_fn(|l| eat(h[l], word(q[l])));
        }
        for (l, &w) in tail.iter().enumerate() {
            h[l] = eat(h[l], word(w));
        }
        h[0] = eat(h[0], words.len() as u64);
        h
    }
    let h = std::array::from_fn(|l| SEED.wrapping_mul(l as u64 + 1));
    let h = lanes(h, col_ptr, |p| p as u64);
    let h = lanes(h, row_indices, u64::from);
    let mut h = h.into_iter().fold(SEED, eat);
    h = eat(h, nrows as u64);
    h = eat(h, ncols as u64);
    h ^= h >> 30;
    h = h.wrapping_mul(MUL);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// Values [`check_finite`] folds between two exits: long enough for the
/// fold to vectorize, short enough that a bad value ends it early.
const FINITE_CHUNK: usize = 512;

/// Rejects non-finite entries, naming the first offending column — checked
/// before the parallel phase can propagate them silently. Allocates
/// nothing on the accepting path, and branches once per chunk of
/// [`FINITE_CHUNK`] values on it.
pub(crate) fn check_finite(a: CscRef<'_>) -> Result<(), LuError> {
    let chunk_finite = |c: &[f64]| c.iter().fold(true, |ok, v| ok & v.is_finite());
    if !a.values().chunks(FINITE_CHUNK).all(chunk_finite) {
        // Cold path: walk the triplets to name the offending column.
        for (_, j, v) in a.triplets() {
            if !v.is_finite() {
                return Err(LuError::NonFiniteInput { column: j });
            }
        }
    }
    Ok(())
}

/// The symbolic half of a session: everything its numeric phase reads that
/// depends only on the pattern and the analysis options — the
/// permutations, the partition and the block lists of the one structure
/// the storage is laid out on ([`SymbolicLu`]), [`Stats`], on several
/// threads the range plan — and, from the first `factor` of any session on
/// it, the storage's layout and, in a held analysis, its slots. Nothing
/// in it changes after that: the layout and the slots are laid out once,
/// by whichever session factors first, and every session on the analysis
/// reads the same ones. A session analyzed on its own
/// ([`SluSession::analyze`]) holds its analysis inline; sessions of one
/// pattern share one behind an `Arc` ([`SluSession::on`]), as the daemon's
/// pool of analyses does.
#[derive(Clone)]
pub struct Analysis {
    /// `sym.block_structure` is the structure of the storage: the in-block
    /// one, or the static one after a tripped wire.
    sym: SymbolicLu,
    /// `true` while that structure is the wired in-block one.
    realised: bool,
    /// The eforest graph of `sym.block_structure` contracted for
    /// `opts.threads` workers — held at several threads only.
    plan: Option<RangePlan>,
    pattern_hash: u64,
    /// Set for the analysis of a [`crate::SparseLu`], factored once and
    /// never refactored: its storage receives the values straight from the
    /// one pass that locates them, and no slots are kept.
    one_shot: bool,
    /// The analyzed pattern, when its holder handed it over
    /// ([`Self::with_pattern`]).
    pattern: Option<SparsityPattern>,
    /// Laid out by the first `factor` on this analysis.
    storage: OnceLock<StorageMaps>,
}

/// The pattern-only half of the storage, shared by the storages of every
/// session of one analysis.
#[derive(Clone)]
struct StorageMaps {
    layout: Arc<Layout>,
    /// Where each nonzero of the (original-order) input lands: its offset
    /// in the buffer of its block column, in `values()` order. Empty in a
    /// one-shot analysis.
    slots: Vec<u32>,
}

impl Analysis {
    /// Runs the full symbolic analysis for `pattern` and keeps everything
    /// the numeric phase needs: permutations, supernode partition and
    /// block lists — then derives the in-block lists that replace the
    /// static ones (phase `derive`). When `opts.threads > 1` it then builds
    /// the eforest task graph of the in-block lists and contracts it into
    /// the range plan the analysis holds (phase `graph_build`); one thread
    /// factors the whole matrix as one range and builds no graph. No
    /// storage is laid out.
    pub fn new(pattern: &SparsityPattern, opts: &Options) -> Result<Analysis, LuError> {
        Self::build(pattern, opts, None, false)
    }

    /// [`Self::new`] under an observability session: the symbolic phases
    /// record spans and counters exactly as
    /// [`crate::SparseLu::factor_observed`] does.
    pub fn observed(
        pattern: &SparsityPattern,
        opts: &Options,
        obs: &ObsSession,
    ) -> Result<Analysis, LuError> {
        Self::build(pattern, opts, Some(obs), false)
    }

    /// [`Self::new`] (observed or not); `one_shot` marks the analysis of a
    /// session that is factored and never refactored — [`crate::SparseLu`]'s.
    pub(crate) fn build(
        pattern: &SparsityPattern,
        opts: &Options,
        obs: Option<&ObsSession>,
        one_shot: bool,
    ) -> Result<Analysis, LuError> {
        let mut sreq = SymbolicRequest::from_options(opts);
        if let Some(o) = obs {
            sreq = sreq.observe(o.clone());
        }
        let mut sym = analyze_with(pattern, opts, &sreq)?;
        {
            let _p = obs.map(|o| o.phase("derive"));
            let (rows, cols, bs) = (&sym.row_perm, &sym.col_perm, &sym.block_structure);
            let seeds = seed_flags(bs, pattern, |i| rows.new_of(i), |j| cols.old_of(j));
            let (row_live, col_live) = in_block_flags(bs, seeds);
            sym.block_structure = Arc::new(realised_structure(bs, &row_live, &col_live));
        }
        let plan = (opts.threads > 1).then(|| {
            let _p = obs.map(|o| o.phase("graph_build"));
            plan_of(&sym)
        });
        Ok(Analysis {
            sym,
            realised: true,
            plan,
            pattern_hash: pattern_hash(pattern),
            one_shot,
            pattern: None,
            storage: OnceLock::new(),
        })
    }

    /// The analysis holding `pattern`, the one it analyzed (checked by
    /// hash), for a holder that keeps only values against it: the daemon
    /// moves it out of the matrix its `analyze` job read.
    pub fn with_pattern(mut self, pattern: SparsityPattern) -> Analysis {
        assert_eq!(
            pattern_hash(&pattern),
            self.pattern_hash,
            "not the analyzed pattern"
        );
        self.pattern = Some(pattern);
        self
    }

    /// The analyzed pattern, when [`Self::with_pattern`] handed it over.
    pub fn pattern(&self) -> Option<&SparsityPattern> {
        self.pattern.as_ref()
    }

    /// [`pattern_hash`] of the analyzed pattern.
    pub fn pattern_hash(&self) -> u64 {
        self.pattern_hash
    }

    /// The permutations, the structure of the storage and the statistics.
    pub fn symbolic(&self) -> &SymbolicLu {
        &self.sym
    }

    /// Analysis statistics.
    pub fn stats(&self) -> &Stats {
        &self.sym.stats
    }

    /// Options the analysis was built with.
    pub fn options(&self) -> &Options {
        &self.sym.opts
    }

    /// `true` while the structure is the in-block one: always, but in the
    /// private analysis a session's tripped wire leaves it.
    pub fn is_realised(&self) -> bool {
        self.realised
    }

    /// What a session's first `factor` on this structure adds, priced from
    /// the block lists alone before any value exists: the words of every
    /// block column's buffer, one `u32` pivot per column and the column
    /// table.
    pub fn factor_bytes(&self) -> u64 {
        factor_bytes(&self.sym.block_structure)
    }

    /// Resident bytes of the analysis, from the lengths of its arrays: the
    /// row, column and block lists and partition of its structure, the two
    /// permutations with their inverses, the range plan while one is held,
    /// the pattern when it holds one, and once laid out the layout's index
    /// maps and the slots (4 bytes per input nonzero; a one-shot analysis
    /// keeps none). No scalar `L̄`/`Ū` exists to count.
    pub fn resident_bytes(&self) -> u64 {
        let bs = &self.sym.block_structure;
        let lists: u64 = [&bs.l_rows, &bs.u_cols, &bs.l_blocks, &bs.u_blocks]
            .map(SparsityPattern::heap_bytes)
            .iter()
            .sum();
        let (rows, cols) = (&self.sym.row_perm, &self.sym.col_perm);
        let symbolic = lists + bs.partition.heap_bytes() + rows.heap_bytes() + cols.heap_bytes();
        let plan = self.plan.as_ref().map_or(0, RangePlan::bytes);
        let pattern = self.pattern.as_ref().map_or(0, SparsityPattern::heap_bytes);
        let maps =
            (self.storage.get()).map_or(0, |m| m.layout.bytes() + size_of_val(&m.slots[..]) as u64);
        symbolic + plan + pattern + maps
    }

    /// The layout and the slots, laid out by the first call (phase
    /// `layout`) from `pattern`, the analyzed one.
    fn storage_maps(&self, pattern: &SparsityPattern, obs: Option<&ObsSession>) -> &StorageMaps {
        self.storage.get_or_init(|| {
            let _p = obs.map(|o| o.phase("layout"));
            let layout = Layout::new(Arc::clone(&self.sym.block_structure), self.realised);
            let (rows, cols) = (&self.sym.row_perm, &self.sym.col_perm);
            let slots = match self.one_shot {
                true => Vec::new(),
                false => layout.slots(pattern, |i| rows.new_of(i), |j| cols.old_of(j)),
            };
            let layout = Arc::new(layout);
            StorageMaps { layout, slots }
        })
    }

    /// Turns this analysis into the static one of `pattern`, the analyzed
    /// one: the layout, the slots and the plan go before the static lists
    /// are rebuilt on the held permutations and partition; on several
    /// threads they get their plan.
    fn fall_back(&mut self, pattern: &SparsityPattern) {
        (self.storage, self.plan, self.realised) = (OnceLock::new(), None, false);
        self.sym.block_structure = Arc::new(self.sym.static_lists(pattern));
        self.plan = (self.sym.opts.threads > 1).then(|| plan_of(&self.sym));
    }
}

/// The range plan of `sym`'s structure for its options' threads: the
/// eforest graph of the lists the storage holds, contracted.
fn plan_of(sym: &SymbolicLu) -> RangePlan {
    let (bs, opts) = (&sym.block_structure, &sym.opts);
    RangePlan::new(bs, &sym.build_graph(), None, opts.threads, opts.mapping)
}

/// A session's analysis: its own, or one it shares with other sessions.
/// An own analysis stays inline: boxing it would give every session
/// analyzed on its own one more heap allocation, of the analysis' size.
#[allow(clippy::large_enum_variant)]
enum Held {
    Own(Analysis),
    Shared(Arc<Analysis>),
}

impl std::ops::Deref for Held {
    type Target = Analysis;

    fn deref(&self) -> &Analysis {
        match self {
            Held::Own(a) => a,
            Held::Shared(a) => a,
        }
    }
}

impl Held {
    /// The analysis to change: a shared one is copied first, so that the
    /// sessions it is shared with do not see the change.
    fn make_mut(&mut self) -> &mut Analysis {
        match self {
            Held::Own(a) => a,
            Held::Shared(a) => Arc::make_mut(a),
        }
    }
}

/// A persistent solver session: an [`Analysis`] — its own, or one shared
/// with the other sessions of its pattern — and its own factors: the
/// block storage with its pivots, the health of the latest factorization
/// and the run budget. The module docs of `session.rs` describe the
/// lifecycle.
pub struct SluSession {
    analysis: Held,
    bm: Option<BlockMatrix>,
    health: FactorHealth,
    factored: bool,
    budget: RunBudget,
}

impl SluSession {
    /// A session on its own analysis of `pattern` ([`Analysis::new`]). No
    /// storage is allocated.
    pub fn analyze(pattern: &SparsityPattern, opts: &Options) -> Result<SluSession, LuError> {
        Self::analyze_inner(pattern, opts, None, false)
    }

    /// [`Self::analyze`] under an observability session
    /// ([`Analysis::observed`]).
    pub fn analyze_observed(
        pattern: &SparsityPattern,
        opts: &Options,
        session: &ObsSession,
    ) -> Result<SluSession, LuError> {
        Self::analyze_inner(pattern, opts, Some(session), false)
    }

    /// [`Self::analyze`] (observed or not); `one_shot` marks a session that
    /// is factored and never refactored — [`crate::SparseLu`]'s.
    pub(crate) fn analyze_inner(
        pattern: &SparsityPattern,
        opts: &Options,
        obs: Option<&ObsSession>,
        one_shot: bool,
    ) -> Result<SluSession, LuError> {
        let analysis = Analysis::build(pattern, opts, obs, one_shot)?;
        Ok(Self::holding(Held::Own(analysis)))
    }

    /// A session on a shared analysis: it runs no symbolic phase, and its
    /// first `factor` lays no storage out once another session's did. A
    /// tripped wire gives the session a private copy of the analysis, on
    /// the static lists; the sessions it shares with do not see it.
    pub fn on(analysis: Arc<Analysis>) -> SluSession {
        Self::holding(Held::Shared(analysis))
    }

    fn holding(analysis: Held) -> SluSession {
        SluSession {
            budget: analysis.sym.opts.budget.clone(),
            analysis,
            bm: None,
            health: FactorHealth::default(),
            factored: false,
        }
    }

    /// The analysis the session runs on.
    pub fn analysis(&self) -> &Analysis {
        &self.analysis
    }

    /// The cache key: [`pattern_hash`] of the analyzed pattern.
    pub fn pattern_hash(&self) -> u64 {
        self.analysis.pattern_hash
    }

    /// Numeric-only factorization of `a` (original order, same pattern as
    /// analyzed): the first call allocates the block storage and assembles
    /// `a` into it, a later one refills it in place — [`Self::refactor`] is
    /// the same operation. No symbolic phase runs. It runs on the structure
    /// the session holds: on the in-block one, a pivot that leaves its
    /// diagonal block answers the job through the static structure, where
    /// the session then stays. The factors are bitwise the static ones
    /// either way (DESIGN.md §5.4).
    pub fn factor<'a>(&mut self, a: impl Into<CscRef<'a>>) -> Result<(), LuError> {
        self.factor_inner(a.into(), None)
    }

    /// [`Self::factor`] under an observability session (numeric span,
    /// kernel counters, executor report).
    pub fn factor_observed<'a>(
        &mut self,
        a: impl Into<CscRef<'a>>,
        obs: &ObsSession,
    ) -> Result<(), LuError> {
        self.factor_inner(a.into(), Some(obs))
    }

    /// [`Self::factor`] under its hot-path name: once the storage is
    /// allocated, it is reset in place, `a`'s values go through the
    /// analysis' slots and the numeric phase re-runs — with `threads <= 1`,
    /// tracing off and no watchdog, with **zero heap allocation**. The
    /// result is bitwise identical to a fresh factorization of the values.
    pub fn refactor<'a>(&mut self, a: impl Into<CscRef<'a>>) -> Result<(), LuError> {
        self.factor_inner(a.into(), None)
    }

    /// [`Self::refactor`] under an observability session. At one thread
    /// this is the same range with the executor's recorder attached — the
    /// observed run executes the program the unobserved one does, and what
    /// it allocates (the report) does not grow with the task count; phase
    /// walls still show symbolic time exactly zero.
    pub fn refactor_observed<'a>(
        &mut self,
        a: impl Into<CscRef<'a>>,
        obs: &ObsSession,
    ) -> Result<(), LuError> {
        self.factor_inner(a.into(), Some(obs))
    }

    /// [`Self::factor`] and [`Self::refactor`] (observed or not).
    /// [`crate::SparseLu`] enters here.
    pub(crate) fn factor_inner(
        &mut self,
        a: CscRef<'_>,
        obs: Option<&ObsSession>,
    ) -> Result<(), LuError> {
        self.check_pattern(a)?;
        check_finite(a)?;
        self.assemble(a, obs);
        self.run_or_fall_back(a, obs)
    }

    /// Runs the numeric phase on the storage as it stands, holding `a`'s
    /// values, and, when a run on the in-block structure trips its wire,
    /// answers `a` through the static structure instead: these values may
    /// fill what the in-block storage lacks. The in-block storage goes
    /// before the session's analysis turns static (phase `static_lists`,
    /// on a private copy when it is shared) and the static storage is
    /// assembled. An observed run records which structure answered.
    fn run_or_fall_back(&mut self, a: CscRef<'_>, obs: Option<&ObsSession>) -> Result<(), LuError> {
        let mut path = if self.analysis.realised {
            RefactorPath::Realised
        } else {
            RefactorPath::Static
        };
        let mut outcome = self.run_numeric(obs);
        if let Err(LuError::PivotHistoryDiverged { column }) = outcome {
            self.bm = None;
            {
                let _p = obs.map(|o| o.phase("static_lists"));
                self.analysis.make_mut().fall_back(a.pattern());
            }
            self.assemble(a, obs);
            path = RefactorPath::Fallback { column };
            outcome = self.run_numeric(obs);
        }
        if let Some(o) = obs {
            o.capture_refactor(path);
            match path {
                RefactorPath::Realised if outcome.is_ok() => {
                    o.metrics().incr(Counter::RefactorRealised);
                    let words = self.analysis.sym.block_structure.storage_words();
                    o.metrics().record_max(Counter::RealisedWords, words as u64);
                }
                RefactorPath::Fallback { .. } => o.metrics().incr(Counter::RefactorFallback),
                _ => {}
            }
        }
        outcome
    }

    /// Rejects values whose pattern hash disagrees with the analyzed one.
    /// Allocates nothing on the accepting path.
    fn check_pattern(&self, a: CscRef<'_>) -> Result<(), LuError> {
        let got = pattern_hash(a.pattern());
        if got != self.analysis.pattern_hash {
            return Err(LuError::PatternMismatch {
                expected: self.analysis.pattern_hash,
                got,
            });
        }
        Ok(())
    }

    /// Gives the storage `a`'s values. The first call on a structure
    /// allocates one buffer per block column over the analysis' layout —
    /// laid out on the first call on the analysis (phase `layout`) — and
    /// gives each its values (phase `assemble`): through the slots in a
    /// held session, in the pass that locates them in a one-shot one.
    /// Later calls overwrite the storage in place ([`Self::refill`]) and
    /// record no set-up phase.
    fn assemble(&mut self, a: CscRef<'_>, obs: Option<&ObsSession>) {
        if self.bm.is_some() {
            return self.refill(a);
        }
        let an = &*self.analysis;
        let maps = an.storage_maps(a.pattern(), obs);
        let _p = obs.map(|o| o.phase("assemble"));
        let (rows, cols) = (&an.sym.row_perm, &an.sym.col_perm);
        let (layout, old_col) = (Arc::clone(&maps.layout), |j| cols.old_of(j));
        self.bm = Some(match an.one_shot {
            true => BlockMatrix::assembled(layout, a, |i| rows.new_of(i), old_col),
            false => BlockMatrix::through_slots(layout, a, old_col, &maps.slots),
        });
    }

    /// Zeroes the storage in place and stores `a`'s values: through the
    /// slots in a held session, by the locating pass in a one-shot one.
    fn refill(&mut self, a: CscRef<'_>) {
        let an = &*self.analysis;
        let bm = self.bm.as_mut().expect("storage laid out");
        bm.reset_values();
        let (rows, cols) = (&an.sym.row_perm, &an.sym.col_perm);
        let old_col = |j| cols.old_of(j);
        match an.storage.get() {
            Some(maps) if !an.one_shot => bm.store_values(a, old_col, &maps.slots),
            _ => bm.scatter(a, |i| rows.new_of(i), old_col),
        }
    }

    fn run_numeric(&mut self, obs: Option<&ObsSession>) -> Result<(), LuError> {
        self.factored = false;
        let bm = self.bm.as_ref().expect("storage assembled by the caller");
        let opts = &self.analysis.sym.opts;
        let numeric_phase = obs.map(|o| o.phase("numeric"));
        let (planned, plan) = (NumericRequest::planned, self.analysis.plan.as_ref());
        let mut nreq = (plan.map_or_else(NumericRequest::left_looking, planned))
            .threads(opts.threads)
            .pivot_rule(opts.pivot_rule)
            .pivot_threshold(opts.pivot_threshold)
            .kernels(opts.kernels)
            .breakdown(opts.breakdown)
            .budget(self.budget.clone());
        if let Some(o) = obs {
            nreq = nreq
                .trace(o.executor_trace_config(bm.num_tasks(), opts.threads.max(1)))
                .metrics(Arc::clone(o.metrics()));
        }
        let report = factor_numeric_with(bm, &nreq)?;
        drop(numeric_phase);
        if let Some(o) = obs {
            // The Chrome export labels the events of an event stream by
            // task; a report-grade run has none and copies nothing.
            let labelled = report.trace.map(|trace| (trace, bm.tasks().collect()));
            o.capture_numeric(report.stats, report.health.clone(), labelled);
        }
        self.health = report.health;
        self.factored = true;
        Ok(())
    }

    /// The factored storage, or [`LuError::NotFactored`] before the first
    /// successful factorization (or after an interrupted one).
    fn factors(&self) -> Result<&BlockMatrix, LuError> {
        if !self.factored {
            return Err(LuError::NotFactored);
        }
        self.bm.as_ref().ok_or(LuError::NotFactored)
    }

    /// Solves `A x = b` through the latest factors, or an error when the
    /// session holds no factors ([`LuError::NotFactored`]) or `b` has the
    /// wrong length ([`LuError::DimensionMismatch`]).
    pub fn try_solve(&self, b: &[f64]) -> Result<Vec<f64>, LuError> {
        self.solve_raw(b, false)
    }

    /// Solves `Aᵀ x = b` (fallible form).
    pub fn try_solve_transposed(&self, b: &[f64]) -> Result<Vec<f64>, LuError> {
        self.solve_raw(b, true)
    }

    /// Solves `op(A) x = b` through the latest factors, `op(A)` being `Aᵀ`
    /// when `transposed`: permute, sweep, un-permute, with no refinement.
    pub(crate) fn solve_raw(&self, b: &[f64], transposed: bool) -> Result<Vec<f64>, LuError> {
        let (bm, sym) = (self.factors()?, &self.analysis.sym);
        self.check_len(b, 1)?;
        let (bs, kernels) = (&sym.block_structure, &self.kernels());
        if transposed {
            let mut y = sym.col_perm.apply_vec(b);
            solve_transposed_permuted_with(bm, bs, &mut y, kernels);
            Ok(sym.row_perm.apply_inverse_vec(&y))
        } else {
            let mut y = sym.row_perm.apply_vec(b);
            solve_permuted_with(bm, bs, &mut y, kernels);
            Ok(sym.col_perm.apply_inverse_vec(&y))
        }
    }

    /// Solves `A X = B` for `nrhs` column-major right-hand sides (fallible
    /// form; see [`crate::SparseLu::solve_many`] for the layout).
    pub fn try_solve_many(&self, b: &[f64], nrhs: usize) -> Result<Vec<f64>, LuError> {
        let (bm, sym) = (self.factors()?, &self.analysis.sym);
        self.check_len(b, nrhs)?;
        let n = sym.stats.n;
        let mut work = Vec::with_capacity(b.len());
        for r in 0..nrhs {
            work.extend(sym.row_perm.apply_vec(&b[r * n..(r + 1) * n]));
        }
        let kernels = self.kernels();
        solve_many_permuted(bm, &sym.block_structure, &mut work, nrhs, &kernels);
        let mut out = Vec::with_capacity(b.len());
        for r in 0..nrhs {
            out.extend(sym.col_perm.apply_inverse_vec(&work[r * n..(r + 1) * n]));
        }
        Ok(out)
    }

    /// Solves `A x = b`, panicking on a dimension mismatch or a session
    /// with no factors — the infallible convenience form of
    /// [`Self::try_solve`].
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        self.try_solve(b).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Solves `op(A) x = b` (`Aᵀ` when `transposed`) with iterative
    /// refinement against `a`, normally the matrix the latest factorization
    /// consumed ([`crate::SparseLu::try_solve_refined`]'s rule). Returns the
    /// solution and the number of refinement steps.
    pub fn solve_refined<'a>(
        &self,
        a: impl Into<CscRef<'a>>,
        b: &[f64],
        transposed: bool,
    ) -> Result<(Vec<f64>, usize), LuError> {
        crate::solve::refine(a.into(), b, transposed, |rhs| {
            self.solve_raw(rhs, transposed)
        })
    }

    /// Solves `op(A) x = b` against `a`, the matrix the latest
    /// factorization consumed: refined ([`Self::solve_refined`]) when
    /// `refine` asks or the factors are perturbed, raw otherwise.
    pub fn solve_op<'a>(
        &self,
        a: impl Into<CscRef<'a>>,
        b: &[f64],
        transposed: bool,
        refine: bool,
    ) -> Result<Vec<f64>, LuError> {
        crate::solve::solve_op(a.into(), b, transposed, refine, &self.health, |rhs| {
            self.solve_raw(rhs, transposed)
        })
    }

    /// The kernel instantiation of the session's `opts.kernels`, which its
    /// solves run on as its factorizations do.
    fn kernels(&self) -> Dispatch {
        Dispatch::resolve(self.analysis.sym.opts.kernels)
    }

    pub(crate) fn check_len(&self, b: &[f64], nrhs: usize) -> Result<(), LuError> {
        let expected = self.analysis.sym.stats.n * nrhs;
        if b.len() != expected {
            return Err(LuError::DimensionMismatch {
                expected,
                got: b.len(),
            });
        }
        Ok(())
    }

    /// Replaces the per-factorization run budget (deadline, cancel token,
    /// watchdog). The session starts with `opts.budget` from analysis.
    pub fn set_budget(&mut self, budget: RunBudget) {
        self.budget = budget;
    }

    /// `true` once a factorization has completed (and not been
    /// interrupted since).
    pub fn is_factored(&self) -> bool {
        self.factored
    }

    /// The cached symbolic analysis.
    pub fn symbolic(&self) -> &SymbolicLu {
        &self.analysis.sym
    }

    /// Analysis statistics.
    pub fn stats(&self) -> &Stats {
        &self.analysis.sym.stats
    }

    /// Options the session was analyzed with.
    pub fn options(&self) -> &Options {
        &self.analysis.sym.opts
    }

    /// Resident bytes this session holds, counted from the lengths of the
    /// arrays that hold them: its analysis' ([`Analysis::resident_bytes`])
    /// and its own factors' ([`Self::factor_resident_bytes`]). This is the
    /// quantity a session budgets on; it intentionally counts no transient
    /// factorization workspace. A pool of sessions that share analyses
    /// charges each analysis once.
    pub fn resident_bytes(&self) -> u64 {
        self.analysis.resident_bytes() + self.factor_resident_bytes()
    }

    /// Resident bytes of the session's own factors, beside its analysis:
    /// one buffer per block column, the pivots and the column table, from
    /// the first `factor` on ([`Analysis::factor_bytes`] of its structure).
    pub fn factor_resident_bytes(&self) -> u64 {
        self.bm.as_ref().map_or(0, BlockMatrix::resident_bytes)
    }

    /// `true` while the session holds the in-block structure (the storage
    /// is laid out for pivots inside their diagonal blocks only): from the
    /// analysis until a pivot leaves its block. After that the session
    /// holds the static structure for its life.
    pub fn is_realised(&self) -> bool {
        self.analysis.realised
    }

    /// Storage accounting of the block storage the session holds (`None`
    /// before the first factor call).
    pub fn storage(&self) -> Option<crate::FactorStorage> {
        let words = self.bm.as_ref()?.storage_words();
        let static_words = self.analysis.sym.stats.static_words;
        let structural = self.analysis.sym.stats.nnz_filled;
        Some(crate::FactorStorage {
            words,
            static_words,
            structural,
            padding_fraction: if static_words == 0 {
                0.0
            } else {
                1.0 - structural as f64 / static_words as f64
            },
        })
    }

    /// The numeric phase's robustness report for the latest factorization.
    pub fn health(&self) -> &FactorHealth {
        &self.health
    }

    /// The block storage of the latest factorization (`None` before the
    /// first factor call).
    pub fn block_matrix(&self) -> Option<&BlockMatrix> {
        self.bm.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::column_model;
    use splu_sched::Task;
    use splu_sparse::{relative_residual, CscMatrix};

    fn random_matrix(n: usize, extra: usize, seed: u64) -> CscMatrix {
        splu_matgen::random_diag_dominant(n, extra, seed, 4.0)
    }

    /// New values with the same pattern as `a`, deterministically reshuffled.
    fn revalue(a: &CscMatrix, salt: u64) -> CscMatrix {
        let mut b = a.clone();
        for (t, v) in b.values_mut().iter_mut().enumerate() {
            let wig = (((t as u64).wrapping_mul(salt * 2 + 1) % 97) as f64) / 97.0;
            *v += 0.25 * (wig - 0.5) * (1.0 + v.abs());
        }
        b
    }

    fn assert_same_factors(x: &BlockMatrix, y: &BlockMatrix, what: &str) {
        assert_eq!(x.factor_difference(y), None, "{what}");
    }

    /// Unfactored storages: the same word at every position.
    fn assert_same_words(x: &BlockMatrix, y: &BlockMatrix, what: &str) {
        let words = |bm: &BlockMatrix| {
            let mut w = Vec::new();
            bm.for_each_entry(|i, j, v| w.push((i, j, v.to_bits())));
            w
        };
        assert!(words(x) == words(y), "{what}: stored words differ");
    }

    #[test]
    fn pattern_hash_is_structure_sensitive_and_value_blind() {
        let a = random_matrix(25, 70, 3);
        let b = revalue(&a, 5);
        assert_eq!(pattern_hash(a.pattern()), pattern_hash(b.pattern()));
        let c = random_matrix(25, 71, 4);
        assert_ne!(pattern_hash(a.pattern()), pattern_hash(c.pattern()));
        let d = random_matrix(26, 70, 3);
        assert_ne!(pattern_hash(a.pattern()), pattern_hash(d.pattern()));
    }

    /// Every word feeds the hash: one moved row index, one shifted column
    /// pointer, and swapped dimensions each change it.
    #[test]
    fn pattern_hash_sees_single_word_changes() {
        let rect = |nrows, ncols, ptr: &[usize], idx: &[u32]| {
            pattern_hash(&SparsityPattern::new(nrows, ncols, ptr.to_vec(), idx.to_vec()).unwrap())
        };
        let base = rect(5, 4, &[0, 2, 3, 5, 6], &[0, 3, 1, 2, 4, 3]);
        // Row index 3 of column 0 moved to 4.
        assert_ne!(base, rect(5, 4, &[0, 2, 3, 5, 6], &[0, 4, 1, 2, 4, 3]));
        // The entry at row 1 handed from column 1 to column 0.
        assert_ne!(base, rect(5, 4, &[0, 3, 3, 5, 6], &[0, 1, 3, 2, 4, 3]));
        // Same arrays, one more row; and the two dimensions swapped.
        let ptr = [0usize, 1, 2, 3];
        let idx = [0u32, 1, 2];
        assert_ne!(rect(3, 3, &ptr, &idx), rect(4, 3, &ptr, &idx));
        assert_ne!(
            pattern_hash(&SparsityPattern::empty(2, 3)),
            pattern_hash(&SparsityPattern::empty(3, 2)),
        );
    }

    /// Every word position of every array feeds the hash, whichever of the
    /// four lanes eats it: changing any one column pointer, any one row
    /// index, or either dimension changes it — also in the tail words past
    /// the last whole quad.
    #[test]
    fn pattern_hash_sees_a_one_word_change_in_every_lane() {
        let a = random_matrix(22, 61, 9);
        let p = a.pattern();
        let (m, n, ptr, idx) = (p.nrows(), p.ncols(), p.col_ptr(), p.row_indices());
        assert_ne!(idx.len() % 4, 0, "the row indices end in a partial quad");
        assert_ne!(
            ptr.len() % 4,
            0,
            "the column pointers end in a partial quad"
        );
        let base = pattern_hash(p);
        assert_eq!(hash_arrays(m, n, ptr, idx), base);
        for t in 0..ptr.len() {
            for bit in [0, 17, 63] {
                let mut changed = ptr.to_vec();
                changed[t] ^= 1 << bit;
                assert_ne!(
                    hash_arrays(m, n, &changed, idx),
                    base,
                    "col_ptr[{t}] bit {bit}"
                );
            }
        }
        for t in 0..idx.len() {
            for bit in [0, 31] {
                let mut changed = idx.to_vec();
                changed[t] ^= 1 << bit;
                assert_ne!(
                    hash_arrays(m, n, ptr, &changed),
                    base,
                    "row_indices[{t}] bit {bit}"
                );
            }
        }
        assert_ne!(hash_arrays(m + 1, n, ptr, idx), base, "nrows");
        assert_ne!(hash_arrays(m, n + 1, ptr, idx), base, "ncols");
    }

    /// A NaN or ∞ is found wherever it sits: in column 0, on either side of
    /// a chunk boundary, at the very last entry — and named by its column.
    #[test]
    fn check_finite_names_the_column_of_any_bad_entry() {
        let a = random_matrix(60, 1400, 2);
        let nnz = a.values().len();
        assert!(
            nnz > 2 * FINITE_CHUNK + 1,
            "{nnz} entries span three chunks"
        );
        assert!(check_finite(a.view()).is_ok());
        let column_of = |t: usize| a.pattern().col_ptr().partition_point(|&p| p <= t) - 1;
        let spots = [0, FINITE_CHUNK - 1, FINITE_CHUNK, 2 * FINITE_CHUNK, nnz - 1];
        for t in spots {
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let mut values = a.values().to_vec();
                values[t] = bad;
                let got = check_finite(CscRef::new(a.pattern(), &values));
                let want = LuError::NonFiniteInput {
                    column: column_of(t),
                };
                assert_eq!(got, Err(want), "{bad} at entry {t}");
            }
        }
        assert_eq!(column_of(0), 0);
        assert_eq!(column_of(nnz - 1), 59);
    }

    #[test]
    fn analyze_factor_solve_roundtrip() {
        let a = random_matrix(40, 120, 11);
        let mut s = SluSession::analyze(a.pattern(), &Options::default()).unwrap();
        assert!(!s.is_factored());
        assert!(s.block_matrix().is_none());
        s.factor(&a).unwrap();
        assert!(s.is_factored());
        let b: Vec<f64> = (0..40).map(|i| (i as f64 * 0.37).sin()).collect();
        let x = s.try_solve(&b).unwrap();
        assert!(relative_residual(&a, &x, &b) < 1e-10);
    }

    /// Both placements equal permute + `assemble`, on the static and the
    /// in-block structure: through the slots of a held session, on the
    /// first call (slots recorded) and on a later one (slots reused), and
    /// straight from the locating pass in a one-shot session, which keeps
    /// no slots.
    #[test]
    fn scatter_map_storage_is_bitwise_the_assembled_storage() {
        for m in splu_matgen::paper_suite(splu_matgen::Scale::Reduced) {
            let cases =
                [false, true].map(|one_shot| [false, true].map(|in_block| (one_shot, in_block)));
            for (one_shot, in_block) in cases.into_iter().flatten() {
                let what = format!("{} one_shot={one_shot} in_block={in_block}", m.name);
                let opts = Options::default();
                let mut s =
                    SluSession::analyze_inner(m.a.pattern(), &opts, None, one_shot).unwrap();
                if !in_block {
                    s.analysis.make_mut().fall_back(m.a.pattern());
                }
                for a in [m.a.clone(), revalue(&m.a, 3)] {
                    s.assemble(a.view(), None);
                    let sym = s.symbolic();
                    let want = BlockMatrix::assemble(&sym.permute_matrix(&a), &sym.block_structure);
                    assert_same_words(s.bm.as_ref().unwrap(), &want, &what);
                    let map_len = if one_shot { 0 } else { a.nnz() };
                    let maps = s.analysis.storage.get().unwrap();
                    assert_eq!(maps.slots.len(), map_len, "{what}");
                }
            }
        }
    }

    /// A `refactor` of a one-shot session, which has no map to refactor
    /// through, runs as a `factor`: the held session's factors.
    #[test]
    fn one_shot_refactor_factors_the_new_values() {
        let a = random_matrix(45, 140, 21);
        let a2 = revalue(&a, 9);
        let opts = Options::default();
        let mut one_shot = SluSession::analyze_inner(a.pattern(), &opts, None, true).unwrap();
        one_shot.factor(&a).unwrap();
        one_shot.refactor(&a2).unwrap();
        assert!(one_shot.analysis.storage.get().unwrap().slots.is_empty());
        let mut held = SluSession::analyze(a.pattern(), &opts).unwrap();
        held.factor(&a2).unwrap();
        let (x, y) = (one_shot.bm.as_ref(), held.bm.as_ref());
        assert_same_factors(x.unwrap(), y.unwrap(), "one-shot refactor");
    }

    #[test]
    fn refactor_is_bitwise_identical_to_fresh_factor() {
        let a = random_matrix(45, 140, 21);
        let a2 = revalue(&a, 9);
        let mut s = SluSession::analyze(a.pattern(), &Options::default()).unwrap();
        s.factor(&a).unwrap();
        s.refactor(&a2).unwrap();
        let mut fresh = SluSession::analyze(a.pattern(), &Options::default()).unwrap();
        fresh.factor(&a2).unwrap();
        assert_same_factors(
            s.block_matrix().unwrap(),
            fresh.block_matrix().unwrap(),
            "refactor vs fresh",
        );
    }

    #[test]
    fn refactor_before_factor_allocates_and_works() {
        let a = random_matrix(30, 90, 7);
        let mut s = SluSession::analyze(a.pattern(), &Options::default()).unwrap();
        s.refactor(&a).unwrap();
        let b: Vec<f64> = (0..30).map(|i| i as f64 - 14.0).collect();
        let x = s.try_solve(&b).unwrap();
        assert!(relative_residual(&a, &x, &b) < 1e-10);
    }

    #[test]
    fn pattern_mismatch_is_rejected_structurally() {
        let a = random_matrix(30, 90, 2);
        let other = random_matrix(30, 91, 3);
        let mut s = SluSession::analyze(a.pattern(), &Options::default()).unwrap();
        match s.factor(&other) {
            Err(LuError::PatternMismatch { expected, got }) => {
                assert_eq!(expected, s.pattern_hash());
                assert_eq!(got, pattern_hash(other.pattern()));
            }
            other => panic!("expected PatternMismatch, got {other:?}"),
        }
        // The session is still usable with the right pattern.
        s.factor(&a).unwrap();
        assert!(s.is_factored());
    }

    #[test]
    fn solve_before_factor_is_structured() {
        let a = random_matrix(20, 50, 5);
        let s = SluSession::analyze(a.pattern(), &Options::default()).unwrap();
        let b = vec![1.0; 20];
        assert!(matches!(s.try_solve(&b), Err(LuError::NotFactored)));
        assert!(matches!(
            s.try_solve_transposed(&b),
            Err(LuError::NotFactored)
        ));
        assert!(matches!(s.try_solve_many(&b, 1), Err(LuError::NotFactored)));
    }

    #[test]
    fn wrong_length_rhs_is_structured() {
        let a = random_matrix(20, 50, 6);
        let mut s = SluSession::analyze(a.pattern(), &Options::default()).unwrap();
        s.factor(&a).unwrap();
        let short = vec![1.0; 19];
        match s.try_solve(&short) {
            Err(LuError::DimensionMismatch { expected, got }) => {
                assert_eq!(expected, 20);
                assert_eq!(got, 19);
            }
            other => panic!("expected DimensionMismatch, got {other:?}"),
        }
        assert!(matches!(
            s.try_solve_many(&vec![0.0; 41], 2),
            Err(LuError::DimensionMismatch {
                expected: 40,
                got: 41
            })
        ));
    }

    #[test]
    fn non_finite_values_rejected_with_column() {
        let a = random_matrix(15, 40, 8);
        let mut bad = a.clone();
        let last = bad.values().len() - 1;
        bad.values_mut()[last] = f64::NAN;
        let mut s = SluSession::analyze(a.pattern(), &Options::default()).unwrap();
        assert!(matches!(
            s.factor(&bad),
            Err(LuError::NonFiniteInput { .. })
        ));
    }

    #[test]
    fn solve_refined_tightens_and_counts() {
        let a = random_matrix(40, 120, 13);
        let mut s = SluSession::analyze(a.pattern(), &Options::default()).unwrap();
        s.factor(&a).unwrap();
        let b: Vec<f64> = (0..40).map(|i| ((i * 7) % 11) as f64 - 5.0).collect();
        let (x, iters) = s.solve_refined(&a, &b, false).unwrap();
        assert!(iters <= 5);
        assert!(relative_residual(&a, &x, &b) < 1e-13);
    }

    /// What the contraction reads, derived from the laid-out storage instead
    /// of the block lists: per column the model flops of its stored tasks
    /// and its parent (the first column it updates, when it has rows
    /// below), and its first task.
    fn model_of(lay: &Layout) -> (Vec<f64>, Vec<Option<usize>>, Vec<usize>) {
        use crate::numeric::factor_flops;
        let nb = lay.structure().num_blocks();
        let (mut flops, mut parent) = (vec![0.0f64; nb], vec![None; nb]);
        for j in 0..nb {
            let w = lay.width(j);
            flops[j] = factor_flops(w + lay.rows_below(j), w) as f64;
            for u in lay.updates(j) {
                let k = u.src();
                flops[j] += crate::costs::update_flops(lay.width(k), lay.rows_below(k), u.ncols());
                if parent[k].is_none() && lay.rows_below(k) > 0 {
                    parent[k] = Some(j);
                }
            }
        }
        (flops, parent, (0..=nb).map(|j| lay.task_start(j)).collect())
    }

    /// The plan a session holds at 2 and 4 threads is, node for node, the
    /// one `factor_numeric_with` contracts for a coarse request over the
    /// eforest graph of the structure the session's storage holds — with
    /// or without the graph's schedule: the in-block lists after analysis,
    /// the static ones after a fallback. That graph's tasks are the
    /// storage's (and the contraction asserts that no node is empty). A
    /// one-thread session holds none, and `resident_bytes` charges a
    /// plan's bytes exactly.
    #[test]
    fn a_session_holds_the_plan_the_driver_contracts() -> Result<(), LuError> {
        use splu_sched::{build_eforest_graph, ExecSchedule, Mapping};
        use std::collections::HashSet;
        let suite = splu_matgen::paper_suite(splu_matgen::Scale::Reduced);
        let cross = ("cross_block_pivots", splu_matgen::cross_block_pivots(90, 2));
        for (name, a) in (suite.into_iter().map(|m| (m.name, m.a))).chain([cross]) {
            let static_bs = crate::analyze(a.pattern(), &Options::default())?.block_structure;
            let mut one = SluSession::analyze(a.pattern(), &Options::default())?;
            one.factor(&a)?;
            assert!(one.analysis.plan.is_none(), "{name}");
            for (threads, mapping) in [(2, Mapping::Static1D), (4, Mapping::Dynamic)] {
                let opts = Options {
                    threads,
                    mapping,
                    ..Options::default()
                };
                let mut s = SluSession::analyze(a.pattern(), &opts)?;
                s.factor(&a)?;
                let (bm, what) = (s.bm.as_ref().unwrap(), format!("{name} threads={threads}"));
                let falls_back = name == "cross_block_pivots";
                assert_eq!(s.is_realised(), !falls_back, "{what}");
                if falls_back {
                    assert_eq!(bm.layout().structure(), &*static_bs, "{what}");
                }
                let graph = build_eforest_graph(bm.layout().structure());
                let tasks: HashSet<Task> = graph.tasks().iter().copied().collect();
                assert_eq!(tasks, bm.tasks().collect(), "{what}");
                let model = column_model(bm.layout().structure());
                assert_eq!(model_of(bm.layout()), model, "{what}");
                let held = s
                    .analysis
                    .plan
                    .as_ref()
                    .expect("several threads hold a plan");
                let schedule = Arc::new(ExecSchedule::for_graph(&graph));
                let req = NumericRequest::coarse(&graph, mapping).threads(threads);
                for req in [req.clone(), req.schedule(schedule)] {
                    let plan = RangePlan::contract(bm, &req);
                    assert_eq!(plan.as_ref(), Some(held), "{what}");
                }
                let extra = s.resident_bytes() - one.resident_bytes();
                assert_eq!(extra, held.bytes(), "{what}");
            }
        }
        Ok(())
    }

    #[test]
    fn refactor_matches_across_threads_and_mappings() {
        use splu_sched::Mapping;
        let a = random_matrix(50, 170, 33);
        let a2 = revalue(&a, 17);
        // Reference: fresh one-thread factor of a2.
        let mut reference = SluSession::analyze(a.pattern(), &Options::default()).unwrap();
        reference.factor(&a2).unwrap();
        for threads in [1usize, 2, 4] {
            for mapping in [Mapping::Static1D, Mapping::Dynamic] {
                let opts = Options {
                    threads,
                    mapping,
                    ..Options::default()
                };
                let mut s = SluSession::analyze(a.pattern(), &opts).unwrap();
                s.factor(&a).unwrap();
                s.refactor(&a2).unwrap();
                assert_same_factors(
                    s.block_matrix().unwrap(),
                    reference.block_matrix().unwrap(),
                    &format!("threads={threads} {mapping:?}"),
                );
            }
        }
    }
}
