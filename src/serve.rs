//! The serve daemon: a fault-tolerant, long-running job service.
//!
//! `parsplu serve` began as a line-delimited job loop on stdin; this
//! module grows it into a daemon (DESIGN.md §5.4) without changing the
//! job grammar:
//!
//! * **Transport** — a connection is a reader and a writer: stdin and
//!   stdout ([`serve_loop`]), or each TCP or Unix domain socket connection
//!   [`serve_daemon`] accepts ([`Listener`]). One feeder serves every
//!   connection onto the same hash-routed worker lanes, around one engine
//!   lifecycle. Each connection gets its own [`CancelToken`]: a dead or
//!   slow client is cancelled and dropped, never wedging a lane.
//! * **Framing** — [`FrameReader`] enforces a line-size cap
//!   (`--max-line-bytes`) and rejects NUL-bearing frames with a one-line
//!   structured error, then resynchronizes at the next newline, so a
//!   garbage client cannot buffer the daemon out of memory or poison the
//!   stream for others.
//! * **One analysis per pattern** — sessions of one pattern and options
//!   share one [`Analysis`]: a second `analyze` of a held pattern parses
//!   its file and opens its session on the held analysis, running no
//!   symbolic phase. The pattern moves into the analysis; a session keeps
//!   only its factors and its latest values.
//! * **Session memory budgeting** — the `SessionPool` accounts resident
//!   bytes — each session's factors and retained values, each analysis
//!   once ([`Analysis::resident_bytes`]) — plus the update scratch each
//!   thread that ran a session job holds
//!   ([`splu_core::thread_scratch_bytes`], `stats`' `scratch_bytes`), and
//!   evicts idle sessions in LRU order until both fit
//!   `--session-budget`. Evicted sessions leave a tombstone: the next job
//!   naming them gets a structured `session_evicted` error (exit code 7)
//!   and can simply re-`analyze`. Sessions pinned by in-flight jobs are
//!   never evicted.
//! * **Backpressure** — worker lanes are bounded ([`splu_sched::Lane`]);
//!   a full lane refuses the job with a structured `overloaded` response
//!   carrying the queue depth and a retry hint (exit code 8) instead of
//!   buffering without bound.
//! * **Graceful shutdown** — the `shutdown` op (or Ctrl-C) stops intake,
//!   drains every queued job, flushes the final responses, and only then
//!   acknowledges. Accepted work is never dropped. The feeder that sent
//!   `shutdown` stops reading; every other connection, and any the daemon
//!   accepts during the drain, keeps reading, each line refused with
//!   `shutting_down`, and closes once the engine has drained.
//! * **Durability** (DESIGN.md §6) — with `--state-dir`, every
//!   acknowledged mutating job (`analyze`/`factor`/`refactor`) is
//!   appended to a CRC-framed journal ([`crate::persist`]) *before* the
//!   ack under `--durability strict`; on startup the journal is replayed
//!   through the same job path, reviving every session bitwise
//!   identically (the pipeline is deterministic, so replaying inputs
//!   reconstructs state exactly). Replay re-executes what a compaction
//!   would have kept — each session's last `analyze` line and the last
//!   numeric line since — and restores superseded job ids id-only. The
//!   journal is compacted down to live-session state once it outgrows its
//!   post-compaction baseline.
//! * **Values-only input** — a `factor`/`refactor` streams its values
//!   file against the analysis' pattern
//!   ([`splu_sparse::io::read_matrix_market_values`]); a file in any other
//!   layout is read again by the general reader, whose matrix or error the
//!   job then answers with.
//! * **Idempotency** — a client may tag any job with `--job-id <token>`;
//!   per-session applied-id tracking plus a bounded response cache means
//!   a retried duplicate returns the original response instead of
//!   re-executing, and journaled ids keep retries safe across a crash.
//!
//! Every response is one JSON line, written by the one JSON writer
//! ([`JsonWriter`]): `id`, `op`, `session` and `status` first (`Head`),
//! then the job's members; an `analyze`/`factor`/`refactor` reply embeds
//! the job's run report. Errors carry `"kind"` (a stable
//! machine-readable taxonomy: `bad_request`, `numeric`, `worker_panic`,
//! `deadline`, `stalled`, `session_evicted`, `overloaded`,
//! `duplicate_replay`, `journal_corrupt`, `shutting_down`, `cancelled`,
//! `oversize_frame`, `invalid_frame`, `idle_timeout`) next to the CLI
//! exit code a local run would have used.

use crate::cli::{load, matrix_name, parse_flags, read_vector, solve_reported, Cli, CliError};
use crate::persist::{Damage, Durability, Journal, Record};
use splu_core::{pattern_hash, Analysis, CancelToken, LuError, MatrixMeta, ObsSession, Options};
use splu_core::{JsonWriter, RunReport, RunStatus, SluSession};
use splu_matgen::manufactured_rhs;
use splu_obs::{Counter, MetricsRegistry};
use splu_sched::{Lane, LaneRejected};
use splu_sparse::io::read_matrix_market_values;
use splu_sparse::{CscMatrix, CscRef, SparsityPattern};
use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write as IoWrite};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

/// FNV-1a offset basis / prime, shared by lane routing and solution
/// hashing.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Configuration for the serve engine, whatever its transport.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker lanes (and threads) jobs are hash-routed onto.
    pub workers: usize,
    /// Bounded depth of each worker lane; a full lane refuses jobs with a
    /// structured `overloaded` response.
    pub queue_cap: usize,
    /// Maximum accepted job-line length in bytes; longer frames are
    /// discarded (with an `oversize_frame` error) and the stream resyncs
    /// at the next newline.
    pub max_line_bytes: usize,
    /// Resident-byte budget for the session pool; `None` disables
    /// eviction.
    pub session_budget: Option<u64>,
    /// Drop connections idle longer than this; `None` disables the idle
    /// timeout. It fires only where reads time out: on sockets, not stdin.
    pub idle_timeout: Option<Duration>,
    /// Directory for the durable session journal; `None` runs in-memory
    /// only (state is lost on exit, as before PR 10).
    pub state_dir: Option<PathBuf>,
    /// When the journal acknowledges: `strict` fsyncs before the ack,
    /// `relaxed` batches syncs. Ignored without `state_dir`.
    pub durability: Durability,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            queue_cap: 64,
            max_line_bytes: 16 * 1024 * 1024,
            session_budget: None,
            idle_timeout: None,
            state_dir: None,
            durability: Durability::Strict,
        }
    }
}

/// Parses a byte-size argument: a plain integer with an optional
/// `k`/`m`/`g` suffix (binary multiples, case-insensitive).
pub fn parse_size(s: &str) -> Result<u64, String> {
    let t = s.trim();
    let (digits, mult) = match t.chars().last() {
        Some('k') | Some('K') => (&t[..t.len() - 1], 1u64 << 10),
        Some('m') | Some('M') => (&t[..t.len() - 1], 1u64 << 20),
        Some('g') | Some('G') => (&t[..t.len() - 1], 1u64 << 30),
        _ => (t, 1),
    };
    let n: u64 = digits
        .parse()
        .map_err(|_| format!("bad size `{s}` (expected e.g. 4096, 64k, 16m, 2g)"))?;
    n.checked_mul(mult)
        .ok_or_else(|| format!("size `{s}` overflows"))
}

/// The stable machine-readable error kind for a CLI exit code (the
/// `"kind"` field of error responses).
pub fn kind_of_exit(exit_code: i32) -> &'static str {
    match exit_code {
        2 => "bad_request",
        3 => "numeric",
        4 => "worker_panic",
        5 => "deadline",
        6 => "stalled",
        7 => "session_evicted",
        8 => "overloaded",
        9 => "duplicate_replay",
        10 => "journal_corrupt",
        130 => "cancelled",
        _ => "error",
    }
}

/// FNV-1a hash of a session name, used to route jobs onto lanes so that
/// same-session jobs keep submission order.
fn lane_of(name: &str, lanes: usize) -> usize {
    let h = name
        .bytes()
        .fold(FNV_OFFSET, |h, b| (h ^ b as u64).wrapping_mul(FNV_PRIME));
    (h as usize) % lanes
}

/// FNV-1a hash of a solution vector's exact bit patterns. Serve `solve`
/// responses carry it as `x_hash` so clients (and the soak harness) can
/// assert bitwise-identical solves without shipping the vector.
pub fn solution_hash(x: &[f64]) -> u64 {
    let mut h = FNV_OFFSET;
    for v in x {
        for b in v.to_bits().to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
        }
    }
    h
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// One unit read from a job stream.
#[derive(Debug, PartialEq, Eq)]
pub enum Frame {
    /// A complete line (newline stripped, trailing `\r` removed).
    Line(String),
    /// A line that is not a job: over the cap or binary.
    Fault(FrameFault),
    /// A read timeout expired with no data (sockets only); the caller
    /// should check idle/cancel state and poll again.
    Idle,
    /// End of stream.
    Eof,
}

/// A line framer with a hard size cap. Unlike `BufRead::read_line`, an
/// over-long line never grows the buffer past the cap: the reader switches
/// to skip mode, counts the discarded bytes, and resynchronizes at the
/// next newline. Read timeouts (`WouldBlock`/`TimedOut`) surface as
/// [`Frame::Idle`] so socket connections can poll for shutdown.
pub struct FrameReader<R> {
    inner: R,
    max: usize,
    buf: Vec<u8>,
    /// When `> 0`, we are discarding an over-long line; the value counts
    /// bytes dropped so far.
    skipping: usize,
}

impl<R: BufRead> FrameReader<R> {
    /// Wraps `inner`, capping accepted lines at `max` bytes.
    pub fn new(inner: R, max: usize) -> Self {
        FrameReader {
            inner,
            max: max.max(1),
            buf: Vec::new(),
            skipping: 0,
        }
    }

    /// Bytes of an unterminated line currently buffered (or being
    /// discarded in skip mode). Non-zero at an idle timeout means the
    /// client stalled mid-frame; the daemon reports the abandoned partial
    /// frame instead of silently dropping it.
    pub fn buffered(&self) -> usize {
        self.buf.len() + self.skipping
    }

    fn emit_line(&mut self) -> Frame {
        let mut bytes = std::mem::take(&mut self.buf);
        if bytes.last() == Some(&b'\r') {
            bytes.pop();
        }
        if bytes.contains(&0) {
            return Frame::Fault(FrameFault::Nul(bytes.len()));
        }
        Frame::Line(String::from_utf8_lossy(&bytes).into_owned())
    }

    /// Reads the next frame. Blocks until a full line, EOF, or (for
    /// readers with a read timeout) the timeout.
    pub fn next_frame(&mut self) -> Frame {
        loop {
            let n_avail;
            let newline_at;
            {
                let available = match self.inner.fill_buf() {
                    Ok(b) => b,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                        return Frame::Idle
                    }
                    Err(_) => return Frame::Eof,
                };
                if available.is_empty() {
                    if self.skipping > 0 {
                        let discarded = self.skipping;
                        self.skipping = 0;
                        return Frame::Fault(FrameFault::Oversize(discarded));
                    }
                    if self.buf.is_empty() {
                        return Frame::Eof;
                    }
                    // Final line without a trailing newline.
                    return self.emit_line();
                }
                n_avail = available.len();
                newline_at = available.iter().position(|&b| b == b'\n');
                let take = newline_at.unwrap_or(n_avail);
                if self.skipping > 0 {
                    self.skipping += take;
                } else if self.buf.len() + take <= self.max {
                    self.buf.extend_from_slice(&available[..take]);
                } else {
                    self.skipping = self.buf.len() + take;
                    self.buf.clear();
                }
            }
            match newline_at {
                Some(pos) => {
                    self.inner.consume(pos + 1);
                    if self.skipping > 0 {
                        let discarded = self.skipping;
                        self.skipping = 0;
                        return Frame::Fault(FrameFault::Oversize(discarded));
                    }
                    return self.emit_line();
                }
                None => self.inner.consume(n_avail),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Session pool
// ---------------------------------------------------------------------------

/// One named session: its factors, the pooled analysis it was opened on —
/// which holds the pattern, moved there out of the matrix the `analyze`
/// job read — and the most recently factored values against that pattern
/// (retained for manufactured right-hand sides, residual checks, and
/// refined solves).
pub(crate) struct ServeEntry {
    pub(crate) session: SluSession,
    /// The session's analysis as the pool shares it; after a tripped wire
    /// the session runs on a private static copy, and this one still
    /// holds the pattern the values are read against.
    pub(crate) analysis: Arc<Analysis>,
    pub(crate) values: Option<Vec<f64>>,
    /// The exact `analyze` job line that created this session, kept so a
    /// journal compaction can snapshot the session as one replayable
    /// record instead of its whole history.
    pub(crate) analyze_line: Option<String>,
    /// The most recent successful `factor`/`refactor` line, for the same
    /// compaction snapshot.
    pub(crate) numeric_line: Option<String>,
}

impl ServeEntry {
    /// The latest factored values against the pattern, if any.
    fn matrix(&self) -> Option<CscRef<'_>> {
        let pattern = self
            .analysis
            .pattern()
            .expect("a pooled analysis holds its pattern");
        (self.values.as_deref()).map(|v| CscRef::new(pattern, v))
    }

    /// What the entry holds beside the pooled analysis: its factors, its
    /// values and, after a tripped wire, its private analysis.
    fn own_bytes(&self) -> u64 {
        let private = !std::ptr::eq(self.session.analysis(), &*self.analysis);
        let analysis = if private {
            self.session.analysis().resident_bytes()
        } else {
            0
        };
        let values = self.values.as_ref().map_or(0, |v| 8 * v.len() as u64);
        self.session.factor_resident_bytes() + values + analysis
    }

    /// What the session holds, its analysis counted whole.
    fn resident_bytes(&self) -> u64 {
        let values = self.values.as_ref().map_or(0, |v| 8 * v.len() as u64);
        self.session.resident_bytes() + values
    }
}

enum Slot {
    Live {
        cell: Arc<Mutex<ServeEntry>>,
        /// The entry's own bytes ([`ServeEntry::own_bytes`]).
        bytes: u64,
        /// The pooled analysis, charged once however many sessions share it.
        analysis: Arc<Analysis>,
        last_used: u64,
        pins: u32,
    },
    /// Tombstone left by an eviction so the next job naming the session
    /// gets `session_evicted` (re-analyze) rather than `unknown session`.
    Evicted { bytes: u64 },
}

struct PoolInner {
    slots: HashMap<String, Slot>,
    clock: u64,
    /// Per pattern hash, the analyses live sessions were opened on.
    analyses: HashMap<u64, Vec<Weak<Analysis>>>,
    /// Per thread that ran a job on a session, the update scratch it holds
    /// ([`splu_core::thread_scratch_bytes`]): no session owns it, and it
    /// outlives every session, but it is memory the daemon holds.
    scratch: HashMap<ThreadId, u64>,
}

impl PoolInner {
    /// Resident bytes across live sessions and the distinct analyses they
    /// share, and the number of those analyses.
    fn resident(&self) -> (u64, usize) {
        let mut seen = HashSet::new();
        let mut bytes = 0;
        for slot in self.slots.values() {
            if let Slot::Live {
                bytes: own,
                analysis,
                ..
            } = slot
            {
                bytes += own;
                if seen.insert(Arc::as_ptr(analysis)) {
                    bytes += analysis.resident_bytes();
                }
            }
        }
        (bytes, seen.len())
    }

    /// What the budget is held to: the resident sessions and analyses,
    /// and the threads' update scratch.
    fn charged(&self) -> u64 {
        self.resident().0 + self.scratch.values().sum::<u64>()
    }
}

/// Aggregate pool state for the `stats` op and assertions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Live (non-tombstone) sessions.
    pub sessions: usize,
    /// Eviction tombstones awaiting re-analyze.
    pub evicted_tombstones: usize,
    /// Resident bytes across live sessions, each analysis counted once.
    pub resident_bytes: u64,
    /// Distinct analyses the live sessions are opened on.
    pub analyses: usize,
    /// Update scratch the threads that ran session jobs hold, charged to
    /// the budget beside `resident_bytes`.
    pub scratch_bytes: u64,
}

/// `true` when an analysis built under `held` answers for a job's `opts`:
/// equal but for the run budget, which every numeric job sets anew.
fn same_analysis_options(held: &Options, opts: &Options) -> bool {
    *held
        == Options {
            budget: held.budget.clone(),
            ..opts.clone()
        }
}

/// The budgeted, pinning session pool. See the [module docs](self).
pub(crate) struct SessionPool {
    inner: Mutex<PoolInner>,
    budget: Option<u64>,
    metrics: Arc<MetricsRegistry>,
}

impl SessionPool {
    fn new(budget: Option<u64>, metrics: Arc<MetricsRegistry>) -> Self {
        SessionPool {
            inner: Mutex::new(PoolInner {
                slots: HashMap::new(),
                clock: 0,
                analyses: HashMap::new(),
                scratch: HashMap::new(),
            }),
            budget,
            metrics,
        }
    }

    /// Evicts idle (unpinned) live sessions in LRU order until the pool
    /// fits the budget, then records the resident high-water mark. Returns
    /// the evicted cells so their (possibly large) drops happen outside
    /// the pool lock.
    fn enforce_budget(&self, inner: &mut PoolInner) -> Vec<Arc<Mutex<ServeEntry>>> {
        let mut dropped = Vec::new();
        if let Some(budget) = self.budget {
            while inner.charged() > budget {
                let victim = inner
                    .slots
                    .iter()
                    .filter_map(|(name, slot)| match slot {
                        Slot::Live {
                            last_used, pins: 0, ..
                        } => Some((*last_used, name.clone())),
                        _ => None,
                    })
                    .min();
                let Some((_, name)) = victim else {
                    break; // everything left is pinned by an in-flight job
                };
                if let Some(Slot::Live {
                    cell,
                    bytes,
                    analysis,
                    ..
                }) = inner.slots.remove(&name)
                {
                    let bytes = bytes + analysis.resident_bytes();
                    inner.slots.insert(name, Slot::Evicted { bytes });
                    dropped.push(cell);
                    self.metrics.incr(Counter::SessionsEvicted);
                }
            }
        }
        let resident = inner.resident().0;
        self.metrics
            .record_max(Counter::ResidentSessionBytesPeak, resident);
        dropped
    }

    /// A live session's analysis of `pattern` under `opts`, if one is
    /// held: the same pattern hash, options and pattern.
    fn shared_analysis(&self, pattern: &SparsityPattern, opts: &Options) -> Option<Arc<Analysis>> {
        let hash = pattern_hash(pattern);
        let inner = self.inner.lock().unwrap();
        (inner.analyses.get(&hash)?.iter())
            .filter_map(Weak::upgrade)
            .find(|a| same_analysis_options(a.options(), opts) && a.pattern() == Some(pattern))
    }

    /// Offers `analysis` to later `analyze` jobs of its pattern, and
    /// forgets the analyses no session holds any more.
    fn pool_analysis(&self, analysis: &Arc<Analysis>) {
        let mut inner = self.inner.lock().unwrap();
        inner.analyses.retain(|_, held| {
            held.retain(|w| w.strong_count() > 0);
            !held.is_empty()
        });
        let held = inner.analyses.entry(analysis.pattern_hash()).or_default();
        held.push(Arc::downgrade(analysis));
    }

    /// Installs (or replaces) a session. Fails if the session alone
    /// exceeds the budget; otherwise evicts idle LRU sessions to make it
    /// fit. Returns what the session holds, its analysis counted whole.
    fn insert(&self, name: &str, entry: ServeEntry) -> Result<u64, CliError> {
        let bytes = entry.resident_bytes();
        if let Some(budget) = self.budget {
            if bytes > budget {
                return Err(CliError::from(format!(
                    "session `{name}` needs {bytes} resident bytes, more than the \
                     --session-budget of {budget}; raise the budget or shrink the problem"
                )));
            }
        }
        let dropped;
        {
            let mut inner = self.inner.lock().unwrap();
            inner.clock += 1;
            let stamp = inner.clock;
            inner.slots.insert(
                name.to_string(),
                Slot::Live {
                    bytes: entry.own_bytes(),
                    analysis: Arc::clone(&entry.analysis),
                    cell: Arc::new(Mutex::new(entry)),
                    last_used: stamp,
                    pins: 0,
                },
            );
            dropped = self.enforce_budget(&mut inner);
        }
        drop(dropped);
        Ok(bytes)
    }

    /// Checks out a session for one job: bumps its LRU stamp and pins it
    /// so concurrent budget enforcement never evicts an in-flight session.
    fn pin(&self, name: &str) -> Result<Pinned<'_>, CliError> {
        let mut inner = self.inner.lock().unwrap();
        inner.clock += 1;
        let stamp = inner.clock;
        match inner.slots.get_mut(name) {
            None => Err(CliError::from(format!(
                "unknown session `{name}` (run `analyze` first)"
            ))),
            Some(Slot::Evicted { bytes }) => Err(CliError::from(LuError::SessionEvicted {
                resident_bytes: *bytes,
            })),
            Some(Slot::Live {
                cell,
                last_used,
                pins,
                ..
            }) => {
                *last_used = stamp;
                *pins += 1;
                Ok(Pinned {
                    pool: self,
                    name: name.to_string(),
                    cell: Arc::clone(cell),
                    new_bytes: None,
                })
            }
        }
    }

    /// Every live session's cell, name-sorted for a deterministic
    /// compaction snapshot.
    fn live_cells(&self) -> Vec<(String, Arc<Mutex<ServeEntry>>)> {
        let inner = self.inner.lock().unwrap();
        let mut cells: Vec<_> = inner
            .slots
            .iter()
            .filter_map(|(name, slot)| match slot {
                Slot::Live { cell, .. } => Some((name.clone(), Arc::clone(cell))),
                _ => None,
            })
            .collect();
        drop(inner);
        cells.sort_by(|a, b| a.0.cmp(&b.0));
        cells
    }

    /// Aggregate state (for the `stats` op).
    pub(crate) fn stats(&self) -> PoolStats {
        let inner = self.inner.lock().unwrap();
        let mut live = 0usize;
        let mut dead = 0usize;
        for slot in inner.slots.values() {
            match slot {
                Slot::Live { .. } => live += 1,
                Slot::Evicted { .. } => dead += 1,
            }
        }
        let (resident_bytes, analyses) = inner.resident();
        PoolStats {
            sessions: live,
            evicted_tombstones: dead,
            resident_bytes,
            analyses,
            scratch_bytes: inner.scratch.values().sum(),
        }
    }
}

/// A checked-out session. Dropping unpins it, applies any byte-count
/// update recorded by [`Pinned::set_bytes`], records the update scratch of
/// the thread the job ran on, and re-enforces the budget (factor jobs grow
/// a session by its panel storage, and the thread's scratch to its largest
/// update).
pub(crate) struct Pinned<'p> {
    pool: &'p SessionPool,
    name: String,
    cell: Arc<Mutex<ServeEntry>>,
    new_bytes: Option<u64>,
}

impl Pinned<'_> {
    pub(crate) fn cell(&self) -> &Arc<Mutex<ServeEntry>> {
        &self.cell
    }

    /// Records the session's new own size ([`ServeEntry::own_bytes`]),
    /// applied on drop.
    pub(crate) fn set_bytes(&mut self, bytes: u64) {
        self.new_bytes = Some(bytes);
    }
}

impl Drop for Pinned<'_> {
    fn drop(&mut self) {
        let dropped;
        {
            let mut inner = self.pool.inner.lock().unwrap();
            if let Some(Slot::Live { bytes, pins, .. }) = inner.slots.get_mut(&self.name) {
                *pins = pins.saturating_sub(1);
                if let Some(nb) = self.new_bytes {
                    *bytes = nb;
                }
            }
            let scratch = splu_core::thread_scratch_bytes();
            if scratch > 0 {
                inner.scratch.insert(std::thread::current().id(), scratch);
            }
            dropped = self.pool.enforce_budget(&mut inner);
        }
        drop(dropped);
    }
}

// ---------------------------------------------------------------------------
// Idempotency tracking
// ---------------------------------------------------------------------------

/// Applied job ids remembered per session before the oldest are forgotten
/// (a forgotten id's retry re-executes — harmless, the pipeline is
/// deterministic and session mutations are idempotent replacements).
const APPLIED_ID_CAP: usize = 4096;

/// Full responses cached per session for duplicate replay; ids past this
/// window stay *applied* but answer retries with `duplicate_replay`
/// (exit 9) instead of the original response.
const RESPONSE_CACHE_CAP: usize = 256;

/// What the tracker knows about a job id.
enum IdStatus {
    /// Never seen: execute normally.
    New,
    /// Applied, original response still cached: return it verbatim.
    Cached(String),
    /// Applied, but the response aged out of the cache (or the ack
    /// predates a crash): the caller gets `duplicate_replay`.
    Evicted,
}

/// Per-session applied-id set plus the bounded response-replay cache.
/// Lives outside the session pool so idempotency survives evictions and
/// re-analyzes. Same-session jobs are lane-serialized, so check→execute→
/// mark needs no cross-job locking beyond the tracker map's mutex.
#[derive(Default)]
struct IdTracker {
    /// Applied ids, oldest first (the eviction order).
    order: VecDeque<String>,
    /// id → cached response (`None` once evicted from the response cache
    /// or restored id-only from the journal).
    entries: HashMap<String, Option<String>>,
    /// Ids currently holding a cached response, oldest first.
    cached: VecDeque<String>,
}

impl IdTracker {
    fn check(&self, id: &str) -> IdStatus {
        match self.entries.get(id) {
            None => IdStatus::New,
            Some(Some(resp)) => IdStatus::Cached(resp.clone()),
            Some(None) => IdStatus::Evicted,
        }
    }

    /// Marks `id` applied, caching `response` when given. Never
    /// downgrades: re-marking a cached id with `None` (a journal
    /// `AppliedIds` record replayed after the job itself) keeps the
    /// cached response.
    fn mark(&mut self, id: &str, response: Option<String>) {
        match self.entries.get_mut(id) {
            Some(slot) => {
                if slot.is_none() && response.is_some() {
                    *slot = response;
                    self.cached.push_back(id.to_string());
                }
            }
            None => {
                let has_response = response.is_some();
                self.order.push_back(id.to_string());
                self.entries.insert(id.to_string(), response);
                if has_response {
                    self.cached.push_back(id.to_string());
                }
                while self.order.len() > APPLIED_ID_CAP {
                    if let Some(old) = self.order.pop_front() {
                        self.entries.remove(&old);
                    }
                }
            }
        }
        while self.cached.len() > RESPONSE_CACHE_CAP {
            if let Some(old) = self.cached.pop_front() {
                if let Some(slot) = self.entries.get_mut(&old) {
                    *slot = None;
                }
            }
        }
    }
}

/// Pulls the optional `--job-id <token>` pair out of a tokenized job
/// line (it is a protocol-level flag, not a `parse_flags` option).
fn extract_job_id(toks: &mut Vec<String>) -> Result<Option<String>, String> {
    let Some(i) = toks.iter().position(|t| t == "--job-id") else {
        return Ok(None);
    };
    if i + 1 >= toks.len() {
        return Err("--job-id needs a value".to_string());
    }
    let id = toks.remove(i + 1);
    toks.remove(i);
    Ok(Some(id))
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

/// A response sink. Returns `false` when the client is gone (so callers
/// can stop writing); replies must never block forever.
pub type Reply<'e> = Arc<dyn Fn(&str) -> bool + Send + Sync + 'e>;

struct Job<'e> {
    id: u64,
    line: String,
    reply: Reply<'e>,
    token: Option<CancelToken>,
}

/// What [`Engine::submit`] did with a line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Submitted {
    /// Blank or comment: skipped, no id consumed.
    Skipped,
    /// Queued onto a worker lane; the response arrives via the reply.
    Queued,
    /// Refused (overload or draining); a structured error was already
    /// written to the reply.
    Rejected,
    /// A control op (`stats`) answered inline.
    Control,
    /// The `quit` op: the feeder should stop reading.
    Quit,
    /// The `shutdown` op: the daemon drains and exits; the final
    /// acknowledgement is written once the lanes ran dry.
    Shutdown,
}

/// The serve engine: bounded lanes, the session pool, and the daemon
/// counters. One engine serves any number of feeders (stdin, or one per
/// socket connection).
pub struct Engine<'e> {
    cfg: ServeConfig,
    lanes: Vec<Lane<Job<'e>>>,
    pool: SessionPool,
    metrics: Arc<MetricsRegistry>,
    ids: AtomicU64,
    phase: Mutex<Phase>,
    /// Signalled when a drain begins.
    drain_begun: Condvar,
    /// EWMA of job service time in nanoseconds (weight 1/8), feeding the
    /// `retry_after_hint` of overload rejections.
    job_ns: AtomicU64,
    pending_ack: Mutex<Option<(Reply<'e>, u64)>>,
    /// The durable session journal (`--state-dir`), absent for
    /// in-memory-only engines.
    journal: Option<Journal>,
    /// Per-session idempotency trackers, keyed by session name. Outlives
    /// pool evictions on purpose.
    trackers: Mutex<HashMap<String, IdTracker>>,
    /// Set while the startup replay runs: jobs skip the duplicate check
    /// (every journaled line must re-execute) and never re-journal.
    replaying: AtomicBool,
    /// splitmix64 sequence feeding the retry-hint jitter.
    jitter_seq: AtomicU64,
    /// `factor`/`refactor` jobs whose values file was streamed against the
    /// analyzed pattern.
    values_streamed: AtomicU64,
    /// `factor`/`refactor` jobs whose values file the general Matrix
    /// Market reader read: a file that deviates from the analyzed
    /// pattern's layout.
    values_parsed: AtomicU64,
    /// `analyze` jobs that opened their session on a held analysis.
    analyses_shared: AtomicU64,
    started: Instant,
}

impl<'e> Engine<'e> {
    /// A fresh engine with its own metrics registry and session pool. With
    /// `cfg.state_dir` it is durable: it opens (or creates) the journal
    /// there, truncates any torn tail, and replays the surviving records
    /// through the normal job path, reviving every journaled session
    /// bitwise-identically.
    pub fn open(cfg: ServeConfig) -> Result<Self, CliError> {
        let cfg = ServeConfig {
            workers: cfg.workers.max(1),
            queue_cap: cfg.queue_cap.max(1),
            ..cfg
        };
        let (journal, records) = match &cfg.state_dir {
            Some(dir) => {
                let (journal, recovered) = Journal::open(dir, cfg.durability)
                    .map_err(|e| CliError::from(format!("journal: {e}")))?;
                match recovered.damage {
                    Some(Damage::TornTail { dropped_bytes }) => eprintln!(
                        "parsplu serve: journal had a torn tail ({dropped_bytes} byte(s), a \
                         crash mid-append); truncated to the last whole record"
                    ),
                    Some(Damage::Corrupt {
                        offset,
                        dropped_bytes,
                    }) => eprintln!(
                        "parsplu serve: journal record at byte {offset} failed its CRC; dropped \
                         {dropped_bytes} byte(s) and kept the valid prefix"
                    ),
                    None => {}
                }
                (Some(journal), recovered.records)
            }
            None => (None, Vec::new()),
        };
        let metrics = Arc::new(MetricsRegistry::new());
        let engine = Engine {
            lanes: (0..cfg.workers).map(|_| Lane::new(cfg.queue_cap)).collect(),
            pool: SessionPool::new(cfg.session_budget, Arc::clone(&metrics)),
            cfg,
            metrics,
            ids: AtomicU64::new(0),
            phase: Mutex::new(Phase::Serving),
            drain_begun: Condvar::new(),
            job_ns: AtomicU64::new(0),
            pending_ack: Mutex::new(None),
            journal,
            trackers: Mutex::new(HashMap::new()),
            replaying: AtomicBool::new(false),
            jitter_seq: AtomicU64::new(0),
            values_streamed: AtomicU64::new(0),
            values_parsed: AtomicU64::new(0),
            analyses_shared: AtomicU64::new(0),
            started: Instant::now(),
        };
        engine.replay(records);
        Ok(engine)
    }

    /// Re-executes what the recovered journal records leave standing
    /// ([`reduce_for_replay`]: of each session, the last `analyze` line and
    /// the last numeric line since), in order. `Job` lines run through
    /// [`serve_job`] exactly like live traffic (minus the duplicate check
    /// and re-journaling); `AppliedIds` records — journaled ones and those
    /// the reduction put in place of superseded jobs — restore the
    /// idempotency trackers id-only.
    fn replay(&self, records: Vec<Record>) {
        if records.is_empty() {
            return;
        }
        self.replaying.store(true, Ordering::Release);
        let journaled = records
            .iter()
            .filter(|rec| matches!(rec, Record::Job { .. }))
            .count();
        let mut jobs = 0u64;
        for rec in reduce_for_replay(records) {
            match rec {
                Record::Job { line, .. } => {
                    jobs += 1;
                    let id = self.next_id();
                    if let Err(response) = serve_job(self, id, &line, None) {
                        // The original run succeeded; a replay failure
                        // means the environment changed (e.g. the matrix
                        // file is gone). Serve what survives.
                        eprintln!("parsplu serve: journal replay of `{line}` failed: {response}");
                    }
                }
                Record::AppliedIds { session, ids } => {
                    let mut trackers = self.trackers.lock().unwrap();
                    let tracker = trackers.entry(session).or_default();
                    for id in ids {
                        tracker.mark(&id, None);
                    }
                }
                Record::Compacted { .. } => {}
            }
        }
        self.replaying.store(false, Ordering::Release);
        let sessions = self.pool.stats().sessions as u64;
        self.metrics.add(Counter::SessionsReplayed, sessions);
        eprintln!(
            "parsplu serve: replayed {jobs} of {journaled} journaled job(s) (the rest \
             superseded), revived {sessions} session(s)"
        );
    }

    /// Total job ids consumed (job lines answered or queued).
    fn jobs_dispatched(&self) -> u64 {
        self.ids.load(Ordering::Relaxed)
    }

    fn next_id(&self) -> u64 {
        self.ids.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// True once a shutdown (op or external cancel) began: intake is
    /// refused, queued work drains.
    fn is_draining(&self) -> bool {
        *self.phase.lock().unwrap() != Phase::Serving
    }

    fn is_drained(&self) -> bool {
        *self.phase.lock().unwrap() == Phase::Drained
    }

    /// Begins a drain unless one began already, keeping `ack` — the
    /// `shutdown` op's reply sink and id — for [`Engine::flush_shutdown_ack`].
    /// True when this call began it.
    fn start_drain(&self, ack: Option<(Reply<'e>, u64)>) -> bool {
        let mut phase = self.phase.lock().unwrap();
        if *phase != Phase::Serving {
            return false;
        }
        *phase = Phase::Draining;
        *self.pending_ack.lock().unwrap() = ack;
        self.drain_begun.notify_all();
        true
    }

    /// Blocks until a drain begins; cancelling `token` begins one.
    fn await_drain(&self, token: Option<&CancelToken>) {
        let mut phase = self.phase.lock().unwrap();
        while *phase == Phase::Serving && !token.is_some_and(CancelToken::is_cancelled) {
            phase = self.drain_begun.wait_timeout(phase, POLL_TICK).unwrap().0;
        }
        *phase = (*phase).max(Phase::Draining);
    }

    fn worker_loop(&self, w: usize) {
        while let Some(job) = self.lanes[w].pop() {
            let t0 = Instant::now();
            let (Ok(response) | Err(response)) =
                serve_job(self, job.id, &job.line, job.token.as_ref());
            let ns = t0.elapsed().as_nanos() as u64;
            let old = self.job_ns.load(Ordering::Relaxed);
            let new = if old == 0 { ns } else { old - old / 8 + ns / 8 };
            self.job_ns.store(new, Ordering::Relaxed);
            let _ = (job.reply)(&response);
        }
    }

    /// A uniform sample in `[0, 1)` from a splitmix64 sequence — cheap,
    /// lock-free, and deterministic per engine (no wall-clock seeding).
    fn jitter_unit(&self) -> f64 {
        let s = self
            .jitter_seq
            .fetch_add(0x9e37_79b9_7f4a_7c15, Ordering::Relaxed)
            .wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = s;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    }

    fn retry_after_hint(&self, depth: usize) -> f64 {
        let ewma_s = self.job_ns.load(Ordering::Relaxed) as f64 / 1e9;
        let base = ((depth as f64 + 1.0) * ewma_s).max(0.05);
        // ±25% bounded jitter so a herd of clients rejected together
        // (after a drain or restart) does not retry in lockstep and
        // re-overload the same lane in phase.
        base * (0.75 + 0.5 * self.jitter_unit())
    }

    /// Looks up `job_id`'s status for `name`'s session.
    fn check_applied(&self, name: &str, job_id: &str) -> IdStatus {
        let trackers = self.trackers.lock().unwrap();
        match trackers.get(name) {
            Some(t) => t.check(job_id),
            None => IdStatus::New,
        }
    }

    /// Marks `job_id` applied for `name`, caching the response.
    fn mark_applied(&self, name: &str, job_id: &str, response: Option<String>) {
        let mut trackers = self.trackers.lock().unwrap();
        trackers
            .entry(name.to_string())
            .or_default()
            .mark(job_id, response);
    }

    /// Compacts the journal once it has outgrown its post-compaction
    /// baseline: the whole job history is replaced by one snapshot per
    /// live session (last analyze line + last numeric line) plus the
    /// applied-id sets. Called after appends; a no-op without a journal
    /// or below the growth threshold, and aborted (retried after later
    /// appends) while any session is mid-job.
    fn maybe_compact(&self) {
        /// Never compact below this size — churning a tiny journal buys
        /// nothing.
        const COMPACT_MIN_BYTES: u64 = 256 * 1024;
        let Some(journal) = &self.journal else {
            return;
        };
        if journal.bytes() < (journal.compact_baseline() * 4).max(COMPACT_MIN_BYTES) {
            return;
        }
        match journal.compact_with(|| self.gather_snapshot()) {
            Ok(true) => self.metrics.incr(Counter::JournalCompactions),
            Ok(false) => {}
            Err(e) => eprintln!("parsplu serve: journal compaction failed: {e}"),
        }
    }

    /// The compaction snapshot: equivalent-under-replay records for the
    /// current state. Runs under the journal writer lock (so concurrent
    /// mutating jobs append to the *new* file, never into the discarded
    /// one); returns `None` — aborting the compaction — if any session is
    /// locked by an in-flight job, rather than stalling the append path.
    fn gather_snapshot(&self) -> Option<Vec<Record>> {
        let cells = self.pool.live_cells();
        let mut records = Vec::new();
        for (_, cell) in &cells {
            let entry = cell.try_lock().ok()?;
            for line in [&entry.analyze_line, &entry.numeric_line]
                .into_iter()
                .flatten()
            {
                let mut toks: Vec<String> = line.split_whitespace().map(String::from).collect();
                let job_id = extract_job_id(&mut toks).ok().flatten();
                records.push(Record::Job {
                    job_id,
                    line: line.clone(),
                });
            }
        }
        let trackers = self.trackers.lock().unwrap();
        let mut names: Vec<&String> = trackers.keys().collect();
        names.sort();
        for name in names {
            let ids: Vec<String> = trackers[name].order.iter().cloned().collect();
            if !ids.is_empty() {
                records.push(Record::AppliedIds {
                    session: name.clone(),
                    ids,
                });
            }
        }
        records.push(Record::Compacted {
            live_sessions: cells.len() as u64,
        });
        Some(records)
    }

    /// Routes one line: skips blanks/comments, answers control ops,
    /// refuses overload/draining with structured errors, queues real jobs
    /// onto their session's lane.
    pub fn submit(&self, raw: &str, reply: &Reply<'e>, token: Option<&CancelToken>) -> Submitted {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            return Submitted::Skipped;
        }
        if line == "quit" {
            return Submitted::Quit;
        }
        let id = self.next_id();
        let mut tk = line.split_whitespace();
        let op = tk.next().unwrap_or("");
        let name = tk.next().unwrap_or("");
        if op == "stats" {
            let _ = reply(&self.stats_response(id));
            return Submitted::Control;
        }
        if op == "shutdown" && self.start_drain(Some((Arc::clone(reply), id))) {
            return Submitted::Shutdown;
        }
        if self.is_draining() {
            let _ = reply(&Head(id, op, name).refusal());
            return Submitted::Rejected;
        }
        let lane = lane_of(name, self.lanes.len());
        // Each job gets a *child* of the caller's token: cancelling the
        // connection still aborts its in-flight jobs, but a contained job
        // failure — the executors' abort-drain path cancels the run token
        // to release parked workers — must not stick a cancellation onto
        // the connection and kill every later job on it.
        let job = Job {
            id,
            line: line.to_string(),
            reply: Arc::clone(reply),
            token: token.map(CancelToken::child),
        };
        match self.lanes[lane].try_push(job) {
            Ok(depth) => {
                self.metrics
                    .record_max(Counter::QueueDepthPeak, depth as u64);
                Submitted::Queued
            }
            Err(LaneRejected::Full { item, depth }) => {
                self.metrics.incr(Counter::JobsRejectedOverload);
                let hint = self.retry_after_hint(depth);
                let extra = |w: &mut JsonWriter| {
                    w.key("queue_depth").lit(depth);
                    w.key("retry_after_hint").lit(format_args!("{hint:.3}"));
                };
                let error =
                    format_args!("lane queue is full ({depth} job(s) ahead); retry after the hint");
                let head = Head(item.id, op, name);
                let _ = (item.reply)(&head.error("overloaded", 8, extra, error));
                Submitted::Rejected
            }
            Err(LaneRejected::Closed { item }) => {
                let _ = (item.reply)(&Head(item.id, op, name).refusal());
                Submitted::Rejected
            }
        }
    }

    /// A one-line error for a framing fault, consuming a job id so the
    /// client still sees exactly one response per frame.
    fn frame_response(&self, fault: FrameFault) -> String {
        let cap = self.cfg.max_line_bytes;
        let (kind, bytes, error) = match fault {
            FrameFault::Oversize(n) => (
                "oversize_frame",
                n,
                format!(
                    "line of {n} bytes exceeds --max-line-bytes ({cap}); frame discarded, \
                     stream resynced"
                ),
            ),
            FrameFault::Nul(len) => (
                "invalid_frame",
                len,
                format!("NUL byte in a {len}-byte job line; binary frames are not accepted"),
            ),
            FrameFault::Partial(len) => (
                "invalid_frame",
                len,
                format!(
                    "connection idled out with a {len}-byte partial frame buffered (no \
                     trailing newline); the fragment was discarded"
                ),
            ),
        };
        let extra = |w: &mut JsonWriter| {
            w.key("bytes").lit(bytes);
        };
        Head(self.next_id(), "frame", "").error(kind, 2, extra, error)
    }

    /// The response to an `idle_timeout` disconnect, written before the
    /// daemon drops the connection.
    fn idle_response(&self, limit: Duration) -> String {
        let secs = limit.as_secs_f64();
        let error = format_args!("connection idle for more than {secs:.1}s; closing");
        Head(self.next_id(), "idle", "").error("idle_timeout", 2, |_| {}, error)
    }

    fn stats_response(&self, id: u64) -> String {
        use Counter::*;
        let pool = self.pool.stats();
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let counters = |w: &mut JsonWriter, counters: &[Counter]| {
            for &c in counters {
                w.key(c.name()).lit(self.metrics.get(c));
            }
        };
        let journal = self.journal.as_ref();
        Head(id, "stats", "").reply("ok", |w| {
            w.key("workers").lit(self.cfg.workers);
            w.key("queue_cap").lit(self.cfg.queue_cap);
            w.key("queue_depths").arr(|w| {
                for lane in &self.lanes {
                    w.lit(lane.depth());
                }
            });
            counters(w, &[QueueDepthPeak]);
            w.key("sessions").lit(pool.sessions);
            w.key("evicted_tombstones").lit(pool.evicted_tombstones);
            w.key("resident_bytes").lit(pool.resident_bytes);
            w.key("scratch_bytes").lit(pool.scratch_bytes);
            let peak = self.metrics.get(ResidentSessionBytesPeak);
            w.key("resident_bytes_peak").lit(peak);
            let budget = self.cfg.session_budget;
            w.key("session_budget").opt(budget, JsonWriter::lit);
            w.key("draining").lit(self.is_draining());
            w.key("jobs_dispatched").lit(self.jobs_dispatched());
            counters(w, &[SessionsEvicted, JobsRejectedOverload]);
            counters(w, &[ConnectionsDropped]);
            let uptime = self.started.elapsed().as_secs_f64();
            w.key("uptime_s").lit(format_args!("{uptime:.3}"));
            let durability = journal.map(|j| j.durability().name());
            w.key("durability").opt(durability, JsonWriter::str);
            w.key("journal_bytes").lit(journal.map_or(0, |j| j.bytes()));
            counters(w, &[JournalAppends, JournalCompactions, SessionsReplayed]);
            counters(w, &[JobsDedupedReplay, RefactorRealised, RefactorFallback]);
            counters(w, &[RealisedWords]);
            w.key("values_streamed").lit(load(&self.values_streamed));
            w.key("values_parsed").lit(load(&self.values_parsed));
            w.key("analyses").lit(pool.analyses);
            w.key("analyses_shared").lit(load(&self.analyses_shared));
        })
    }

    /// Forces any batched (relaxed-durability) journal writes to disk —
    /// the drain path, so a graceful shutdown never loses acknowledged
    /// work even in relaxed mode.
    fn sync_journal(&self) {
        if let Some(j) = &self.journal {
            if let Err(e) = j.sync() {
                eprintln!("parsplu serve: journal sync on drain failed: {e}");
            }
        }
    }

    /// Writes the deferred `shutdown` acknowledgement (after the lanes are
    /// drained and every in-flight response is flushed).
    fn flush_shutdown_ack(&self) {
        if let Some((reply, id)) = self.pending_ack.lock().unwrap().take() {
            let jobs = self.jobs_dispatched();
            let _ = reply(&Head(id, "shutdown", "").reply("ok", |w| {
                w.key("drained").lit(true).key("jobs").lit(jobs);
            }));
        }
    }

    /// Adds the engine's live daemon counters to a job's registry, where
    /// they are zero, so that the job's run report carries them.
    fn fold_daemon_counters(&self, obs: &ObsSession) {
        use Counter::*;
        let daemon = [
            SessionsEvicted,
            JobsRejectedOverload,
            ConnectionsDropped,
            QueueDepthPeak,
            ResidentSessionBytesPeak,
            SessionsReplayed,
            JobsDedupedReplay,
            JournalAppends,
            JournalCompactions,
        ];
        for c in daemon {
            obs.metrics().add(c, self.metrics.get(c));
        }
    }
}

/// Where an engine is in its life.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Phase {
    /// Lines are submitted.
    Serving,
    /// A drain began: every line is refused, queued jobs still run.
    Draining,
    /// The lanes ran dry and the shutdown ack was written: feeders close.
    Drained,
}

/// A frame that is not a job, answered with a one-line error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameFault {
    /// A line longer than `--max-line-bytes`, of this many bytes, was
    /// discarded; the stream resynced at the next newline.
    Oversize(usize),
    /// A line of this many bytes held a NUL byte: a binary frame on a
    /// text protocol.
    Nul(usize),
    /// The connection idled out with this many bytes of an unterminated
    /// line buffered; the fragment is reported (then discarded) instead of
    /// vanishing.
    Partial(usize),
}

/// What every reply begins with: the job id, the job's op and session.
struct Head<'a>(u64, &'a str, &'a str);

impl Head<'_> {
    /// A reply line: the head, `status`, then the members `body` writes.
    fn reply(&self, status: &str, body: impl FnOnce(&mut JsonWriter)) -> String {
        let mut w = JsonWriter::default();
        w.obj(|w| {
            w.key("id").lit(self.0).key("op").str(self.1);
            w.key("session").str(self.2);
            w.key("status").str(status);
            body(w);
        });
        w.finish()
    }

    /// An error reply: its `kind`, the `exit_code` a local run would have
    /// used, the members `extra` writes, and the `error` message last.
    fn error(
        &self,
        kind: &str,
        exit_code: i32,
        extra: impl FnOnce(&mut JsonWriter),
        error: impl std::fmt::Display,
    ) -> String {
        self.reply("error", |w| {
            w.key("kind").str(kind).key("exit_code").lit(exit_code);
            extra(w);
            w.key("error").str(error);
        })
    }

    /// The refusal of a job that arrives while the daemon drains.
    fn refusal(&self) -> String {
        let error = "the daemon is draining and accepts no new jobs";
        self.error("shutting_down", 8, |_| {}, error)
    }
}

/// Reduces recovered journal records to what a compaction would have kept
/// — the rule of [`Engine::gather_snapshot`]: a session's state under
/// replay is its last `analyze` line plus the last numeric line since (a
/// `factor` or `refactor` replaces the values wholesale, an `analyze` the
/// session). Only those are left to re-execute; a job they supersede is
/// restored id-only, in its place in the order, exactly as an `AppliedIds`
/// record restores it — so its retry sees `duplicate_replay`, as it does
/// after any compaction. Lines this daemon does not journal pass through.
fn reduce_for_replay(records: Vec<Record>) -> Vec<Record> {
    // Per session, the record index of [last analyze, last numeric since].
    let mut standing: HashMap<String, [Option<usize>; 2]> = HashMap::new();
    // Per record, (job id, session) of a journaled mutating job line.
    let mut heads = Vec::with_capacity(records.len());
    for (i, rec) in records.iter().enumerate() {
        heads.push(None);
        let Record::Job { line, .. } = rec else {
            continue;
        };
        let mut toks: Vec<String> = line.split_whitespace().map(String::from).collect();
        let job_id = extract_job_id(&mut toks).ok().flatten();
        let (Some(op), Some(name)) = (toks.first(), toks.get(1)) else {
            continue;
        };
        let slot = standing.entry(name.clone()).or_default();
        match op.as_str() {
            "analyze" => *slot = [Some(i), None],
            "factor" | "refactor" => slot[1] = Some(i),
            _ => continue,
        }
        heads[i] = Some((job_id, name.clone()));
    }
    let standing: HashSet<usize> = standing.into_values().flatten().flatten().collect();
    let reduced = records.into_iter().zip(heads).enumerate();
    reduced
        .filter_map(|(i, (rec, head))| match head {
            Some((job_id, session)) if !standing.contains(&i) => {
                job_id.map(|id| Record::AppliedIds {
                    session,
                    ids: vec![id],
                })
            }
            _ => Some(rec),
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Job execution
// ---------------------------------------------------------------------------

/// Runs one serve-mode job line, returning the one-line JSON response:
/// `Ok` when the job succeeded, `Err` when the response is an error.
///
/// This is also the idempotency and durability boundary. The optional
/// `--job-id <token>` is stripped here (it is protocol, not job
/// grammar): a duplicate of an applied id returns the cached original
/// response (or `duplicate_replay`, exit 9, once the response has aged
/// out). A successful mutating job is journaled *before* the response is
/// returned — if the append fails, the response becomes
/// `journal_corrupt` (exit 10) and the id is *not* marked applied, so
/// the client's retry re-executes (deterministically, to the same state)
/// rather than trusting an ack the disk never saw.
fn serve_job(
    engine: &Engine<'_>,
    id: u64,
    line: &str,
    token: Option<&CancelToken>,
) -> Result<String, String> {
    let mut toks: Vec<String> = line.split_whitespace().map(String::from).collect();
    let job_id = extract_job_id(&mut toks)
        .map_err(|msg| Head(id, "", "").error("bad_request", 2, |_| {}, msg))?;
    let op = toks.first().map_or("", String::as_str);
    let name = toks.get(1).map_or("", String::as_str);
    let head = Head(id, op, name);
    let replaying = engine.replaying.load(Ordering::Acquire);
    if let Some(jid) = &job_id {
        if !replaying {
            match engine.check_applied(name, jid) {
                IdStatus::New => {}
                IdStatus::Cached(original) => {
                    engine.metrics.incr(Counter::JobsDedupedReplay);
                    return Ok(original);
                }
                IdStatus::Evicted => {
                    let extra = |w: &mut JsonWriter| {
                        w.key("job_id").str(jid);
                    };
                    let error = "job id already applied but its response is no longer cached; \
                                 the work was done — query the session instead of retrying";
                    return Err(head.error("duplicate_replay", 9, extra, error));
                }
            }
        }
    }
    let t0 = Instant::now();
    let fields = match serve_job_inner(engine, &toks, line, token) {
        Ok(fields) => fields,
        Err(e) => {
            let kind = kind_of_exit(e.exit_code);
            return Err(head.error(kind, e.exit_code, |_| {}, e.message));
        }
    };
    let seconds = t0.elapsed().as_secs_f64();
    let response = head.reply("ok", |w| {
        w.key("seconds").lit(format_args!("{seconds:.6}"));
        w.raw(&fields);
    });
    let mutating = matches!(op, "analyze" | "factor" | "refactor");
    if mutating && !replaying {
        if let Some(journal) = &engine.journal {
            let record = Record::Job {
                job_id: job_id.clone(),
                line: line.to_string(),
            };
            if let Err(e) = journal.append(&record) {
                // In-memory state mutated but durability failed: the ack
                // must not claim what the disk refused. The id stays
                // unapplied so a retry re-executes (idempotently) once the
                // disk recovers.
                let error = format_args!(
                    "job applied in memory but the journal append failed ({e}); durability is \
                     not guaranteed — retry once the state-dir is writable"
                );
                return Err(head.error("journal_corrupt", 10, |_| {}, error));
            }
            engine.metrics.incr(Counter::JournalAppends);
            engine.maybe_compact();
        }
    }
    if let Some(jid) = &job_id {
        engine.mark_applied(name, jid, Some(response.clone()));
    }
    Ok(response)
}

/// [`parse_flags`] for a serve op. `--equilibrate` is refused rather than
/// ignored: a session factors the values as given (scaling is what
/// `SparseLu` adds for the one-shot commands), and the job's run report
/// would say `"equilibrate": true` of factors that were never scaled.
fn serve_flags(args: &[String], token: Option<&CancelToken>) -> Result<Cli, CliError> {
    let cli = parse_flags(args, token)?;
    if cli.opts.equilibrate {
        return Err(CliError::from(
            "`--equilibrate` is not a serve option: scaling is a SparseLu feature of the \
             one-shot `parsplu solve`; a session factors the values as given",
        ));
    }
    Ok(cli)
}

/// The fallible body of [`serve_job`]: returns the members its success
/// response carries after `seconds`.
fn serve_job_inner(
    engine: &Engine<'_>,
    toks: &[String],
    line: &str,
    token: Option<&CancelToken>,
) -> Result<String, CliError> {
    let op = toks
        .first()
        .ok_or_else(|| CliError::from("a job line needs an op"))?
        .as_str();
    let name = toks
        .get(1)
        .ok_or_else(|| CliError::from(format!("`{op}` needs a session name")))?;
    match op {
        "analyze" => {
            let path = toks
                .get(2)
                .ok_or_else(|| CliError::from("`analyze` needs a matrix path"))?;
            let cli = serve_flags(&toks[3..], token)?;
            let obs = ObsSession::new();
            let a = {
                let _p = obs.phase("parse");
                load(path)?
            };
            // A held analysis of the pattern is shared: no symbolic phase
            // runs. Otherwise the pattern moves into the new analysis.
            let analysis = match engine.pool.shared_analysis(a.pattern(), &cli.opts) {
                Some(analysis) => {
                    engine.analyses_shared.fetch_add(1, Ordering::Relaxed);
                    analysis
                }
                None => {
                    let analysis = Analysis::observed(a.pattern(), &cli.opts, &obs)?;
                    let analysis = Arc::new(analysis.with_pattern(a.into_parts().0));
                    engine.pool.pool_analysis(&analysis);
                    analysis
                }
            };
            let stats = analysis.stats();
            let meta = MatrixMeta::from_stats(&matrix_name(path), stats);
            let mut w = JsonWriter::default();
            w.key("tasks").lit(stats.graph_tasks);
            w.key("supernodes").lit(stats.supernodes);
            w.key("factor_bytes").lit(analysis.factor_bytes());
            let bytes = engine.pool.insert(
                name,
                ServeEntry {
                    session: SluSession::on(Arc::clone(&analysis)),
                    analysis,
                    values: None,
                    analyze_line: Some(line.to_string()),
                    numeric_line: None,
                },
            )?;
            engine.fold_daemon_counters(&obs);
            let report = obs.report(meta, &cli.opts, RunStatus::success());
            Ok(session_fields(w, bytes, &report))
        }
        "factor" | "refactor" => {
            let path = toks
                .get(2)
                .ok_or_else(|| CliError::from(format!("`{op}` needs a values path")))?;
            let cli = serve_flags(&toks[3..], token)?;
            let mut pin = engine.pool.pin(name)?;
            let cell = Arc::clone(pin.cell());
            let mut guard = cell.lock().unwrap();
            let e = &mut *guard;
            let obs = ObsSession::new();
            let analysis = Arc::clone(&e.analysis);
            let pattern = analysis
                .pattern()
                .expect("a pooled analysis holds its pattern");
            let values = {
                let _p = obs.phase("parse");
                read_values(engine, pattern, path)?
            };
            let a = match &values {
                Values::Streamed(v) => CscRef::new(pattern, v),
                Values::Parsed(a) => a.view(),
            };
            e.session.set_budget(cli.opts.budget.clone());
            let outcome = if op == "refactor" {
                e.session.refactor_observed(a, &obs)
            } else {
                e.session.factor_observed(a, &obs)
            };
            // The job's report keeps its own 0/1 (which path this job ran);
            // `stats` answers for the daemon's lifetime.
            for c in [Counter::RefactorRealised, Counter::RefactorFallback] {
                engine.metrics.add(c, obs.metrics().get(c));
            }
            let words = obs.metrics().get(Counter::RealisedWords);
            engine.metrics.record_max(Counter::RealisedWords, words);
            // The session survives a failed or interrupted factorization,
            // and keeps the values it had. On success the values held
            // before go now, not after the report.
            if outcome.is_ok() {
                e.values = Some(match values {
                    Values::Streamed(v) => v,
                    Values::Parsed(a) => a.into_parts().1,
                });
                e.numeric_line = Some(line.to_string());
            }
            let meta = MatrixMeta::from_stats(&matrix_name(path), e.session.stats());
            let opts = e.session.options().clone();
            let bytes = e.resident_bytes();
            pin.set_bytes(e.own_bytes());
            drop(guard);
            outcome?;
            engine.fold_daemon_counters(&obs);
            let report = obs.report(meta, &opts, RunStatus::success());
            Ok(session_fields(JsonWriter::default(), bytes, &report))
        }
        "solve" => {
            let cli = serve_flags(&toks[2..], token)?;
            let pin = engine.pool.pin(name)?;
            let cell = Arc::clone(pin.cell());
            let e = cell.lock().unwrap();
            let a = e.matrix().ok_or_else(|| {
                CliError::from(format!("session `{name}` holds no factored values"))
            })?;
            let b = match &cli.rhs {
                Some(p) => read_vector(p, a.pattern().nrows())?,
                None => manufactured_rhs(a, 1).1,
            };
            let s = &e.session;
            let (x, resid) = solve_reported(a, &b, &cli, |b, t, r| s.solve_op(a, b, t, r))?;
            // A residual that is not a number (a NaN in the right-hand
            // side or the solution) is reported as `null`.
            let mut w = JsonWriter::default();
            w.key("residual").float(resid, format_args!("{resid:.3e}"));
            let hash = solution_hash(&x);
            w.key("x_hash").str(format_args!("{hash:#018x}"));
            Ok(w.finish())
        }
        other => Err(CliError::from(format!("unknown serve op `{other}`"))),
    }
}

/// Ends the members of a session job's success response: its session's
/// `resident_bytes` and the job's run report.
fn session_fields(mut w: JsonWriter, resident_bytes: u64, report: &RunReport) -> String {
    w.key("resident_bytes").lit(resident_bytes).key("report");
    report.write_json(&mut w);
    w.finish()
}

/// The values a `factor`/`refactor` job factors.
enum Values {
    /// Streamed against the analyzed pattern.
    Streamed(Vec<f64>),
    /// A whole matrix from the general reader.
    Parsed(CscMatrix),
}

/// Reads a `factor`/`refactor` job's values file. The file is streamed
/// against the analyzed `pattern` ([`read_matrix_market_values`]): the job
/// allocates one value array and a fixed read buffer, where the general
/// reader builds the text, three triplet arrays and a pattern. Any
/// deviation from the pattern's layout reads the file through [`load`], so
/// the matrix, or the error, is the general reader's.
fn read_values(
    engine: &Engine<'_>,
    pattern: &SparsityPattern,
    path: &str,
) -> Result<Values, CliError> {
    if let Some(vals) = read_matrix_market_values(Path::new(path), pattern) {
        engine.values_streamed.fetch_add(1, Ordering::Relaxed);
        return Ok(Values::Streamed(vals));
    }
    engine.values_parsed.fetch_add(1, Ordering::Relaxed);
    Ok(Values::Parsed(load(path)?))
}

// ---------------------------------------------------------------------------
// Transport
// ---------------------------------------------------------------------------

/// Writes one response: the line and its newline in a single `write_all`
/// (two writes are two segments on a `TCP_NODELAY` socket, and two client
/// wake-ups), then a flush. `false` when either fails.
fn write_line(w: &mut impl IoWrite, s: &str) -> bool {
    let mut line = Vec::with_capacity(s.len() + 1);
    line.extend_from_slice(s.as_bytes());
    line.push(b'\n');
    w.write_all(&line).is_ok() && w.flush().is_ok()
}

/// How often socket reads and the accept loop wake to poll the engine's
/// phase, and the drain waits on a cancelled token.
const POLL_TICK: Duration = Duration::from_millis(100);

/// Runs an engine's life around `intake`, which feeds it on the calling
/// thread: opens the engine, starts one worker per lane, and drains once a
/// `shutdown` op arrives, `token` is cancelled or `intake` returns. The
/// drain closes the lanes, lets the workers run them dry, syncs the
/// journal and writes the shutdown ack, then marks the engine drained,
/// which is when feeders close. Returns the job ids consumed.
fn serve<'e>(
    cfg: ServeConfig,
    token: Option<&CancelToken>,
    intake: impl FnOnce(&Engine<'e>),
) -> Result<u64, CliError> {
    let engine = Engine::open(cfg)?;
    std::thread::scope(|scope| {
        let engine = &engine;
        let workers: Vec<_> = (0..engine.lanes.len())
            .map(|w| scope.spawn(move || engine.worker_loop(w)))
            .collect();
        scope.spawn(move || {
            engine.await_drain(token);
            // Queued jobs still run; new pushes are refused.
            engine.lanes.iter().for_each(Lane::close);
            for h in workers {
                let _ = h.join();
            }
            engine.sync_journal();
            engine.flush_shutdown_ack();
            *engine.phase.lock().unwrap() = Phase::Drained;
        });
        intake(engine);
        engine.start_drain(None);
    });
    Ok(engine.jobs_dispatched())
}

/// The serve engine on one reader/writer pair — `parsplu serve`'s stdin
/// and stdout, or the integration tests' in-process scripts: reads
/// line-delimited jobs from `reader` and writes one JSON line per job to
/// `writer` in completion order. The end of `reader` is a `quit`: the
/// replies go to another stream, which stays open for them. Returns the
/// number of job ids consumed.
pub fn serve_loop<R: BufRead, W: IoWrite + Send>(
    cfg: ServeConfig,
    reader: R,
    writer: &Mutex<W>,
    token: Option<&CancelToken>,
) -> Result<usize, CliError> {
    let reader = reader.chain(&b"\nquit\n"[..]);
    let write = |s: &str| write_line(&mut *writer.lock().unwrap(), s);
    let jobs = serve(cfg, token, |engine| feed(engine, reader, write))?;
    Ok(jobs as usize)
}

/// A bound, non-blocking daemon listener: TCP (`host:port`) or a Unix
/// domain socket (`unix:/path/to.sock`, Unix targets only).
pub enum Listener {
    /// A TCP listener.
    Tcp(std::net::TcpListener),
    /// A Unix domain socket listener; the path is unlinked on drop.
    #[cfg(unix)]
    Unix(std::os::unix::net::UnixListener, std::path::PathBuf),
}

/// An accepted connection's read half, whose reads time out each
/// [`POLL_TICK`], and its write half.
type Halves = (Box<dyn Read + Send>, Box<dyn IoWrite + Send>);

impl Listener {
    /// Binds `addr`: `unix:<path>` for a Unix domain socket, anything
    /// else as a TCP address (`127.0.0.1:0` picks an ephemeral port).
    pub fn bind(addr: &str) -> Result<Listener, CliError> {
        if let Some(path) = addr.strip_prefix("unix:") {
            #[cfg(unix)]
            {
                use std::os::unix::fs::FileTypeExt;
                // Unlink a stale socket from a previous run, but only a
                // socket — never a regular file at the same path.
                if let Ok(meta) = std::fs::symlink_metadata(path) {
                    if meta.file_type().is_socket() {
                        let _ = std::fs::remove_file(path);
                    }
                }
                let l = std::os::unix::net::UnixListener::bind(path)
                    .and_then(|l| l.set_nonblocking(true).map(|()| l))
                    .map_err(|e| CliError::from(format!("binding {addr}: {e}")))?;
                Ok(Listener::Unix(l, std::path::PathBuf::from(path)))
            }
            #[cfg(not(unix))]
            {
                let _ = path;
                Err(CliError::from(
                    "unix-socket listeners are not supported on this platform",
                ))
            }
        } else {
            let l = std::net::TcpListener::bind(addr)
                .and_then(|l| l.set_nonblocking(true).map(|()| l))
                .map_err(|e| CliError::from(format!("binding {addr}: {e}")))?;
            Ok(Listener::Tcp(l))
        }
    }

    /// The bound address, printable for clients (TCP reports the actual
    /// ephemeral port).
    pub fn local_addr_string(&self) -> String {
        match self {
            Listener::Tcp(l) => l
                .local_addr()
                .map(|a| a.to_string())
                .unwrap_or_else(|_| "<unknown>".to_string()),
            #[cfg(unix)]
            Listener::Unix(_, p) => format!("unix:{}", p.display()),
        }
    }

    /// Accepts one connection (the outer error) and splits it into its
    /// halves (the inner one).
    fn accept_conn(&self) -> std::io::Result<std::io::Result<Halves>> {
        fn halves<S: Read + IoWrite + Send + 'static>(
            s: S,
            read: std::io::Result<S>,
        ) -> std::io::Result<Halves> {
            Ok((Box::new(read?), Box::new(s)))
        }
        Ok(match self {
            Listener::Tcp(l) => {
                let (s, _) = l.accept()?;
                // One-line responses to interactive clients: Nagle's
                // algorithm only adds delayed-ACK stalls here.
                let _ = s.set_nodelay(true);
                let read = s.set_read_timeout(Some(POLL_TICK));
                let read = read.and_then(|()| s.try_clone());
                halves(s, read)
            }
            #[cfg(unix)]
            Listener::Unix(l, _) => {
                let (s, _) = l.accept()?;
                let read = s.set_read_timeout(Some(POLL_TICK));
                let read = read.and_then(|()| s.try_clone());
                halves(s, read)
            }
        })
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Listener::Unix(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// What a finished daemon served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeSummary {
    /// Job lines answered (accepted or structurally refused).
    pub jobs: u64,
    /// Connections accepted over the daemon's lifetime.
    pub connections: u64,
}

/// Runs the daemon on a bound listener until a `shutdown` op arrives or
/// `token` is cancelled, then drains queued jobs, flushes their
/// responses, and returns. Every connection is an independent feeder onto
/// one shared engine: sessions, lanes, and the budget are daemon-global.
/// Connections are accepted until the engine has drained; during the
/// drain their lines are refused.
pub fn serve_daemon(
    cfg: ServeConfig,
    listener: Listener,
    token: Option<&CancelToken>,
) -> Result<ServeSummary, CliError> {
    let mut connections = 0;
    let jobs = serve(cfg, token, |engine| {
        std::thread::scope(|scope| {
            while !engine.is_drained() {
                match listener.accept_conn() {
                    Ok(Ok((read, write))) => {
                        connections += 1;
                        let write = Mutex::new(write);
                        let write = move |s: &str| write_line(&mut *write.lock().unwrap(), s);
                        scope.spawn(move || feed(engine, BufReader::new(read), write));
                    }
                    Ok(Err(_)) => engine.metrics.incr(Counter::ConnectionsDropped),
                    Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(POLL_TICK),
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => break,
                }
            }
            // A failed listener ends the intake: drain, so feeders close.
            engine.start_drain(None);
        })
    })?;
    Ok(ServeSummary { jobs, connections })
}

/// A connection's reply side.
struct Sink<F> {
    write: F,
    /// Set once a write failed: the client is gone.
    dead: AtomicBool,
    /// Responses promised to this client but not yet attempted. The
    /// feeder increments before each reply-producing event; the reply
    /// closure decrements on every attempt. EOF with `owed > 0` means
    /// the client vanished before its answers — a genuine drop. EOF at
    /// zero is a normal close.
    owed: AtomicI64,
}

/// One connection's feeder, for every transport: frames lines off
/// `reader`, submits them to the engine, and owns the connection's cancel
/// token. A feeder that sent `shutdown` or `quit` stops reading; every
/// other one keeps reading through a drain, its lines refused, and closes
/// once the engine has drained. An unclean end (EOF mid-stream, write
/// failure, idle timeout) cancels the token so in-flight jobs for this
/// client abort at their next budget checkpoint instead of wedging a lane.
/// `connections_dropped` counts only clients that vanished with responses
/// still owed; a plain EOF after reading everything is a normal close.
fn feed<'e>(
    engine: &Engine<'e>,
    reader: impl BufRead,
    write: impl Fn(&str) -> bool + Send + Sync + 'e,
) {
    let sink = Arc::new(Sink {
        write,
        dead: AtomicBool::new(false),
        owed: AtomicI64::new(0),
    });
    let token = CancelToken::new();
    let reply: Reply<'e> = {
        let sink = Arc::clone(&sink);
        let token = token.clone();
        let metrics = Arc::clone(&engine.metrics);
        Arc::new(move |s: &str| {
            sink.owed.fetch_sub(1, Ordering::AcqRel);
            if sink.dead.load(Ordering::Acquire) {
                return false;
            }
            let ok = (sink.write)(s);
            if !ok && !sink.dead.swap(true, Ordering::AcqRel) {
                metrics.incr(Counter::ConnectionsDropped);
                token.cancel();
            }
            ok
        })
    };
    let owe = |n: i64| sink.owed.fetch_add(n, Ordering::AcqRel);
    let mut frames = FrameReader::new(reader, engine.cfg.max_line_bytes);
    let mut last_activity = Instant::now();
    while !token.is_cancelled() {
        if engine.is_drained() {
            return;
        }
        match frames.next_frame() {
            Frame::Idle => {
                if let Some(limit) = engine.cfg.idle_timeout {
                    if last_activity.elapsed() >= limit {
                        // A half-sent line deserves a structured answer,
                        // not a silent drop: report the abandoned
                        // fragment before the idle notice closes the
                        // connection.
                        let pending = frames.buffered();
                        if pending > 0 {
                            owe(1);
                            let _ = reply(&engine.frame_response(FrameFault::Partial(pending)));
                        }
                        owe(1);
                        let _ = reply(&engine.idle_response(limit));
                        break;
                    }
                }
            }
            Frame::Eof => break,
            Frame::Fault(fault) => {
                last_activity = Instant::now();
                owe(1);
                let _ = reply(&engine.frame_response(fault));
            }
            Frame::Line(line) => {
                last_activity = Instant::now();
                // Promise one response up front: inline answers (stats,
                // refusals) repay it inside `submit`, queued jobs repay
                // it when a worker replies, and the deferred shutdown ack
                // repays it from `flush_shutdown_ack`.
                owe(1);
                match engine.submit(&line, &reply, Some(&token)) {
                    Submitted::Skipped => {
                        owe(-1);
                    }
                    Submitted::Quit => {
                        owe(-1);
                        return;
                    }
                    Submitted::Shutdown => return,
                    _ => {}
                }
            }
        }
    }
    // The clean ends returned above. The write half lives on inside any
    // queued jobs' reply Arcs, so responses already accepted still flush
    // before the connection closes. An unclean end always cancels the token
    // (in-flight jobs abort at their next checkpoint instead of wedging a
    // lane), but only counts as a dropped connection when the client still
    // had responses owed; an EOF with nothing outstanding is just a client
    // closing up.
    token.cancel();
    if sink.owed.load(Ordering::Acquire) > 0 && !sink.dead.swap(true, Ordering::AcqRel) {
        engine.metrics.incr(Counter::ConnectionsDropped);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    /// A reader that hands out its data in tiny chunks, exercising frame
    /// reassembly across `fill_buf` boundaries.
    struct Chunked {
        data: Vec<u8>,
        pos: usize,
        chunk: usize,
        staged: Vec<u8>,
    }

    impl Chunked {
        fn new(data: &[u8], chunk: usize) -> Self {
            Chunked {
                data: data.to_vec(),
                pos: 0,
                chunk,
                staged: Vec::new(),
            }
        }
    }

    impl std::io::Read for Chunked {
        fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
            unreachable!("FrameReader uses fill_buf/consume")
        }
    }

    impl BufRead for Chunked {
        fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
            if self.staged.is_empty() {
                let end = (self.pos + self.chunk).min(self.data.len());
                self.staged = self.data[self.pos..end].to_vec();
                self.pos = end;
            }
            Ok(&self.staged)
        }

        fn consume(&mut self, amt: usize) {
            self.staged.drain(..amt);
        }
    }

    #[test]
    fn frames_lines_across_chunk_boundaries() {
        for chunk in [1, 2, 3, 7, 64] {
            let mut fr = FrameReader::new(Chunked::new(b"alpha beta\ngamma\r\ndelta", chunk), 64);
            assert_eq!(fr.next_frame(), Frame::Line("alpha beta".into()));
            assert_eq!(fr.next_frame(), Frame::Line("gamma".into()));
            assert_eq!(fr.next_frame(), Frame::Line("delta".into()));
            assert_eq!(fr.next_frame(), Frame::Eof);
            assert_eq!(fr.next_frame(), Frame::Eof);
        }
    }

    #[test]
    fn oversize_line_is_discarded_and_stream_resyncs() {
        let long = "x".repeat(100);
        let data = format!("ok one\n{long}\nok two\n");
        for chunk in [3, 16, 1024] {
            let mut fr = FrameReader::new(Chunked::new(data.as_bytes(), chunk), 32);
            assert_eq!(fr.next_frame(), Frame::Line("ok one".into()));
            assert_eq!(fr.next_frame(), Frame::Fault(FrameFault::Oversize(100)));
            assert_eq!(fr.next_frame(), Frame::Line("ok two".into()));
            assert_eq!(fr.next_frame(), Frame::Eof);
        }
        // The buffer never grows past the cap even when the line never
        // ends (oversize reported at EOF).
        let mut fr = FrameReader::new(Cursor::new("y".repeat(1000)), 32);
        assert_eq!(fr.next_frame(), Frame::Fault(FrameFault::Oversize(1000)));
        assert!(fr.buf.is_empty());
        assert!(fr.buf.capacity() <= 64);
    }

    #[test]
    fn nul_bytes_make_an_invalid_frame() {
        let mut fr = FrameReader::new(Cursor::new(b"good\nbad\0job\nalso good\n".to_vec()), 64);
        assert_eq!(fr.next_frame(), Frame::Line("good".into()));
        assert_eq!(fr.next_frame(), Frame::Fault(FrameFault::Nul(7)));
        assert_eq!(fr.next_frame(), Frame::Line("also good".into()));
        assert_eq!(fr.next_frame(), Frame::Eof);
    }

    #[test]
    fn exactly_max_bytes_is_accepted() {
        let line = "z".repeat(32);
        let mut fr = FrameReader::new(Cursor::new(format!("{line}\n")), 32);
        assert_eq!(fr.next_frame(), Frame::Line(line));
        let over = "z".repeat(33);
        let mut fr = FrameReader::new(Cursor::new(format!("{over}\n")), 32);
        assert_eq!(fr.next_frame(), Frame::Fault(FrameFault::Oversize(33)));
    }

    #[test]
    fn parse_size_suffixes() {
        assert_eq!(parse_size("4096").unwrap(), 4096);
        assert_eq!(parse_size("64k").unwrap(), 64 << 10);
        assert_eq!(parse_size("16M").unwrap(), 16 << 20);
        assert_eq!(parse_size("2g").unwrap(), 2 << 30);
        assert!(parse_size("banana").is_err());
        assert!(parse_size("999999999999g").is_err());
    }

    #[test]
    fn exit_code_kinds_are_stable() {
        assert_eq!(kind_of_exit(2), "bad_request");
        assert_eq!(kind_of_exit(3), "numeric");
        assert_eq!(kind_of_exit(4), "worker_panic");
        assert_eq!(kind_of_exit(5), "deadline");
        assert_eq!(kind_of_exit(6), "stalled");
        assert_eq!(kind_of_exit(7), "session_evicted");
        assert_eq!(kind_of_exit(8), "overloaded");
        assert_eq!(kind_of_exit(130), "cancelled");
        assert_eq!(kind_of_exit(1), "error");
    }

    #[test]
    fn solution_hash_is_bit_exact() {
        let a = [1.0, 2.0, -0.0];
        let b = [1.0, 2.0, 0.0]; // -0.0 and 0.0 differ bitwise
        assert_ne!(solution_hash(&a), solution_hash(&b));
        assert_eq!(solution_hash(&a), solution_hash(&[1.0, 2.0, -0.0]));
    }

    /// The reduction keeps each session's last `analyze` and the last
    /// numeric line since, in journal order; superseded jobs become id-only
    /// records in place (or vanish when they carried no id); everything
    /// that is not a journaled mutating job line passes through.
    #[test]
    fn replay_reduction_keeps_what_a_compaction_keeps() {
        let job = |line: &str| Record::Job {
            job_id: None,
            line: line.to_string(),
        };
        let ids = |session: &str, ids: &[&str]| Record::AppliedIds {
            session: session.to_string(),
            ids: ids.iter().map(|s| s.to_string()).collect(),
        };
        let journal = vec![
            ids("a", &["old"]),
            job("analyze a m.mtx --job-id 1"),
            job("factor a v0.mtx"),
            job("analyze b m.mtx"),
            job("--job-id 2 refactor a v1.mtx"),
            job("refactor b v1.mtx --job-id 3"),
            Record::Compacted { live_sessions: 2 },
            job("analyze a m.mtx --threads 2"),
            job("refactor a v2.mtx --job-id 4"),
            job("refactor a v3.mtx --job-id 5"),
            job("solve a"),
        ];
        let want = vec![
            ids("a", &["old"]),
            ids("a", &["1"]),
            job("analyze b m.mtx"),
            ids("a", &["2"]),
            job("refactor b v1.mtx --job-id 3"),
            Record::Compacted { live_sessions: 2 },
            job("analyze a m.mtx --threads 2"),
            ids("a", &["4"]),
            job("refactor a v3.mtx --job-id 5"),
            job("solve a"),
        ];
        assert_eq!(reduce_for_replay(journal), want);
        // What a compaction leaves behind is already reduced.
        assert_eq!(reduce_for_replay(want.clone()), want);
        assert!(reduce_for_replay(Vec::new()).is_empty());
    }

    fn tiny_entry() -> ServeEntry {
        let a = splu_matgen::grid3d_anisotropic(3, 3, 1, splu_matgen::GridOptions::default());
        let analysis = Analysis::new(a.pattern(), &Options::default()).unwrap();
        let analysis = Arc::new(analysis.with_pattern(a.into_parts().0));
        ServeEntry {
            session: SluSession::on(Arc::clone(&analysis)),
            analysis,
            values: None,
            analyze_line: None,
            numeric_line: None,
        }
    }

    #[test]
    fn pool_evicts_lru_and_leaves_tombstones() {
        let metrics = Arc::new(MetricsRegistry::new());
        let one = tiny_entry().resident_bytes();
        // Budget fits two sessions but not three.
        let pool = SessionPool::new(Some(2 * one + one / 2), Arc::clone(&metrics));
        pool.insert("a", tiny_entry()).unwrap();
        pool.insert("b", tiny_entry()).unwrap();
        // Touch `a` so `b` becomes the LRU victim.
        drop(pool.pin("a").unwrap());
        pool.insert("c", tiny_entry()).unwrap();
        let stats = pool.stats();
        assert_eq!(stats.sessions, 2);
        assert_eq!(stats.evicted_tombstones, 1);
        assert!(stats.resident_bytes <= 2 * one + one / 2);
        assert_eq!(metrics.get(Counter::SessionsEvicted), 1);
        assert!(metrics.get(Counter::ResidentSessionBytesPeak) <= 2 * one + one / 2);
        // The evicted session reports `session_evicted`, the survivors pin.
        let err = pool.pin("b").err().unwrap();
        assert_eq!(err.exit_code, 7);
        assert!(err.message.contains("re-analyze"));
        drop(pool.pin("a").unwrap());
        drop(pool.pin("c").unwrap());
        // Re-analyzing over the tombstone revives the name.
        pool.insert("b", tiny_entry()).unwrap();
        drop(pool.pin("b").unwrap());
    }

    #[test]
    fn pool_never_evicts_pinned_sessions() {
        let metrics = Arc::new(MetricsRegistry::new());
        let one = tiny_entry().resident_bytes();
        let pool = SessionPool::new(Some(one + one / 2), Arc::clone(&metrics));
        pool.insert("held", tiny_entry()).unwrap();
        let pin = pool.pin("held").unwrap();
        // Inserting a second session overflows the budget, and the only
        // other resident is pinned by an in-flight job: the newcomer
        // itself is evicted (the budget is never exceeded at rest, the
        // pinned session is untouchable).
        pool.insert("next", tiny_entry()).unwrap();
        let stats = pool.stats();
        assert_eq!(stats.sessions, 1);
        assert_eq!(stats.evicted_tombstones, 1);
        assert!(stats.resident_bytes <= one + one / 2);
        drop(pin);
        // The pinned session survived; the newcomer reports eviction.
        drop(pool.pin("held").unwrap());
        let err = pool.pin("next").err().unwrap();
        assert_eq!(err.exit_code, 7);
        assert_eq!(metrics.get(Counter::SessionsEvicted), 1);
        assert!(metrics.get(Counter::ResidentSessionBytesPeak) <= one + one / 2);
    }

    #[test]
    fn pool_rejects_a_session_larger_than_the_budget() {
        let metrics = Arc::new(MetricsRegistry::new());
        let pool = SessionPool::new(Some(16), metrics);
        let err = pool.insert("huge", tiny_entry()).unwrap_err();
        assert_eq!(err.exit_code, 2);
        assert!(err.message.contains("--session-budget"));
        assert_eq!(pool.stats().sessions, 0);
    }

    /// A writer that records every `write` call it receives.
    #[derive(Default)]
    struct CountingWriter {
        writes: Vec<Vec<u8>>,
    }

    impl IoWrite for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Each response reaches the writer as one `write`: the line and its
    /// newline together.
    #[test]
    fn every_response_is_one_write() {
        let writer = Mutex::new(CountingWriter::default());
        let script = "solve nosuch\nfrobnicate x\nrefactor nosuch m.mtx\n";
        assert_eq!(
            serve_loop(ServeConfig::default(), Cursor::new(script), &writer, None).unwrap(),
            3
        );
        let writes = writer.into_inner().unwrap().writes;
        assert_eq!(writes.len(), 3, "{writes:?}");
        for w in &writes {
            let line = std::str::from_utf8(w).unwrap();
            assert!(line.starts_with('{') && line.ends_with("}\n"), "{line}");
            assert_eq!(line.matches('\n').count(), 1, "{line}");
        }
    }

    /// A streamed job whose factorization fails — a numerically singular
    /// value set, an expired deadline — leaves the session with the values
    /// it had; a job that streams and succeeds keeps the new ones. Every
    /// job streams, the first `factor` too: the analysis holds the pattern.
    #[test]
    fn a_failed_streamed_job_leaves_the_held_values() {
        let a = splu_matgen::grid3d_anisotropic(4, 4, 2, splu_matgen::GridOptions::default());
        let dir = std::env::temp_dir();
        let file = |name: &str, m: &CscMatrix| {
            let p = dir.join(format!("parsplu-held-{}-{name}.mtx", std::process::id()));
            splu_sparse::io::write_matrix_market(m, &p).unwrap();
            p.to_str().unwrap().to_string()
        };
        let mut zeros = a.clone();
        zeros.values_mut().fill(0.0);
        let mut doubled = a.clone();
        doubled.values_mut().iter_mut().for_each(|v| *v *= 2.0);
        let paths = [
            file("a", &a),
            file("zeros", &zeros),
            file("doubled", &doubled),
        ];
        let [base, zero_values, doubled_values] = &paths;
        let engine = Engine::open(ServeConfig::default()).unwrap();
        let held = || {
            let pin = engine.pool.pin("s").unwrap();
            let e = pin.cell().lock().unwrap();
            e.values.clone().unwrap()
        };
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for line in [format!("analyze s {base}"), format!("factor s {base}")] {
            assert!(serve_job(&engine, 0, &line, None).is_ok());
        }
        for line in [
            format!("refactor s {zero_values}"),
            format!("refactor s {doubled_values} --time-limit 0.000000001"),
        ] {
            let reply = serve_job(&engine, 0, &line, None);
            assert!(reply.is_err(), "{reply:?}");
            assert_eq!(bits(&held()), bits(a.values()), "after {line}");
        }
        let reply = serve_job(&engine, 0, &format!("refactor s {doubled_values}"), None);
        assert!(reply.is_ok(), "{reply:?}");
        assert_eq!(bits(&held()), bits(doubled.values()));
        assert_eq!(engine.values_streamed.load(Ordering::Relaxed), 4);
        for p in paths {
            let _ = std::fs::remove_file(p);
        }
    }
}
