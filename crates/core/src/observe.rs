//! Pipeline-wide observability: one [`ObsSession`] observes a whole run —
//! analysis, numeric factorization, solve — and yields the two artifacts
//! the tooling consumes:
//!
//! * a **combined Chrome trace** ([`ObsSession::chrome_json`]): driver
//!   phase spans (transversal, ordering, symbolic skeleton, postorder,
//!   partition and block lists, graph build, solve) and the numeric
//!   executor's per-worker task events — all on one epoch fixed when the
//!   session was created;
//! * a **machine-readable [`RunReport`]** ([`ObsSession::report`]):
//!   versions, resolved options and kernel, per-phase wall times, every
//!   counter ([`splu_obs::Counter`] plus the scheduler's
//!   [`SchedStats::counters`]), [`FactorHealth`], heap high-water marks
//!   (when the counting allocator is installed), and the exit status —
//!   schema `parsplu-run-report/1`, validated by
//!   `splu_bench::json::validate_run_report`.
//!
//! The unobserved paths (`SymbolicRequest.obs == None`,
//! `NumericRequest.metrics == None`, `TraceConfig::off()`) never read the
//! clock and never count, so the bitwise-invariance guarantees of the
//! front half and the executors are untouched.

use crate::{LuError, Options, SparseLu, Stats};
use parking_lot::Mutex;
use splu_obs::{heap_stats, reset_heap_peak, HeapStats, MetricsRegistry, PipelineTrace};
use splu_obs::{SpanEvent, SpanGuard};
use splu_sched::{EventKind, ExecTrace, FactorHealth, SchedStats, Task, TraceConfig};
use std::fmt::Write as _;
use std::sync::Arc;

/// Canonical pipeline phase names, in pipeline order — the driver spans
/// that [`RunReport::phases_s`] aggregates, and the only names
/// `splu_bench::json::validate_run_report` accepts there.
pub const PHASE_NAMES: [&str; 9] = [
    "parse",
    "scale_transversal",
    "ordering",
    "symbolic_fill",
    "eforest_postorder",
    "supernode_partition",
    "graph_build",
    "numeric",
    "solve",
];

/// Everything the run deposits into the session as it executes.
#[derive(Debug, Default)]
struct Captured {
    /// Numeric executor aggregate (filled by `SparseLu::factor_observed`).
    sched: Option<SchedStats>,
    /// Numeric executor event stream with the task behind every task id
    /// ([`crate::BlockMatrix::tasks`]), which the Chrome export labels
    /// (full-event sessions only).
    numeric_trace: Option<(ExecTrace, Vec<Task>)>,
    /// Numeric health report.
    health: Option<FactorHealth>,
    /// Per-phase heap high-water bytes (counting allocator installed only).
    heap_phases: Vec<(&'static str, u64)>,
    /// The structure a session `refactor` ran on.
    refactor: Option<RefactorPath>,
}

/// Which structure a session `refactor` factored on (DESIGN.md §5.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefactorPath {
    /// The static structure `Ā`, valid for every pivot sequence.
    Static,
    /// The realised structure of the session's recorded pivot history.
    Realised,
    /// The pivots left the recorded history at this (global,
    /// factorization-order) column; the job was answered through the
    /// static structure.
    Fallback {
        /// First differing pivot column of the block column that noticed.
        column: usize,
    },
}

/// One observed run. Cheap to clone (shared handles); create with
/// [`ObsSession::new`] (report-grade: phase spans + counters) or
/// [`ObsSession::with_events`] (additionally collects full executor event
/// streams for the combined Chrome trace).
#[derive(Debug, Clone)]
pub struct ObsSession {
    trace: PipelineTrace,
    metrics: Arc<MetricsRegistry>,
    collect_events: bool,
    captured: Arc<Mutex<Captured>>,
}

impl PartialEq for ObsSession {
    /// Handle identity, so request structs carrying a session keep their
    /// `PartialEq` derives.
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.captured, &other.captured)
    }
}

impl Default for ObsSession {
    fn default() -> Self {
        Self::new()
    }
}

impl ObsSession {
    /// A report-grade session: driver phase spans and counters, no
    /// per-task executor event streams.
    pub fn new() -> Self {
        ObsSession {
            trace: PipelineTrace::enabled(),
            metrics: Arc::new(MetricsRegistry::new()),
            collect_events: false,
            captured: Arc::new(Mutex::new(Captured::default())),
        }
    }

    /// A full session: like [`ObsSession::new`] plus the numeric
    /// executor's per-task event stream — the combined Chrome trace input.
    pub fn with_events() -> Self {
        ObsSession {
            collect_events: true,
            ..Self::new()
        }
    }

    /// The epoch-aligned span recorder for the pipeline phases.
    pub fn trace(&self) -> &PipelineTrace {
        &self.trace
    }

    /// The shared counters registry.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// The executor trace configuration this session implies: full
    /// recording on the shared epoch for event sessions, counters only
    /// otherwise.
    pub fn executor_trace_config(&self, n_tasks: usize, nthreads: usize) -> TraceConfig {
        let config = if self.collect_events {
            TraceConfig::full(n_tasks, nthreads)
        } else {
            TraceConfig::counters()
        };
        match self.trace.epoch() {
            Some(epoch) => config.with_epoch(epoch),
            None => config,
        }
    }

    /// Opens a driver-track phase span that also attributes the heap
    /// high-water mark to the phase (when the counting allocator is
    /// installed). Phases are sequential on the driver, so resetting the
    /// peak at each phase start yields per-phase peaks.
    pub fn phase(&self, name: &'static str) -> PhaseGuard<'_> {
        reset_heap_peak();
        PhaseGuard {
            session: self,
            name,
            span: Some(self.trace.span(name)),
        }
    }

    /// Deposits the numeric executor's results: aggregate stats, health,
    /// and (in event sessions) the event stream with the tasks by task id —
    /// labels are formatted when a trace is rendered, not per run.
    pub fn capture_numeric(
        &self,
        stats: SchedStats,
        health: FactorHealth,
        numeric_trace: Option<(ExecTrace, Vec<Task>)>,
    ) {
        let mut cap = self.captured.lock();
        cap.sched = Some(stats);
        cap.health = Some(health);
        cap.numeric_trace = numeric_trace;
    }

    /// Deposits which structure a session `refactor` ran on.
    pub fn capture_refactor(&self, path: RefactorPath) {
        self.captured.lock().refactor = Some(path);
    }

    /// Renders everything the session observed as one Chrome `trace_event`
    /// JSON document: pid 0 carries the driver's phase spans, pid 1 the
    /// numeric executor's workers — all sharing the session epoch.
    pub fn chrome_json(&self) -> String {
        let events = self.trace.events();
        let cap = self.captured.lock();
        let mut out = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
        let _ = writeln!(
            out,
            "  {{\"ph\": \"M\", \"name\": \"process_name\", \"pid\": 0, \"tid\": 0, \
             \"args\": {{\"name\": \"pipeline\"}}}},"
        );
        let _ = writeln!(
            out,
            "  {{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 0, \"tid\": 0, \
             \"args\": {{\"name\": \"driver\"}}}},"
        );
        let numeric = cap.numeric_trace.as_ref();
        if let Some((nt, _)) = numeric {
            let _ = writeln!(
                out,
                "  {{\"ph\": \"M\", \"name\": \"process_name\", \"pid\": 1, \"tid\": 0, \
                 \"args\": {{\"name\": \"numeric executor\"}}}},"
            );
            for w in 0..nt.nthreads {
                let _ = writeln!(
                    out,
                    "  {{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 1, \"tid\": {w}, \
                     \"args\": {{\"name\": \"worker {w}\"}}}},"
                );
            }
        }
        let n_span = events.len();
        let n_num = numeric.map_or(0, |(t, _)| t.events.len());
        for (i, e) in events.iter().enumerate() {
            let sep = if i + 1 == n_span && n_num == 0 {
                ""
            } else {
                ","
            };
            let _ = writeln!(
                out,
                "  {{\"ph\": \"X\", \"name\": \"{}\", \"cat\": \"phase\", \"pid\": 0, \
                 \"tid\": 0, \"ts\": {}, \"dur\": {}, \"args\": {{}}}}{sep}",
                escape_json(&e.name),
                e.start_us,
                e.dur_us,
            );
        }
        if let Some((nt, tasks)) = numeric {
            for (i, e) in nt.events.iter().enumerate() {
                let (name, cat) = match e.kind {
                    EventKind::Task { tid } => (
                        match tasks.get(tid) {
                            Some(task) => task.to_string(),
                            None => format!("task {tid}"),
                        },
                        "task",
                    ),
                    EventKind::Steal { victim, success } => (
                        if success {
                            format!("steal<-{victim}")
                        } else {
                            "steal-miss".to_string()
                        },
                        "steal",
                    ),
                    EventKind::Park => ("idle".to_string(), "idle"),
                };
                let sep = if i + 1 == n_num { "" } else { "," };
                let _ = writeln!(
                    out,
                    "  {{\"ph\": \"X\", \"name\": \"{}\", \"cat\": \"{cat}\", \"pid\": 1, \
                     \"tid\": {}, \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{}}}}{sep}",
                    escape_json(&name),
                    e.worker,
                    e.start_ns as f64 / 1e3,
                    (e.end_ns - e.start_ns) as f64 / 1e3,
                );
            }
        }
        out.push_str("]}\n");
        out
    }

    /// Per-phase wall seconds, aggregated from the driver spans whose
    /// names are canonical [`PHASE_NAMES`] (several spans of one name sum;
    /// phases that never ran are omitted), in pipeline order.
    pub fn phase_walls(&self) -> Vec<(&'static str, f64)> {
        let events = self.trace.events();
        PHASE_NAMES
            .iter()
            .filter_map(|&name| {
                let mut spans = events.iter().filter(|e| e.name == name).peekable();
                spans.peek()?;
                let total_us: u64 = spans.map(|e| e.dur_us).sum();
                Some((name, total_us as f64 / 1e6))
            })
            .collect()
    }

    /// All span events recorded so far (tests and diagnostics).
    pub fn span_events(&self) -> Vec<SpanEvent> {
        self.trace.events()
    }

    /// Assembles the machine-readable [`RunReport`] from everything the
    /// session observed. `matrix` names the input; `opts` are the resolved
    /// driver options; `status` is the run's outcome
    /// ([`RunStatus::success`] / [`RunStatus::from_error`]).
    pub fn report(&self, matrix: MatrixMeta, opts: &Options, status: RunStatus) -> RunReport {
        let cap = self.captured.lock();
        let mut counters: Vec<(String, u64)> = self
            .metrics
            .snapshot()
            .iter()
            .map(|(n, v)| (n.to_string(), v))
            .collect();
        if let Some(sched) = &cap.sched {
            counters.extend(
                sched
                    .counters()
                    .into_iter()
                    .map(|(n, v)| (n.to_string(), v)),
            );
        }
        RunReport {
            schema: REPORT_SCHEMA,
            package_version: env!("CARGO_PKG_VERSION"),
            matrix,
            options: opts.clone(),
            kernel: cap.sched.as_ref().map(|s| s.kernel.to_string()),
            phases_s: self.phase_walls(),
            counters,
            sched: cap.sched.clone(),
            health: cap.health.clone(),
            refactor: cap.refactor,
            heap: heap_stats(),
            heap_phases: cap.heap_phases.clone(),
            status,
        }
    }
}

/// RAII guard from [`ObsSession::phase`]: closes the driver span and
/// attributes the phase's heap high-water mark on drop.
#[derive(Debug)]
pub struct PhaseGuard<'a> {
    session: &'a ObsSession,
    name: &'static str,
    span: Option<SpanGuard>,
}

impl Drop for PhaseGuard<'_> {
    fn drop(&mut self) {
        drop(self.span.take());
        if let Some(hs) = heap_stats() {
            self.session
                .captured
                .lock()
                .heap_phases
                .push((self.name, hs.peak_bytes));
        }
    }
}

/// The run-report schema identifier.
pub const REPORT_SCHEMA: &str = "parsplu-run-report/1";

/// Input-matrix identification for the report.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MatrixMeta {
    /// Display name (file stem or suite name; may be empty).
    pub name: String,
    /// Matrix order.
    pub n: usize,
    /// Nonzeros of the input.
    pub nnz: usize,
}

impl MatrixMeta {
    /// Metadata from the analysis statistics.
    pub fn from_stats(name: &str, stats: &Stats) -> Self {
        MatrixMeta {
            name: name.to_string(),
            n: stats.n,
            nnz: stats.nnz_a,
        }
    }
}

/// How the run ended, as the report records it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunStatus {
    /// `true` iff the run produced usable factors.
    pub ok: bool,
    /// Outcome class: `"ok"`, `"cancelled"`, `"deadline"`, `"stalled"`,
    /// `"singular"`, `"panic"`, or `"error"`.
    pub kind: String,
    /// Human-readable error rendering (`None` on success).
    pub error: Option<String>,
}

impl RunStatus {
    /// The successful outcome.
    pub fn success() -> Self {
        RunStatus {
            ok: true,
            kind: "ok".to_string(),
            error: None,
        }
    }

    /// The outcome of a failed run, classified from the error.
    pub fn from_error(e: &LuError) -> Self {
        let kind = match e {
            LuError::Cancelled { .. } => "cancelled",
            LuError::DeadlineExceeded { .. } => "deadline",
            LuError::Stalled { .. } => "stalled",
            LuError::NumericallySingular { .. } | LuError::StructurallySingular { .. } => {
                "singular"
            }
            LuError::WorkerPanic { .. } => "panic",
            _ => "error",
        };
        RunStatus {
            ok: false,
            kind: kind.to_string(),
            error: Some(e.to_string()),
        }
    }
}

/// The per-run manifest: everything a run produced, as one JSON-ready
/// struct (schema [`REPORT_SCHEMA`]). Serialize with [`RunReport::to_json`].
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Schema identifier (`parsplu-run-report/1`).
    pub schema: &'static str,
    /// The `splu-core` package version that produced the report.
    pub package_version: &'static str,
    /// Input-matrix identification.
    pub matrix: MatrixMeta,
    /// Resolved driver options.
    pub options: Options,
    /// Resolved dense-kernel instantiation (`"baseline"`, `"avx2"`,
    /// `"avx512f"`), once the numeric phase ran.
    pub kernel: Option<String>,
    /// Per-phase wall seconds in pipeline order (phases that ran only).
    pub phases_s: Vec<(&'static str, f64)>,
    /// Every counter: the [`splu_obs::Counter`] registry plus the
    /// scheduler counters, flat `(name, value)`.
    pub counters: Vec<(String, u64)>,
    /// Numeric executor aggregate, once the numeric phase ran.
    pub sched: Option<SchedStats>,
    /// Numeric health (perturbed columns, growth, condition estimate).
    pub health: Option<FactorHealth>,
    /// The structure a session `refactor` ran on (`None` for any other
    /// run).
    pub refactor: Option<RefactorPath>,
    /// Heap counters at report time (counting allocator installed only).
    pub heap: Option<HeapStats>,
    /// Per-phase heap high-water bytes (counting allocator installed only).
    pub heap_phases: Vec<(&'static str, u64)>,
    /// How the run ended.
    pub status: RunStatus,
}

impl RunReport {
    /// Serializes the report as schema-`parsplu-run-report/1` JSON
    /// (validated by `splu_bench::json::validate_run_report`).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"schema\": \"{}\",", self.schema);
        let _ = writeln!(
            out,
            "  \"package_version\": \"{}\",",
            escape_json(self.package_version)
        );
        let _ = writeln!(
            out,
            "  \"matrix\": {{\"name\": \"{}\", \"n\": {}, \"nnz\": {}}},",
            escape_json(&self.matrix.name),
            self.matrix.n,
            self.matrix.nnz
        );
        let o = &self.options;
        let _ = writeln!(
            out,
            "  \"options\": {{\"ordering\": \"{:?}\", \"postorder\": {}, \"amalgamation\": {}, \
             \"task_graph\": \"{:?}\", \"threads\": {}, \
             \"mapping\": \"{:?}\", \"pivot_threshold\": {}, \"pivot_rule\": \"{:?}\", \
             \"equilibrate\": {}, \"kernels\": \"{:?}\", \"breakdown\": \"{:?}\"}},",
            o.ordering,
            o.postorder,
            o.amalgamation.is_some(),
            o.task_graph,
            o.threads,
            o.mapping,
            json_f64(o.pivot_threshold),
            o.pivot_rule,
            o.equilibrate,
            o.kernels,
            o.breakdown,
        );
        match &self.kernel {
            Some(k) => {
                let _ = writeln!(out, "  \"kernel\": \"{}\",", escape_json(k));
            }
            None => {
                let _ = writeln!(out, "  \"kernel\": null,");
            }
        }
        out.push_str("  \"phases_s\": {");
        for (i, (name, t)) in self.phases_s.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{name}\": {}", json_f64(*t));
        }
        out.push_str("},\n  \"counters\": {");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{}\": {v}", escape_json(name));
        }
        out.push_str("},\n");
        match &self.sched {
            Some(s) => {
                let _ = writeln!(
                    out,
                    "  \"sched\": {{\"nthreads\": {}, \"n_tasks\": {}, \"wall_s\": {}, \
                     \"busy_s\": {}, \"idle_s\": {}, \"steal_s\": {}, \
                     \"load_imbalance\": {}, \"parallel_efficiency\": {}, \
                     \"critical_path_s\": {}}},",
                    s.nthreads,
                    s.n_tasks,
                    json_f64(s.wall_s),
                    json_f64(s.busy_total()),
                    json_f64(s.idle_total()),
                    json_f64(s.steal_total()),
                    json_f64(s.load_imbalance()),
                    json_f64(s.parallel_efficiency()),
                    s.critical_path_s.map_or("null".to_string(), json_f64),
                );
            }
            None => {
                let _ = writeln!(out, "  \"sched\": null,");
            }
        }
        match &self.health {
            Some(h) => {
                let mut cols = String::new();
                for (i, c) in h.perturbed_columns.iter().enumerate() {
                    if i > 0 {
                        cols.push_str(", ");
                    }
                    let _ = write!(cols, "{c}");
                }
                let _ = writeln!(
                    out,
                    "  \"health\": {{\"perturbed_columns\": [{cols}], \
                     \"max_perturbation\": {}, \"growth\": {}, \"condest\": {}}},",
                    json_f64(h.max_perturbation),
                    json_f64(h.growth),
                    h.condest.map_or("null".to_string(), json_f64),
                );
            }
            None => {
                let _ = writeln!(out, "  \"health\": null,");
            }
        }
        match self.refactor {
            None => {
                let _ = writeln!(out, "  \"refactor\": null,");
            }
            Some(path) => {
                let (name, diverged) = match path {
                    RefactorPath::Static => ("static", None),
                    RefactorPath::Realised => ("realised", None),
                    RefactorPath::Fallback { column } => ("fallback", Some(column)),
                };
                let _ = writeln!(
                    out,
                    "  \"refactor\": {{\"path\": \"{name}\", \"diverged_column\": {}}},",
                    diverged.map_or("null".to_string(), |c| c.to_string()),
                );
            }
        }
        match &self.heap {
            Some(hs) => {
                let _ = writeln!(
                    out,
                    "  \"heap\": {{\"current_bytes\": {}, \"peak_bytes\": {}}},",
                    hs.current_bytes, hs.peak_bytes
                );
            }
            None => {
                let _ = writeln!(out, "  \"heap\": null,");
            }
        }
        out.push_str("  \"heap_phases\": {");
        for (i, (name, v)) in self.heap_phases.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{name}\": {v}");
        }
        out.push_str("},\n");
        let _ = writeln!(
            out,
            "  \"status\": {{\"ok\": {}, \"kind\": \"{}\", \"error\": {}}}",
            self.status.ok,
            escape_json(&self.status.kind),
            self.status
                .error
                .as_ref()
                .map_or("null".to_string(), |e| format!("\"{}\"", escape_json(e))),
        );
        out.push_str("}\n");
        out
    }
}

/// Finite-JSON rendering of a float (`NaN`/`±inf` have no JSON form; they
/// degrade to `null`).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Escapes `s` for the inside of a JSON string literal: quotes, backslashes
/// and every control character. The one escaper behind the run report, the
/// Chrome trace and the daemon's replies.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 8);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Convenience: analyze + factor `a` under `opts` with a fresh full
/// session, returning the factorization result together with the report
/// and the session (for the Chrome trace). The one-call form of
/// [`SparseLu::factor_observed`].
pub fn factor_reported(
    a: &splu_sparse::CscMatrix,
    opts: &Options,
    name: &str,
) -> (Result<SparseLu, LuError>, RunReport, ObsSession) {
    let session = ObsSession::with_events();
    let result = SparseLu::factor_observed(a, opts, &session);
    let (matrix, status) = match &result {
        Ok(lu) => (
            MatrixMeta::from_stats(name, lu.stats()),
            RunStatus::success(),
        ),
        Err(e) => (
            MatrixMeta {
                name: name.to_string(),
                n: a.ncols(),
                nnz: a.nnz(),
            },
            RunStatus::from_error(e),
        ),
    };
    let report = session.report(matrix, opts, status);
    (result, report, session)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_classification() {
        assert_eq!(RunStatus::success().kind, "ok");
        let s = RunStatus::from_error(&LuError::Cancelled {
            columns_done: 3,
            tasks_pending: 7,
        });
        assert_eq!(s.kind, "cancelled");
        assert!(!s.ok);
        assert!(s.error.is_some());
        let s = RunStatus::from_error(&LuError::StructurallySingular { rank: 2 });
        assert_eq!(s.kind, "singular");
    }

    /// Task labels serve the Chrome export and nothing else: a report-grade
    /// session (what the daemon runs every job under) captures no event
    /// stream, an event session captures the stream with the storage's
    /// tasks and formats a label only when the trace is rendered.
    #[test]
    fn task_labels_are_formatted_by_the_chrome_export_only() {
        let a = splu_matgen::random_diag_dominant(30, 80, 3, 4.0);
        let mut s = crate::SluSession::analyze(a.pattern(), &Options::default()).unwrap();
        let report_grade = ObsSession::new();
        s.factor_observed(&a, &report_grade).unwrap();
        let cap = report_grade.captured.lock();
        assert!(cap.sched.is_some() && cap.numeric_trace.is_none());
        drop(cap);
        let events = ObsSession::with_events();
        s.refactor_observed(&a, &events).unwrap();
        let cap = events.captured.lock();
        let (trace, tasks) = cap.numeric_trace.as_ref().expect("event stream captured");
        let bm = s.block_matrix().unwrap();
        assert!(tasks.iter().copied().eq(bm.tasks()));
        assert_eq!(trace.events.len(), tasks.len(), "one event per task");
        drop(cap);
        let json = events.chrome_json();
        assert_eq!(json.matches("\"cat\": \"task\"").count(), bm.num_tasks());
        assert!(json.contains("\"name\": \"F(0)\"") && json.contains("\"name\": \"U("));
        assert!(
            !json.contains("\"name\": \"task "),
            "every task id has a label"
        );
    }

    /// A name from outside the program — here a hostile matrix name, on a
    /// span and in the report — is escaped in both documents.
    #[test]
    fn hostile_names_are_escaped_in_the_chrome_trace_and_the_report() {
        let name = "m\"x\\y\nz\u{1}";
        let escaped = "m\\\"x\\\\y\\nz\\u0001";
        let session = ObsSession::new();
        drop(session.trace().span(name));
        let json = session.chrome_json();
        assert!(json.contains(escaped), "{json}");
        assert!(json.contains("\"traceEvents\""));
        assert!(json.trim_end().ends_with("]}"));
        let matrix = MatrixMeta {
            name: name.to_string(),
            n: 1,
            nnz: 1,
        };
        let report = session.report(matrix, &Options::default(), RunStatus::success());
        assert!(report.to_json().contains(escaped));
    }

    #[test]
    fn phase_walls_aggregate_by_canonical_name() {
        let session = ObsSession::new();
        {
            let _p = session.phase("ordering");
        }
        {
            let _p = session.phase("ordering");
        }
        {
            let _p = session.phase("numeric");
        }
        // Non-canonical names are recorded as spans but not phases.
        {
            let _s = session.trace().span("assemble");
        }
        let walls = session.phase_walls();
        let names: Vec<_> = walls.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, vec!["ordering", "numeric"]);
        assert_eq!(session.span_events().len(), 4);
    }
}
