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
//! The unobserved paths ([`crate::analyze_with`] without a session,
//! `NumericRequest.metrics == None`, `TraceConfig::off()`) never read the
//! clock and never count, so the bitwise-invariance guarantees of the
//! front half and the executors are untouched.

use crate::{LuError, Options, Stats};
use parking_lot::Mutex;
use splu_obs::{heap_stats, reset_heap_peak, HeapStats, MetricsRegistry, PipelineTrace};
use splu_obs::{SpanEvent, SpanGuard};
use splu_sched::{EventKind, ExecTrace, FactorHealth, SchedStats, Task, TraceConfig};
use std::fmt::{self, Write as _};
use std::sync::Arc;

/// Canonical pipeline phase names, in pipeline order — the driver spans
/// that [`RunReport::phases_s`] aggregates, and the only names
/// `splu_bench::json::validate_run_report` accepts there.
pub const PHASE_NAMES: [&str; 13] = [
    "parse",
    "scale_transversal",
    "ordering",
    "symbolic_fill",
    "eforest_postorder",
    "supernode_partition",
    "graph_build",
    "derive",
    "static_lists",
    "layout",
    "assemble",
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
    /// The structure a session `factor` / `refactor` (or a
    /// `SparseLu::factor`) ran on.
    refactor: Option<RefactorPath>,
}

/// Which structure answered a session `factor` or `refactor` (and so a
/// [`SparseLu::factor`](crate::SparseLu::factor); DESIGN.md §5.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefactorPath {
    /// The static structure `Ā`, valid for every pivot sequence.
    Static,
    /// The in-block structure: what the input fills while every pivot
    /// comes from its own supernode's diagonal block.
    Realised,
    /// A pivot left its diagonal block at this (global, factorization-
    /// order) column; the job was answered through the static structure.
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

    /// Deposits which structure a session `factor` / `refactor` ran on.
    pub fn capture_refactor(&self, path: RefactorPath) {
        self.captured.lock().refactor = Some(path);
    }

    /// Renders everything the session observed as one Chrome `trace_event`
    /// JSON document: pid 0 carries the driver's phase spans, pid 1 the
    /// numeric executor's workers — all sharing the session epoch.
    pub fn chrome_json(&self) -> String {
        fn meta(w: &mut JsonWriter, what: &str, pid: u8, tid: usize, name: impl fmt::Display) {
            w.obj(|w| {
                w.key("ph").str("M").key("name").str(what);
                w.key("pid").lit(pid).key("tid").lit(tid);
                w.key("args").obj(|w| {
                    w.key("name").str(name);
                });
            });
        }
        let events = self.trace.events();
        let cap = self.captured.lock();
        let numeric = cap.numeric_trace.as_ref();
        let mut w = JsonWriter::default();
        w.obj(|w| {
            w.key("displayTimeUnit").str("ms");
            w.key("traceEvents").arr(|w| {
                meta(w, "process_name", 0, 0, "pipeline");
                meta(w, "thread_name", 0, 0, "driver");
                if let Some((nt, _)) = numeric {
                    meta(w, "process_name", 1, 0, "numeric executor");
                    for t in 0..nt.nthreads {
                        meta(w, "thread_name", 1, t, format_args!("worker {t}"));
                    }
                }
                for e in &events {
                    w.obj(|w| {
                        w.key("ph").str("X").key("name").str(&e.name);
                        w.key("cat").str("phase").key("pid").lit(0);
                        w.key("tid").lit(0).key("ts").lit(e.start_us);
                        w.key("dur").lit(e.dur_us).key("args").obj(|_| {});
                    });
                }
                let Some((nt, tasks)) = numeric else { return };
                for e in &nt.events {
                    w.obj(|w| {
                        w.key("ph").str("X").key("name");
                        let cat = match e.kind {
                            EventKind::Task { tid } => {
                                match tasks.get(tid) {
                                    Some(task) => w.str(task),
                                    None => w.str(format_args!("task {tid}")),
                                };
                                "task"
                            }
                            EventKind::Steal { victim, success } => {
                                match success {
                                    true => w.str(format_args!("steal<-{victim}")),
                                    false => w.str("steal-miss"),
                                };
                                "steal"
                            }
                            EventKind::Park => {
                                w.str("idle");
                                "idle"
                            }
                        };
                        w.key("cat").str(cat).key("pid").lit(1);
                        let us = |ns: u64| ns as f64 / 1e3;
                        let (ts, dur) = (us(e.start_ns), us(e.end_ns - e.start_ns));
                        w.key("tid").lit(e.worker);
                        w.key("ts").lit(format_args!("{ts:.3}"));
                        w.key("dur").lit(format_args!("{dur:.3}"));
                        w.key("args").obj(|_| {});
                    });
                }
            });
        });
        w.finish()
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
    /// The structure a session `factor` / `refactor` (or a
    /// `SparseLu::factor`) ran on (`None` for any other run).
    pub refactor: Option<RefactorPath>,
    /// Heap counters at report time (counting allocator installed only).
    pub heap: Option<HeapStats>,
    /// Per-phase heap high-water bytes (counting allocator installed only).
    pub heap_phases: Vec<(&'static str, u64)>,
    /// How the run ended.
    pub status: RunStatus,
}

impl RunReport {
    /// Serializes the report as one compact line of schema
    /// `parsplu-run-report/1` JSON (validated by
    /// `splu_bench::json::validate_run_report`).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::default();
        self.write_json(&mut w);
        w.finish()
    }

    /// Writes the report as the next value of `w`.
    pub fn write_json(&self, w: &mut JsonWriter) {
        let (m, o) = (&self.matrix, &self.options);
        let debug = |w: &mut JsonWriter, key, v: &dyn fmt::Debug| {
            w.key(key).str(format_args!("{v:?}"));
        };
        w.obj(|w| {
            w.key("schema").str(self.schema);
            w.key("package_version").str(self.package_version);
            w.key("matrix").obj(|w| {
                w.key("name").str(&m.name);
                w.key("n").lit(m.n).key("nnz").lit(m.nnz);
            });
            w.key("options").obj(|w| {
                debug(w, "ordering", &o.ordering);
                w.key("postorder").lit(o.postorder);
                w.key("amalgamation").lit(o.amalgamation.is_some());
                w.key("threads").lit(o.threads);
                debug(w, "mapping", &o.mapping);
                w.key("pivot_threshold").f64(o.pivot_threshold);
                debug(w, "pivot_rule", &o.pivot_rule);
                w.key("equilibrate").lit(o.equilibrate);
                debug(w, "kernels", &o.kernels);
                debug(w, "breakdown", &o.breakdown);
            });
            w.key("kernel").opt(self.kernel.as_ref(), JsonWriter::str);
            w.key("phases_s").obj(|w| {
                for &(name, t) in &self.phases_s {
                    w.key(name).f64(t);
                }
            });
            w.key("counters").obj(|w| {
                for (name, v) in &self.counters {
                    w.key(name).lit(v);
                }
            });
            w.key("sched").opt(self.sched.as_ref(), |w, s| {
                w.obj(|w| {
                    w.key("nthreads").lit(s.nthreads);
                    w.key("n_tasks").lit(s.n_tasks);
                    w.key("wall_s").f64(s.wall_s);
                    w.key("busy_s").f64(s.busy_total());
                    w.key("idle_s").f64(s.idle_total());
                    w.key("steal_s").f64(s.steal_total());
                    w.key("load_imbalance").f64(s.load_imbalance());
                    w.key("parallel_efficiency").f64(s.parallel_efficiency());
                    w.key("critical_path_s")
                        .opt(s.critical_path_s, JsonWriter::f64);
                })
            });
            w.key("health").opt(self.health.as_ref(), |w, h| {
                w.obj(|w| {
                    w.key("perturbed_columns").arr(|w| {
                        for c in &h.perturbed_columns {
                            w.lit(c);
                        }
                    });
                    w.key("max_perturbation").f64(h.max_perturbation);
                    w.key("growth").f64(h.growth);
                    w.key("condest").opt(h.condest, JsonWriter::f64);
                })
            });
            w.key("refactor").opt(self.refactor, |w, path| {
                let (name, diverged) = match path {
                    RefactorPath::Static => ("static", None),
                    RefactorPath::Realised => ("realised", None),
                    RefactorPath::Fallback { column } => ("fallback", Some(column)),
                };
                w.obj(|w| {
                    w.key("path").str(name);
                    w.key("diverged_column").opt(diverged, JsonWriter::lit);
                })
            });
            w.key("heap").opt(self.heap, |w, hs| {
                w.obj(|w| {
                    w.key("current_bytes").lit(hs.current_bytes);
                    w.key("peak_bytes").lit(hs.peak_bytes);
                })
            });
            w.key("heap_phases").obj(|w| {
                for &(name, v) in &self.heap_phases {
                    w.key(name).lit(v);
                }
            });
            w.key("status").obj(|w| {
                w.key("ok").lit(self.status.ok);
                w.key("kind").str(&self.status.kind);
                w.key("error")
                    .opt(self.status.error.as_ref(), JsonWriter::str);
            });
        });
    }
}

/// The one JSON writer: the run report, the Chrome trace and every daemon
/// reply are written through it, each as one compact line. It owns the
/// format: separators, string escaping (quotes, backslashes and control
/// characters; everything else stays UTF-8), `None` and non-finite floats
/// as `null`, and numerals written as the caller formatted them
/// ([`lit`](Self::lit), [`float`](Self::float)).
///
/// Inside an object, [`key`](Self::key) comes before each value.
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// The next value follows a sibling and needs a `,`.
    comma: bool,
}

impl JsonWriter {
    /// The text written.
    pub fn finish(self) -> String {
        self.out
    }

    /// Begins a value: the `,` after a sibling.
    fn value(&mut self) -> &mut String {
        if std::mem::replace(&mut self.comma, true) {
            self.out.push(',');
        }
        &mut self.out
    }

    /// Writes an object member's key; its value comes next.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.str(key).out.push(':');
        self.comma = false;
        self
    }

    /// Writes `{`, the members `body` writes, and `}`.
    pub fn obj(&mut self, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.nest('{', '}', body)
    }

    /// Writes `[`, the elements `body` writes, and `]`.
    pub fn arr(&mut self, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.nest('[', ']', body)
    }

    fn nest(&mut self, open: char, close: char, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.value().push(open);
        self.comma = false;
        body(self);
        self.out.push(close);
        self.comma = true;
        self
    }

    /// Writes `s`'s rendering as a string, escaped.
    pub fn str(&mut self, s: impl fmt::Display) -> &mut Self {
        self.value().push('"');
        let _ = write!(Escaped(&mut self.out), "{s}");
        self.out.push('"');
        self
    }

    /// Writes `v`'s rendering as it is: an integer, a `bool`, or a numeral
    /// the caller formatted.
    pub fn lit(&mut self, v: impl fmt::Display) -> &mut Self {
        let _ = write!(self.value(), "{v}");
        self
    }

    /// Writes `numeral` (`format_args!("{v:.3e}")`) if `v` is finite,
    /// `null` otherwise: JSON has no NaN or infinity.
    pub fn float(&mut self, v: f64, numeral: fmt::Arguments<'_>) -> &mut Self {
        match v.is_finite() {
            true => self.lit(numeral),
            false => self.lit("null"),
        }
    }

    /// Writes `v` in the shortest form that reads back to its bits, or
    /// `null` when it is not finite.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.float(v, format_args!("{v}"))
    }

    /// Writes `null` for `None`, or what `some` writes of the value.
    pub fn opt<T>(
        &mut self,
        v: Option<T>,
        some: impl FnOnce(&mut Self, T) -> &mut Self,
    ) -> &mut Self {
        match v {
            Some(v) => some(self, v),
            None => self.lit("null"),
        }
    }

    /// Writes already-written JSON text as it is, as the next value (or,
    /// inside an object, as the next members).
    pub fn raw(&mut self, json: &str) -> &mut Self {
        self.value().push_str(json);
        self
    }
}

/// Escapes what is written through it for the inside of a JSON string:
/// quotes, backslashes and control characters.
struct Escaped<'a>(&'a mut String);

impl fmt::Write for Escaped<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for c in s.chars() {
            match c {
                '"' => self.0.push_str("\\\""),
                '\\' => self.0.push_str("\\\\"),
                '\n' => self.0.push_str("\\n"),
                '\r' => self.0.push_str("\\r"),
                '\t' => self.0.push_str("\\t"),
                c if (c as u32) < 0x20 => write!(self.0, "\\u{:04x}", c as u32)?,
                c => self.0.push(c),
            }
        }
        Ok(())
    }
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
        let doc = splu_client::parse(&events.chrome_json()).expect("valid JSON");
        let names: Vec<&str> = doc
            .get("traceEvents")
            .and_then(|t| t.as_arr())
            .unwrap()
            .iter()
            .filter(|e| e.get("cat").and_then(|c| c.as_str()) == Some("task"))
            .map(|e| e.get("name").and_then(|n| n.as_str()).unwrap())
            .collect();
        assert_eq!(names.len(), bm.num_tasks());
        assert!(names.contains(&"F(0)") && names.iter().any(|n| n.starts_with("U(")));
        assert!(
            !names.iter().any(|n| n.starts_with("task ")),
            "every task id has a label"
        );
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
            let _s = session.trace().span("warmup");
        }
        let walls = session.phase_walls();
        let names: Vec<_> = walls.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, vec!["ordering", "numeric"]);
        assert_eq!(session.span_events().len(), 4);
    }
}
