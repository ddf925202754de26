//! Command-line interface: `parsplu <command> [args]`.
//!
//! The logic lives here (returning the output as a `String`) so the
//! integration tests can drive it without spawning processes; the
//! `parsplu` binary is a thin wrapper.

use splu_core::{
    analyze_with, estimate_inverse_1norm, BreakdownPolicy, CancelToken, KernelChoice, LuError,
    MatrixMeta, ObsSession, Options, OrderingChoice, PivotRule, RunStatus, SparseLu,
    WatchdogConfig,
};
use splu_matgen::{manufactured_rhs, paper_matrix, Scale};
use splu_sched::{block_forest, Mapping};
use splu_sparse::io::{
    matrix_market_size, parse_matrix_market, write_matrix_market, LineChunks, STREAM_CHUNK,
};
use splu_sparse::{CscMatrix, CscRef, ScaledResidual, SparseError};
use std::fmt;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// A failed CLI run: the message to print on stderr plus the process exit
/// code the binary should use (see the `EXIT CODES` section of [`USAGE`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError {
    /// Human-readable error text.
    pub message: String,
    /// `2` usage/input errors, `3` numerical failures, `4` contained
    /// worker panics, `5` deadline exceeded, `6` watchdog stall,
    /// `7` session evicted under the serve memory budget, `8` serve
    /// overload / shutdown refusal, `9` duplicate job id with its cached
    /// response evicted, `10` journal append failure after an in-memory
    /// mutation, `130` cancelled (Ctrl-C).
    pub exit_code: i32,
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CliError {}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError {
            message,
            exit_code: 2,
        }
    }
}

impl From<&str> for CliError {
    fn from(message: &str) -> Self {
        CliError::from(message.to_string())
    }
}

impl From<LuError> for CliError {
    fn from(e: LuError) -> Self {
        let exit_code = match &e {
            LuError::StructurallySingular { .. }
            | LuError::NumericallySingular { .. }
            | LuError::NonFiniteInput { .. }
            | LuError::NonFinitePivot { .. } => 3,
            LuError::WorkerPanic { .. } => 4,
            LuError::DeadlineExceeded { .. } => 5,
            LuError::Stalled { .. } => 6,
            LuError::SessionEvicted { .. } => 7,
            // 128 + SIGINT, the shell convention for an interrupted run.
            LuError::Cancelled { .. } => 130,
            _ => 2,
        };
        CliError {
            message: e.to_string(),
            exit_code,
        }
    }
}

/// Usage text for `--help` and errors.
pub const USAGE: &str = "\
parsplu — parallel sparse LU with postordering and static symbolic factorization

USAGE:
  parsplu analyze <matrix.mtx> [options]        print analysis statistics
  parsplu solve   <matrix.mtx> [options]        factor and solve (manufactured RHS)
  parsplu condest <matrix.mtx> [options]        estimate the 1-norm condition number
  parsplu gen     <name> <out.mtx> [--reduced]  write a benchmark matrix
                  (names: sherman3 sherman5 lnsp3937 lns3937 orsreg1 saylr4 goodwin)
  parsplu serve   [serve options]               long-running job service

SERVE MODE:
  Reads line-delimited jobs and writes one JSON line per job, dispatching
  jobs concurrently over `--workers` threads [4]. Jobs on the same named
  session run in submission order; different sessions run in parallel.
  Responses appear in completion order. Without `--listen` jobs come from
  stdin; with it the daemon accepts any number of concurrent socket
  clients multiplexed onto the same workers and sessions.
  Serve options:
    --workers <N>          worker lanes/threads                      [4]
    --listen <addr>        accept socket clients: `host:port` (TCP, port 0
                           picks an ephemeral port, announced on stderr)
                           or `unix:<path>` (Unix domain socket)
    --queue-cap <N>        bounded per-lane queue depth [64]; a full lane
                           refuses the job with a structured `overloaded`
                           error carrying queue_depth and retry_after_hint
    --max-line-bytes <S>   reject job lines longer than S bytes [16m]
                           (sizes accept k/m/g suffixes); the frame is
                           discarded and the stream resyncs at the next
                           newline
    --session-budget <S>   cap resident session bytes (symbolic + factor
                           storage + retained values); idle sessions are
                           evicted LRU-first, and a job naming an evicted
                           session gets a `session_evicted` error (exit
                           code 7) until it re-runs `analyze`
    --idle-timeout <secs>  drop socket connections idle longer than this
    --state-dir <dir>      durable session journal: acknowledged analyze/
                           factor/refactor jobs are CRC-framed and appended
                           here, then replayed on startup so sessions
                           survive a crash bitwise-identically (torn tails
                           are truncated, never fatal); the journal is
                           compacted down to live-session state as it grows
    --durability strict|relaxed   `strict` fsyncs each journal append
                           before the job is acknowledged (SIGKILL-safe);
                           `relaxed` batches syncs [strict]
  Job grammar (tokens are whitespace-separated):
    analyze  <session> <matrix.mtx> [options]   symbolic analysis, cached
    factor   <session> <values.mtx> [options]   numeric-only factorization
    refactor <session> <values.mtx> [options]   numeric refactorization
                                                reusing the factor storage
    solve    <session> [--rhs <file>] [--transpose] [--refine]
    stats                                       daemon counters and depths
    shutdown                                    drain all queued jobs,
                                                refuse new ones, ack last
    quit                                        end this feeder/connection
  Any job may carry `--job-id <token>`: an idempotency key. Retrying a job
  under the same id returns the original cached response instead of
  re-executing (a `duplicate_replay` error, exit 9, once the response has
  aged out of the bounded cache); ids are journaled, so retries stay safe
  across a daemon crash and restart.
  `factor`/`refactor` values must match the analyzed pattern (a mismatch is
  a structured error, the session stays usable). Per-job `--time-limit` /
  `--watchdog` bound that job alone. Each response embeds a run report
  (schema `parsplu-run-report/1`) for analyze/factor/refactor jobs; error
  responses carry a machine-readable `kind` (bad_request, numeric,
  worker_panic, deadline, stalled, session_evicted, overloaded,
  duplicate_replay, journal_corrupt, shutting_down, cancelled,
  oversize_frame, invalid_frame, idle_timeout) next to the exit code a
  local run would have used. `solve` responses include `x_hash`, an FNV-1a
  hash of the solution's exact bit patterns, for bitwise reproducibility
  checks.

OPTIONS:
  --threads <N>         worker threads for the numerical phase, N >= 1  [1]
  --ordering mindeg|natural|rcm                                  [mindeg]
                        mindeg: approximate minimum degree on the graph
                        of AtA; `md` and `mindeg-multi` are accepted as
                        spellings of it
  --no-postorder        skip the eforest postordering
  --no-amalgamation     keep exact supernodes
  --dynamic             dynamic scheduling instead of static 1D
  --equilibrate         row/column scaling before factorization
  --refine              iterative refinement against the input: while the
                        scaled residual exceeds machine epsilon and the
                        last step at least halved it, at most 5 steps
                        (LAPACK xGERFS's rule); perturbed factors refine
                        without it
  --transpose           solve the transposed system instead (refined as
                        the forward one is)
  --rule partial|threshold:<tau>|diagonal   pivot-selection rule [partial]
  --breakdown error|perturb|perturb:<eps>   pivot-breakdown policy [error]
                        `error` fails at the first unacceptable pivot;
                        `perturb` replaces it by sign(d)·eps·||A||_1 and
                        recovers through iterative refinement: every
                        solve of the perturbed factors, transposed too,
                        refines as `--refine` does
                        [default eps: sqrt(machine epsilon)]
  --kernels auto|portable   dense kernel instantiation            [auto]
                        (auto: the widest instruction set the CPU has;
                        portable: the baseline one; `simd` is accepted as
                        a spelling of auto; factors are bitwise identical
                        under every choice)
  --time-limit <secs>   deadline for the whole run (symbolic front half
                        and numerical phase); an expired run drains its
                        workers and exits with code 5
  --watchdog <ms>       liveness watchdog: if the scheduler makes no
                        progress for this window with tasks pending, the
                        run aborts with a stall report and exit code 6
  --report <file>       write a machine-readable run report (JSON, schema
                        `parsplu-run-report/1`): versions, resolved
                        options and kernel, per-phase wall times, fill and
                        kernel-flop counters, scheduler stats, factor
                        health and the exit status. Written on structured
                        failures too (status records the error). Build
                        with `--features alloc-track` to include heap
                        current/peak bytes
  --trace <file>        write a Chrome trace (chrome://tracing, Perfetto)
                        of the whole pipeline on one shared timeline:
                        driver phases and numeric executor workers
  --dot-forest <file>   (analyze) write the block eforest as Graphviz DOT
  --dot-graph <file>    (analyze) write the task graph as Graphviz DOT
  --rhs <file>          (solve) right-hand side, one value per line
                        [default: manufactured b = A·x with known x]
  --out <file>          (solve) write the solution, one value per line

EXIT CODES:
  0    success
  2    usage or input error (bad flags, unreadable or malformed files)
  3    numerical failure (structural/numerical singularity, NaN/Inf input
       or overflow during factorization)
  4    a worker thread panicked; the panic was contained and reported
  5    --time-limit deadline exceeded (run drained cleanly)
  6    the liveness watchdog declared a stall (diagnosis on stderr)
  7    serve: the session was evicted under --session-budget (re-analyze)
  8    serve: overloaded (bounded queue full) or shutting down
  9    serve: duplicate --job-id already applied, original response no
       longer cached (the work was done; do not blindly retry)
  10   serve: the journal append failed after the job mutated memory;
       durability is not guaranteed until the state-dir is writable
  130  cancelled by Ctrl-C (128 + SIGINT); the run drained cleanly
";

/// Parsed global options (shared with the serve module, which parses the
/// same flag grammar per job line).
pub(crate) struct Cli {
    pub(crate) opts: Options,
    pub(crate) refine: bool,
    pub(crate) transpose: bool,
    dot_forest: Option<String>,
    dot_graph: Option<String>,
    pub(crate) rhs: Option<String>,
    out: Option<String>,
    report: Option<String>,
    trace: Option<String>,
}

impl Cli {
    /// The observability session the flags imply: full (with executor
    /// event streams) when a Chrome trace was requested, report-grade for
    /// `--report` alone, none otherwise.
    fn session(&self) -> Option<ObsSession> {
        if self.trace.is_some() {
            Some(ObsSession::with_events())
        } else if self.report.is_some() {
            Some(ObsSession::new())
        } else {
            None
        }
    }
}

pub(crate) fn parse_flags(args: &[String], token: Option<&CancelToken>) -> Result<Cli, String> {
    let mut cli = Cli {
        opts: Options::default(),
        refine: false,
        transpose: false,
        dot_forest: None,
        dot_graph: None,
        rhs: None,
        out: None,
        report: None,
        trace: None,
    };
    cli.opts.budget.token = token.cloned();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--threads" => {
                let v = it.next().ok_or("--threads needs a value")?;
                cli.opts.threads = v.parse().map_err(|_| format!("bad thread count `{v}`"))?;
            }
            "--ordering" => {
                let v = it.next().ok_or("--ordering needs a value")?;
                cli.opts.ordering = match v.as_str() {
                    "mindeg" | "md" | "mindeg-multi" => OrderingChoice::MinDegreeAtA,
                    "natural" => OrderingChoice::Natural,
                    "rcm" => OrderingChoice::Rcm,
                    _ => return Err(format!("unknown ordering `{v}`")),
                };
            }
            "--rhs" => {
                cli.rhs = Some(it.next().ok_or("--rhs needs a path")?.clone());
            }
            "--out" => {
                cli.out = Some(it.next().ok_or("--out needs a path")?.clone());
            }
            "--report" => {
                cli.report = Some(it.next().ok_or("--report needs a path")?.clone());
            }
            "--trace" => {
                cli.trace = Some(it.next().ok_or("--trace needs a path")?.clone());
            }
            "--dot-forest" => {
                cli.dot_forest = Some(it.next().ok_or("--dot-forest needs a path")?.clone());
            }
            "--dot-graph" => {
                cli.dot_graph = Some(it.next().ok_or("--dot-graph needs a path")?.clone());
            }
            "--rule" => {
                let v = it.next().ok_or("--rule needs a value")?;
                cli.opts.pivot_rule = if v == "partial" {
                    PivotRule::Partial
                } else if v == "diagonal" {
                    PivotRule::Diagonal
                } else if let Some(tau) = v.strip_prefix("threshold:") {
                    let tau = tau.parse().map_err(|_| format!("bad threshold `{tau}`"))?;
                    PivotRule::Threshold(tau)
                } else {
                    return Err(format!("unknown pivot rule `{v}`"));
                };
            }
            "--breakdown" => {
                let v = it.next().ok_or("--breakdown needs a value")?;
                cli.opts.breakdown = if v == "error" {
                    BreakdownPolicy::Error
                } else if v == "perturb" {
                    BreakdownPolicy::perturb_default()
                } else if let Some(eps) = v.strip_prefix("perturb:") {
                    let eps = eps
                        .parse()
                        .map_err(|_| format!("bad perturbation `{eps}`"))?;
                    BreakdownPolicy::Perturb { eps }
                } else {
                    return Err(format!("unknown breakdown policy `{v}`"));
                };
            }
            "--kernels" => {
                let v = it.next().ok_or("--kernels needs a value")?;
                cli.opts.kernels = match v.as_str() {
                    "portable" => KernelChoice::Portable,
                    "auto" | "simd" => KernelChoice::Auto,
                    _ => return Err(format!("unknown kernel choice `{v}`")),
                };
            }
            "--time-limit" => {
                let v = it.next().ok_or("--time-limit needs a value (seconds)")?;
                let secs: f64 = v.parse().map_err(|_| format!("bad time limit `{v}`"))?;
                if !(secs > 0.0 && secs.is_finite()) {
                    return Err(format!("time limit must be positive, got {v}"));
                }
                cli.opts.budget.deadline = Some(Instant::now() + Duration::from_secs_f64(secs));
            }
            "--watchdog" => {
                let v = it.next().ok_or("--watchdog needs a value (milliseconds)")?;
                let ms: u64 = v
                    .parse()
                    .map_err(|_| format!("bad watchdog window `{v}`"))?;
                if ms == 0 {
                    return Err("watchdog window must be positive".to_string());
                }
                cli.opts.budget.watchdog = Some(WatchdogConfig::new(Duration::from_millis(ms)));
            }
            "--no-postorder" => cli.opts.postorder = false,
            "--no-amalgamation" => cli.opts.amalgamation = None,
            "--dynamic" => cli.opts.mapping = Mapping::Dynamic,
            "--equilibrate" => cli.opts.equilibrate = true,
            "--refine" => cli.refine = true,
            "--transpose" => cli.transpose = true,
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(cli)
}

/// Reads the Matrix Market file at `path` (the CLI's and the daemon's
/// general reader). A size line that declares a non-square shape, or more
/// columns than its entries can fill (a mirrored entry counts twice), is
/// refused before an array is sized from it, as analysis would refuse it.
pub(crate) fn load(path: &str) -> Result<CscMatrix, CliError> {
    let read = |e: SparseError| CliError::from(format!("reading {path}: {e}"));
    let text = std::fs::read_to_string(path).map_err(|e| read(e.into()))?;
    if let Ok((line, size_line, [nrows, ncols, nnz], mirrored)) = matrix_market_size(&text) {
        let refuse = |why: &str, e: LuError| CliError {
            message: format!("reading {path}: line {line}: size line `{size_line}` {why}"),
            ..CliError::from(e)
        };
        if nrows != ncols {
            let why = "declares a non-square matrix, LU needs a square one";
            return Err(refuse(why, LuError::NotSquare { nrows, ncols }));
        }
        let most = if mirrored { nnz.saturating_mul(2) } else { nnz };
        if ncols > most {
            let why =
                format!("declares order {ncols} with {nnz} stored entries: structurally singular");
            return Err(refuse(&why, LuError::StructurallySingular { rank: most }));
        }
    }
    parse_matrix_market(&text).map_err(read)
}

pub(crate) fn matrix_name(path: &str) -> String {
    Path::new(path)
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.to_string())
}

/// Writes the artifacts `--report` / `--trace` requested, returning the
/// notes to append to the command output. Called on failure paths too, so
/// a structured error still leaves a report whose `status` records it.
fn write_observability(
    session: &ObsSession,
    cli: &Cli,
    matrix: MatrixMeta,
    status: RunStatus,
) -> Result<Vec<String>, String> {
    let mut notes = Vec::new();
    if let Some(p) = &cli.report {
        let report = session.report(matrix, &cli.opts, status);
        std::fs::write(p, report.to_json() + "\n").map_err(|e| format!("writing {p}: {e}"))?;
        notes.push(format!("wrote run report to {p}"));
    }
    if let Some(p) = &cli.trace {
        std::fs::write(p, session.chrome_json() + "\n").map_err(|e| format!("writing {p}: {e}"))?;
        notes.push(format!("wrote pipeline trace to {p}"));
    }
    Ok(notes)
}

fn cmd_analyze(
    path: &str,
    flags: &[String],
    token: Option<&CancelToken>,
) -> Result<String, CliError> {
    let cli = parse_flags(flags, token)?;
    let session = cli.session();
    let a = {
        let _p = session.as_ref().map(|o| o.phase("parse"));
        load(path)?
    };
    let ms = splu_sparse::stats::matrix_stats(&a);
    let sym = match analyze_with(a.pattern(), &cli.opts, session.as_ref()) {
        Ok(sym) => sym,
        Err(e) => {
            if let Some(o) = &session {
                let meta = MatrixMeta {
                    name: matrix_name(path),
                    n: a.ncols(),
                    nnz: a.nnz(),
                };
                write_observability(o, &cli, meta, RunStatus::from_error(&e))?;
            }
            return Err(e.into());
        }
    };
    let s = &sym.stats;
    let mut out = String::new();
    let _ = writeln!(out, "matrix            : {path}");
    let _ = writeln!(out, "order             : {}", s.n);
    let _ = writeln!(out, "nnz(A)            : {}", s.nnz_a);
    let _ = writeln!(
        out,
        "structure         : bandwidth {}, symmetry {:.2} (values {:.2}), {} diagonal",
        ms.bandwidth,
        ms.structural_symmetry,
        ms.numerical_symmetry,
        if ms.zero_free_diagonal {
            "zero-free"
        } else {
            "deficient"
        }
    );
    let _ = writeln!(
        out,
        "nnz(Abar)         : {} ({:.2}x)",
        s.nnz_filled, s.fill_ratio
    );
    let _ = writeln!(
        out,
        "supernodes        : {} (exact {}, max width {})",
        s.supernodes, s.supernodes_exact, s.max_supernode_width
    );
    let _ = writeln!(out, "BTF blocks        : {}", s.btf_blocks);
    let _ = writeln!(
        out,
        "task graph        : {} tasks, {} edges, critical path {}",
        s.graph_tasks, s.graph_edges, s.critical_path
    );
    let _ = writeln!(out, "estimated flops   : {:.3e}", s.flops_estimate);
    if let Some(p) = &cli.dot_forest {
        std::fs::write(p, block_forest(&sym.block_structure).to_dot("eforest"))
            .map_err(|e| e.to_string())?;
        let _ = writeln!(out, "wrote block eforest DOT to {p}");
    }
    if let Some(p) = &cli.dot_graph {
        let g = sym.build_graph();
        std::fs::write(p, g.to_dot("tasks")).map_err(|e| e.to_string())?;
        let _ = writeln!(out, "wrote task graph DOT to {p}");
    }
    if let Some(o) = &session {
        let meta = MatrixMeta::from_stats(&matrix_name(path), &sym.stats);
        for note in write_observability(o, &cli, meta, RunStatus::success())? {
            let _ = writeln!(out, "{note}");
        }
    }
    Ok(out)
}

/// Reads the `n` values of a right-hand side file (`solve --rhs`): one
/// value per line, blank lines and `#` / `%` comment lines skipped.
///
/// One pass through a [`STREAM_CHUNK`]-byte buffer into one array of `n`
/// values. A file the pass does not take as it stands — one that
/// [`parse_vector`] would refuse, or whose bytes are not UTF-8, or with a
/// line longer than the buffer — is read again by [`parse_vector`], so
/// the vector or the error is that reader's.
pub(crate) fn read_vector(path: &str, n: usize) -> Result<Vec<f64>, String> {
    let file = std::fs::File::open(path).ok();
    let streamed = file.and_then(|f| stream_vector(f, n, STREAM_CHUNK));
    streamed.map_or_else(|| parse_vector(path, n), Ok)
}

/// The streaming pass of [`read_vector`], `chunk` bytes at a time: `None`
/// where the file needs [`parse_vector`].
fn stream_vector(reader: impl std::io::Read, n: usize, chunk: usize) -> Option<Vec<f64>> {
    let mut lines = LineChunks::new(reader, chunk);
    let mut v = Vec::with_capacity(n);
    while let Some(text) = lines.next_chunk().ok()? {
        for l in text.split('\n').map(str::trim) {
            if l.is_empty() || l.starts_with('#') || l.starts_with('%') {
                continue;
            }
            if v.len() == n {
                return None;
            }
            v.push(l.parse::<f64>().ok()?);
        }
    }
    (v.len() == n).then_some(v)
}

/// [`read_vector`] over the whole text of the file at once.
fn parse_vector(path: &str, n: usize) -> Result<Vec<f64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let v: Vec<f64> = text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#') && !l.starts_with('%'))
        .map(|l| {
            l.parse::<f64>()
                .map_err(|_| format!("bad value `{l}` in {path}"))
        })
        .collect::<Result<_, _>>()?;
    if v.len() != n {
        return Err(format!("{path}: expected {n} values, found {}", v.len()));
    }
    Ok(v)
}

/// The solve of `parsplu solve` and of the daemon's `solve` job: the
/// factors' `solve_op` door, which refines when asked or when the factors
/// are perturbed, handed `b`, `--transpose` and `--refine`. Returns `x` and
/// the scaled residual of `op(A) x = b` reported beside it, `op(A)` being
/// `Aᵀ` under `--transpose`.
pub(crate) fn solve_reported(
    a: CscRef<'_>,
    b: &[f64],
    cli: &Cli,
    solve_op: impl FnOnce(&[f64], bool, bool) -> Result<Vec<f64>, LuError>,
) -> Result<(Vec<f64>, f64), LuError> {
    let x = solve_op(b, cli.transpose, cli.refine)?;
    let resid = ScaledResidual::new(a, cli.transpose).of(&x, b).1;
    Ok((x, resid))
}

fn cmd_solve(
    path: &str,
    flags: &[String],
    token: Option<&CancelToken>,
) -> Result<String, CliError> {
    let cli = parse_flags(flags, token)?;
    let session = cli.session();
    let a = {
        let _p = session.as_ref().map(|o| o.phase("parse"));
        load(path)?
    };
    let b = match &cli.rhs {
        Some(p) => read_vector(p, a.nrows())?,
        None => manufactured_rhs(&a, 1).1,
    };
    let t0 = std::time::Instant::now();
    let lu = match &session {
        Some(o) => match SparseLu::factor_observed(&a, &cli.opts, o) {
            Ok(lu) => lu,
            Err(e) => {
                let meta = MatrixMeta {
                    name: matrix_name(path),
                    n: a.ncols(),
                    nnz: a.nnz(),
                };
                write_observability(o, &cli, meta, RunStatus::from_error(&e))?;
                return Err(e.into());
            }
        },
        None => SparseLu::factor(&a, &cli.opts)?,
    };
    let t_factor = t0.elapsed();
    let t1 = std::time::Instant::now();
    let (x, resid) = {
        let _p = session.as_ref().map(|o| o.phase("solve"));
        solve_reported(a.view(), &b, &cli, |b, t, r| lu.try_solve_op(&a, b, t, r))?
    };
    let t_solve = t1.elapsed();
    let st = lu.storage();
    let (dsign, dln) = lu.determinant();
    let mut out = String::new();
    let _ = writeln!(out, "factor time       : {t_factor:?}");
    let _ = writeln!(out, "solve time        : {t_solve:?}");
    let _ = writeln!(out, "scaled residual   : {resid:.3e}");
    let _ = writeln!(out, "growth factor     : {:.3e}", lu.growth(&a));
    let health = lu.health();
    if health.is_perturbed() {
        let _ = writeln!(
            out,
            "pivot perturbations: {} column(s), max {:.3e} (policy `perturb`; solves refine against the input)",
            health.perturbed_columns.len(),
            health.max_perturbation
        );
        if let Some(c) = health.condest {
            let _ = writeln!(out, "condest (perturbed): {c:.3e}");
        }
    }
    let _ = writeln!(
        out,
        "determinant       : {} exp({dln:.6})",
        if dsign > 0.0 { "+" } else { "-" }
    );
    if let Some(p) = &cli.out {
        let mut text = String::with_capacity(x.len() * 24);
        for v in &x {
            let _ = writeln!(text, "{v:.17e}");
        }
        std::fs::write(p, text).map_err(|e| e.to_string())?;
        let _ = writeln!(out, "wrote solution to {p}");
    }
    let _ = writeln!(
        out,
        "factor storage    : {} words held of {} static ({:.1}% padding)",
        st.words,
        st.static_words,
        100.0 * st.padding_fraction
    );
    if let Some(o) = &session {
        let meta = MatrixMeta::from_stats(&matrix_name(path), lu.stats());
        for note in write_observability(o, &cli, meta, RunStatus::success())? {
            let _ = writeln!(out, "{note}");
        }
    }
    if resid > 1e-8 {
        let _ = writeln!(out, "WARNING: large residual — check conditioning");
    }
    Ok(out)
}

fn cmd_condest(
    path: &str,
    flags: &[String],
    token: Option<&CancelToken>,
) -> Result<String, CliError> {
    let cli = parse_flags(flags, token)?;
    let a = load(path)?;
    let lu = SparseLu::factor(&a, &cli.opts)?;
    let inv_norm = estimate_inverse_1norm(&lu, a.ncols(), 6);
    let cond = inv_norm * a.one_norm();
    Ok(format!(
        "||A||_1          : {:.6e}\n||A^-1||_1 (est) : {:.6e}\ncond_1 (est)     : {:.6e}\n",
        a.one_norm(),
        inv_norm,
        cond
    ))
}

fn cmd_gen(name: &str, out_path: &str, flags: &[String]) -> Result<String, CliError> {
    let scale = if flags.iter().any(|f| f == "--reduced") {
        Scale::Reduced
    } else {
        Scale::Full
    };
    let unknown: Vec<&String> = flags.iter().filter(|f| *f != "--reduced").collect();
    if !unknown.is_empty() {
        return Err(format!("unknown option `{}`", unknown[0]).into());
    }
    let a =
        paper_matrix(name, scale).ok_or_else(|| format!("unknown matrix `{name}` (see --help)"))?;
    write_matrix_market(&a, Path::new(out_path)).map_err(|e| e.to_string())?;
    Ok(format!(
        "wrote {} ({}x{}, {} nonzeros)\n",
        out_path,
        a.nrows(),
        a.ncols(),
        a.nnz()
    ))
}

use std::sync::Mutex;

// The serve machinery (bounded lanes, session pool with budgeted
// eviction, the transports) lives in `crate::serve`.
use crate::serve::{parse_size, serve_daemon, serve_loop, Listener, ServeConfig};

fn cmd_serve(flags: &[String], token: Option<&CancelToken>) -> Result<String, CliError> {
    let mut cfg = ServeConfig::default();
    let mut listen: Option<String> = None;
    let mut it = flags.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workers" => {
                let v = it
                    .next()
                    .ok_or_else(|| CliError::from("--workers needs a value"))?;
                cfg.workers = v
                    .parse()
                    .map_err(|_| CliError::from(format!("bad worker count `{v}`")))?;
                if cfg.workers == 0 {
                    return Err(CliError::from("worker count must be positive"));
                }
            }
            "--listen" => {
                listen = Some(
                    it.next()
                        .ok_or_else(|| CliError::from("--listen needs an address"))?
                        .clone(),
                );
            }
            "--queue-cap" => {
                let v = it
                    .next()
                    .ok_or_else(|| CliError::from("--queue-cap needs a value"))?;
                cfg.queue_cap = v
                    .parse()
                    .map_err(|_| CliError::from(format!("bad queue cap `{v}`")))?;
                if cfg.queue_cap == 0 {
                    return Err(CliError::from("queue cap must be positive"));
                }
            }
            "--max-line-bytes" => {
                let v = it
                    .next()
                    .ok_or_else(|| CliError::from("--max-line-bytes needs a size"))?;
                let bytes = parse_size(v)?;
                if bytes == 0 {
                    return Err(CliError::from("line-size cap must be positive"));
                }
                cfg.max_line_bytes = usize::try_from(bytes)
                    .map_err(|_| CliError::from(format!("line-size cap `{v}` too large")))?;
            }
            "--session-budget" => {
                let v = it
                    .next()
                    .ok_or_else(|| CliError::from("--session-budget needs a size"))?;
                let bytes = parse_size(v)?;
                if bytes == 0 {
                    return Err(CliError::from("session budget must be positive"));
                }
                cfg.session_budget = Some(bytes);
            }
            "--idle-timeout" => {
                let v = it
                    .next()
                    .ok_or_else(|| CliError::from("--idle-timeout needs a value (seconds)"))?;
                let secs: f64 = v
                    .parse()
                    .map_err(|_| CliError::from(format!("bad idle timeout `{v}`")))?;
                if !(secs > 0.0 && secs.is_finite()) {
                    return Err(CliError::from("idle timeout must be positive"));
                }
                cfg.idle_timeout = Some(Duration::from_secs_f64(secs));
            }
            "--state-dir" => {
                let v = it
                    .next()
                    .ok_or_else(|| CliError::from("--state-dir needs a directory path"))?;
                cfg.state_dir = Some(std::path::PathBuf::from(v));
            }
            "--durability" => {
                let v = it
                    .next()
                    .ok_or_else(|| CliError::from("--durability needs `strict` or `relaxed`"))?;
                cfg.durability = crate::persist::Durability::parse(v).map_err(CliError::from)?;
            }
            other => return Err(CliError::from(format!("unknown serve option `{other}`"))),
        }
    }
    match listen {
        Some(addr) => {
            let listener = Listener::bind(&addr)?;
            // Announce the bound address immediately (stdout is reserved
            // for the final summary) so clients can find an ephemeral
            // port.
            eprintln!(
                "parsplu serve: listening on {}",
                listener.local_addr_string()
            );
            let summary = serve_daemon(cfg, listener, token)?;
            Ok(format!(
                "served {} job(s) over {} connection(s)\n",
                summary.jobs, summary.connections
            ))
        }
        None => {
            let stdout = Mutex::new(std::io::stdout());
            let n = serve_loop(cfg, std::io::stdin().lock(), &stdout, token)?;
            Ok(format!("served {n} job(s)\n"))
        }
    }
}

/// Runs the CLI on the given arguments (without the program name), returning
/// the output text or a [`CliError`] carrying the message and the process
/// exit code.
pub fn run(args: &[String]) -> Result<String, CliError> {
    run_with_token(args, None)
}

/// Like [`run`], but wires an external [`CancelToken`] into the numeric
/// phase's run budget. The binary's Ctrl-C handler cancels this token, so
/// an interrupted factorization drains its workers and exits with the
/// structured code `130` instead of being killed mid-write.
pub fn run_with_token(args: &[String], token: Option<&CancelToken>) -> Result<String, CliError> {
    match args {
        [] => Err(CliError::from(USAGE)),
        [h] if h == "--help" || h == "-h" || h == "help" => Ok(USAGE.to_string()),
        [cmd, rest @ ..] => match (cmd.as_str(), rest) {
            ("analyze", [path, flags @ ..]) => cmd_analyze(path, flags, token),
            ("solve", [path, flags @ ..]) => cmd_solve(path, flags, token),
            ("condest", [path, flags @ ..]) => cmd_condest(path, flags, token),
            ("gen", [name, out, flags @ ..]) => cmd_gen(name, out, flags),
            ("serve", flags) => cmd_serve(flags, token),
            _ => Err(CliError::from(format!(
                "unknown or incomplete command `{cmd}`\n\n{USAGE}"
            ))),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Chunk sizes: below a value line, around one, and the production
    /// size.
    const CHUNKS: [usize; 7] = [1, 5, 24, 25, 64, 1000, STREAM_CHUNK];

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|v| v.to_bits()).collect()
    }

    /// `bytes` as a right-hand side file of `n` values, read whole and
    /// streamed at every chunk size of `chunks`: the stream yields the
    /// whole reader's values or nothing, and [`read_vector`] answers exactly
    /// as that reader does — values to the bit, or the same error.
    /// Returns the chunk sizes that streamed.
    fn vector_agrees(bytes: &[u8], n: usize, chunks: &[usize]) -> Vec<usize> {
        static FILES: AtomicUsize = AtomicUsize::new(0);
        let path = std::env::temp_dir().join(format!(
            "parsplu-rhs-{}-{}.txt",
            std::process::id(),
            FILES.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&path, bytes).unwrap();
        let path_s = path.to_str().unwrap();
        let whole = parse_vector(path_s, n);
        let mut streamed = Vec::new();
        for &chunk in chunks {
            if let Some(v) = stream_vector(bytes, n, chunk) {
                let want = whole.as_ref().map(|w| bits(w));
                assert_eq!(want, Ok(bits(&v)), "{chunk}-byte chunks of {bytes:?}");
                streamed.push(chunk);
            }
        }
        let got = read_vector(path_s, n);
        match (&got, &whole) {
            (Ok(g), Ok(w)) => assert_eq!(bits(g), bits(w)),
            _ => assert_eq!(got, whole),
        }
        std::fs::remove_file(&path).unwrap();
        streamed
    }

    /// A right-hand side as a client writes one: a comment, then one value
    /// per line in the shortest digits that read back to the same `f64`.
    fn rhs_text(n: usize) -> String {
        let values = (0..n).map(|i| format!("{:e}\n", (i as f64 * 0.37).sin() / 3.0));
        std::iter::once("# b\n".to_string()).chain(values).collect()
    }

    /// The client's layout streams at every chunk holding its longest line,
    /// so do CRLF endings, comment and blank lines, blanks around a value
    /// and a missing final newline; a short, long or malformed file never
    /// streams, and every answer is the whole reader's.
    #[test]
    fn streamed_vector_is_the_readers_or_nothing() {
        let text = rhs_text(160);
        // The chunk sizes that hold a line of `len` bytes and its feed.
        let holding = |len: usize| CHUNKS.into_iter().filter(|&c| c > len).collect::<Vec<_>>();
        let longest = text.lines().map(str::len).max().unwrap();
        let fits = holding(longest);
        assert!(fits.len() < CHUNKS.len(), "some chunk sizes cut a line");
        assert_eq!(vector_agrees(text.as_bytes(), 160, &CHUNKS), fits);
        let crlf = text.replace('\n', "\r\n");
        assert_eq!(
            vector_agrees(crlf.as_bytes(), 160, &CHUNKS),
            holding(longest + 1)
        );
        let commented = text.replacen("\n", "\n% c\n\n  \t\n", 40);
        assert_eq!(vector_agrees(commented.as_bytes(), 160, &CHUNKS), fits);
        let padded = text.replace('\n', " \t\n");
        assert_eq!(
            vector_agrees(padded.as_bytes(), 160, &CHUNKS),
            holding(longest + 2)
        );
        let unterminated = text.trim_end();
        assert_eq!(vector_agrees(unterminated.as_bytes(), 160, &CHUNKS), fits);
        for n in [159, 161] {
            assert!(vector_agrees(text.as_bytes(), n, &CHUNKS).is_empty());
        }
        for bad in ["1.0x", "nan", "inf", "1 2", "\u{e9}"] {
            let mut lines: Vec<&str> = text.lines().collect();
            lines[100] = bad;
            let bytes = lines.join("\n").into_bytes();
            let streams = matches!(bad, "nan" | "inf");
            assert_eq!(
                vector_agrees(&bytes, 160, &CHUNKS).is_empty(),
                !streams,
                "{bad}"
            );
        }
        let mut latin1 = text.into_bytes();
        latin1.splice(40..40, [0xe9]);
        assert!(vector_agrees(&latin1, 160, &CHUNKS).is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// A client's file with a flipped byte, two lines swapped, a cut,
        /// or a line padded past a buffer edge, at a chunk size of 1..64
        /// bytes: the stream agrees with the whole reader.
        #[test]
        fn streamed_vector_survives_random_edits(
            kind in 0u64..4,
            a in 0usize..4000,
            b in 0usize..4000,
            chunk in 1usize..64,
        ) {
            let text = rhs_text(160);
            let mut bytes = text.clone().into_bytes();
            match kind {
                0 => bytes[a % text.len()] ^= 1 << (b % 8),
                1 => {
                    let mut lines: Vec<&str> = text.split_inclusive('\n').collect();
                    let n = lines.len();
                    lines.swap(a % n, b % n);
                    bytes = lines.concat().into_bytes();
                }
                2 => bytes.truncate(a % text.len()),
                _ => bytes.splice(a % text.len()..a % text.len(), vec![b' '; b % 40]).for_each(drop),
            }
            let _ = vector_agrees(&bytes, 160, &[chunk, STREAM_CHUNK]);
        }

        /// Arbitrary bytes: the stream agrees with the whole reader, and
        /// nothing panics.
        #[test]
        fn streamed_vector_survives_arbitrary_bytes(
            bytes in proptest::collection::vec(0u8..=255, 0..120),
            n in 0usize..6,
            chunk in 1usize..40,
        ) {
            let _ = vector_agrees(&bytes, n, &[chunk, STREAM_CHUNK]);
        }
    }
}
