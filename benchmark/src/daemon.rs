//! `daemon_jobs`: a spawned `parsplu serve` child driven over loopback TCP.
//!
//! Two time-steppers, each on its own connection and its own session over
//! the `sherman3` analogue, take turns: one op is one time step — refactor
//! with new values, then four solves — and the next step (the other
//! stepper's) starts when the last reply of this one is in. So the loop is
//! closed and one job is in flight at a time: the load generator sleeps
//! while the daemon works, and the two together never ask for more than the
//! two cores of the smallest host. (Two clients side by side made four busy
//! threads on two cores, and the medians followed the scheduler: 28 % from
//! run to run.) Jobs are small, so framing, lane routing, Matrix Market and
//! vector parsing, the journal append + fsync and response writing carry
//! the op; the numeric work is minor.

use crate::inputs::{self, reference_session, solution_hash, SeedStream, RESIDUAL_LIMIT};
use crate::probes::{reps_ms, timed_ms, Metrics};
use crate::stats::{median, quantile};
use crate::trace::{Span, Tracer, OP_SPAN};
use crate::workloads::{LoopSamples, OpOutcome, RunConfig, Workload, VALUE_SETS};
use parsplu::sparse::io::{read_matrix_market, write_matrix_market};
use parsplu::sparse::CscMatrix;
use splu_client::{AddrBook, Client, Json, RetryPolicy};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Right-hand sides the solve jobs cycle through.
const RHS_FILES: usize = 4;
/// Solve jobs after each refactor job.
const SOLVES_PER_REFACTOR: usize = 4;
/// Jobs of one time step, the op of this workload.
pub const JOBS_PER_STEP: usize = SOLVES_PER_REFACTOR + 1;
/// Time steps each stepper runs (and checks) at the end of set-up.
const WARMUP_STEPS: usize = 2;
/// One session per stepper. The names route to different lanes of a
/// two-lane daemon (it hashes the name with FNV-1a, modulo its lane count).
const SESSIONS: [&str; 2] = ["stepper-a", "stepper-b"];

/// A running `parsplu serve` child.
pub struct Daemon {
    child: Child,
    pub addr: String,
}

impl Daemon {
    /// Spawns the daemon on an ephemeral loopback port with a strict
    /// journal in `state_dir`, and waits for its `listening on` line. The
    /// child's stderr goes to a file in `state_dir`'s parent, so no thread
    /// is needed to drain it.
    pub fn spawn(cfg: &RunConfig, state_dir: &Path) -> Result<Daemon, String> {
        let log_path = state_dir.with_extension("stderr");
        let log =
            std::fs::File::create(&log_path).map_err(|e| format!("{}: {e}", log_path.display()))?;
        let mut child = Command::new(&cfg.parsplu_bin)
            .args(["serve", "--listen", "127.0.0.1:0", "--workers"])
            .arg(cfg.nproc.clamp(1, 2).to_string())
            .arg("--state-dir")
            .arg(state_dir)
            .args(["--durability", "strict"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", cfg.parsplu_bin.display()))?;
        let t0 = Instant::now();
        loop {
            let text = std::fs::read_to_string(&log_path).unwrap_or_default();
            let addr = text
                .lines()
                .find_map(|l| l.split("listening on ").nth(1))
                .map(|a| a.trim().to_string());
            // Only a complete line holds the whole address.
            if let (Some(addr), true) = (addr, text.ends_with('\n')) {
                return Ok(Daemon { child, addr });
            }
            let exited = child.try_wait().map_err(|e| e.to_string())?;
            if exited.is_some() || t0.elapsed() > Duration::from_secs(60) {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("daemon did not come up: {text}"));
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    /// Peak resident set (`VmHWM`) of the daemon process, in MB.
    pub fn peak_rss_mb(&self) -> f64 {
        crate::peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// Asks the daemon to drain and exit, and waits for it.
    pub fn shutdown(&mut self) -> Result<(), String> {
        let asked = Conn::open(&self.addr).and_then(|mut c| c.call("shutdown"));
        if asked.is_err() {
            let _ = self.child.kill();
        }
        let status = self.child.wait().map_err(|e| e.to_string())?;
        asked?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("daemon exited with {status}"))
        }
    }
}

impl Drop for Daemon {
    /// Failure paths drop the handle without `shutdown`; the child must not
    /// outlive the harness.
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One raw connection: a line out, a line back.
pub struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn open(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn { stream, reader })
    }

    /// Sends one job line and parses the one-line JSON reply.
    pub fn call(&mut self, line: &str) -> Result<Json, String> {
        self.stream
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut reply = String::new();
        self.reader
            .read_line(&mut reply)
            .map_err(|e| format!("receive: {e}"))?;
        if reply.is_empty() {
            return Err("connection closed before the reply".to_string());
        }
        splu_client::parse(reply.trim_end()).map_err(|e| format!("unparseable reply: {e}"))
    }
}

/// The files the jobs name, and the reference hash of every
/// (value set, right-hand side) pair.
pub struct Inputs {
    /// The first value set and right-hand side, for the layer probes.
    first: CscMatrix,
    first_rhs: Vec<f64>,
    pattern: PathBuf,
    values: Vec<PathBuf>,
    rhs: Vec<PathBuf>,
    /// `want[k][r]`, formatted as the daemon formats `x_hash`.
    want: Vec<Vec<String>>,
}

impl Inputs {
    /// Generates and writes the inputs under `dir`; computes the references
    /// with a one-thread session in this process.
    pub fn write(cfg: &RunConfig, dir: &Path) -> Result<Inputs, String> {
        let mut seeds = SeedStream::new(cfg.seed);
        let mut sets: Vec<_> = (0..VALUE_SETS)
            .map(|_| inputs::sherman3(cfg.scale, seeds.next()))
            .collect();
        let mut bs: Vec<Vec<f64>> = (0..RHS_FILES)
            .map(|_| inputs::rhs(&sets[0], seeds.next()))
            .collect();
        let io = |e: parsplu::sparse::SparseError| format!("writing inputs: {e}");
        let pattern = dir.join("pattern.mtx");
        write_matrix_market(&sets[0], &pattern).map_err(io)?;
        let mut values = Vec::new();
        for (k, a) in sets.iter().enumerate() {
            let p = dir.join(format!("values{k}.mtx"));
            write_matrix_market(a, &p).map_err(io)?;
            values.push(p);
        }
        let mut rhs = Vec::new();
        for (r, b) in bs.iter().enumerate() {
            let p = dir.join(format!("rhs{r}.txt"));
            // `{:e}` prints the shortest digits that read back to the same
            // f64, so the daemon sees exactly the reference's `b`.
            let text: String = b.iter().map(|v| format!("{v:e}\n")).collect();
            std::fs::write(&p, text).map_err(|e| format!("{}: {e}", p.display()))?;
            rhs.push(p);
        }
        // The reference factors what a reader gets back from each file,
        // which is what the daemon is asked to solve.
        let reread = |p: &PathBuf| read_matrix_market(p).map_err(|e| format!("reference: {e}"));
        let mut s =
            reference_session(&reread(&values[0])?).map_err(|e| format!("reference: {e}"))?;
        let mut want = Vec::new();
        for p in &values {
            s.factor(&reread(p)?)
                .map_err(|e| format!("reference: {e}"))?;
            want.push(
                bs.iter()
                    .map(|b| format!("{:#018x}", solution_hash(&s.solve(b))))
                    .collect(),
            );
        }
        Ok(Inputs {
            first: sets.swap_remove(0),
            first_rhs: bs.swap_remove(0),
            pattern,
            values,
            rhs,
            want,
        })
    }
}

/// What a job line asks for, kept to check and classify the reply.
#[derive(Clone, Copy)]
enum JobKind {
    Refactor,
    Solve,
}

/// One stepper's place in its refactor : solve cycle.
struct Stepper {
    session: &'static str,
    /// Jobs sent so far.
    sent: usize,
    /// Value set the session currently holds.
    k: usize,
}

impl Stepper {
    fn new(session: &'static str) -> Stepper {
        Stepper {
            session,
            sent: 0,
            k: 0,
        }
    }

    /// The next job line, its kind, and the `x_hash` a solve must return.
    fn next(&mut self, inp: &Inputs) -> (String, JobKind, Option<String>) {
        let phase = self.sent % JOBS_PER_STEP;
        self.sent += 1;
        if phase == 0 {
            self.k = (self.k + 1) % VALUE_SETS;
            let line = format!("refactor {} {}", self.session, inp.values[self.k].display());
            (line, JobKind::Refactor, None)
        } else {
            let r = self.sent % RHS_FILES;
            let line = format!("solve {} --rhs {}", self.session, inp.rhs[r].display());
            (line, JobKind::Solve, Some(inp.want[self.k][r].clone()))
        }
    }
}

/// Checks one reply: `status` ok, and for a solve the residual limit and
/// the reference hash.
fn check_reply(reply: &Json, want_hash: Option<&str>) -> Result<(), String> {
    if reply.status() != "ok" {
        return Err(format!("daemon answered {}: {reply:?}", reply.kind()));
    }
    let Some(want) = want_hash else { return Ok(()) };
    let got = reply.get("x_hash").and_then(Json::as_str).unwrap_or("");
    if got != want {
        return Err(format!("x_hash {got} differs from the reference {want}"));
    }
    let resid = reply.get("residual").and_then(Json::as_num);
    if resid.is_some_and(|r| r <= RESIDUAL_LIMIT) {
        Ok(())
    } else {
        Err(format!("residual {resid:?} above {RESIDUAL_LIMIT:e}"))
    }
}

/// Server-side view of one traced job, from its reply.
#[derive(Default)]
struct JobSamples {
    solve_ms: Vec<f64>,
    refactor_ms: Vec<f64>,
    /// Client round trip minus the server's own `seconds`.
    overhead_ms: Vec<f64>,
    /// `parse` phase over `seconds`, per refactor job.
    parse_share: Vec<f64>,
}

/// One time step of one stepper: a refactor job, then the solve jobs. The
/// replies are checked after the clock stops.
fn step(
    conn: &mut Conn,
    stepper: &mut Stepper,
    inp: &Inputs,
    tr: &mut Tracer,
    jobs: &mut JobSamples,
) -> OpOutcome {
    let mut replies = Vec::with_capacity(JOBS_PER_STEP);
    let t0 = Instant::now();
    let root = tr.begin(OP_SPAN);
    for _ in 0..JOBS_PER_STEP {
        let (line, kind, want) = stepper.next(inp);
        let sent = Instant::now();
        let reply = tr.span("serve.job", || conn.call(&line));
        replies.push((kind, want, sent.elapsed(), reply));
    }
    tr.end(root);
    let lat = t0.elapsed();
    let mut res = Ok(());
    for (kind, want, job_lat, reply) in replies {
        let checked = reply.and_then(|reply| {
            if tr.is_on() {
                jobs.record(kind, job_lat, &reply);
            }
            check_reply(&reply, want.as_deref())
        });
        res = res.and(checked);
    }
    (lat, res)
}

impl JobSamples {
    fn merge(&mut self, later: JobSamples) {
        self.solve_ms.extend(later.solve_ms);
        self.refactor_ms.extend(later.refactor_ms);
        self.overhead_ms.extend(later.overhead_ms);
        self.parse_share.extend(later.parse_share);
    }

    fn record(&mut self, kind: JobKind, lat: Duration, reply: &Json) {
        let ms = lat.as_secs_f64() * 1e3;
        let Some(server_s) = reply.get("seconds").and_then(Json::as_num) else {
            return;
        };
        self.overhead_ms.push(ms - server_s * 1e3);
        match kind {
            JobKind::Solve => self.solve_ms.push(ms),
            JobKind::Refactor => {
                self.refactor_ms.push(ms);
                let parse = reply
                    .get("report")
                    .and_then(|r| r.get("phases_s"))
                    .and_then(|p| p.get("parse"))
                    .and_then(Json::as_num);
                if let (Some(parse), true) = (parse, server_s > 0.0) {
                    self.parse_share.push(parse / server_s);
                }
            }
        }
    }
}

/// A daemon with both sessions analyzed, factored and warmed up.
pub struct Ready {
    daemon: Daemon,
    inputs: Inputs,
    conns: Vec<Conn>,
    steppers: Vec<Stepper>,
    state_dir: PathBuf,
    /// What the traced loop saw, kept for [`Workload::own_probes`].
    traced: Option<TracedLoop>,
}

/// The traced loops' server-side view.
struct TracedLoop {
    jobs: JobSamples,
    /// The daemon's `stats` reply before the first and after the last loop.
    stats: [Json; 2],
}

impl Ready {
    /// Runs time steps for `seconds` (at least one), the steppers taking
    /// turns. Returns the samples, the spans, and the server-side job
    /// samples (traced runs only).
    fn run(
        &mut self,
        seconds: f64,
        epoch: Option<Instant>,
    ) -> (LoopSamples, Vec<Span>, JobSamples) {
        let mut tr = epoch.map_or_else(Tracer::off, Tracer::on);
        let mut jobs = JobSamples::default();
        let mut out = LoopSamples::default();
        let t0 = Instant::now();
        while out.attempted == 0 || t0.elapsed().as_secs_f64() < seconds {
            let turn = out.attempted as usize % self.conns.len();
            tr.set_op(out.attempted);
            out.record(step(
                &mut self.conns[turn],
                &mut self.steppers[turn],
                &self.inputs,
                &mut tr,
                &mut jobs,
            ));
        }
        (out, tr.into_spans(), jobs)
    }
}

impl Workload for Ready {
    /// Two steps of each stepper, 20 jobs, about an eighth of a second.
    /// Shorter than the in-process windows: every job is two process
    /// wake-ups, and under a busy host a window of 16 steps rarely passed
    /// without the scheduler in it (its best moved three times as far from
    /// slice to slice as this one's).
    const WINDOW_OPS: usize = 2 * SESSIONS.len();

    /// Set-up: inputs on disk, daemon up, one connection and one session
    /// per stepper, first factorization, and the warm-up steps (all checked).
    fn setup(cfg: &RunConfig) -> Result<(Ready, f64), String> {
        let t0 = Instant::now();
        let dir = cfg.tmp_dir.join("daemon");
        let state_dir = dir.join("state");
        std::fs::create_dir_all(&state_dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let inputs = Inputs::write(cfg, &dir)?;
        let daemon = Daemon::spawn(cfg, &state_dir)?;
        let mut conns = Vec::new();
        let mut steppers = Vec::new();
        for session in SESSIONS {
            let mut conn = Conn::open(&daemon.addr)?;
            let analyze = format!("analyze {session} {}", inputs.pattern.display());
            check_reply(&conn.call(&analyze)?, None)?;
            let factor = format!("factor {session} {}", inputs.values[0].display());
            check_reply(&conn.call(&factor)?, None)?;
            let mut stepper = Stepper::new(session);
            for _ in 0..WARMUP_STEPS * JOBS_PER_STEP {
                let (line, _, want) = stepper.next(&inputs);
                check_reply(&conn.call(&line)?, want.as_deref())?;
            }
            conns.push(conn);
            steppers.push(stepper);
        }
        let ready = Ready {
            daemon,
            inputs,
            conns,
            steppers,
            state_dir,
            traced: None,
        };
        Ok((ready, t0.elapsed().as_secs_f64()))
    }

    fn measure(&mut self, seconds: f64, epoch: Option<Instant>) -> (LoopSamples, Vec<Span>) {
        let before = self.conns[0].call("stats").unwrap_or(Json::Null);
        let (samples, spans, jobs) = self.run(seconds, epoch);
        if epoch.is_some() {
            let after = self.conns[0].call("stats").unwrap_or(Json::Null);
            // A traced run calls this once per slice: the job samples add
            // up, the counters run from before the first slice to after
            // the last (the untraced slices in between send the same jobs).
            let t = self.traced.get_or_insert_with(|| TracedLoop {
                jobs: JobSamples::default(),
                stats: [before, Json::Null],
            });
            t.jobs.merge(jobs);
            t.stats[1] = after;
        }
        (samples, spans)
    }

    fn probe_input(&self) -> (&CscMatrix, &[f64]) {
        (&self.inputs.first, &self.inputs.first_rhs)
    }

    /// The `serve`, `persist`, `client` and `sparse` parse numbers.
    fn own_probes(&mut self, cfg: &RunConfig, m: &mut Metrics) -> Result<(), String> {
        if let Some(t) = &self.traced {
            m.insert("serve.solve_job_p50_ms", median(&t.jobs.solve_ms));
            m.insert("serve.refactor_job_p50_ms", median(&t.jobs.refactor_ms));
            let job_ms = [t.jobs.solve_ms.as_slice(), &t.jobs.refactor_ms].concat();
            m.insert("serve.job_p99_ms", quantile(&job_ms, 0.99));
            m.insert("serve.overhead_ms", median(&t.jobs.overhead_ms));
            m.insert("serve.parse_share", median(&t.jobs.parse_share));
            let grew = |key: &str| {
                let of = |j: &Json| j.get(key).and_then(Json::as_num).unwrap_or(0.0);
                of(&t.stats[1]) - of(&t.stats[0])
            };
            m.insert("serve.refused", grew("jobs_rejected_overload"));
            // A compaction in between would make the byte difference
            // meaningless; it takes 256 KiB of journal, minutes of this load.
            if grew("journal_appends") > 0.0 && grew("journal_compactions") == 0.0 {
                m.insert(
                    "persist.journal_bytes_per_job",
                    grew("journal_bytes") / grew("journal_appends"),
                );
            }
        }

        // sparse: parsing one values file, as every refactor job does first.
        let values = &self.inputs.values[0];
        let bytes = std::fs::metadata(values).map_err(|e| e.to_string())?.len() as f64;
        read_matrix_market(values).map_err(|e| format!("parse: {e}"))?;
        let parse_ms = reps_ms(9, 0.5, || timed_ms(|| read_matrix_market(values)).1);
        m.insert("sparse.mm_parse_ms", median(&parse_ms));
        m.insert(
            "sparse.mm_parse_mb_per_s",
            bytes / 1e6 / (median(&parse_ms) * 1e-3),
        );

        // client: the retrying client's call against the bare round trip,
        // alternating, on an otherwise idle daemon.
        let session = self.steppers[0].session;
        let line = format!("solve {session} --rhs {}", self.inputs.rhs[0].display());
        let mut client = Client::new(
            AddrBook::new(self.daemon.addr.clone()),
            "bench",
            cfg.seed,
            RetryPolicy::default(),
        );
        let (mut via_client, mut raw) = (Vec::new(), Vec::new());
        for _ in 0..128 {
            let t0 = Instant::now();
            client
                .call(&line)
                .map_err(|e| format!("client call: {e}"))?;
            via_client.push(t0.elapsed().as_secs_f64() * 1e6);
            let t0 = Instant::now();
            self.conns[0].call(&line)?;
            raw.push(t0.elapsed().as_secs_f64() * 1e6);
        }
        m.insert(
            "client.call_overhead_us",
            median(&via_client) - median(&raw),
        );
        drop(client);

        // persist: append cost under both modes, then a restart on the
        // journal the run left behind. The daemon announces its address
        // before it replays, so the clock runs until a revived session has
        // answered its first solve — with the reference's bits.
        let refactor = format!("refactor {session} {}", self.inputs.values[0].display());
        crate::probes::persist_probes(&cfg.tmp_dir, &refactor, m)?;
        // Replay re-runs every journaled job since the last compaction, so
        // its time is read against that count.
        let journaled = self.conns[0].call("stats")?;
        let journaled = journaled.get("journal_appends").and_then(Json::as_num);
        m.insert("persist.replay_jobs", journaled.unwrap_or(0.0));
        self.conns.clear();
        self.daemon.shutdown()?;
        let t0 = Instant::now();
        self.daemon = Daemon::spawn(cfg, &self.state_dir)?;
        for st in &self.steppers {
            let mut conn = Conn::open(&self.daemon.addr)?;
            let line = format!(
                "solve {} --rhs {}",
                st.session,
                self.inputs.rhs[0].display()
            );
            check_reply(&conn.call(&line)?, Some(&self.inputs.want[st.k][0]))
                .map_err(|e| format!("after replay: {e}"))?;
            m.entry("persist.replay_ms")
                .or_insert(t0.elapsed().as_secs_f64() * 1e3);
            self.conns.push(conn);
        }
        Ok(())
    }

    /// Peak resident set of the daemon, then a clean shutdown.
    fn finish(mut self) -> Result<f64, String> {
        let rss = self.daemon.peak_rss_mb();
        self.conns.clear();
        self.daemon.shutdown()?;
        Ok(rss)
    }
}
