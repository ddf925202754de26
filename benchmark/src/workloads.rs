//! The three in-process workloads and the closed loop that drives them.
//!
//! Each workload is a closed loop of one caller: the next op starts when
//! the previous one has returned. An op's latency covers the calls into
//! the library only; the harness's own checking of the result (hash and
//! residual) happens after the clock stops and is not part of any metric.

use crate::inputs::{self, check_solution, solution_hash, Scale, SeedStream};
use crate::probes::Metrics;
use crate::trace::{Span, Tracer, OP_SPAN};
use crate::walk::walk;
use parsplu::core::{Options, SluSession, SparseLu};
use parsplu::sparse::CscMatrix;
use std::time::{Duration, Instant};

/// What the command line fixes for one run.
pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    pub scale: Scale,
    /// Directory for this run's temporary files (removed on exit).
    pub tmp_dir: std::path::PathBuf,
    /// The built `parsplu` binary (for `daemon_jobs`).
    pub parsplu_bin: std::path::PathBuf,
    /// Cores available; harness threads and daemon workers stay within it.
    pub nproc: usize,
}

/// One op's outcome: its latency and whether its results passed the gate.
pub type OpOutcome = (Duration, Result<(), String>);

/// A workload that runs inside the harness process.
pub trait InProcess: Sized {
    /// Ops run (and checked) at the end of set-up, before timing starts.
    const WARMUP_OPS: usize;
    /// See [`Workload::WINDOW_OPS`].
    const WINDOW_OPS: usize;

    /// Generates the inputs from `cfg.seed`, computes the reference hashes
    /// with a one-thread session, and prepares whatever the op reuses.
    fn setup(cfg: &RunConfig) -> Result<Self, String>;

    /// Runs op number `i`. With a recording tracer the op also records a
    /// span around each layer call.
    fn op(&mut self, i: usize, tr: &mut Tracer) -> OpOutcome;

    /// The matrix whose pipeline the per-layer probes walk, and a
    /// right-hand side for it.
    fn probe_input(&self) -> (&CscMatrix, &[f64]);
}

/// Samples of one closed loop.
#[derive(Default)]
pub struct LoopSamples {
    /// Latency of every timed op, in milliseconds.
    pub lat_ms: Vec<f64>,
    /// Denominator of `ops_per_s`, in seconds.
    pub busy_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub first_error: Option<String>,
}

impl LoopSamples {
    /// Ops per second over the fastest `k` consecutive ops of the loop (over
    /// the whole loop when it is shorter than `k`).
    pub fn best_window_ops_per_s(&self, k: usize) -> f64 {
        let k = k.clamp(1, self.lat_ms.len().max(1));
        self.lat_ms
            .windows(k)
            .map(|w| k as f64 * 1e3 / w.iter().sum::<f64>())
            .fold(0.0, f64::max)
    }

    /// Appends the samples of a later loop.
    pub fn merge(&mut self, later: LoopSamples) {
        self.lat_ms.extend(later.lat_ms);
        self.busy_s += later.busy_s;
        self.attempted += later.attempted;
        self.failed += later.failed;
        self.first_error = self.first_error.take().or(later.first_error);
    }

    pub fn record(&mut self, outcome: OpOutcome) {
        let (lat, res) = outcome;
        self.lat_ms.push(lat.as_secs_f64() * 1e3);
        self.busy_s += lat.as_secs_f64();
        self.attempted += 1;
        if let Err(e) = res {
            self.failed += 1;
            self.first_error.get_or_insert(e);
        }
    }
}

/// What the runner needs from a workload, in-process or not.
pub trait Workload: Sized {
    /// Consecutive ops that make one throughput window: at most about half
    /// a second of work, so that a run holds many windows and some of them
    /// miss the host's disturbances.
    const WINDOW_OPS: usize;

    /// Set-up up to the first timed op: inputs, reference solutions,
    /// whatever the op reuses, and the (checked) warm-up ops. Returns the
    /// ready workload and the seconds it took.
    fn setup(cfg: &RunConfig) -> Result<(Self, f64), String>;

    /// Runs the closed loop for `seconds`. With an `epoch` the caller
    /// records spans counted from it and hands them back.
    fn measure(&mut self, seconds: f64, epoch: Option<Instant>) -> (LoopSamples, Vec<Span>);

    /// The matrix whose pipeline the per-layer probes walk, and a
    /// right-hand side for it.
    fn probe_input(&self) -> (&CscMatrix, &[f64]);

    /// Probes of layers only this workload enters, run after the loops.
    fn own_probes(&mut self, _cfg: &RunConfig, _m: &mut Metrics) -> Result<(), String> {
        Ok(())
    }

    /// Ends the workload; returns the measured process's peak resident
    /// set in MB.
    fn finish(self) -> Result<f64, String>;
}

impl<W: InProcess> Workload for W {
    const WINDOW_OPS: usize = <W as InProcess>::WINDOW_OPS;

    fn setup(cfg: &RunConfig) -> Result<(Self, f64), String> {
        let t0 = Instant::now();
        let mut w = W::setup(cfg)?;
        let mut off = Tracer::off();
        for i in 0..W::WARMUP_OPS {
            w.op(i, &mut off).1?;
        }
        Ok((w, t0.elapsed().as_secs_f64()))
    }

    /// Runs ops back to back for `seconds` (at least one op).
    fn measure(&mut self, seconds: f64, epoch: Option<Instant>) -> (LoopSamples, Vec<Span>) {
        let mut tr = epoch.map_or_else(Tracer::off, Tracer::on);
        let mut out = LoopSamples::default();
        let t0 = Instant::now();
        let mut i = W::WARMUP_OPS;
        while out.attempted == 0 || t0.elapsed().as_secs_f64() < seconds {
            tr.set_op(i as u64);
            out.record(self.op(i, &mut tr));
            i += 1;
        }
        (out, tr.into_spans())
    }

    fn probe_input(&self) -> (&CscMatrix, &[f64]) {
        InProcess::probe_input(self)
    }

    fn finish(self) -> Result<f64, String> {
        Ok(crate::peak_rss_mb("/proc/self/status"))
    }
}

// ---------------------------------------------------------------------------
// oneshot_front
// ---------------------------------------------------------------------------

/// `oneshot_front`: analyze + factor + solve from scratch on four low-fill
/// reservoir/flow patterns. One op is one round over the four (so every
/// latency sample holds the same work).
pub struct OneshotFront {
    mats: Vec<CscMatrix>,
    rhs: Vec<Vec<f64>>,
    want: Vec<u64>,
}

impl InProcess for OneshotFront {
    const WARMUP_OPS: usize = 2;
    const WINDOW_OPS: usize = 2;

    fn setup(cfg: &RunConfig) -> Result<Self, String> {
        let mut seeds = SeedStream::new(cfg.seed);
        let mats = inputs::front_matrices(cfg.scale, &mut seeds);
        let rhs: Vec<Vec<f64>> = mats.iter().map(|a| inputs::rhs(a, seeds.next())).collect();
        let mut want = Vec::new();
        for (a, b) in mats.iter().zip(&rhs) {
            let s = inputs::reference_session(a).map_err(|e| format!("reference: {e}"))?;
            want.push(solution_hash(&s.solve(b)));
        }
        Ok(OneshotFront { mats, rhs, want })
    }

    fn op(&mut self, _i: usize, tr: &mut Tracer) -> OpOutcome {
        let traced = tr.is_on();
        let t0 = Instant::now();
        let root = tr.begin(OP_SPAN);
        let mut xs = Vec::with_capacity(self.mats.len());
        for (a, b) in self.mats.iter().zip(&self.rhs) {
            let x = if traced {
                // Same computation, one public call per phase.
                walk(a, tr).map(|w| w.solve(b, tr))
            } else {
                SparseLu::factor(a, &Options::default())
                    .map(|lu| lu.solve(b))
                    .map_err(|e| e.to_string())
            };
            xs.push(x);
        }
        tr.end(root);
        let lat = t0.elapsed();
        let mut res = Ok(());
        for (k, x) in xs.iter().enumerate() {
            let r = match x {
                Ok(x) => check_solution(&self.mats[k], x, &self.rhs[k], self.want[k]),
                Err(e) => Err(e.clone()),
            };
            res = res.and(r.map_err(|e| format!("pattern {k}: {e}")));
        }
        (lat, res)
    }

    fn probe_input(&self) -> (&CscMatrix, &[f64]) {
        (&self.mats[0], &self.rhs[0])
    }
}

// ---------------------------------------------------------------------------
// refactor_numeric
// ---------------------------------------------------------------------------

/// Value sets `refactor_numeric` and `daemon_jobs` cycle through.
pub const VALUE_SETS: usize = 8;

/// `refactor_numeric`: one analysis, then `refactor(A_k)` + `solve(b)` over
/// eight value sets of the `goodwin` generator's pattern, one thread.
pub struct RefactorNumeric {
    session: SluSession,
    sets: Vec<CscMatrix>,
    b: Vec<f64>,
    want: Vec<u64>,
}

impl InProcess for RefactorNumeric {
    const WARMUP_OPS: usize = VALUE_SETS;
    const WINDOW_OPS: usize = VALUE_SETS;

    fn setup(cfg: &RunConfig) -> Result<Self, String> {
        let mut seeds = SeedStream::new(cfg.seed);
        let sets: Vec<CscMatrix> = (0..VALUE_SETS)
            .map(|_| inputs::goodwin(cfg.scale, seeds.next()))
            .collect();
        let b = inputs::rhs(&sets[0], seeds.next());
        // References come from fresh `factor` calls of a second session,
        // so the op also shows that `refactor` equals `factor` bit for bit.
        let mut reference =
            inputs::reference_session(&sets[0]).map_err(|e| format!("reference: {e}"))?;
        let mut want = Vec::new();
        for a in &sets {
            reference.factor(a).map_err(|e| format!("reference: {e}"))?;
            want.push(solution_hash(&reference.solve(&b)));
        }
        drop(reference);
        let session = inputs::reference_session(&sets[0]).map_err(|e| format!("analyze: {e}"))?;
        Ok(RefactorNumeric {
            session,
            sets,
            b,
            want,
        })
    }

    fn op(&mut self, i: usize, tr: &mut Tracer) -> OpOutcome {
        let k = i % VALUE_SETS;
        let t0 = Instant::now();
        let root = tr.begin(OP_SPAN);
        let session = &mut self.session;
        let done = tr.span("core.refactor", || session.refactor(&self.sets[k]));
        let x = done.and_then(|()| tr.span("core.solve", || session.try_solve(&self.b)));
        tr.end(root);
        let lat = t0.elapsed();
        let res = match x {
            Ok(x) => check_solution(&self.sets[k], &x, &self.b, self.want[k]),
            Err(e) => Err(e.to_string()),
        };
        (lat, res.map_err(|e| format!("value set {k}: {e}")))
    }

    fn probe_input(&self) -> (&CscMatrix, &[f64]) {
        (&self.sets[0], &self.b)
    }
}

// ---------------------------------------------------------------------------
// solve_mix
// ---------------------------------------------------------------------------

/// Right-hand sides of the `solve_many` call in a `solve_mix` round.
pub const MANY_RHS: usize = 8;

/// `solve_mix`: factor the mesh of `refactor_numeric` once, then rounds of
/// `solve` + `solve_transposed` + `solve_many(·, 8)`. (The full `goodwin`
/// analogue's 70 MB of factors made the op's median move by 15 % from run
/// to run on a shared host; these 19 MB repeat within 2 %.)
pub struct SolveMix {
    a: CscMatrix,
    at: CscMatrix,
    lu: SparseLu,
    b: Vec<f64>,
    /// `MANY_RHS` right-hand sides, column-major.
    bb: Vec<f64>,
    want: u64,
    want_t: u64,
    want_many: Vec<u64>,
}

impl InProcess for SolveMix {
    const WARMUP_OPS: usize = 8;
    const WINDOW_OPS: usize = 64;

    fn setup(cfg: &RunConfig) -> Result<Self, String> {
        let mut seeds = SeedStream::new(cfg.seed);
        let a = inputs::goodwin(cfg.scale, seeds.next());
        let at = a.transpose();
        let b = inputs::rhs(&a, seeds.next());
        let mut bb = Vec::with_capacity(MANY_RHS * a.ncols());
        for _ in 0..MANY_RHS {
            bb.extend(inputs::rhs(&a, seeds.next()));
        }
        let lu = SparseLu::factor(&a, &Options::default()).map_err(|e| format!("factor: {e}"))?;
        // References: single solves through the one-thread session under
        // the factors; a `solve_many` column must equal its single solve.
        let s = lu.session();
        let n = a.ncols();
        let single = |rhs: &[f64]| s.try_solve(rhs).map(|x| solution_hash(&x));
        let want = single(&b).map_err(|e| e.to_string())?;
        let want_t = s
            .try_solve_transposed(&b)
            .map(|x| solution_hash(&x))
            .map_err(|e| e.to_string())?;
        let want_many = (0..MANY_RHS)
            .map(|r| single(&bb[r * n..(r + 1) * n]))
            .collect::<Result<Vec<u64>, _>>()
            .map_err(|e| e.to_string())?;
        Ok(SolveMix {
            a,
            at,
            lu,
            b,
            bb,
            want,
            want_t,
            want_many,
        })
    }

    fn op(&mut self, _i: usize, tr: &mut Tracer) -> OpOutcome {
        let t0 = Instant::now();
        let root = tr.begin(OP_SPAN);
        let x = tr.span("core.solve", || self.lu.try_solve(&self.b));
        let xt = tr.span("core.solve_transposed", || {
            self.lu.try_solve_transposed(&self.b)
        });
        let xs = tr.span("core.solve_many", || {
            self.lu.try_solve_many(&self.bb, MANY_RHS)
        });
        tr.end(root);
        let lat = t0.elapsed();
        let n = self.a.ncols();
        let check = || -> Result<(), String> {
            let x = x.map_err(|e| e.to_string())?;
            check_solution(&self.a, &x, &self.b, self.want).map_err(|e| format!("solve: {e}"))?;
            let xt = xt.map_err(|e| e.to_string())?;
            check_solution(&self.at, &xt, &self.b, self.want_t)
                .map_err(|e| format!("solve_transposed: {e}"))?;
            let xs = xs.map_err(|e| e.to_string())?;
            for r in 0..MANY_RHS {
                let cols = r * n..(r + 1) * n;
                check_solution(
                    &self.a,
                    &xs[cols.clone()],
                    &self.bb[cols],
                    self.want_many[r],
                )
                .map_err(|e| format!("solve_many column {r}: {e}"))?;
            }
            Ok(())
        };
        (lat, check())
    }

    fn probe_input(&self) -> (&CscMatrix, &[f64]) {
        (&self.a, &self.b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_window_is_the_fastest_run_of_consecutive_ops() {
        let mut s = LoopSamples::default();
        for ms in [10, 10, 5, 5, 10] {
            s.record((Duration::from_millis(ms), Ok(())));
        }
        assert_eq!(s.best_window_ops_per_s(2), 200.0);
        assert_eq!(s.best_window_ops_per_s(1), 200.0);
        // A loop shorter than the window is one window.
        assert_eq!(s.best_window_ops_per_s(64), 125.0);
        assert_eq!(LoopSamples::default().best_window_ops_per_s(4), 0.0);
    }
}
