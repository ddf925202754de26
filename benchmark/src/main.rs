//! The parsplu benchmark harness.
//!
//! ```text
//! parsplu-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! parsplu-benchmark all       [--seed <n>] [--seconds <s>] [--smoke] [--out <file>]
//! parsplu-benchmark selfcheck [--seed <n>] [--seconds <s>] [--smoke]
//! parsplu-benchmark compare <base.json> <new.json>
//! ```
//!
//! The first form is one run of one workload: it builds the repository's
//! `parsplu` binary, sets the workload up, measures it for `--seconds`,
//! checks every op's result, and prints every metric by name with its unit;
//! the last line of standard output is the result as one JSON object.
//! `--trace 0` gives the end-to-end metrics, `--trace 1` the per-layer ones.
//! The other forms are built on it; see `benchmark/README.md`.

mod daemon;
mod inputs;
mod probes;
mod report;
mod spec;
mod stats;
mod trace;
mod walk;
mod workloads;

use inputs::Scale;
use probes::Metrics;
use splu_client::Json;
use stats::{max, median, min, quantile};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use trace::{chrome_json, self_times, Span};
use workloads::{LoopSamples, OneshotFront, RefactorNumeric, RunConfig, SolveMix, Workload};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// The repository root: the benchmark package sits directly under it.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package has a parent directory")
        .to_path_buf()
}

/// Where `results.json`, traces and temporary run directories go.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// `VmHWM` (peak resident set) from a `/proc/<pid>/status` file, in MB;
/// `0.0` where the file or the field is missing.
pub fn peak_rss_mb(status_path: &str) -> f64 {
    std::fs::read_to_string(status_path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cores this process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Builds the repository's `parsplu` binary (release profile, default
/// features) and returns its path. A no-op when it is up to date.
fn build_parsplu() -> Result<PathBuf, String> {
    let root = repo_root();
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "parsplu",
        ])
        .arg("--manifest-path")
        .arg(root.join("Cargo.toml"))
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("running cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building parsplu failed ({status})"));
    }
    // Cargo resolves a relative CARGO_TARGET_DIR against its working
    // directory, which the child inherited from this process.
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => std::env::current_dir()
            .map_err(|e| e.to_string())?
            .join(dir),
        None => root.join("target"),
    };
    let bin = target.join("release").join("parsplu");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("cargo built no {}", bin.display()))
    }
}

/// Removes the run's temporary directory when the run ends, on failure
/// paths too.
struct TmpDir(PathBuf);

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The result of one run of one workload.
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub first_error: Option<String>,
    pub metrics: Metrics,
}

/// One segment of an untraced run: a set-up and its share of the measuring
/// time, in a process of its own, so every segment starts from a fresh
/// heap and `peak_rss_mb` is one set-up's peak, not five stacked.
fn run_segment<W: Workload>(cfg: &RunConfig) -> Result<String, String> {
    let (mut w, setup_s) = W::setup(cfg)?;
    let (s, _) = w.measure(cfg.seconds, None);
    let rss_mb = w.finish()?;
    Ok(format!(
        "{{\"setup_s\": {setup_s}, \"op_min_ms\": {}, \"best_window_ops_per_s\": {}, \"attempted\": {}, \"failed\": {}, \"rss_mb\": {rss_mb}, \"first_error\": \"{}\"}}",
        min(&s.lat_ms),
        s.best_window_ops_per_s(W::WINDOW_OPS),
        s.attempted,
        s.failed,
        report::esc(&s.first_error.unwrap_or_default()),
    ))
}

/// The untraced run: [`SETUP_REPS`] segments, each a child process of this
/// executable. Every op does the same work, so what spreads its latency is
/// the host (a neighbour on the core, a descheduled thread), and that only
/// ever adds time: the run's fastest op and its fastest window of ops are
/// the estimates a busy host moves least. `setup_s` and `peak_rss_mb` are
/// medians over the segments.
fn run_untraced(args: &RunArgs, parsplu_bin: &Path) -> Result<RunResult, String> {
    let reps = if args.smoke { 1 } else { SETUP_REPS };
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let (mut setup_s, mut rss_mb, mut op_min_ms, mut window_rate) =
        (vec![], vec![], vec![], vec![]);
    let mut result = RunResult {
        attempted: 0,
        failed: 0,
        first_error: None,
        metrics: Metrics::new(),
    };
    for _ in 0..reps {
        let mut cmd = Command::new(&exe);
        cmd.args(["--segment", "--workload", &args.workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &(args.seconds / reps as f64).to_string()])
            .arg("--parsplu-bin")
            .arg(parsplu_bin);
        if args.smoke {
            cmd.arg("--smoke");
        }
        let out = cmd
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("spawning a segment: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let seg = splu_client::parse(text.lines().last().unwrap_or(""))
            .map_err(|e| format!("segment gave no result ({}): {e}", out.status))?;
        let num = |key: &str| seg.get(key).and_then(Json::as_num).unwrap_or(0.0);
        setup_s.push(num("setup_s"));
        rss_mb.push(num("rss_mb"));
        op_min_ms.push(num("op_min_ms"));
        window_rate.push(num("best_window_ops_per_s"));
        result.attempted += num("attempted") as u64;
        result.failed += num("failed") as u64;
        let error = seg.get("first_error").and_then(Json::as_str).unwrap_or("");
        if result.first_error.is_none() && !error.is_empty() {
            result.first_error = Some(error.to_string());
        }
    }
    result.metrics = Metrics::from([
        ("setup_s", median(&setup_s)),
        ("op_min_ms", min(&op_min_ms)),
        ("best_window_ops_per_s", max(&window_rate)),
        ("peak_rss_mb", median(&rss_mb)),
    ]);
    Ok(result)
}

/// Alternations of the untraced and the traced loop in a traced run.
const TRACE_ROUNDS: usize = 4;

/// The traced run: one set-up, then an untraced baseline loop and the traced
/// loop for a quarter of the time each — in [`TRACE_ROUNDS`] alternating
/// slices, so both see the same host — then the per-layer probes.
fn run_traced<W: Workload>(cfg: &RunConfig, name: &str) -> Result<RunResult, String> {
    let (mut w, _) = W::setup(cfg)?;
    let slice = cfg.seconds / 4.0 / TRACE_ROUNDS as f64;
    let epoch = Instant::now();
    let (mut untraced, mut traced) = (LoopSamples::default(), LoopSamples::default());
    // One span list per traced slice (op ids restart with every slice).
    let mut slices = Vec::new();
    for _ in 0..TRACE_ROUNDS {
        untraced.merge(w.measure(slice, None).0);
        let (samples, spans) = w.measure(slice, Some(epoch));
        traced.merge(samples);
        slices.push(spans);
    }
    let mut m = Metrics::new();
    trace_metrics(&untraced, &traced, &slices, &mut m);
    let views: Vec<&[Span]> = slices.iter().map(Vec::as_slice).collect();
    let path = out_dir().join(format!("trace-{name}.json"));
    std::fs::write(&path, chrome_json(&views)).map_err(|e| format!("{}: {e}", path.display()))?;
    // A probe that fails its bitwise check counts as one failed op.
    probes::dense_probes(&mut m);
    let (a, b) = w.probe_input();
    let probed =
        probes::pipeline_probes(a, b, cfg.nproc, &mut m).and_then(|()| w.own_probes(cfg, &mut m));
    w.finish()?;
    Ok(RunResult {
        attempted: untraced.attempted + traced.attempted + 1,
        failed: untraced.failed + traced.failed + probed.is_err() as u64,
        first_error: untraced.first_error.or(traced.first_error).or(probed.err()),
        metrics: m,
    })
}

/// The `bench.*` and `share.*` metrics of a traced run: the untraced
/// baseline loop, the traced loop beside it, and the spans' self times.
fn trace_metrics(
    untraced: &LoopSamples,
    traced: &LoopSamples,
    slices: &[Vec<Span>],
    m: &mut Metrics,
) {
    // What the host delivered, its disturbances included: the distribution
    // of the op's latency and the throughput over the whole loop.
    m.insert("bench.op_p50_ms", median(&untraced.lat_ms));
    m.insert("bench.op_p90_ms", quantile(&untraced.lat_ms, 0.9));
    m.insert("bench.op_min_ms", min(&untraced.lat_ms));
    m.insert("bench.op_max_ms", max(&untraced.lat_ms));
    m.insert("bench.samples", untraced.lat_ms.len() as f64);
    m.insert(
        "bench.ops_per_s",
        untraced.attempted as f64 / untraced.busy_s,
    );
    // Traced against untraced, fastest op against fastest op (as the
    // end-to-end `op_min_ms`): the two loops run one after the other, and a
    // host that slows down in between would read as tracing overhead.
    let base = min(&untraced.lat_ms);
    let attempted = untraced.attempted + traced.attempted;
    m.insert(
        "bench.fail_frac",
        (untraced.failed + traced.failed) as f64 / attempted.max(1) as f64,
    );
    m.insert(
        "bench.trace_overhead_pct",
        (min(&traced.lat_ms) / base - 1.0) * 100.0,
    );
    let mut layer_sums = Vec::new();
    let mut per_layer: std::collections::BTreeMap<&str, f64> = Default::default();
    let mut total = 0.0;
    for spans in slices {
        let st = self_times(spans);
        layer_sums.extend(st.per_op.iter().map(|&(_, layers)| layers));
        total += st.per_op.iter().map(|&(op, _)| op).sum::<f64>();
        for (layer, ms) in st.per_layer {
            *per_layer.entry(layer).or_insert(0.0) += ms;
        }
    }
    m.insert("bench.layer_sum_ratio", min(&layer_sums) / base);
    for &(name, _) in spec::PER_LAYER.iter() {
        if let Some(layer) = name.strip_prefix("share.") {
            let ms = per_layer.get(layer).copied().unwrap_or(0.0);
            m.insert(name, if total > 0.0 { ms / total } else { 0.0 });
        }
    }
}

/// Flags of the single-run form.
struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    /// Internal: this process is one segment of an untraced run.
    segment: bool,
    /// Internal: the already built `parsplu` binary, handed to a segment.
    parsplu_bin: Option<PathBuf>,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut out = RunArgs {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        traced: false,
        smoke: false,
        segment: false,
        parsplu_bin: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--smoke" => {
                out.smoke = true;
                continue;
            }
            "--segment" => {
                out.segment = true;
                continue;
            }
            _ => {}
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => out.workload = value.clone(),
            "--seed" => out.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => out.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => out.traced = matches!(value.as_str(), "1"),
            "--parsplu-bin" => out.parsplu_bin = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown option `{flag}`")),
        }
    }
    if !spec::WORKLOADS.contains(&out.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            spec::WORKLOADS.join(", ")
        ));
    }
    if !(out.seconds > 0.0 && out.seconds.is_finite()) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(out)
}

/// Dispatches on the workload name to the generic runner `$f`.
macro_rules! for_workload {
    ($name:expr, $f:ident, $($arg:expr),*) => {
        match $name {
            "oneshot_front" => $f::<OneshotFront>($($arg),*),
            "refactor_numeric" => $f::<RefactorNumeric>($($arg),*),
            "solve_mix" => $f::<SolveMix>($($arg),*),
            _ => $f::<daemon::Ready>($($arg),*),
        }
    };
}

/// The single-run form: one workload, one seed, traced or not.
fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let args = parse_run_args(args)?;
    let parsplu_bin = match &args.parsplu_bin {
        Some(bin) => bin.clone(),
        None => build_parsplu()?,
    };
    let name = args.workload.as_str();
    let result = if args.segment || args.traced {
        let tmp = TmpDir(out_dir().join(format!("run-{}", std::process::id())));
        std::fs::create_dir_all(&tmp.0).map_err(|e| format!("{}: {e}", tmp.0.display()))?;
        let cfg = RunConfig {
            seed: args.seed,
            seconds: args.seconds,
            scale: if args.smoke {
                Scale::Smoke
            } else {
                Scale::Full
            },
            tmp_dir: tmp.0.clone(),
            parsplu_bin,
            nproc: nproc(),
        };
        if args.segment {
            println!("{}", for_workload!(name, run_segment, &cfg)?);
            return Ok(ExitCode::SUCCESS);
        }
        for_workload!(name, run_traced, &cfg, name)?
    } else {
        run_untraced(&args, &parsplu_bin)?
    };

    // Every metric of the requested kind, by name; a per-layer metric of a
    // layer this workload never enters reads 0.
    let names: Vec<&str> = if args.traced {
        spec::PER_LAYER.iter().map(|&(n, _)| n).collect()
    } else {
        spec::END_TO_END.iter().map(|&(n, _, _)| n).collect()
    };
    println!(
        "workload {name}  seed {}  {} s  trace {}  nproc {}{}",
        args.seed,
        args.seconds,
        args.traced as u8,
        nproc(),
        if args.smoke { "  (smoke scale)" } else { "" }
    );
    let mut fields = Vec::new();
    for n in names {
        let v = result.metrics.get(n).copied().unwrap_or(0.0);
        let v = if v.is_finite() { v } else { 0.0 };
        let unit = spec::unit_of(n).expect("every listed metric has a unit");
        println!("  {n:<32} {v:>16.6} {unit}");
        fields.push(format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"));
    }
    println!(
        "  ops attempted {}, failed {}",
        result.attempted, result.failed
    );
    if let Some(e) = &result.first_error {
        eprintln!("first failure: {e}");
    }
    let correct = result.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.attempted,
        result.failed,
        fields.join(", ")
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("all") => report::cmd_all(&args[1..]),
        Some("selfcheck") => report::cmd_selfcheck(&args[1..]),
        Some("compare") => report::cmd_compare(&args[1..]),
        _ => cmd_run(&args),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("parsplu-benchmark: {e}");
        ExitCode::from(2)
    })
}
