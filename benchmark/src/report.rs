//! Whole-benchmark commands built on the single-run form: `all` (every
//! workload in a fresh child process, untraced then traced, one result file
//! with a provenance envelope), `selfcheck` (two sets back to back, compared
//! against the bounds in `BENCHMARK.json`) and `compare` (two result files).

use crate::{nproc, out_dir, repo_root, spec};
use splu_client::{parse, Json};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

/// Schema tag of a result file.
const SCHEMA: &str = "parsplu-benchmark-results/1";

/// Host fields that must agree before two result files are compared.
const HOST_FIELDS: [&str; 4] = ["nproc", "cpu_model", "cpu_flags", "rustc"];

struct SetArgs {
    seed: u64,
    seconds: Option<f64>,
    smoke: bool,
    out: Option<PathBuf>,
}

fn parse_set_args(args: &[String]) -> Result<SetArgs, String> {
    let mut out = SetArgs {
        seed: 1,
        seconds: None,
        smoke: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            out.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--seed" => out.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => out.seconds = Some(value.parse().map_err(|_| bad())?),
            "--out" => out.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown option `{flag}`")),
        }
    }
    Ok(out)
}

/// `BENCHMARK.json` at the repository root.
fn benchmark_json() -> Result<Json, String> {
    let path = repo_root().join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Metric name → bound, from `BENCHMARK.json`'s `end_to_end` list.
fn bounds(doc: &Json) -> BTreeMap<String, f64> {
    let Some(Json::Arr(list)) = doc.get("end_to_end") else {
        return BTreeMap::new();
    };
    list.iter()
        .filter_map(|m| {
            let name = m.get("name")?.as_str()?;
            Some((name.to_string(), m.get("bound")?.as_num()?))
        })
        .collect()
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

pub fn esc(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', " ")
}

/// The provenance envelope: what code ran, on what host, built how.
fn provenance() -> String {
    let root = repo_root();
    let root_s = root.to_string_lossy();
    let git = |args: &[&str]| command_line("git", &[&["-C", &*root_s], args].concat());
    let commit = git(&["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".to_string());
    let dirty = git(&["status", "--porcelain"]).map(|s| !s.is_empty());
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let field = |key: &str| {
        cpuinfo
            .lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split(':').nth(1))
            .map_or(String::new(), |v| v.trim().to_string())
    };
    // The instruction-set flags the dense kernels could depend on.
    let all_flags = field("flags");
    let flags: Vec<&str> = ["sse2", "sse4_2", "avx", "avx2", "fma", "avx512f"]
        .into_iter()
        .filter(|f| all_flags.split_whitespace().any(|g| g == *f))
        .collect();
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let rustc = command_line(&rustc, &["--version"]).unwrap_or_else(|| "unknown".to_string());
    format!(
        "{{\"commit\": \"{}\", \"dirty\": {}, \"nproc\": {}, \"cpu_model\": \"{}\", \"cpu_flags\": \"{}\", \"rustc\": \"{}\", \"profile\": \"release\", \"cargo_features\": \"default\"}}",
        esc(&commit),
        dirty.map_or("null".to_string(), |d| d.to_string()),
        nproc(),
        esc(&field("model name")),
        flags.join(" "),
        esc(&rustc),
    )
}

/// Runs one workload in a fresh child process and returns its result line.
fn child_run(workload: &str, set: &SetArgs, seconds: f64, traced: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &set.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if set.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("running {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    print!("{stdout}");
    let last = stdout.lines().last().unwrap_or("");
    parse(last).map_err(|e| format!("{workload} (trace {}): no result line: {e}", traced as u8))
}

fn metrics_json(result: &Json) -> String {
    let Some(Json::Obj(map)) = result.get("metrics") else {
        return "{}".to_string();
    };
    let fields: Vec<String> = map
        .iter()
        .map(|(name, m)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.get("value").and_then(Json::as_num).unwrap_or(0.0),
                m.get("unit").and_then(Json::as_str).unwrap_or("")
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn count(result: &Json, key: &str) -> u64 {
    result.get(key).and_then(Json::as_num).unwrap_or(0.0) as u64
}

/// Runs the whole set and writes the result file. Returns the file's path
/// and the number of failed ops over all workloads.
fn run_set(set: &SetArgs, out: &Path) -> Result<u64, String> {
    let doc = benchmark_json()?;
    let default_seconds = doc
        .get("run_seconds")
        .and_then(Json::as_num)
        .unwrap_or(20.0);
    let seconds = set
        .seconds
        .unwrap_or(if set.smoke { 0.5 } else { default_seconds });
    let mut failed = 0;
    let mut entries = Vec::new();
    for workload in spec::WORKLOADS {
        let untraced = child_run(workload, set, seconds, false)?;
        // The traced pass is the shorter one: its two loops take a quarter
        // of `seconds` each, the probes a few seconds more.
        let traced = child_run(workload, set, seconds, true)?;
        failed += count(&untraced, "failed") + count(&traced, "failed");
        entries.push(format!(
            "\"{workload}\": {{\"attempted\": {}, \"failed\": {}, \"traced_attempted\": {}, \"traced_failed\": {}, \"end_to_end\": {}, \"per_layer\": {}}}",
            count(&untraced, "attempted"),
            count(&untraced, "failed"),
            count(&traced, "attempted"),
            count(&traced, "failed"),
            metrics_json(&untraced),
            metrics_json(&traced),
        ));
    }
    let text = format!(
        "{{\"schema\": \"{SCHEMA}\", \"provenance\": {}, \"seed\": {}, \"seconds\": {seconds}, \"smoke\": {}, \"setup_reps\": {}, \"workloads\": {{\n{}\n}}}}\n",
        provenance(),
        set.seed,
        set.smoke,
        if set.smoke { 1 } else { crate::SETUP_REPS },
        entries.join(",\n")
    );
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(out, text).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("wrote {}", out.display());
    Ok(failed)
}

/// `all`: every workload untraced, then traced; non-zero when any op failed.
pub fn cmd_all(args: &[String]) -> Result<ExitCode, String> {
    let set = parse_set_args(args)?;
    let out = set
        .out
        .clone()
        .unwrap_or_else(|| out_dir().join("results.json"));
    let failed = run_set(&set, &out)?;
    if failed > 0 {
        eprintln!("{failed} op(s) failed their checks");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

fn load_results(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
        return Err(format!("{}: not a {SCHEMA} file", path.display()));
    }
    Ok(doc)
}

fn end_to_end_value(doc: &Json, workload: &str, metric: &str) -> Option<f64> {
    doc.get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?
        .get("value")?
        .as_num()
}

/// Prints, per (metric, workload), both values, how much worse `new` is
/// than `base` as a share of `base`, and the bound. With `symmetric` a
/// change in either direction counts (two runs of the same code). Returns
/// the number of pairs outside their bound.
fn compare_docs(base: &Json, new: &Json, symmetric: bool) -> Result<usize, String> {
    let bounds = bounds(&benchmark_json()?);
    println!(
        "{:<18} {:<22} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "base", "new", "worse by", "bound"
    );
    let mut outside = 0;
    for workload in spec::WORKLOADS {
        for (metric, unit, lower_is_better) in spec::END_TO_END {
            let (Some(b), Some(n)) = (
                end_to_end_value(base, workload, metric),
                end_to_end_value(new, workload, metric),
            ) else {
                return Err(format!("{workload}/{metric} missing from a result file"));
            };
            let worse = if lower_is_better { n - b } else { b - n } / b;
            let bound = bounds.get(metric).copied().unwrap_or(0.0);
            let judged = if symmetric { worse.abs() } else { worse };
            let flag = if judged > bound {
                outside += 1;
                "  OUTSIDE"
            } else {
                ""
            };
            println!(
                "{workload:<18} {metric:<22} {b:>14.4} {n:>14.4} {:>8.2}% {:>6.0}% {unit}{flag}",
                worse * 100.0,
                bound * 100.0
            );
        }
    }
    Ok(outside)
}

/// `compare <base.json> <new.json>`: refuses files from different hosts.
pub fn cmd_compare(args: &[String]) -> Result<ExitCode, String> {
    let [base, new] = args else {
        return Err("usage: compare <base.json> <new.json>".to_string());
    };
    let (base, new) = (
        load_results(Path::new(base))?,
        load_results(Path::new(new))?,
    );
    for field in HOST_FIELDS {
        let of = |doc: &Json| doc.get("provenance").and_then(|p| p.get(field)).cloned();
        if of(&base) != of(&new) {
            return Err(format!(
                "refusing to compare: host field `{field}` differs ({:?} vs {:?})",
                of(&base),
                of(&new)
            ));
        }
    }
    for field in ["seed", "seconds", "smoke"] {
        if base.get(field) != new.get(field) {
            return Err(format!("refusing to compare: `{field}` differs"));
        }
    }
    let outside = compare_docs(&base, &new, false)?;
    if outside > 0 {
        eprintln!("{outside} (metric, workload) pair(s) worse than the bound allows");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

/// `selfcheck`: two full sets of the same code, back to back; every
/// end-to-end pair must agree within its bound.
pub fn cmd_selfcheck(args: &[String]) -> Result<ExitCode, String> {
    let set = parse_set_args(args)?;
    let paths = [1, 2].map(|i| out_dir().join(format!("selfcheck-{i}.json")));
    let mut failed = 0;
    for p in &paths {
        failed += run_set(&set, p)?;
    }
    let outside = compare_docs(&load_results(&paths[0])?, &load_results(&paths[1])?, true)?;
    if failed > 0 || outside > 0 {
        eprintln!("selfcheck failed: {failed} failed op(s), {outside} pair(s) outside their bound");
        return Ok(ExitCode::FAILURE);
    }
    println!("selfcheck passed: every (metric, workload) pair within its bound");
    Ok(ExitCode::SUCCESS)
}
