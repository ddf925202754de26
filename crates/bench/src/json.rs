//! Schema validation for the observability artifacts: run reports and
//! Chrome `trace_event` files.
//!
//! The workspace is offline (no serde). The parser is `splu-client`'s (the
//! one JSON reader in the workspace); this module adds the two schemas the
//! test-suite and CI hold the CLI's `--report` / `--trace` output to.

use splu_core::PHASE_NAMES;
use std::collections::BTreeMap;

pub use splu_client::{parse, Json};

fn require_num(rec: &Json, key: &str, ctx: &str) -> Result<f64, String> {
    rec.get(key)
        .and_then(Json::as_num)
        .ok_or_else(|| format!("{ctx}: missing numeric field {key:?}"))
}

fn require_str<'j>(rec: &'j Json, key: &str, ctx: &str) -> Result<&'j str, String> {
    rec.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{ctx}: missing string field {key:?}"))
}

/// Validates a Chrome `trace_event` document: a `traceEvents` array whose
/// complete (`"X"`) events carry `name`/`ts`/`dur`/`tid` with non-negative
/// durations and **monotone non-decreasing `ts` per `tid`** (each worker's
/// stream is recorded in order). Returns the number of `"X"` events.
pub fn validate_chrome_trace(doc: &Json) -> Result<usize, String> {
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("chrome trace: missing traceEvents array")?;
    // Timestamps must be monotone per *track*, i.e. per (pid, tid) pair —
    // combined pipeline traces carry several processes whose tid spaces
    // overlap (pid 0 = pipeline, pid 1 = numeric executor).
    let mut last_ts: BTreeMap<(i64, i64), f64> = BTreeMap::new();
    let mut complete = 0usize;
    for (i, e) in events.iter().enumerate() {
        let ctx = format!("traceEvents[{i}]");
        let ph = require_str(e, "ph", &ctx)?;
        if ph != "X" {
            continue;
        }
        complete += 1;
        require_str(e, "name", &ctx)?;
        let pid = e.get("pid").and_then(Json::as_num).unwrap_or(0.0) as i64;
        let tid = require_num(e, "tid", &ctx)? as i64;
        let ts = require_num(e, "ts", &ctx)?;
        let dur = require_num(e, "dur", &ctx)?;
        if dur < 0.0 {
            return Err(format!("{ctx}: negative duration {dur}"));
        }
        if let Some(&prev) = last_ts.get(&(pid, tid)) {
            if ts < prev {
                return Err(format!(
                    "{ctx}: timestamps regress on pid {pid} tid {tid} ({ts} < {prev})"
                ));
            }
        }
        last_ts.insert((pid, tid), ts);
    }
    Ok(complete)
}

/// Validates a `parsplu-run-report/1` document (the `--report` output of
/// the CLI and `splu_core::observe::RunReport::to_json`): the schema tag,
/// matrix/options identification, finite non-negative per-phase walls keyed
/// by [`PHASE_NAMES`] members only, non-negative integer counters, and a
/// status object whose `kind` is one of the known outcome classes. Returns
/// the number of counters.
pub fn validate_run_report(doc: &Json) -> Result<usize, String> {
    let ctx = "run report";
    let schema = require_str(doc, "schema", ctx)?;
    if schema != "parsplu-run-report/1" {
        return Err(format!("{ctx}: unknown schema {schema:?}"));
    }
    require_str(doc, "package_version", ctx)?;
    let matrix = doc.get("matrix").ok_or("run report: missing matrix")?;
    require_str(matrix, "name", "run report.matrix")?;
    for key in ["n", "nnz"] {
        let v = require_num(matrix, key, "run report.matrix")?;
        if v < 0.0 || v.fract() != 0.0 {
            return Err(format!("run report.matrix.{key}: bad count {v}"));
        }
    }
    let options = doc.get("options").ok_or("run report: missing options")?;
    for key in ["ordering", "mapping", "pivot_rule", "kernels"] {
        require_str(options, key, "run report.options")?;
    }
    let threads = require_num(options, "threads", "run report.options")?;
    if threads < 0.0 || threads.fract() != 0.0 {
        return Err(format!("run report.options.threads: bad count {threads}"));
    }
    let phases = match doc.get("phases_s") {
        Some(Json::Obj(m)) => m,
        _ => return Err("run report: missing phases_s object".to_string()),
    };
    for (name, v) in phases {
        if !PHASE_NAMES.contains(&name.as_str()) {
            return Err(format!("run report.phases_s: unknown phase {name:?}"));
        }
        let v = v
            .as_num()
            .ok_or_else(|| format!("run report.phases_s.{name}: not a number"))?;
        if !v.is_finite() || v < 0.0 {
            return Err(format!("run report.phases_s.{name}: bad wall time {v}"));
        }
    }
    let counters = match doc.get("counters") {
        Some(Json::Obj(m)) => m,
        _ => return Err("run report: missing counters object".to_string()),
    };
    for (name, v) in counters {
        let v = v
            .as_num()
            .ok_or_else(|| format!("run report.counters.{name}: not a number"))?;
        if v < 0.0 || v.fract() != 0.0 {
            return Err(format!("run report.counters.{name}: bad count {v}"));
        }
    }
    // Phase-dependent sections are null until their phase runs, but must
    // be present as keys.
    for key in ["kernel", "sched", "health", "heap"] {
        if doc.get(key).is_none() {
            return Err(format!("run report: missing field {key:?}"));
        }
    }
    if let Some(sched @ Json::Obj(_)) = doc.get("sched") {
        for key in ["nthreads", "n_tasks", "wall_s", "busy_s"] {
            require_num(sched, key, "run report.sched")?;
        }
    }
    if let Some(health @ Json::Obj(_)) = doc.get("health") {
        health
            .get("perturbed_columns")
            .and_then(Json::as_arr)
            .ok_or("run report.health: missing perturbed_columns array")?;
        require_num(health, "max_perturbation", "run report.health")?;
    }
    let status = doc.get("status").ok_or("run report: missing status")?;
    let ok = match status.get("ok") {
        Some(Json::Bool(b)) => *b,
        _ => return Err("run report.status: missing bool ok".to_string()),
    };
    let kind = require_str(status, "kind", "run report.status")?;
    if !matches!(
        kind,
        "ok" | "cancelled" | "deadline" | "stalled" | "singular" | "panic" | "error"
    ) {
        return Err(format!("run report.status: unknown kind {kind:?}"));
    }
    if ok != (kind == "ok") {
        return Err(format!(
            "run report.status: ok={ok} inconsistent with kind {kind:?}"
        ));
    }
    Ok(counters.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The validator takes its phase vocabulary from `splu_core`: every
    /// canonical name passes — the analysis' `derive`, a fallback's
    /// `static_lists` and the set-up phases of a `factor` (`layout`,
    /// `assemble`) included — and any other is refused.
    #[test]
    fn run_report_phases_are_pinned_to_core_phase_names() {
        let report = |phases: &str| {
            format!(
                r#"{{"schema": "parsplu-run-report/1", "package_version": "0",
                    "matrix": {{"name": "m", "n": 3, "nnz": 7}},
                    "options": {{"ordering": "mindeg", "mapping": "static1d",
                                 "pivot_rule": "partial",
                                 "kernels": "auto", "threads": 1}},
                    "phases_s": {{{phases}}}, "counters": {{"tasks_started": 4}},
                    "kernel": null, "sched": null, "health": null, "heap": null,
                    "status": {{"ok": true, "kind": "ok"}}}}"#
            )
        };
        let all: Vec<String> = PHASE_NAMES
            .iter()
            .map(|p| format!("\"{p}\": 0.001"))
            .collect();
        let good = parse(&report(&all.join(", "))).unwrap();
        assert_eq!(validate_run_report(&good), Ok(1));
        assert!(["derive", "static_lists", "layout", "assemble"]
            .iter()
            .all(|p| PHASE_NAMES.contains(p)));
        let unknown = parse(&report(&format!("{}, \"warmup\": 0.001", all.join(", ")))).unwrap();
        let err = validate_run_report(&unknown).unwrap_err();
        assert!(err.contains("unknown phase \"warmup\""), "{err}");
    }

    #[test]
    fn chrome_validator_requires_monotone_per_tid() {
        let good = r#"{"traceEvents": [
            {"ph": "X", "name": "a", "tid": 0, "ts": 1.0, "dur": 2.0},
            {"ph": "X", "name": "b", "tid": 1, "ts": 0.5, "dur": 1.0},
            {"ph": "X", "name": "c", "tid": 0, "ts": 3.0, "dur": 0.0}
        ]}"#;
        assert_eq!(validate_chrome_trace(&parse(good).unwrap()), Ok(3));
        let bad = r#"{"traceEvents": [
            {"ph": "X", "name": "a", "tid": 0, "ts": 5.0, "dur": 2.0},
            {"ph": "X", "name": "b", "tid": 0, "ts": 1.0, "dur": 1.0}
        ]}"#;
        assert!(validate_chrome_trace(&parse(bad).unwrap()).is_err());
    }
}
