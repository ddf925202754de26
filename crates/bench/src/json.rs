//! Minimal JSON parsing and schema validation for the benchmark artifacts.
//!
//! The workspace is offline (no serde), but the observability artifacts —
//! `BENCH_sched.json`, `BENCH_factor.json` and the Chrome `trace_event`
//! files — must be *verifiably* well-formed: CI parses and schema-checks
//! them after every `perf_report` run, and the test-suite validates the
//! Chrome export (valid JSON, monotone per-worker timestamps). This module
//! is a small recursive-descent parser over the JSON grammar plus the
//! schema validators for the artifacts this repo writes.

use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// String (escapes decoded).
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object, key-ordered.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// The value at `key` if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The elements if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The number if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The boolean if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Parses a complete JSON document, rejecting trailing garbage.
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing characters at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    skip_ws(b, pos);
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected '{}' at byte {} (found {:?})",
            c as char,
            *pos,
            b.get(*pos).map(|&x| x as char)
        ))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => parse_obj(b, pos),
        Some(b'[') => parse_arr(b, pos),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_num(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if matches!(b.get(*pos), Some(b'-')) {
        *pos += 1;
    }
    while matches!(
        b.get(*pos),
        Some(b'0'..=b'9') | Some(b'.') | Some(b'e') | Some(b'E') | Some(b'+') | Some(b'-')
    ) {
        *pos += 1;
    }
    let s = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    s.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("invalid number {s:?} at byte {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape".to_string())?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| e.to_string())?;
                        // Surrogate pairs are not needed by our artifacts;
                        // map lone surrogates to the replacement character.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(&c) if c < 0x20 => {
                return Err(format!("unescaped control character at byte {}", *pos))
            }
            Some(_) => {
                // Copy one UTF-8 scalar (multibyte-safe).
                let s = std::str::from_utf8(&b[*pos..]).map_err(|e| e.to_string())?;
                let ch = s.chars().next().expect("non-empty");
                out.push(ch);
                *pos += ch.len_utf8();
            }
        }
    }
}

fn parse_arr(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if matches!(b.get(*pos), Some(b']')) {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_obj(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(b, pos);
    if matches!(b.get(*pos), Some(b'}')) {
        *pos += 1;
        return Ok(Json::Obj(map));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        expect(b, pos, b':')?;
        let value = parse_value(b, pos)?;
        map.insert(key, value);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

// ---------------------------------------------------------------------------
// Schema validators for the artifacts this repo writes.
// ---------------------------------------------------------------------------

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

/// Validates `BENCH_sched.json`: an array of records each carrying the
/// identifying fields, a `kind` of `measured`/`simulated`, the overhead
/// measurement, and per-worker breakdown arrays of consistent length.
pub fn validate_bench_sched(doc: &Json) -> Result<usize, String> {
    let records = doc.as_arr().ok_or("BENCH_sched.json: not an array")?;
    for (i, r) in records.iter().enumerate() {
        let ctx = format!("record[{i}]");
        require_str(r, "matrix", &ctx)?;
        require_str(r, "mode", &ctx)?;
        let kind = require_str(r, "kind", &ctx)?;
        if kind != "measured" && kind != "simulated" {
            return Err(format!("{ctx}: bad kind {kind:?}"));
        }
        let threads = require_num(r, "threads", &ctx)?;
        if kind == "measured" {
            require_num(r, "median_off_s", &ctx)?;
            require_num(r, "median_traced_s", &ctx)?;
            require_num(r, "overhead_pct", &ctx)?;
            require_num(r, "wall_s", &ctx)?;
            require_num(r, "tasks_total", &ctx)?;
            require_num(r, "panel_copies", &ctx)?;
            for key in ["busy_s", "idle_s", "steal_s", "tasks", "steals_in"] {
                let arr = r
                    .get(key)
                    .and_then(Json::as_arr)
                    .ok_or_else(|| format!("{ctx}: missing array {key:?}"))?;
                if arr.len() != threads as usize {
                    return Err(format!(
                        "{ctx}: {key:?} has {} entries for {threads} workers",
                        arr.len()
                    ));
                }
            }
        } else {
            require_num(r, "makespan_s", &ctx)?;
        }
    }
    Ok(records.len())
}

/// Validates `BENCH_factor.json`: an array of records each with `matrix`,
/// `threads`, `mapping`, `median_seconds` and a `kind` of
/// `measured`/`simulated` (the field that stops downstream tooling from
/// averaging simulator ticks into wall-clock rows).
pub fn validate_bench_factor(doc: &Json) -> Result<usize, String> {
    let records = doc.as_arr().ok_or("BENCH_factor.json: not an array")?;
    for (i, r) in records.iter().enumerate() {
        let ctx = format!("record[{i}]");
        require_str(r, "matrix", &ctx)?;
        require_str(r, "mapping", &ctx)?;
        require_str(r, "kernel", &ctx)?;
        require_num(r, "threads", &ctx)?;
        require_num(r, "median_seconds", &ctx)?;
        let kind = require_str(r, "kind", &ctx)?;
        if kind != "measured" && kind != "simulated" {
            return Err(format!("{ctx}: bad kind {kind:?}"));
        }
    }
    Ok(records.len())
}

/// The pipeline phases a `BENCH_phases.json` record must report, in
/// pipeline order: everything from reading the matrix file through the
/// triangular solves. `--bin phases` writes one `measured` record per
/// matrix at `front_threads = 1`; artifacts from before the threaded fill
/// was removed also carry `front_threads = 8` records, `measured` and
/// `simulated` (see EXPERIMENTS.md), and still validate.
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

/// Validates `BENCH_phases.json`: an array of records each with `matrix`,
/// `front_threads` (≥ 1), a `kind` of `measured`/`simulated`, the
/// structure the walls were measured on — `fill_nnz` (entries of `Ā`, a
/// positive integer) and `model_flops` (the cost model's count) — and a
/// `phases` object mapping every name in [`PHASE_NAMES`] to a finite
/// non-negative wall time in seconds.
pub fn validate_bench_phases(doc: &Json) -> Result<usize, String> {
    let records = doc.as_arr().ok_or("BENCH_phases.json: not an array")?;
    for (i, r) in records.iter().enumerate() {
        let ctx = format!("record[{i}]");
        require_str(r, "matrix", &ctx)?;
        let ft = require_num(r, "front_threads", &ctx)?;
        if ft < 1.0 || ft.fract() != 0.0 {
            return Err(format!("{ctx}: bad front_threads {ft}"));
        }
        let kind = require_str(r, "kind", &ctx)?;
        if kind != "measured" && kind != "simulated" {
            return Err(format!("{ctx}: bad kind {kind:?}"));
        }
        let fill = require_num(r, "fill_nnz", &ctx)?;
        if fill < 1.0 || fill.fract() != 0.0 {
            return Err(format!("{ctx}: bad fill_nnz {fill}"));
        }
        let flops = require_num(r, "model_flops", &ctx)?;
        if !flops.is_finite() || flops < 0.0 {
            return Err(format!("{ctx}: bad model_flops {flops}"));
        }
        let phases = r
            .get("phases")
            .ok_or_else(|| format!("{ctx}: missing phases object"))?;
        for key in PHASE_NAMES {
            let v = require_num(phases, key, &format!("{ctx}.phases"))?;
            if !v.is_finite() || v < 0.0 {
                return Err(format!("{ctx}.phases.{key}: bad wall time {v}"));
            }
        }
    }
    Ok(records.len())
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
    for key in ["ordering", "task_graph", "mapping", "pivot_rule", "kernels"] {
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

/// Validates `BENCH_kernels.json`: an array of records, one per
/// kernel × op × panel shape, each carrying the op name (one of the four
/// dispatched kernels), the shape label, the kernel instantiation name
/// (`baseline`, `avx2` or `avx512f`) and a strictly positive throughput
/// plus per-call time.
pub fn validate_bench_kernels(doc: &Json) -> Result<usize, String> {
    let records = doc.as_arr().ok_or("BENCH_kernels.json: not an array")?;
    for (i, r) in records.iter().enumerate() {
        let ctx = format!("record[{i}]");
        let op = require_str(r, "op", &ctx)?;
        if !matches!(
            op,
            "gemm_sub" | "trsm_lower_unit" | "trsm_upper" | "lu_panel"
        ) {
            return Err(format!("{ctx}: bad op {op:?}"));
        }
        require_str(r, "shape", &ctx)?;
        let kernel = require_str(r, "kernel", &ctx)?;
        if !matches!(kernel, "baseline" | "avx2" | "avx512f") {
            return Err(format!("{ctx}: bad kernel {kernel:?}"));
        }
        let gflops = require_num(r, "gflops", &ctx)?;
        let secs = require_num(r, "seconds_per_call", &ctx)?;
        // NaN must fail too, so test for the valid range directly.
        if gflops <= 0.0 || secs <= 0.0 || gflops.is_nan() || secs.is_nan() {
            return Err(format!(
                "{ctx}: non-positive measurement (gflops {gflops}, seconds {secs})"
            ));
        }
    }
    Ok(records.len())
}

/// Validates `BENCH_service.json`: an array of records for the persistent
/// session service. `kind = "speedup"` rows compare a one-shot
/// factorization against `SluSession::refactor` on the same matrix
/// (`factor_s`, `refactor_s`, `speedup`, all strictly positive, with
/// `speedup` consistent with the two times); `kind = "serve"` rows report
/// the sustained serve-mode throughput (`jobs`, `jobs_per_sec`).
pub fn validate_bench_service(doc: &Json) -> Result<usize, String> {
    let records = doc.as_arr().ok_or("BENCH_service.json: not an array")?;
    for (i, r) in records.iter().enumerate() {
        let ctx = format!("record[{i}]");
        require_str(r, "matrix", &ctx)?;
        let threads = require_num(r, "threads", &ctx)?;
        if threads < 1.0 || threads.fract() != 0.0 {
            return Err(format!("{ctx}: bad threads {threads}"));
        }
        let kind = require_str(r, "kind", &ctx)?;
        match kind {
            "speedup" => {
                let factor_s = require_num(r, "factor_s", &ctx)?;
                let refactor_s = require_num(r, "refactor_s", &ctx)?;
                let speedup = require_num(r, "speedup", &ctx)?;
                if factor_s <= 0.0 || refactor_s <= 0.0 || factor_s.is_nan() || refactor_s.is_nan()
                {
                    return Err(format!(
                        "{ctx}: non-positive timing (factor_s {factor_s}, refactor_s {refactor_s})"
                    ));
                }
                let expected = factor_s / refactor_s;
                if speedup.is_nan()
                    || speedup <= 0.0
                    || (speedup - expected).abs() > 1e-3 * expected
                {
                    return Err(format!(
                        "{ctx}: speedup {speedup} inconsistent with factor_s/refactor_s {expected}"
                    ));
                }
            }
            "serve" => {
                let jobs = require_num(r, "jobs", &ctx)?;
                if jobs < 1.0 || jobs.fract() != 0.0 {
                    return Err(format!("{ctx}: bad job count {jobs}"));
                }
                let rate = require_num(r, "jobs_per_sec", &ctx)?;
                if rate.is_nan() || rate <= 0.0 {
                    return Err(format!("{ctx}: non-positive jobs_per_sec {rate}"));
                }
            }
            // Daemon throughput over a real socket at a given client
            // count; `threads` mirrors `clients` so the record key stays
            // unique under the diff tool's (matrix, threads, kind) key.
            "concurrent" => {
                let clients = require_num(r, "clients", &ctx)?;
                if clients < 1.0 || clients.fract() != 0.0 {
                    return Err(format!("{ctx}: bad client count {clients}"));
                }
                if clients != threads {
                    return Err(format!(
                        "{ctx}: clients {clients} must mirror threads {threads}"
                    ));
                }
                let jobs = require_num(r, "jobs", &ctx)?;
                if jobs < 1.0 || jobs.fract() != 0.0 {
                    return Err(format!("{ctx}: bad job count {jobs}"));
                }
                let rate = require_num(r, "jobs_per_sec", &ctx)?;
                if rate.is_nan() || rate <= 0.0 {
                    return Err(format!("{ctx}: non-positive jobs_per_sec {rate}"));
                }
            }
            // Journaled-daemon throughput with a given `--durability`
            // mode; the mode is folded into `matrix` ("suite-strict" /
            // "suite-relaxed") so the diff key (matrix, threads, kind)
            // keeps strict and relaxed rows distinct.
            "durability" => {
                let mode = require_str(r, "durability", &ctx)?;
                if !matches!(mode, "strict" | "relaxed") {
                    return Err(format!("{ctx}: bad durability mode {mode:?}"));
                }
                let matrix = require_str(r, "matrix", &ctx)?;
                if !matrix.ends_with(mode) {
                    return Err(format!(
                        "{ctx}: matrix {matrix:?} must encode the durability mode {mode:?}"
                    ));
                }
                let jobs = require_num(r, "jobs", &ctx)?;
                if jobs < 1.0 || jobs.fract() != 0.0 {
                    return Err(format!("{ctx}: bad job count {jobs}"));
                }
                let rate = require_num(r, "jobs_per_sec", &ctx)?;
                if rate.is_nan() || rate <= 0.0 {
                    return Err(format!("{ctx}: non-positive jobs_per_sec {rate}"));
                }
            }
            other => return Err(format!("{ctx}: bad kind {other:?}")),
        }
    }
    Ok(records.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_nesting() {
        let v = parse(r#"{"a": [1, -2.5e3, "x\n\"y\"", true, null], "b": {}}"#).unwrap();
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_num(), Some(1.0));
        assert_eq!(arr[1].as_num(), Some(-2500.0));
        assert_eq!(arr[2].as_str(), Some("x\n\"y\""));
        assert_eq!(arr[3], Json::Bool(true));
        assert_eq!(arr[4], Json::Null);
        assert_eq!(v.get("b"), Some(&Json::Obj(BTreeMap::new())));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["{", "[1,]", "{\"a\" 1}", "[1] x", "\"\\q\"", "nul"] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    /// The benchmark artifacts committed at the repository root (when
    /// present — a fresh checkout may have regenerated or deleted them)
    /// must match the schemas this module enforces at write time. CI runs
    /// this after the bench binaries to catch partial or corrupt writes.
    #[test]
    fn committed_artifacts_match_their_schemas() {
        type Validator = fn(&Json) -> Result<usize, String>;
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        for (file, validate) in [
            ("BENCH_sched.json", validate_bench_sched as Validator),
            ("BENCH_factor.json", validate_bench_factor as Validator),
            ("BENCH_kernels.json", validate_bench_kernels as Validator),
            ("BENCH_phases.json", validate_bench_phases as Validator),
            ("BENCH_service.json", validate_bench_service as Validator),
        ] {
            let Ok(text) = std::fs::read_to_string(format!("{root}/{file}")) else {
                continue;
            };
            let doc = parse(&text).unwrap_or_else(|e| panic!("{file}: invalid JSON: {e}"));
            let n = validate(&doc).unwrap_or_else(|e| panic!("{file}: schema violation: {e}"));
            assert!(n > 0, "{file}: empty artifact");
        }
    }

    #[test]
    fn phases_validator_requires_every_phase() {
        let phases: Vec<String> = PHASE_NAMES
            .iter()
            .map(|p| format!("\"{p}\": 0.001"))
            .collect();
        let good = format!(
            "[{{\"matrix\": \"goodwin\", \"front_threads\": 8, \"kind\": \"simulated\", \
              \"fill_nnz\": 9, \"model_flops\": 2.5e3, \"phases\": {{{}}}}}]",
            phases.join(", ")
        );
        assert_eq!(validate_bench_phases(&parse(&good).unwrap()), Ok(1));
        // Dropping any single phase key must fail.
        for (drop, dropped) in PHASE_NAMES.iter().enumerate() {
            let partial: Vec<&String> = phases
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != drop)
                .map(|(_, p)| p)
                .collect();
            let bad = format!(
                "[{{\"matrix\": \"m\", \"front_threads\": 1, \"kind\": \"measured\", \
                  \"fill_nnz\": 9, \"model_flops\": 2.5e3, \"phases\": {{{}}}}}]",
                partial
                    .iter()
                    .map(|s| s.as_str())
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            assert!(
                validate_bench_phases(&parse(&bad).unwrap()).is_err(),
                "accepted record missing {dropped:?}"
            );
        }
        for bad in [
            // front_threads must be a positive integer.
            format!(
                "[{{\"matrix\": \"m\", \"front_threads\": 0, \"kind\": \"measured\", \
                  \"fill_nnz\": 9, \"model_flops\": 2.5e3, \"phases\": {{{}}}}}]",
                phases.join(", ")
            ),
            // kind is constrained.
            format!(
                "[{{\"matrix\": \"m\", \"front_threads\": 1, \"kind\": \"guessed\", \
                  \"fill_nnz\": 9, \"model_flops\": 2.5e3, \"phases\": {{{}}}}}]",
                phases.join(", ")
            ),
            // The structure counts are required, and fill is a whole number.
            format!(
                "[{{\"matrix\": \"m\", \"front_threads\": 1, \"kind\": \"measured\", \
                  \"model_flops\": 2.5e3, \"phases\": {{{}}}}}]",
                phases.join(", ")
            ),
            format!(
                "[{{\"matrix\": \"m\", \"front_threads\": 1, \"kind\": \"measured\", \
                  \"fill_nnz\": 9.5, \"model_flops\": 2.5e3, \"phases\": {{{}}}}}]",
                phases.join(", ")
            ),
            // Wall times must be non-negative.
            format!(
                "[{{\"matrix\": \"m\", \"front_threads\": 1, \"kind\": \"measured\", \
                  \"fill_nnz\": 9, \"model_flops\": 2.5e3, \"phases\": {{{}, \"parse\": -1.0}}}}]",
                phases.join(", ")
            ),
        ] {
            assert!(
                validate_bench_phases(&parse(&bad).unwrap()).is_err(),
                "accepted {bad}"
            );
        }
    }

    #[test]
    fn kernels_validator_rejects_bad_records() {
        let good = r#"[{"op": "gemm_sub", "shape": "64x16x16", "kernel": "baseline",
                        "gflops": 5.2, "seconds_per_call": 1e-6}]"#;
        assert_eq!(validate_bench_kernels(&parse(good).unwrap()), Ok(1));
        for bad in [
            r#"[{"op": "gemm", "shape": "s", "kernel": "baseline", "gflops": 1.0,
                 "seconds_per_call": 1e-6}]"#,
            r#"[{"op": "gemm_sub", "shape": "s", "kernel": "simd-chunked", "gflops": 1.0,
                 "seconds_per_call": 1e-6}]"#,
            r#"[{"op": "gemm_sub", "shape": "s", "kernel": "baseline", "gflops": 0.0,
                 "seconds_per_call": 1e-6}]"#,
            r#"[{"op": "gemm_sub", "shape": "s", "gflops": 1.0, "seconds_per_call": 1e-6}]"#,
        ] {
            assert!(
                validate_bench_kernels(&parse(bad).unwrap()).is_err(),
                "accepted {bad}"
            );
        }
    }

    #[test]
    fn service_validator_checks_both_record_kinds() {
        let good = r#"[
            {"matrix": "m", "threads": 2, "kind": "speedup",
             "factor_s": 0.04, "refactor_s": 0.02, "speedup": 2.0},
            {"matrix": "m", "threads": 4, "kind": "serve",
             "jobs": 120, "jobs_per_sec": 37.5},
            {"matrix": "suite", "threads": 16, "kind": "concurrent",
             "clients": 16, "jobs": 512, "jobs_per_sec": 88.0},
            {"matrix": "suite-strict", "threads": 4, "kind": "durability",
             "durability": "strict", "jobs": 256, "jobs_per_sec": 41.0},
            {"matrix": "suite-relaxed", "threads": 4, "kind": "durability",
             "durability": "relaxed", "jobs": 256, "jobs_per_sec": 55.0}
        ]"#;
        assert_eq!(validate_bench_service(&parse(good).unwrap()), Ok(5));
        for bad in [
            // Unknown kind.
            r#"[{"matrix": "m", "threads": 1, "kind": "warmup",
                 "factor_s": 1.0, "refactor_s": 0.5, "speedup": 2.0}]"#,
            // Speedup inconsistent with the two timings.
            r#"[{"matrix": "m", "threads": 1, "kind": "speedup",
                 "factor_s": 1.0, "refactor_s": 0.5, "speedup": 3.0}]"#,
            // Non-positive timing.
            r#"[{"matrix": "m", "threads": 1, "kind": "speedup",
                 "factor_s": 0.0, "refactor_s": 0.5, "speedup": 0.0}]"#,
            // Serve rows need a throughput.
            r#"[{"matrix": "m", "threads": 1, "kind": "serve", "jobs": 10}]"#,
            // Fractional thread counts are nonsense.
            r#"[{"matrix": "m", "threads": 1.5, "kind": "serve",
                 "jobs": 10, "jobs_per_sec": 5.0}]"#,
            // Concurrent rows need the client count...
            r#"[{"matrix": "suite", "threads": 4, "kind": "concurrent",
                 "jobs": 10, "jobs_per_sec": 5.0}]"#,
            // ...which must mirror threads (the diff key)...
            r#"[{"matrix": "suite", "threads": 4, "kind": "concurrent",
                 "clients": 8, "jobs": 10, "jobs_per_sec": 5.0}]"#,
            // ...and a positive throughput.
            r#"[{"matrix": "suite", "threads": 4, "kind": "concurrent",
                 "clients": 4, "jobs": 10, "jobs_per_sec": 0.0}]"#,
            // Durability rows need a known mode...
            r#"[{"matrix": "suite-paranoid", "threads": 4, "kind": "durability",
                 "durability": "paranoid", "jobs": 10, "jobs_per_sec": 5.0}]"#,
            // ...encoded in the matrix name (the diff key).
            r#"[{"matrix": "suite", "threads": 4, "kind": "durability",
                 "durability": "strict", "jobs": 10, "jobs_per_sec": 5.0}]"#,
        ] {
            assert!(
                validate_bench_service(&parse(bad).unwrap()).is_err(),
                "accepted {bad}"
            );
        }
    }

    #[test]
    fn factor_validator_requires_the_kernel_field() {
        let with = r#"[{"matrix": "m", "threads": 2, "mapping": "static1d",
                        "kind": "measured", "kernel": "portable",
                        "median_seconds": 0.5}]"#;
        assert_eq!(validate_bench_factor(&parse(with).unwrap()), Ok(1));
        let without = r#"[{"matrix": "m", "threads": 2, "mapping": "static1d",
                           "kind": "measured", "median_seconds": 0.5}]"#;
        assert!(validate_bench_factor(&parse(without).unwrap()).is_err());
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
