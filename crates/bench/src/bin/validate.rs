//! Schema-validates observability artifacts on disk.
//!
//! ```text
//! validate <file.json>... [--kind run-report|chrome-trace]
//! ```
//!
//! Without `--kind`, each file's kind is sniffed from its content: an
//! object carrying the `parsplu-run-report/1` schema tag is a run report,
//! an object with `traceEvents` is a Chrome trace. Exit codes: 0 all
//! valid, 2 on any schema violation, unreadable file, or usage error.

use splu_bench::json::{parse, validate_chrome_trace, validate_run_report, Json};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: validate <file.json>... [--kind run-report|chrome-trace]");
    ExitCode::from(2)
}

/// Validates one parsed document as `kind`, returning a human label on
/// success.
fn validate_as(kind: &str, doc: &Json) -> Result<String, String> {
    match kind {
        "run-report" => validate_run_report(doc).map(|n| format!("run report ({n} counters)")),
        "chrome-trace" => validate_chrome_trace(doc).map(|n| format!("chrome trace ({n} events)")),
        other => Err(format!("unknown kind {other:?}")),
    }
}

/// Sniffs the artifact kind from the document shape.
fn sniff_kind(doc: &Json) -> Option<&'static str> {
    if doc.get("schema").and_then(Json::as_str) == Some("parsplu-run-report/1") {
        Some("run-report")
    } else if doc.get("traceEvents").is_some() {
        Some("chrome-trace")
    } else {
        None
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths: Vec<String> = Vec::new();
    let mut kind_arg: Option<String> = None;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--kind" => match it.next() {
                Some(k) => kind_arg = Some(k),
                None => return usage(),
            },
            "--help" | "-h" => return usage(),
            _ => paths.push(arg),
        }
    }
    if paths.is_empty() {
        return usage();
    }

    let mut failed = false;
    for path in &paths {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("validate: {path}: {e}");
                failed = true;
                continue;
            }
        };
        let doc = match parse(&text) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("validate: {path}: invalid JSON: {e}");
                failed = true;
                continue;
            }
        };
        let kind = match kind_arg.as_deref().or_else(|| sniff_kind(&doc)) {
            Some(k) => k,
            None => {
                eprintln!("validate: {path}: cannot sniff artifact kind; pass --kind");
                failed = true;
                continue;
            }
        };
        match validate_as(kind, &doc) {
            Ok(label) => println!("validate: {path}: valid {label}"),
            Err(e) => {
                eprintln!("validate: {path}: schema violation: {e}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    }
}
