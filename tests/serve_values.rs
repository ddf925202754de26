//! A `factor`/`refactor` job streams its values file against the pattern
//! its session's analysis holds, and falls back to the general
//! Matrix Market reader on any deviation. Whatever the file, the job's
//! reply is the general reader's path's: the whole file read, the session
//! refactored with the matrix read, the held values replaced only on
//! success. The oracle here walks that path on its own session, and every
//! reply — status, error kind and text, and the `x_hash` of the solve
//! after it — must match; `stats` counts which jobs streamed, and the
//! `factor` reply charges the session plus its values.

mod common;

use common::stepped::stepped;
use parsplu::cli::CliError;
use parsplu::core::{Options, SluSession};
use parsplu::matgen::{manufactured_rhs, paper_matrix, Scale};
use parsplu::serve::{kind_of_exit, serve_loop, solution_hash, ServeConfig};
use parsplu::sparse::io::{format_matrix_market, read_matrix_market};
use parsplu::sparse::CscMatrix;
use proptest::prelude::*;
use splu_bench::json::{parse, Json};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A reply's `status`, `kind`, `error` and `x_hash`, as strings.
type Answer = [Option<String>; 4];

fn answer(reply: &Json) -> Answer {
    ["status", "kind", "error", "x_hash"]
        .map(|k| reply.get(k).and_then(|v| v.as_str()).map(String::from))
}

fn failed(e: CliError) -> Answer {
    let kind = kind_of_exit(e.exit_code).to_string();
    [Some("error".into()), Some(kind), Some(e.message), None]
}

fn ok(x_hash: Option<String>) -> Answer {
    [Some("ok".into()), None, None, x_hash]
}

/// The general reader's path over one session: the parent's serve code
/// for `refactor s <path>` and `solve s`.
struct Oracle {
    s: SluSession,
    held: CscMatrix,
}

impl Oracle {
    fn new(a: &CscMatrix) -> Oracle {
        let mut s = SluSession::analyze(a.pattern(), &Options::default()).unwrap();
        s.factor(a).unwrap();
        Oracle { s, held: a.clone() }
    }

    fn refactor(&mut self, path: &str) -> Answer {
        let a = match read_matrix_market(path.as_ref()) {
            Ok(a) => a,
            Err(e) => return failed(CliError::from(format!("reading {path}: {e}"))),
        };
        match self.s.refactor(&a) {
            Ok(()) => {
                self.held = a;
                ok(None)
            }
            Err(e) => failed(CliError::from(e)),
        }
    }

    fn solve(&self) -> Answer {
        let b = manufactured_rhs(&self.held, 1).1;
        match self.s.try_solve(&b) {
            Ok(x) => ok(Some(format!("{:#018x}", solution_hash(&x)))),
            Err(e) => failed(CliError::from(e)),
        }
    }
}

/// A file under the temporary directory, unique to this process and call.
fn tmp(stem: &str) -> String {
    static FILES: AtomicUsize = AtomicUsize::new(0);
    let k = FILES.fetch_add(1, Ordering::Relaxed);
    let path =
        std::env::temp_dir().join(format!("parsplu-values-{}-{k}-{stem}", std::process::id()));
    path.to_str().unwrap().to_string()
}

/// Serves `analyze` and `factor` of `a`, then `refactor` + `solve` of
/// every file, then `stats`; checks each reply against the oracle and
/// returns the `stats` reply's `(values_streamed, values_parsed)`.
fn serve_against_oracle(a: &CscMatrix, files: &[(String, Vec<u8>)]) -> (f64, f64) {
    let base = tmp("base.mtx");
    std::fs::write(&base, format_matrix_market(a)).unwrap();
    let mut script = vec![format!("analyze s {base}"), format!("factor s {base}")];
    let mut paths = Vec::new();
    for (stem, bytes) in files {
        let path = tmp(stem);
        if stem != "missing" {
            std::fs::write(&path, bytes).unwrap();
        }
        script.push(format!("refactor s {path}"));
        script.push("solve s".to_string());
        paths.push(path);
    }
    script.push("stats".to_string());
    script.push("quit".to_string());
    let (reader, replies) = stepped(&script, |_| {});
    let writer = Mutex::new(replies);
    serve_loop(
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
        reader,
        &writer,
        None,
    )
    .unwrap();
    let replies: Vec<Json> = writer
        .into_inner()
        .unwrap()
        .lines()
        .iter()
        .map(|l| parse(l).unwrap())
        .collect();
    assert_eq!(replies.len(), script.len() - 1, "one reply per job");

    let mut oracle = Oracle::new(&read_matrix_market(base.as_ref()).unwrap());
    // A factor reply charges what the session holds: its analysis, which
    // keeps the pattern, its factors and its values — the oracle session's
    // `resident_bytes` plus the matrix's `heap_bytes`.
    let charged = replies[1].get("resident_bytes").and_then(|v| v.as_num());
    let held = oracle.s.resident_bytes() + oracle.held.heap_bytes();
    assert_eq!(charged, Some(held as f64), "what the factor job charges");
    for (k, ((stem, _), path)) in files.iter().zip(&paths).enumerate() {
        let (refactor, solve) = (&replies[2 + 2 * k], &replies[3 + 2 * k]);
        assert_eq!(
            answer(refactor),
            oracle.refactor(path),
            "refactor of {stem}"
        );
        assert_eq!(answer(solve), oracle.solve(), "solve after {stem}");
    }
    for path in paths.iter().chain([&base]) {
        let _ = std::fs::remove_file(path);
    }
    let stats = replies.last().unwrap();
    let count = |key: &str| stats.get(key).and_then(|v| v.as_num()).unwrap();
    (count("values_streamed"), count("values_parsed"))
}

/// `text` with its entry values rescaled by `1 + t / 7`, same layout.
fn revalued(text: &str, t: usize) -> String {
    let scale = 1.0 + t as f64 / 7.0;
    let mut out = String::new();
    for (i, line) in text.lines().enumerate() {
        let toks: Vec<&str> = line.split_whitespace().collect();
        if i < 2 {
            out.push_str(line);
        } else {
            let v: f64 = toks[2].parse().unwrap();
            out.push_str(&format!("{} {} {:.17e}", toks[0], toks[1], v * scale));
        }
        out.push('\n');
    }
    out
}

/// The full-scale sherman3 analogue — a values file of about ten read
/// buffers — under every edit a values file can suffer: the layouts the
/// general reader takes as they stand stream, with a line straddling each
/// buffer edge; any other file is read again, and the reply is the
/// reader's.
#[test]
fn every_values_file_gets_the_general_readers_reply() {
    let a = paper_matrix("sherman3", Scale::Full).unwrap();
    let text = format_matrix_market(&a);
    let lines: Vec<&str> = text.split_inclusive('\n').collect();
    let with_lines = |f: &dyn Fn(&mut Vec<String>)| {
        let mut l: Vec<String> = lines.iter().map(|s| s.to_string()).collect();
        f(&mut l);
        l.concat().into_bytes()
    };
    let flip = |at: usize| {
        let mut b = text.clone().into_bytes();
        b[at] ^= 0x04;
        b
    };
    // The first entry line, `1 1 3.76…`: its row index and a digit of its
    // value, each flipped to another digit.
    let entries = lines[0].len() + lines[1].len();
    let (row_digit, value_digit) = (entries, entries + 7);
    // (name, bytes, streams)
    let files: Vec<(&str, Vec<u8>, bool)> = vec![
        ("revalued", revalued(&text, 1).into_bytes(), true),
        ("crlf", text.replace('\n', "\r\n").into_bytes(), true),
        (
            "comments",
            with_lines(&|l| l.insert(900, "% a comment\n\n".into())),
            true,
        ),
        ("unterminated", text.trim_end().as_bytes().to_vec(), true),
        (
            "padded",
            with_lines(&|l| {
                l.iter_mut()
                    .skip(2)
                    .step_by(97)
                    .for_each(|s| s.insert_str(0, "   "))
            }),
            true,
        ),
        ("value_digit", flip(value_digit), true),
        ("same_again", revalued(&text, 2).into_bytes(), true),
        ("row_digit", flip(row_digit), false),
        ("banner", flip(3), false),
        ("swapped", with_lines(&|l| l.swap(40, 7000)), false),
        (
            "moved",
            with_lines(&|l| l[500] = l[500].replacen(' ', "0 ", 1)),
            false,
        ),
        (
            "truncated",
            text.as_bytes()[..text.len() / 2].to_vec(),
            false,
        ),
        ("shuffled", with_lines(&|l| l[2..].reverse()), false),
        (
            "bad_token",
            with_lines(&|l| *l.last_mut().unwrap() = "5005 5005 1.0x\n".into()),
            false,
        ),
        ("bytes", vec![0xff, b'%', 0, b'\n', 7], false),
        ("missing", Vec::new(), false),
        ("after_all", revalued(&text, 3).into_bytes(), true),
    ];
    let streams = files.iter().filter(|f| f.2).count() as f64;
    let files: Vec<(String, Vec<u8>)> = files
        .into_iter()
        .map(|(n, b, _)| (n.to_string(), b))
        .collect();
    // The first `factor` streams too: the analysis holds the pattern.
    let parsed = files.len() as f64 - streams;
    assert_eq!(serve_against_oracle(&a, &files), (streams + 1.0, parsed));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random byte flips, line swaps and cuts of the reduced sherman3
    /// analogue's values file, and arbitrary bytes: every reply is the
    /// general reader's path's, and nothing panics.
    #[test]
    fn edited_values_files_get_the_general_readers_reply(
        edits in proptest::collection::vec((0u8..4, 0usize..1_000_000, 0u8..8), 1..5),
        noise in proptest::collection::vec(0u8..=255, 0..64),
    ) {
        let a = paper_matrix("sherman3", Scale::Reduced).unwrap();
        let text = format_matrix_market(&a);
        let mut files = Vec::new();
        for (k, &(kind, at, bit)) in edits.iter().enumerate() {
            let mut bytes = revalued(&text, k).into_bytes();
            let at = at % bytes.len();
            match kind {
                0 => bytes[at] ^= 1 << bit,
                1 => {
                    let mut lines: Vec<&[u8]> = bytes.split_inclusive(|&b| b == b'\n').collect();
                    let n = lines.len();
                    lines.swap(at % n, (at / 7) % n);
                    bytes = lines.concat();
                }
                2 => bytes.truncate(at),
                _ => {}
            }
            files.push((format!("edit{k}.mtx"), bytes));
        }
        files.push(("noise.mtx".to_string(), noise));
        let _ = serve_against_oracle(&a, &files);
    }
}
