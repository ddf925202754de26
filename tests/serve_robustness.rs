//! Robustness tests for the serve daemon: malformed-input fuzzing, frame
//! faults, session eviction under a memory budget, overload backpressure,
//! socket transport, and graceful shutdown.

mod common;

use parsplu::cli::run;
use parsplu::serve::{serve_daemon, serve_loop, Engine, Listener, Reply, ServeConfig, Submitted};
use proptest::prelude::*;
use splu_bench::json::parse;
use std::io::{BufRead, BufReader, Cursor, Read, Write};
use std::sync::{Arc, Mutex};
use std::time::Duration;

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

fn tmp(name: &str) -> String {
    std::env::temp_dir()
        .join(format!("parsplu_srv_{name}_{}.mtx", std::process::id()))
        .to_string_lossy()
        .into_owned()
}

/// Generates a reduced benchmark matrix file and returns its path.
fn gen_matrix(name: &str) -> String {
    let path = tmp(name);
    run(&args(&["gen", "goodwin", &path, "--reduced"])).unwrap();
    path
}

/// Runs `f` on its own thread and fails the test if it does not finish
/// within `limit` — the suite's hang detector.
fn with_timeout<T: Send + 'static>(limit: Duration, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(limit)
        .expect("serve loop exceeded the test-side timeout (hang?)")
}

/// Drives a script through the stdio loop, returning the response lines.
fn run_script(cfg: ServeConfig, script: String) -> Vec<String> {
    with_timeout(Duration::from_secs(120), move || {
        let writer = Mutex::new(Vec::new());
        serve_loop(cfg, Cursor::new(script), &writer, None).unwrap();
        String::from_utf8(writer.into_inner().unwrap())
            .unwrap()
            .lines()
            .map(String::from)
            .collect()
    })
}

const ERROR_KINDS: &[&str] = &[
    "bad_request",
    "numeric",
    "worker_panic",
    "deadline",
    "stalled",
    "session_evicted",
    "overloaded",
    "shutting_down",
    "cancelled",
    "oversize_frame",
    "invalid_frame",
    "idle_timeout",
    "duplicate_replay",
    "journal_corrupt",
    "error",
];

/// The number of responses [`serve_loop`] owes a script: one per
/// non-blank, non-comment line up to (not including) `quit`, with
/// `shutdown` acknowledged and terminal.
fn expected_responses(script: &str) -> usize {
    let mut n = 0;
    for line in script.lines() {
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        if t == "quit" {
            break;
        }
        n += 1;
        if t.split_whitespace().next() == Some("shutdown") {
            break;
        }
    }
    n
}

fn arb_line() -> impl Strategy<Value = String> {
    (0usize..12, 0usize..3).prop_map(|(kind, s)| {
        let sess = ["alpha", "beta", "gamma"][s];
        match kind {
            0 => format!("analyze {sess} /nonexistent/matrix.mtx"),
            1 => format!("factor {sess} /nonexistent/values.mtx"),
            2 => format!("solve {sess}"),
            3 => format!("solve {sess} --refine --transpose"),
            4 => "analyze".to_string(),       // missing session name
            5 => "factor lonely".to_string(), // missing values path
            6 => format!("frobnicate {sess} what"), // unknown op
            7 => String::new(),               // blank: skipped
            8 => "# a comment line".to_string(), // comment: skipped
            9 => format!("solve {sess} --bogus-flag"),
            10 => "stats".to_string(),        // control op
            11 => format!("refactor {sess}"), // truncated
            _ => unreachable!(),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Malformed, truncated, and interleaved job lines never panic or
    /// hang the loop, and every job line gets exactly one parseable JSON
    /// response with a stable error taxonomy.
    #[test]
    fn fuzzed_job_lines_get_exactly_one_structured_response(
        lines in proptest::collection::vec(arb_line(), 1..40),
        workers in 1usize..4,
    ) {
        let script = format!("{}\nquit\n", lines.join("\n"));
        let cfg = ServeConfig { workers, ..ServeConfig::default() };
        let responses = run_script(cfg, script.clone());
        prop_assert_eq!(
            responses.len(),
            expected_responses(&script),
            "one response per job line: {:?}",
            responses
        );
        let mut ids = std::collections::HashSet::new();
        for l in &responses {
            let v = parse(l).expect("each response is one-line JSON");
            let id = v.get("id").and_then(|i| i.as_num()).expect("id") as u64;
            prop_assert!(ids.insert(id), "duplicate response id in {:?}", responses);
            let status = v.get("status").and_then(|s| s.as_str()).expect("status");
            match status {
                "ok" => {}
                "error" => {
                    let kind = v.get("kind").and_then(|k| k.as_str()).expect("kind");
                    prop_assert!(
                        ERROR_KINDS.contains(&kind),
                        "unknown error kind {} in {}", kind, l
                    );
                    let code = v.get("exit_code").and_then(|c| c.as_num()).expect("exit_code");
                    prop_assert!(code >= 2.0, "{}", l);
                }
                other => prop_assert!(false, "bad status {} in {}", other, l),
            }
        }
    }
}

/// A session ignores `Options::equilibrate`, so a serve op that asks for
/// scaling is refused — not acknowledged with a report that says
/// `"equilibrate": true` of unscaled factors — and the session stays usable.
#[test]
fn equilibrate_is_refused_on_serve_ops_as_a_bad_request() {
    let path = gen_matrix("equil");
    let script = format!(
        "analyze e {path} --equilibrate
analyze e {path}
factor e {path} --equilibrate
         factor e {path}
solve e --equilibrate
solve e
quit
"
    );
    let cfg = ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    };
    let responses = run_script(cfg, script);
    assert_eq!(responses.len(), 6, "{responses:?}");
    for (i, l) in responses.iter().enumerate() {
        let v = parse(l).unwrap();
        let status = v.get("status").and_then(|s| s.as_str());
        if i % 2 == 1 {
            assert_eq!(status, Some("ok"), "{l}");
            if let Some(report) = v.get("report") {
                let options = report.get("options").expect("resolved options");
                let equilibrate = options.get("equilibrate").and_then(|e| e.as_bool());
                assert_eq!(equilibrate, Some(false), "{l}");
            }
            continue;
        }
        assert_eq!(status, Some("error"), "{l}");
        assert_eq!(v.get("kind").and_then(|k| k.as_str()), Some("bad_request"));
        assert_eq!(v.get("exit_code").and_then(|c| c.as_num()), Some(2.0));
        let message = v.get("error").and_then(|e| e.as_str()).unwrap();
        assert!(message.contains("SparseLu"), "{message}");
    }
    let _ = std::fs::remove_file(&path);
}

/// `--graph` is no option at all: a job line carrying it is answered with
/// the structured unknown-option `bad_request` (exit 2) the one-shot
/// command exits with, and the session analyzes cleanly without it.
#[test]
fn graph_flag_is_refused_on_serve_ops_as_a_bad_request() {
    let path = gen_matrix("graph_flag");
    let err = run(&args(&["solve", &path, "--graph", "sstar"])).unwrap_err();
    assert!(err.message.contains("unknown option `--graph`"), "{err}");
    assert_eq!(err.exit_code, 2, "{err}");
    let script =
        format!("analyze s {path} --graph sstar\nanalyze s {path}\nfactor s {path}\nquit\n");
    let cfg = ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    };
    let responses = run_script(cfg, script);
    assert_eq!(responses.len(), 3, "{responses:?}");
    let v: Vec<_> = responses.iter().map(|l| parse(l).unwrap()).collect();
    let str_of = |i: usize, key: &str| v[i].get(key).and_then(|s| s.as_str()).map(String::from);
    assert_eq!(
        str_of(0, "status").as_deref(),
        Some("error"),
        "{}",
        responses[0]
    );
    assert_eq!(str_of(0, "kind").as_deref(), Some("bad_request"));
    assert_eq!(v[0].get("exit_code").and_then(|c| c.as_num()), Some(2.0));
    let message = str_of(0, "error").unwrap();
    assert!(message.contains("unknown option `--graph`"), "{message}");
    for (r, line) in v.iter().zip(&responses).skip(1) {
        assert_eq!(
            r.get("status").and_then(|s| s.as_str()),
            Some("ok"),
            "{line}"
        );
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn oversize_and_nul_frames_are_rejected_and_the_stream_resyncs() {
    let path = gen_matrix("frames");
    let long = "x".repeat(4096);
    let script = format!("{long}\nanalyze g {path}\nbad\0frame g\nsolve missing\nquit\n");
    let cfg = ServeConfig {
        workers: 1,
        max_line_bytes: 512,
        ..ServeConfig::default()
    };
    let responses = run_script(cfg, script);
    // Frame faults are answered inline by the feeder while job responses
    // come back from the workers, so assert by content, not by position.
    assert_eq!(responses.len(), 4, "{responses:?}");
    let v: Vec<_> = responses.iter().map(|l| parse(l).unwrap()).collect();
    let kind =
        |r: &splu_bench::json::Json| r.get("kind").and_then(|k| k.as_str()).map(String::from);
    let oversize = v
        .iter()
        .find(|r| kind(r).as_deref() == Some("oversize_frame"))
        .unwrap_or_else(|| panic!("no oversize_frame in {responses:?}"));
    assert_eq!(
        oversize.get("exit_code").and_then(|c| c.as_num()),
        Some(2.0)
    );
    assert_eq!(oversize.get("bytes").and_then(|b| b.as_num()), Some(4096.0));
    assert!(
        v.iter()
            .any(|r| kind(r).as_deref() == Some("invalid_frame")),
        "no invalid_frame in {responses:?}"
    );
    // The stream resynced around both faults: the analyze between them
    // ran normally, and the loop stayed alive for the last bad job.
    let analyze = v
        .iter()
        .find(|r| r.get("op").and_then(|o| o.as_str()) == Some("analyze"))
        .unwrap_or_else(|| panic!("no analyze response in {responses:?}"));
    assert_eq!(
        analyze.get("status").and_then(|s| s.as_str()),
        Some("ok"),
        "{responses:?}"
    );
    assert!(
        v.iter().any(|r| kind(r).as_deref() == Some("bad_request")),
        "no bad_request in {responses:?}"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn sessions_evict_under_the_budget_and_revive_on_reanalyze() {
    let path = gen_matrix("evict");
    // Pass 1 (no budget): learn the resident footprint of one fully
    // factored session from the factor response.
    let script = format!("analyze a {path}\nfactor a {path}\nquit\n");
    let responses = run_script(
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
        script,
    );
    let factored_bytes = parse(&responses[1])
        .unwrap()
        .get("resident_bytes")
        .and_then(|b| b.as_num())
        .expect("factor responses report resident_bytes") as u64;
    assert!(factored_bytes > 0);

    // Pass 2: a budget that fits one factored session but not two.
    // workers=1 keeps cross-session ordering deterministic.
    let budget = factored_bytes + factored_bytes / 2;
    let script = format!(
        "analyze a {path}\nfactor a {path}\nsolve a\n\
         analyze b {path}\nfactor b {path}\nsolve b\n\
         solve a\n\
         analyze a {path}\nfactor a {path}\nsolve a\nquit\n"
    );
    let cfg = ServeConfig {
        workers: 1,
        session_budget: Some(budget),
        ..ServeConfig::default()
    };
    let responses = run_script(cfg, script);
    assert_eq!(responses.len(), 10, "{responses:?}");
    let v: Vec<_> = responses.iter().map(|l| parse(l).unwrap()).collect();
    // Jobs 1-6 all succeed (factor b evicts the idle session a).
    for (i, r) in v.iter().take(6).enumerate() {
        assert_eq!(
            r.get("status").and_then(|s| s.as_str()),
            Some("ok"),
            "job {i}: {}",
            responses[i]
        );
    }
    // Job 7 (`solve a`) finds its session evicted: structured error,
    // exit code 7, stable kind, and a pointer to re-analyze.
    let evicted = &v[6];
    assert_eq!(
        evicted.get("status").and_then(|s| s.as_str()),
        Some("error")
    );
    assert_eq!(
        evicted.get("kind").and_then(|k| k.as_str()),
        Some("session_evicted"),
        "{}",
        responses[6]
    );
    assert_eq!(evicted.get("exit_code").and_then(|c| c.as_num()), Some(7.0));
    assert!(responses[6].contains("re-analyze"), "{}", responses[6]);
    // Jobs 8-10: re-analyzing revives the name and solves again.
    for (i, r) in v.iter().enumerate().skip(7) {
        assert_eq!(
            r.get("status").and_then(|s| s.as_str()),
            Some("ok"),
            "job {i}: {}",
            responses[i]
        );
    }
    // Bitwise reproducibility across the eviction: both `solve a` hashes
    // for the same values must agree.
    let h1 = v[2]
        .get("x_hash")
        .and_then(|h| h.as_str())
        .unwrap()
        .to_string();
    let h3 = v[9]
        .get("x_hash")
        .and_then(|h| h.as_str())
        .unwrap()
        .to_string();
    assert_eq!(h1, h3, "solve after re-analyze is bitwise identical");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn full_lanes_reject_with_queue_depth_and_retry_hint() {
    // Drive the engine directly with no workers running: pushes stay
    // queued, so the overload path is deterministic.
    let engine = Engine::open(ServeConfig {
        workers: 1,
        queue_cap: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let out: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let reply: Reply<'_> = {
        let out = Arc::clone(&out);
        Arc::new(move |s: &str| {
            out.lock().unwrap().push(s.to_string());
            true
        })
    };
    assert_eq!(engine.submit("solve s1", &reply, None), Submitted::Queued);
    assert_eq!(engine.submit("solve s1", &reply, None), Submitted::Queued);
    // Lane full: the third job is refused with a structured error.
    assert_eq!(engine.submit("solve s1", &reply, None), Submitted::Rejected);
    let lines = out.lock().unwrap().clone();
    assert_eq!(lines.len(), 1, "{lines:?}");
    let v = parse(&lines[0]).unwrap();
    assert_eq!(v.get("status").and_then(|s| s.as_str()), Some("error"));
    assert_eq!(v.get("kind").and_then(|k| k.as_str()), Some("overloaded"));
    assert_eq!(v.get("exit_code").and_then(|c| c.as_num()), Some(8.0));
    assert_eq!(v.get("queue_depth").and_then(|d| d.as_num()), Some(2.0));
    assert!(
        v.get("retry_after_hint").and_then(|h| h.as_num()).unwrap() > 0.0,
        "{lines:?}"
    );
    assert_eq!(v.get("id").and_then(|i| i.as_num()), Some(3.0));
    // Draining refuses with its own kind.
    assert_eq!(engine.submit("shutdown", &reply, None), Submitted::Shutdown);
    assert_eq!(engine.submit("solve s1", &reply, None), Submitted::Rejected);
    let lines = out.lock().unwrap().clone();
    let v = parse(&lines[1]).unwrap();
    assert_eq!(
        v.get("kind").and_then(|k| k.as_str()),
        Some("shutting_down")
    );
    assert_eq!(v.get("exit_code").and_then(|c| c.as_num()), Some(8.0));
}

#[test]
fn shutdown_drains_queued_jobs_then_acks_last() {
    let path = gen_matrix("drain");
    let script = format!("analyze g {path}\nfactor g {path}\nsolve g\nshutdown\nsolve g\nquit\n");
    let responses = run_script(
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
        script,
    );
    // analyze+factor+solve+ack; the post-shutdown solve is never read.
    assert_eq!(responses.len(), 4, "{responses:?}");
    for l in &responses[..3] {
        let v = parse(l).unwrap();
        assert_eq!(v.get("status").and_then(|s| s.as_str()), Some("ok"), "{l}");
    }
    // The acknowledgement is the LAST line: it flushes only after every
    // queued job's response.
    let ack = parse(&responses[3]).unwrap();
    assert_eq!(ack.get("op").and_then(|o| o.as_str()), Some("shutdown"));
    assert_eq!(ack.get("status").and_then(|s| s.as_str()), Some("ok"));
    assert_eq!(ack.get("drained").and_then(|d| d.as_bool()), Some(true));
    let _ = std::fs::remove_file(&path);
}

/// A line-oriented test client against a daemon socket: TCP, or a Unix
/// domain socket for a `unix:` address.
struct Client {
    stream: Box<dyn Write + Send>,
    reader: BufReader<Box<dyn Read + Send>>,
}

impl Client {
    fn connect(addr: &str) -> Client {
        let limit = Some(Duration::from_secs(60));
        let (stream, reader): (Box<dyn Write + Send>, Box<dyn Read + Send>) =
            match addr.strip_prefix("unix:") {
                #[cfg(unix)]
                Some(path) => {
                    let stream = std::os::unix::net::UnixStream::connect(path).unwrap();
                    stream.set_read_timeout(limit).unwrap();
                    (Box::new(stream.try_clone().unwrap()), Box::new(stream))
                }
                _ => {
                    let stream = std::net::TcpStream::connect(addr).unwrap();
                    stream.set_read_timeout(limit).unwrap();
                    (Box::new(stream.try_clone().unwrap()), Box::new(stream))
                }
            };
        let reader = BufReader::new(reader);
        Client { stream, reader }
    }

    fn send(&mut self, line: &str) {
        writeln!(self.stream, "{line}").unwrap();
        self.stream.flush().unwrap();
    }

    fn recv(&mut self) -> String {
        let mut line = String::new();
        self.reader.read_line(&mut line).unwrap();
        assert!(!line.is_empty(), "daemon closed the connection early");
        line.trim_end().to_string()
    }
}

#[test]
fn tcp_daemon_multiplexes_clients_and_survives_disconnects() {
    let path = gen_matrix("tcp");
    let listener = Listener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr_string();
    let cfg = ServeConfig {
        workers: 2,
        max_line_bytes: 1024,
        ..ServeConfig::default()
    };
    let daemon = std::thread::spawn(move || serve_daemon(cfg, listener, None).unwrap());

    // Client 1 builds a session and solves over the wire.
    let mut c1 = Client::connect(&addr);
    c1.send(&format!("analyze s1 {path}"));
    let v = parse(&c1.recv()).unwrap();
    assert_eq!(v.get("status").and_then(|s| s.as_str()), Some("ok"));
    c1.send(&format!("factor s1 {path}"));
    let v = parse(&c1.recv()).unwrap();
    assert_eq!(v.get("status").and_then(|s| s.as_str()), Some("ok"));
    c1.send("solve s1");
    let r1 = c1.recv();
    let v = parse(&r1).unwrap();
    assert_eq!(v.get("status").and_then(|s| s.as_str()), Some("ok"));
    let hash_wire = v
        .get("x_hash")
        .and_then(|h| h.as_str())
        .unwrap()
        .to_string();

    // Client 2 shares the daemon: errors are structured, sessions are
    // daemon-global (it can solve client 1's session), and an oversize
    // frame only costs one error line.
    let mut c2 = Client::connect(&addr);
    c2.send("solve nosuch");
    let v = parse(&c2.recv()).unwrap();
    assert_eq!(v.get("kind").and_then(|k| k.as_str()), Some("bad_request"));
    c2.send("solve s1");
    let v = parse(&c2.recv()).unwrap();
    assert_eq!(v.get("status").and_then(|s| s.as_str()), Some("ok"));
    assert_eq!(
        v.get("x_hash").and_then(|h| h.as_str()),
        Some(hash_wire.as_str()),
        "solves are bitwise identical across clients"
    );
    c2.send(&"y".repeat(2048));
    let v = parse(&c2.recv()).unwrap();
    assert_eq!(
        v.get("kind").and_then(|k| k.as_str()),
        Some("oversize_frame")
    );

    // Client 3 queues a job and vanishes mid-stream: the daemon keeps
    // serving everyone else.
    {
        let mut c3 = Client::connect(&addr);
        c3.send(&format!("refactor s1 {path}"));
        // Dropped here without reading the response.
    }
    std::thread::sleep(Duration::from_millis(400));
    // The disconnect may have cancelled the refactor mid-job; either way
    // the session stays usable: a fresh factor + solve reproduces the
    // original bits.
    c1.send(&format!("factor s1 {path}"));
    let v = parse(&c1.recv()).unwrap();
    assert_eq!(v.get("status").and_then(|s| s.as_str()), Some("ok"));
    c1.send("solve s1");
    let v = parse(&c1.recv()).unwrap();
    assert_eq!(v.get("status").and_then(|s| s.as_str()), Some("ok"));
    assert_eq!(
        v.get("x_hash").and_then(|h| h.as_str()),
        Some(hash_wire.as_str()),
        "recovered session solves bitwise identically"
    );
    // Three time steps on the same values, on the in-block structure the
    // factor laid the storage out on. Each reply says which path ran, the
    // solution keeps its bits, and `stats` counts (the refactor client 3
    // dropped may or may not have run: count from here).
    let realised_so_far = {
        c1.send("stats");
        let v = parse(&c1.recv()).unwrap();
        v.get("refactor_realised").and_then(|c| c.as_num()).unwrap()
    };
    for want in ["realised", "realised", "realised"] {
        c1.send(&format!("refactor s1 {path}"));
        let v = parse(&c1.recv()).unwrap();
        assert_eq!(v.get("status").and_then(|s| s.as_str()), Some("ok"));
        let ran = v.get("report").and_then(|r| r.get("refactor")).unwrap();
        assert_eq!(
            ran.get("path").and_then(|p| p.as_str()),
            Some(want),
            "{ran:?}"
        );
    }
    c1.send("solve s1");
    let v = parse(&c1.recv()).unwrap();
    assert_eq!(
        v.get("x_hash").and_then(|h| h.as_str()),
        Some(hash_wire.as_str()),
        "the realised factors solve bitwise identically"
    );
    c1.send("stats");
    let v = parse(&c1.recv()).unwrap();
    assert_eq!(v.get("status").and_then(|s| s.as_str()), Some("ok"));
    let stat = |key: &str| v.get(key).and_then(|c| c.as_num()).unwrap();
    assert_eq!(
        (
            stat("refactor_realised") - realised_so_far,
            stat("refactor_fallback")
        ),
        (3.0, 0.0)
    );
    assert!(stat("realised_words") > 0.0);
    assert!(
        v.get("connections_dropped")
            .and_then(|c| c.as_num())
            .unwrap()
            >= 1.0,
        "the dropped client was counted"
    );

    // Shutdown from client 1 drains and acks; the daemon exits.
    c1.send("shutdown");
    let ack = parse(&c1.recv()).unwrap();
    assert_eq!(ack.get("op").and_then(|o| o.as_str()), Some("shutdown"));
    assert_eq!(ack.get("drained").and_then(|d| d.as_bool()), Some(true));
    let summary = daemon.join().unwrap();
    assert!(summary.jobs >= 12, "{summary:?}");
    assert_eq!(summary.connections, 3);
    let _ = std::fs::remove_file(&path);
}

fn tmp_state_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("parsplu_srv_state_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn duplicate_job_ids_return_the_cached_response_verbatim() {
    let path = gen_matrix("dedup");
    // workers=1 keeps the lane FIFO, so the duplicate factor is checked
    // only after the original was applied and its response cached.
    let script = format!(
        "analyze a {path} --job-id j-a\nfactor a {path} --job-id j-f\n\
         factor a {path} --job-id j-f\nsolve a\nquit\n"
    );
    let responses = run_script(
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
        script,
    );
    assert_eq!(responses.len(), 4, "{responses:?}");
    for l in &responses {
        let v = parse(l).unwrap();
        assert_eq!(v.get("status").and_then(|s| s.as_str()), Some("ok"), "{l}");
    }
    // The retried duplicate is the original response byte for byte —
    // including the original response id, which a re-execution could
    // never reproduce (ids are strictly increasing).
    assert_eq!(
        responses[1], responses[2],
        "duplicate --job-id must replay the cached response"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn journal_replays_sessions_bitwise_identically_across_restarts() {
    let path = gen_matrix("revive");
    let state = tmp_state_dir("revive");
    let cfg = || ServeConfig {
        workers: 1,
        state_dir: Some(state.clone()),
        ..ServeConfig::default()
    };
    // Run 1: build a session, record the solve bits, exit (no shutdown —
    // the journal must not depend on a graceful drain).
    let script = format!("analyze a {path}\nfactor a {path}\nsolve a\nquit\n");
    let responses = run_script(cfg(), script);
    assert_eq!(responses.len(), 3, "{responses:?}");
    let hash = parse(&responses[2])
        .unwrap()
        .get("x_hash")
        .and_then(|h| h.as_str())
        .expect("solve reports x_hash")
        .to_string();

    // Run 2: a fresh engine on the same state dir revives the session
    // from the journal alone — no analyze, no factor — and solves to the
    // exact same bits.
    let responses = run_script(cfg(), "solve a\nstats\nquit\n".to_string());
    assert_eq!(responses.len(), 2, "{responses:?}");
    // `stats` is answered inline by the feeder while `solve` rides a
    // worker lane, so match the two responses by op, not by position.
    let parsed: Vec<_> = responses.iter().map(|l| parse(l).unwrap()).collect();
    let by_op = |op: &str| {
        parsed
            .iter()
            .find(|v| v.get("op").and_then(|o| o.as_str()) == Some(op))
            .unwrap_or_else(|| panic!("no {op} response in {responses:?}"))
    };
    let v = by_op("solve");
    assert_eq!(
        v.get("status").and_then(|s| s.as_str()),
        Some("ok"),
        "{responses:?}"
    );
    assert_eq!(
        v.get("x_hash").and_then(|h| h.as_str()),
        Some(hash.as_str()),
        "replayed session must solve bitwise identically"
    );
    let stats = by_op("stats");
    assert_eq!(
        stats.get("sessions_replayed").and_then(|n| n.as_num()),
        Some(1.0),
        "{responses:?}"
    );
    assert_eq!(
        stats.get("durability").and_then(|d| d.as_str()),
        Some("strict")
    );
    assert!(stats.get("journal_bytes").and_then(|n| n.as_num()).unwrap() > 0.0);
    assert!(stats.get("uptime_s").and_then(|n| n.as_num()).unwrap() >= 0.0);
    let _ = std::fs::remove_dir_all(&state);
    let _ = std::fs::remove_file(&path);
}

/// Replay re-executes what a compaction would have kept — per session the
/// last `analyze` line and the last numeric line since — and restores the
/// ids of superseded jobs id-only: the revived sessions solve to the bits
/// of an engine that ran the whole history, a retry of a superseded id is
/// a `duplicate_replay`, a retry of a standing one gets a cached response.
#[test]
fn journal_replay_re_executes_only_what_a_compaction_would_keep() {
    use parsplu::sparse::io::{read_matrix_market, write_matrix_market};
    let path = gen_matrix("reduce");
    // Two more value sets on the same pattern.
    let revalued: Vec<String> = [1.5, -0.75]
        .iter()
        .enumerate()
        .map(|(k, scale)| {
            let mut a = read_matrix_market(path.as_ref()).unwrap();
            for (t, v) in a.values_mut().iter_mut().enumerate() {
                *v *= scale + 0.001 * (t % 7) as f64;
            }
            let p = tmp(&format!("reduce_v{k}"));
            write_matrix_market(&a, p.as_ref()).unwrap();
            p
        })
        .collect();
    let (v1, v2) = (&revalued[0], &revalued[1]);
    let state = tmp_state_dir("reduce");
    let cfg = |state_dir| ServeConfig {
        workers: 1,
        state_dir,
        ..ServeConfig::default()
    };
    // Nine journaled jobs over two sessions; `a` is re-analyzed midway, so
    // its first five lines are superseded, `b` keeps an analyze and a factor.
    let history = format!(
        "analyze a {path} --job-id a1\nfactor a {path} --job-id a2\n\
         analyze b {path}\nrefactor a {v1} --job-id a3\nfactor b {v1} --job-id b1\n\
         analyze a {path} --job-id a4\nrefactor a {v1} --job-id a5\n\
         factor b {v2} --job-id b2\nrefactor a {v2} --job-id a6\n"
    );
    let solves = "solve a\nsolve b --transpose\n";
    let hashes = |responses: &[String]| -> Vec<String> {
        responses
            .iter()
            .map(|l| parse(l).unwrap())
            .filter(|v| v.get("op").and_then(|o| o.as_str()) == Some("solve"))
            .map(|v| {
                v.get("x_hash")
                    .and_then(|h| h.as_str())
                    .unwrap()
                    .to_string()
            })
            .collect()
    };
    // The reference never restarts: it runs the whole history, then solves.
    let reference = hashes(&run_script(cfg(None), format!("{history}{solves}quit\n")));
    assert_eq!(reference.len(), 2);

    let journaled = run_script(cfg(Some(state.clone())), format!("{history}quit\n"));
    assert_eq!(journaled.len(), 9, "{journaled:?}");
    // The restart: the `stats` line is answered first, inline, so its job
    // count is the replay's plus itself.
    let script = format!(
        "stats\n{solves}refactor a {v1} --job-id a3\nrefactor a {v1} --job-id a5\n\
         factor b {v1} --job-id b1\nrefactor a {v2} --job-id a6\nsolve a\nquit\n"
    );
    let responses = run_script(cfg(Some(state.clone())), script);
    assert_eq!(responses.len(), 8, "{responses:?}");
    let parsed: Vec<_> = responses.iter().map(|l| parse(l).unwrap()).collect();
    let stats = parsed
        .iter()
        .find(|v| v.get("op").and_then(|o| o.as_str()) == Some("stats"))
        .expect("a stats response");
    let count = |key: &str| stats.get(key).and_then(|n| n.as_num());
    assert_eq!(count("sessions_replayed"), Some(2.0));
    assert_eq!(
        count("jobs_dispatched"),
        Some(5.0),
        "2 standing lines per session re-executed, not the 9 journaled: {responses:?}"
    );
    assert_eq!(hashes(&responses)[..2], reference[..], "bitwise revival");
    let kind_of = |job_id: &str| {
        let reply = parsed
            .iter()
            .find(|v| v.get("job_id").and_then(|j| j.as_str()) == Some(job_id));
        reply.and_then(|v| v.get("kind").and_then(|k| k.as_str()).map(String::from))
    };
    for superseded in ["a3", "a5", "b1"] {
        assert_eq!(
            kind_of(superseded).as_deref(),
            Some("duplicate_replay"),
            "{superseded}: {responses:?}"
        );
    }
    // The standing refactor answers its retry from the response cache the
    // replay filled, and nothing was applied twice: `a` still solves to
    // the reference's bits.
    let retried = parsed
        .iter()
        .filter(|v| v.get("op").and_then(|o| o.as_str()) == Some("refactor"))
        .find(|v| v.get("status").and_then(|s| s.as_str()) == Some("ok"))
        .unwrap_or_else(|| panic!("the retry of a6 must be answered ok: {responses:?}"));
    assert!(
        retried.get("report").is_some(),
        "the cached response, whole"
    );
    assert_eq!(hashes(&responses)[2], reference[0]);
    let _ = std::fs::remove_dir_all(&state);
    for p in [&path, v1, v2] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn applied_ids_without_cached_responses_refuse_with_exit_9() {
    use parsplu::persist::{Durability, Journal, Record};
    let path = gen_matrix("exit9");
    let state = tmp_state_dir("exit9");
    // Hand-build the journal a compaction would leave behind: the job
    // lines that rebuild the session, plus an applied-ids record whose
    // cached responses are gone.
    {
        let (journal, recovered) = Journal::open(&state, Durability::Strict).unwrap();
        assert!(recovered.records.is_empty());
        journal
            .append(&Record::Job {
                job_id: None,
                line: format!("analyze a {path}"),
            })
            .unwrap();
        journal
            .append(&Record::Job {
                job_id: None,
                line: format!("factor a {path}"),
            })
            .unwrap();
        journal
            .append(&Record::AppliedIds {
                session: "a".to_string(),
                ids: vec!["old-77".to_string()],
            })
            .unwrap();
    }
    // A retry of the pre-compaction job id is recognized as applied, but
    // there is no response to replay: structured refusal, exit code 9.
    let script = format!("refactor a {path} --job-id old-77\nsolve a\nquit\n");
    let responses = run_script(
        ServeConfig {
            workers: 1,
            state_dir: Some(state.clone()),
            ..ServeConfig::default()
        },
        script,
    );
    assert_eq!(responses.len(), 2, "{responses:?}");
    let v = parse(&responses[0]).unwrap();
    assert_eq!(
        v.get("kind").and_then(|k| k.as_str()),
        Some("duplicate_replay"),
        "{responses:?}"
    );
    assert_eq!(v.get("exit_code").and_then(|c| c.as_num()), Some(9.0));
    assert_eq!(v.get("job_id").and_then(|j| j.as_str()), Some("old-77"));
    // The session itself is alive and was NOT double-applied: the solve
    // still works off the replayed factorization.
    let solved = parse(&responses[1]).unwrap();
    assert_eq!(
        solved.get("status").and_then(|s| s.as_str()),
        Some("ok"),
        "{responses:?}"
    );
    let _ = std::fs::remove_dir_all(&state);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn overload_hints_are_jittered_within_bounds() {
    // No workers are running, so submissions stay queued and every
    // overflow rejection is deterministic.
    let engine = Engine::open(ServeConfig {
        workers: 1,
        queue_cap: 1,
        ..ServeConfig::default()
    })
    .unwrap();
    let out: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let reply: Reply<'_> = {
        let out = Arc::clone(&out);
        Arc::new(move |s: &str| {
            out.lock().unwrap().push(s.to_string());
            true
        })
    };
    assert_eq!(engine.submit("solve s1", &reply, None), Submitted::Queued);
    let mut hints = Vec::new();
    for _ in 0..16 {
        assert_eq!(engine.submit("solve s1", &reply, None), Submitted::Rejected);
        let line = out.lock().unwrap().pop().unwrap();
        let hint = parse(&line)
            .unwrap()
            .get("retry_after_hint")
            .and_then(|h| h.as_num())
            .unwrap();
        hints.push(hint);
    }
    // With an empty service-time EWMA the base hint is 0.05s; the ±25%
    // jitter keeps every sample strictly positive and inside the band.
    for &h in &hints {
        assert!(h > 0.0, "{hints:?}");
        assert!((0.0375..=0.0625).contains(&h), "{hints:?}");
    }
    let distinct: std::collections::HashSet<String> =
        hints.iter().map(|h| format!("{h:.6}")).collect();
    assert!(
        distinct.len() > 1,
        "hints must be jittered, not constant: {hints:?}"
    );
}

#[test]
fn idle_timeout_reports_a_buffered_partial_frame_before_closing() {
    let listener = Listener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr_string();
    let cfg = ServeConfig {
        workers: 1,
        idle_timeout: Some(Duration::from_millis(200)),
        ..ServeConfig::default()
    };
    let daemon = std::thread::spawn(move || serve_daemon(cfg, listener, None).unwrap());

    // Send half a line — no newline — and go quiet.
    let mut c = Client::connect(&addr);
    write!(c.stream, "solve s").unwrap();
    c.stream.flush().unwrap();
    // The daemon idles out: first a structured invalid_frame naming the
    // buffered fragment, then the idle notice, then the close.
    let partial = parse(&c.recv()).unwrap();
    assert_eq!(
        partial.get("kind").and_then(|k| k.as_str()),
        Some("invalid_frame"),
        "partial-frame response first"
    );
    assert_eq!(partial.get("bytes").and_then(|b| b.as_num()), Some(7.0));
    assert!(
        partial
            .get("error")
            .and_then(|e| e.as_str())
            .unwrap()
            .contains("partial frame"),
        "{partial:?}"
    );
    let idle = parse(&c.recv()).unwrap();
    assert_eq!(
        idle.get("kind").and_then(|k| k.as_str()),
        Some("idle_timeout")
    );
    let mut rest = String::new();
    assert_eq!(
        c.reader.read_line(&mut rest).unwrap(),
        0,
        "connection closed after the idle notice"
    );

    // The daemon survives and still serves fresh connections.
    let mut c2 = Client::connect(&addr);
    c2.send("shutdown");
    let ack = parse(&c2.recv()).unwrap();
    assert_eq!(ack.get("drained").and_then(|d| d.as_bool()), Some(true));
    daemon.join().unwrap();
}

#[cfg(unix)]
#[test]
fn unix_socket_daemon_round_trips_and_cleans_up() {
    use std::os::unix::net::UnixStream;
    let path = gen_matrix("unixsock");
    let sock = std::env::temp_dir()
        .join(format!("parsplu_srv_{}.sock", std::process::id()))
        .to_string_lossy()
        .into_owned();
    let listener = Listener::bind(&format!("unix:{sock}")).unwrap();
    let cfg = ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    };
    let daemon = {
        let _sockpath = sock.clone();
        std::thread::spawn(move || serve_daemon(cfg, listener, None).unwrap())
    };
    let stream = UnixStream::connect(&sock).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut w = stream.try_clone().unwrap();
    writeln!(w, "analyze u {path}").unwrap();
    writeln!(w, "factor u {path}").unwrap();
    writeln!(w, "solve u").unwrap();
    writeln!(w, "shutdown").unwrap();
    w.flush().unwrap();
    let mut lines = Vec::new();
    for _ in 0..4 {
        let mut l = String::new();
        reader.read_line(&mut l).unwrap();
        lines.push(l.trim_end().to_string());
    }
    for l in &lines[..3] {
        let v = parse(l).unwrap();
        assert_eq!(v.get("status").and_then(|s| s.as_str()), Some("ok"), "{l}");
    }
    let ack = parse(&lines[3]).unwrap();
    assert_eq!(ack.get("drained").and_then(|d| d.as_bool()), Some(true));
    daemon.join().unwrap();
    assert!(
        !std::path::Path::new(&sock).exists(),
        "socket path is unlinked on listener drop"
    );
    let _ = std::fs::remove_file(&path);
}

/// Runs a daemon on `addr` (`127.0.0.1:0`, or `unix:` and a fresh socket
/// path) and returns the address clients connect to and the daemon's
/// thread.
fn spawn_daemon(
    addr: &str,
    cfg: ServeConfig,
) -> (
    String,
    std::thread::JoinHandle<parsplu::serve::ServeSummary>,
) {
    let listener = Listener::bind(addr).unwrap();
    let addr = listener.local_addr_string();
    let daemon = std::thread::spawn(move || serve_daemon(cfg, listener, None).unwrap());
    (addr, daemon)
}

/// A socket address for `transport` (`tcp` or `unix`) unique to `name`.
fn daemon_addr(transport: &str, name: &str) -> String {
    match transport {
        "tcp" => "127.0.0.1:0".to_string(),
        _ => format!("unix:{}", tmp(name).replace(".mtx", ".sock")),
    }
}

/// A drain answers every line (DESIGN.md §5.4), over TCP and over a Unix
/// socket. Client B is connected; client A queues an `analyze` whose
/// matrix file is a FIFO the test has not written yet, so the job runs on
/// until the test lets it finish, and sends `shutdown`. During the drain
/// B's next lines, and the line of a client C that connects only then, get
/// the `shutting_down` refusal under ids of their own. Once the job ends,
/// A gets its reply and then the ack, last, and the daemon exits within a
/// second of it although B stays connected and idle.
#[cfg(unix)]
#[test]
fn a_drain_refuses_every_line_until_the_engine_has_drained() {
    for transport in ["tcp", "unix"] {
        with_timeout(Duration::from_secs(120), move || drain_over(transport));
    }
}

#[cfg(unix)]
fn drain_over(transport: &'static str) {
    use splu_bench::json::Json;
    let path = gen_matrix(&format!("drain_{transport}"));
    let fifo = tmp(&format!("drain_fifo_{transport}"));
    let _ = std::fs::remove_file(&fifo);
    let made = std::process::Command::new("mkfifo").arg(&fifo).status();
    assert!(made.unwrap().success(), "mkfifo {fifo}");
    let cfg = ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    };
    let (addr, daemon) = spawn_daemon(&daemon_addr(transport, "drain"), cfg);
    let ask = |c: &mut Client, line: &str| {
        c.send(line);
        parse(&c.recv()).unwrap()
    };
    let draining = |c: &mut Client| ask(c, "stats").get("draining") == Some(&Json::Bool(true));
    let mut b = Client::connect(&addr);
    assert!(!draining(&mut b));
    let mut a = Client::connect(&addr);
    a.send(&format!("analyze big {fifo}"));
    a.send("shutdown");
    while !draining(&mut b) {
        std::thread::sleep(Duration::from_millis(5));
    }
    let mut ids = std::collections::HashSet::new();
    let mut refused = |c: &mut Client, line: &str| {
        let v = ask(c, line);
        assert_eq!(v.status(), "error", "{transport}: {v:?}");
        assert_eq!(v.kind(), "shutting_down", "{transport}: {v:?}");
        let mut words = line.split_whitespace();
        assert_eq!(v.get("op").and_then(Json::as_str), words.next());
        assert_eq!(v.get("session").and_then(Json::as_str), words.next());
        let id = v.get("id").and_then(Json::as_num).unwrap();
        assert!(ids.insert(id as u64), "{transport}: id {id} answered twice");
    };
    refused(&mut b, "solve s");
    let mut c = Client::connect(&addr);
    refused(&mut c, &format!("factor t {path}"));
    refused(&mut b, "refactor s");
    // Let the running job finish: the drain can end now.
    std::fs::write(&fifo, std::fs::read(&path).unwrap()).unwrap();
    let analyzed = parse(&a.recv()).unwrap();
    assert_eq!(analyzed.status(), "ok", "{transport}: {analyzed:?}");
    assert_eq!(analyzed.get("op").and_then(Json::as_str), Some("analyze"));
    let ack = parse(&a.recv()).unwrap();
    assert_eq!(ack.get("op").and_then(Json::as_str), Some("shutdown"));
    assert_eq!(ack.get("drained"), Some(&Json::Bool(true)), "{ack:?}");
    let summary = with_timeout(Duration::from_secs(1), move || daemon.join().unwrap());
    assert_eq!(summary.connections, 3, "{transport}");
    drop((b, c));
    for p in [&path, &fifo] {
        let _ = std::fs::remove_file(p);
    }
}

/// Masks what differs between two runs of one script: timings, the heap
/// and the counters that depend on timing.
fn mask_timings(line: &str) -> String {
    const MASKED: [&str; 16] = [
        "seconds",
        "uptime_s",
        "phases_s",
        "wall_s",
        "busy_s",
        "idle_s",
        "steal_s",
        "load_imbalance",
        "parallel_efficiency",
        "critical_path_s",
        "heap",
        "heap_phases",
        "queue_depth_peak",
        "parks",
        "steals",
        "steal_attempts",
    ];
    let mut out = line.to_string();
    for key in MASKED {
        let pat = format!("\"{key}\":");
        let mut from = 0;
        while let Some(at) = out[from..].find(&pat) {
            let start = from + at + pat.len();
            // The value ends at the first `,`, `}` or `]` outside a nested
            // object, array or string.
            let (mut depth, mut in_str, mut escaped) = (0i32, false, false);
            let mut end = out.len();
            for (i, ch) in out[start..].char_indices() {
                match (in_str, ch) {
                    (true, _) if escaped => escaped = false,
                    (true, '\\') => escaped = true,
                    (true, '"') => in_str = false,
                    (true, _) => {}
                    (false, '"') => in_str = true,
                    (false, '{' | '[') => depth += 1,
                    (false, '}' | ']') if depth > 0 => depth -= 1,
                    (false, ',' | '}' | ']') if depth == 0 => {
                        end = start + i;
                        break;
                    }
                    _ => {}
                }
            }
            out.replace_range(start..end, "0");
            from = start + 1;
        }
    }
    out
}

/// The CI serve smoke's job script over files in `dir`: analyze, factor,
/// refactor and solve a session on a sherman3 analogue; refactor it from a
/// reordered copy, a copy with a moved entry and one with a bad token;
/// open a second session on the same file; then `stats`.
fn smoke_script(dir: &std::path::Path) -> Vec<String> {
    let m = dir.join("smoke.mtx").to_string_lossy().into_owned();
    run(&args(&["gen", "sherman3", &m, "--reduced"])).unwrap();
    let text = std::fs::read_to_string(&m).unwrap();
    let lines: Vec<String> = text.lines().map(String::from).collect();
    let (head, entries) = lines.split_at(2);
    let write = |name: &str, body: Vec<String>| {
        let p = dir.join(name);
        std::fs::write(&p, [head, &body].concat().join("\n") + "\n").unwrap();
        p.to_string_lossy().into_owned()
    };
    let shuffled = write("shuffled.mtx", entries.iter().rev().cloned().collect());
    let first: Vec<&str> = entries[0].split_whitespace().collect();
    let column = |l: &&String| l.split_whitespace().nth(1) == Some(first[1]);
    let held: Vec<&str> = (entries.iter().filter(column))
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    let free = (1..).find(|r: &usize| !held.contains(&r.to_string().as_str()));
    let mut moved = vec![format!("{} {} {}", free.unwrap(), first[1], first[2])];
    moved.extend_from_slice(&entries[1..]);
    let moved = write("moved.mtx", moved);
    let (last, kept) = entries.split_last().unwrap();
    let last: Vec<&str> = last.split_whitespace().collect();
    let mut bad = kept.to_vec();
    bad.push(format!("{} {} 1.0x", last[0], last[1]));
    let bad = write("bad.mtx", bad);
    let solve = |s: &str| format!("solve {s}");
    vec![
        format!("analyze s {m}"),
        format!("factor s {m}"),
        format!("refactor s {m}"),
        solve("s"),
        format!("refactor s {m}"),
        format!("refactor s {m}"),
        solve("s"),
        format!("refactor s {shuffled}"),
        solve("s"),
        format!("refactor s {moved}"),
        format!("refactor s {bad}"),
        solve("s"),
        format!("analyze t {m}"),
        format!("factor t {m}"),
        solve("t"),
        "stats".to_string(),
    ]
}

/// The replies to `script` over a fresh daemon at `addr`, one job in flight.
fn replies_over_socket(addr: &str, script: &[String]) -> Vec<String> {
    let (addr, daemon) = spawn_daemon(addr, ServeConfig::default());
    let mut c = Client::connect(&addr);
    let replies = script
        .iter()
        .map(|line| {
            c.send(line);
            c.recv()
        })
        .collect();
    c.send("shutdown");
    let ack = parse(&c.recv()).unwrap();
    assert_eq!(ack.get("drained").and_then(|d| d.as_bool()), Some(true));
    daemon.join().unwrap();
    replies
}

/// Every transport gives the same replies: the CI serve smoke's script,
/// fed one job at a time through the in-process stdio entry, over TCP and
/// over a Unix socket, is answered byte for byte the same once timings are
/// masked.
#[test]
fn every_transport_gives_the_same_replies() {
    let dir = std::env::temp_dir().join(format!("parsplu_srv_transports_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let script = smoke_script(&dir);
    let stdio = with_timeout(Duration::from_secs(120), {
        let script = script.clone();
        move || {
            let (reader, replies) = common::stepped::stepped(&script, |_| {});
            let writer = Mutex::new(replies);
            serve_loop(ServeConfig::default(), reader, &writer, None).unwrap();
            writer.into_inner().unwrap().lines()
        }
    });
    let mut addrs = vec![("tcp", daemon_addr("tcp", "transports"))];
    if cfg!(unix) {
        addrs.push(("unix", daemon_addr("unix", "transports")));
    }
    assert_eq!(stdio.len(), script.len(), "{stdio:?}");
    let failed: Vec<usize> = (stdio.iter().enumerate())
        .filter(|(_, r)| parse(r).unwrap().status() != "ok")
        .map(|(k, _)| k)
        .collect();
    assert_eq!(
        failed,
        [9, 10],
        "the moved and the bad file fail: {stdio:?}"
    );
    let want: Vec<String> = stdio.iter().map(|r| mask_timings(r)).collect();
    for (name, addr) in addrs {
        let script = script.clone();
        let replies = with_timeout(Duration::from_secs(120), move || {
            replies_over_socket(&addr, &script)
        });
        let got: Vec<String> = replies.iter().map(|r| mask_timings(r)).collect();
        assert_eq!(got, want, "{name} against stdio");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
