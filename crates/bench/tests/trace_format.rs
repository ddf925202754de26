//! The Chrome `trace_event` export is valid JSON with in-order per-worker
//! event streams — checked with the crate's own parser
//! ([`splu_bench::json`]), i.e. the same validation CI applies to the
//! CLI's `--trace` output.

use splu_bench::json;
use splu_core::{analyze, factor_numeric_with, BlockMatrix, NumericRequest, ObsSession, Options};
use splu_matgen::{paper_suite, Scale};
use splu_sched::{EventKind, Mapping};

#[test]
fn chrome_trace_json_is_valid_and_per_worker_monotone() {
    let m = paper_suite(Scale::Reduced)
        .into_iter()
        .next()
        .expect("suite is non-empty");
    let sym = analyze(m.a.pattern(), &Options::default()).expect("analysis succeeds");
    let permuted = sym.permute_matrix(&m.a);
    let graph = sym.build_graph();
    let bm = BlockMatrix::assemble(&permuted, &sym.block_structure);

    // An event session's numeric phase, as `SluSession::run_numeric` runs
    // it, with the raw stream looked at before the session takes it.
    let threads = 4;
    let obs = ObsSession::with_events();
    let report = {
        let _p = obs.phase("numeric");
        factor_numeric_with(
            &bm,
            &NumericRequest::coarse(&graph, Mapping::Dynamic)
                .threads(threads)
                .trace(obs.executor_trace_config(graph.len(), threads)),
        )
        .expect("factorization succeeds")
    };
    report.stats.assert_consistent();
    let trace = report
        .trace
        .expect("an event session keeps the event stream");

    // Raw event stream: per-worker timestamps are monotone non-decreasing
    // and every interval is well-formed.
    let mut last_start = vec![0u64; threads];
    let mut task_events = 0usize;
    for e in &trace.events {
        assert!(e.worker < threads, "worker id in range");
        assert!(e.end_ns >= e.start_ns, "non-negative duration");
        assert!(
            e.start_ns >= last_start[e.worker],
            "worker {} timestamps regress: {} < {}",
            e.worker,
            e.start_ns,
            last_start[e.worker]
        );
        last_start[e.worker] = e.start_ns;
        if matches!(e.kind, EventKind::Task { .. }) {
            task_events += 1;
        }
    }
    assert_eq!(task_events, graph.len(), "one Task event per task");

    // Rendered JSON: parses, matches the Chrome trace schema, and carries
    // exactly the recorded events and the phase spans as "X" records.
    let n_events = trace.events.len();
    obs.capture_numeric(
        report.stats,
        report.health,
        Some((trace, graph.tasks().to_vec())),
    );
    let doc = json::parse(&obs.chrome_json()).expect("chrome trace is valid JSON");
    let complete = json::validate_chrome_trace(&doc).expect("chrome trace matches schema");
    assert_eq!(
        complete,
        n_events + obs.span_events().len(),
        "one X record per event and per phase span"
    );
    assert!(
        doc.get("traceEvents")
            .and_then(json::Json::as_arr)
            .map(|evs| evs.len() >= complete + threads)
            .unwrap_or(false),
        "thread_name metadata records present"
    );
}
