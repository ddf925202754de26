//! The Chrome `trace_event` export is valid JSON with in-order per-worker
//! event streams — checked with the crate's own parser
//! ([`splu_bench::json`]), i.e. the same validation CI applies to the
//! CLI's `--trace` output.

use splu_bench::json;
use splu_core::{
    analyze, factor_numeric_with, BlockMatrix, NumericRequest, Options, TaskGraphKind, TraceConfig,
};
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
    let graph = sym.build_graph(TaskGraphKind::EForest);
    let bm = BlockMatrix::assemble(&permuted, &sym.block_structure);

    let threads = 4;
    let config = TraceConfig::full(graph.len(), threads);
    let report = factor_numeric_with(
        &bm,
        &NumericRequest::coarse(&graph, Mapping::Dynamic)
            .threads(threads)
            .trace(config),
    )
    .expect("factorization succeeds");
    report.stats.assert_consistent();
    let trace = report.trace.expect("full mode keeps the event stream");

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
    // exactly the recorded events as "X" records.
    let rendered = trace.chrome_json(&|tid| graph.task(tid).to_string());
    let doc = json::parse(&rendered).expect("chrome trace is valid JSON");
    let complete = json::validate_chrome_trace(&doc).expect("chrome trace matches schema");
    assert_eq!(complete, trace.events.len(), "one X record per event");
    assert!(
        doc.get("traceEvents")
            .and_then(json::Json::as_arr)
            .map(|evs| evs.len() >= complete + threads)
            .unwrap_or(false),
        "thread_name metadata records present"
    );
}
