//! Observability gate: the counters agree with the analytic model.
//!
//! The metrics registry counts what actually ran; the symbolic phase and
//! the cost model predict what *should* run. These tests pin the two
//! together on the reduced paper suite:
//!
//! * fill counters equal the column sums of the scalar structure the
//!   oracle path writes for the matrix the driver factors (the driver
//!   itself counts from the skeleton's lengths and writes none);
//! * factor, trsm and gemm flop counters equal the `costs.rs` model over
//!   the lists the factors were computed on — the in-block ones for a
//!   `SparseLu::factor` or a session's `factor` / `refactor`, the static
//!   ones for a run on the static storage — exactly (the formulas are
//!   integral, and the model prices the very shapes the compact storage
//!   hands the kernels), on the sparse suite and on a dense matrix;
//! * run reports schema-validate through the bench crate's validator and
//!   carry the registry's values verbatim;
//! * the combined Chrome trace is well-formed and shows the pipeline
//!   phase tracks next to the numeric executor's workers on one epoch;
//! * a one-thread observed run is the unobserved run with a recorder
//!   attached: bitwise the same factors, the report of one worker that
//!   never idled, and — in an event session — one labelled task event per
//!   task, in the left-looking order, back to back inside the `numeric`
//!   span.

use parsplu::core::{
    analyze, estimate_task_costs, factor_numeric_with, total_flops, BlockMatrix, LuError,
    MatrixMeta, NumericRequest, ObsSession, Options, RunReport, RunStatus, SluSession, SparseLu,
};
use parsplu::matgen::{paper_suite, Scale};
use parsplu::obs::Counter;
use parsplu::sched::{Task, TaskGraph};
use parsplu::sparse::CscMatrix;
use parsplu::symbolic::{static_symbolic_factorization, BlockStructure};
use splu_bench::json::{parse, validate_chrome_trace, validate_run_report};

/// Analyze + factor `a` under `opts` with a fresh full session, returning
/// the factorization result together with the report and the session (for
/// the Chrome trace).
fn factor_reported(
    a: &CscMatrix,
    opts: &Options,
    name: &str,
) -> (Result<SparseLu, LuError>, RunReport, ObsSession) {
    let session = ObsSession::with_events();
    let result = SparseLu::factor_observed(a, opts, &session);
    let (matrix, status) = match &result {
        Ok(lu) => (
            MatrixMeta::from_stats(name, lu.stats()),
            RunStatus::success(),
        ),
        Err(e) => (
            MatrixMeta {
                name: name.to_string(),
                n: a.ncols(),
                nnz: a.nnz(),
            },
            RunStatus::from_error(e),
        ),
    };
    let report = session.report(matrix, opts, status);
    (result, report, session)
}

/// `Σ_j |L̄_{*j}|` and `Σ_i |Ū_{i*}|` (diagonals included) of the scalar
/// structure of the matrix the driver factors, written out by the oracle.
fn symbolic_fill_sums(a: &CscMatrix, opts: &Options) -> (u64, u64) {
    let sym = analyze(a.pattern(), opts).expect("analysis succeeds");
    let factored = a.pattern().permuted(&sym.row_perm, &sym.col_perm);
    let filled = static_symbolic_factorization(&factored).expect("zero-free diagonal");
    (filled.l.nnz() as u64, filled.u.nnz() as u64)
}

/// (One count is left: the front half runs on the calling thread. The name
/// is the one the test floor knows.)
#[test]
fn counted_fill_matches_symbolic_lengths_at_every_front_thread_count() {
    for m in paper_suite(Scale::Reduced) {
        let opts = Options::default();
        let session = ObsSession::new();
        SparseLu::factor_observed(&m.a, &opts, &session).expect("factorization succeeds");
        let (l_sum, u_sum) = symbolic_fill_sums(&m.a, &opts);
        assert_eq!(
            session.metrics().get(Counter::FillL),
            l_sum,
            "{}: counted L fill != Σ l_len",
            m.name
        );
        assert_eq!(
            session.metrics().get(Counter::FillU),
            u_sum,
            "{}: counted U fill != Σ u_len",
            m.name
        );
    }
}

/// The model's flops per task over the lists of `bs`, split into the factor
/// / trsm / gemm terms the registry counts separately (`costs.rs` only
/// exposes the sum per task, but its two Update terms are recomputable from
/// the source width and the number of columns `|S_kj|` the block `Ū(k, j)`
/// stores; a block `bs` does not hold stores none and costs nothing).
fn model_flop_split(bs: &BlockStructure, graph: &TaskGraph) -> (f64, f64, f64) {
    let costs = estimate_task_costs(bs, graph);
    let (mut factor, mut trsm, mut gemm) = (0.0, 0.0, 0.0);
    for (t, c) in graph.tasks().iter().zip(&costs) {
        match *t {
            Task::Factor(_) => factor += c.flops,
            Task::Update { src, dst } => {
                let wk = bs.partition.width(src) as f64;
                let s = bs.u_cols_in(src, dst).len() as f64;
                let t = wk * (wk - 1.0) * s;
                trsm += t;
                gemm += c.flops - t;
            }
        }
    }
    (factor, trsm, gemm)
}

/// The `Ū` blocks off the diagonal `bs` holds: one `Update`, one trsm each.
fn held_blocks(bs: &BlockStructure) -> u64 {
    (bs.u_blocks.nnz() - bs.num_blocks()) as u64
}

/// The kernel counters of an observed run, against the model over the lists
/// the factors were computed on, under the static graph.
fn assert_counted_is_the_model(
    obs: &ObsSession,
    bs: &BlockStructure,
    graph: &TaskGraph,
    what: &str,
) {
    let reg = obs.metrics();
    let (factor, trsm, gemm) = model_flop_split(bs, graph);
    // The formulas are integral, so the f64 model is exact too.
    assert_eq!(
        reg.get(Counter::FactorFlops) as f64,
        factor,
        "{what}: factor flops"
    );
    assert_eq!(
        reg.get(Counter::TrsmFlops) as f64,
        trsm,
        "{what}: trsm flops"
    );
    assert_eq!(
        reg.get(Counter::GemmFlops) as f64,
        gemm,
        "{what}: gemm flops"
    );
    assert_eq!(
        reg.get(Counter::TrsmCalls),
        held_blocks(bs),
        "{what}: trsm calls"
    );
}

#[test]
fn counted_kernel_flops_match_the_cost_model_on_the_suite() {
    for m in paper_suite(Scale::Reduced) {
        let opts = Options {
            threads: 2,
            ..Options::default()
        };
        let name = m.name;
        // The one-shot factor speculates, and no suite pattern takes an
        // interchange: its kernels run on the in-block lists.
        let session = ObsSession::new();
        let lu = SparseLu::factor_observed(&m.a, &opts, &session).expect("factorization succeeds");
        assert_eq!(
            session.metrics().get(Counter::RefactorRealised),
            1,
            "{name}"
        );
        // The session's plan is contracted from the static structure's
        // graph, built at analysis.
        let static_sym = analyze(m.a.pattern(), &opts).unwrap();
        let (sym, static_bs) = (lu.symbolic(), &static_sym.block_structure);
        let graph = &static_sym.build_graph();
        assert_counted_is_the_model(&session, &sym.block_structure, graph, name);
        let static_model = total_flops(&estimate_task_costs(static_bs, graph));
        let speculated = total_flops(&estimate_task_costs(&sym.block_structure, graph));
        assert!(speculated < static_model, "{name}");

        // A session's refactor runs the kernels of the same in-block lists;
        // a run on the static storage runs the static ones.
        let mut s = SluSession::analyze(m.a.pattern(), &opts).unwrap();
        s.factor(&m.a).unwrap();
        let obs = ObsSession::new();
        s.refactor_observed(&m.a, &obs).unwrap();
        assert_eq!(obs.metrics().get(Counter::RefactorRealised), 1, "{name}");
        let realised = &s.symbolic().block_structure;
        assert_eq!(
            realised, &sym.block_structure,
            "{name}: one in-block structure"
        );
        assert_counted_is_the_model(&obs, realised, graph, name);
        assert_eq!(
            obs.metrics().get(Counter::RealisedWords),
            realised.storage_words() as u64
        );
        let obs = ObsSession::new();
        let bm = BlockMatrix::assemble(&sym.permute_matrix(&m.a), static_bs);
        let req = NumericRequest::coarse(graph, opts.mapping)
            .threads(opts.threads)
            .metrics(std::sync::Arc::clone(obs.metrics()));
        factor_numeric_with(&bm, &req).unwrap();
        let what = format!("{name}: the static storage");
        assert_counted_is_the_model(&obs, static_bs, graph, &what);
    }
}

#[test]
fn counted_gemm_flops_equal_the_model_on_a_dense_matrix() {
    // Fully dense: one supernode, or a few wide ones under amalgamation.
    let n = 24;
    let a = CscMatrix::from_triplets_iter(
        n,
        n,
        (0..n).flat_map(|i| {
            (0..n).map(move |j| {
                let bump = if i == j { n as f64 } else { 0.0 };
                (i, j, 1.0 + bump + ((i * 31 + j * 17) % 7) as f64)
            })
        }),
    )
    .unwrap();
    let opts = Options::default();
    let session = ObsSession::new();
    let lu = SparseLu::factor_observed(&a, &opts, &session).expect("dense factorization succeeds");
    // A dense pattern fills all of its static structure, pivots or not.
    let static_sym = analyze(a.pattern(), &opts).unwrap();
    let bs = &lu.symbolic().block_structure;
    assert_eq!(bs, &static_sym.block_structure);
    assert_counted_is_the_model(&session, bs, &static_sym.build_graph(), "dense");
}

/// A session's analysis derives its in-block lists: `derive` is a phase of
/// the analysis report and of no `factor` / `refactor` report. A fallback
/// rebuilds the static lists, and its report shows what that took
/// (`static_lists`); the static session's later jobs rebuild nothing.
#[test]
fn derive_is_an_analysis_phase_and_a_fallback_rebuilds_the_static_lists() {
    let phases =
        |obs: &ObsSession| -> Vec<&str> { obs.phase_walls().into_iter().map(|(p, _)| p).collect() };
    let m = &paper_suite(Scale::Reduced)[0];
    let a = parsplu::matgen::cross_block_pivots(90, 2);
    for (what, a, falls_back) in [(m.name, &m.a, false), ("cross_block_pivots", &a, true)] {
        let obs = ObsSession::new();
        let mut s = SluSession::analyze_observed(a.pattern(), &Options::default(), &obs).unwrap();
        let analysis = phases(&obs);
        assert!(analysis.contains(&"derive"), "{what}: {analysis:?}");
        assert!(!analysis.contains(&"layout"), "{what}: {analysis:?}");
        for refactor in [false, true] {
            let obs = ObsSession::new();
            if refactor {
                s.refactor_observed(a, &obs).unwrap();
            } else {
                s.factor_observed(a, &obs).unwrap();
            }
            let job = phases(&obs);
            assert!(!job.contains(&"derive"), "{what}: {job:?}");
            let rebuilt = job.contains(&"static_lists");
            assert_eq!(rebuilt, falls_back && !refactor, "{what}: {job:?}");
            assert_eq!(s.is_realised(), !falls_back, "{what}");
        }
    }
}

#[test]
fn run_report_schema_validates_and_carries_the_registry_values() {
    for m in paper_suite(Scale::Reduced).into_iter().take(3) {
        let opts = Options {
            threads: 2,
            ..Options::default()
        };
        let (result, report, session) = factor_reported(&m.a, &opts, m.name);
        result.expect("factorization succeeds");
        let doc = parse(&report.to_json()).expect("report is valid JSON");
        let n_counters = validate_run_report(&doc).expect("report schema-validates");
        // Registry counters plus the scheduler's five.
        assert_eq!(n_counters, Counter::ALL.len() + 5, "{}", m.name);
        let counters = doc.get("counters").expect("counters object");
        for c in Counter::ALL {
            let v = counters
                .get(c.name())
                .and_then(|j| j.as_num())
                .unwrap_or_else(|| panic!("{}: counter {} missing", m.name, c.name()));
            assert_eq!(
                v as u64,
                session.metrics().get(c),
                "{}: {}",
                m.name,
                c.name()
            );
        }
        // The ordering's counters account for every column exactly once:
        // as a pivot, merged into one, or mass-eliminated with one; and
        // the ordering polled the budget once per pivot.
        let get = |c: Counter| session.metrics().get(c);
        assert_eq!(
            get(Counter::OrderingPivots)
                + get(Counter::OrderingMerged)
                + get(Counter::OrderingMassEliminated),
            m.a.ncols() as u64,
            "{}",
            m.name
        );
        assert!(get(Counter::BudgetCheckpoints) >= get(Counter::OrderingPivots));
        // Phase walls: every canonical phase the driver runs is present
        // and positive... parse is CLI-only and solve is not run here, so
        // expect the other ten.
        let phases = doc.get("phases_s").expect("phases object");
        for name in [
            "scale_transversal",
            "ordering",
            "symbolic_fill",
            "eforest_postorder",
            "supernode_partition",
            "graph_build",
            "derive",
            "layout",
            "assemble",
            "numeric",
        ] {
            let v = phases
                .get(name)
                .and_then(|j| j.as_num())
                .unwrap_or_else(|| panic!("{}: phase {name} missing", m.name));
            assert!(v >= 0.0, "{}: phase {name} negative", m.name);
        }
        assert_eq!(
            doc.get("status")
                .and_then(|s| s.get("kind"))
                .and_then(|k| k.as_str()),
            Some("ok"),
            "{}",
            m.name
        );
        // Events on two threads: the measured critical path, a chain of
        // node spans, is positive and no longer than the busy time.
        let sched = report.sched.as_ref().expect("the numeric phase ran");
        let cp = (doc.get("sched"))
            .and_then(|s| s.get("critical_path_s"))
            .and_then(|v| v.as_num())
            .unwrap_or_else(|| panic!("{}: no measured critical path", m.name));
        assert_eq!(Some(cp), sched.critical_path_s, "{}", m.name);
        assert!(
            0.0 < cp && cp <= sched.busy_total() + 1e-9,
            "{}: {cp}",
            m.name
        );
    }
}

#[test]
fn failed_runs_report_their_status() {
    // A structurally singular matrix: the report must still build and
    // validate, with status.kind = "singular".
    let a = CscMatrix::from_triplets(3, 3, &[(0, 0, 1.0), (1, 0, 2.0), (2, 2, 3.0)]).unwrap();
    let (result, report, _session) = factor_reported(&a, &Options::default(), "singular3");
    assert!(result.is_err());
    let doc = parse(&report.to_json()).expect("report is valid JSON");
    validate_run_report(&doc).expect("failed-run report schema-validates");
    assert_eq!(
        doc.get("status").and_then(|s| s.get("ok")),
        Some(&splu_bench::json::Json::Bool(false))
    );
    assert_eq!(
        doc.get("status")
            .and_then(|s| s.get("kind"))
            .and_then(|k| k.as_str()),
        Some("singular")
    );
}

/// A session that recorded nothing still renders a valid trace: the two
/// driver metadata events and no complete event.
#[test]
fn an_empty_session_renders_a_valid_chrome_trace() {
    let doc = parse(&ObsSession::new().chrome_json()).expect("chrome trace is valid JSON");
    assert_eq!(validate_chrome_trace(&doc), Ok(0));
    let events = doc.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
    assert_eq!(events.len(), 2, "process and thread name of the driver");
}

#[test]
fn chrome_trace_shows_all_phases_and_both_processes_on_one_epoch() {
    let m = &paper_suite(Scale::Reduced)[0];
    let opts = Options {
        threads: 2,
        ..Options::default()
    };
    let (result, _report, session) = factor_reported(&m.a, &opts, m.name);
    result.expect("factorization succeeds");
    let json = session.chrome_json();
    let doc = parse(&json).expect("chrome trace is valid JSON");
    let n_events = validate_chrome_trace(&doc).expect("chrome trace schema-validates");
    assert!(n_events > 0);
    let events = doc
        .get("traceEvents")
        .and_then(|e| e.as_arr())
        .expect("traceEvents array");
    // Span names from complete events; track/process names from the
    // metadata events' `args.name`.
    let names: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("name").and_then(|n| n.as_str()))
        .collect();
    let meta_names: Vec<&str> = events
        .iter()
        .filter_map(|e| {
            e.get("args")
                .and_then(|a| a.get("name"))
                .and_then(|n| n.as_str())
        })
        .collect();
    // The driver's phase spans are all present...
    for phase in [
        "scale_transversal",
        "ordering",
        "symbolic_fill",
        "eforest_postorder",
        "supernode_partition",
        "graph_build",
        "derive",
        "layout",
        "assemble",
        "numeric",
    ] {
        assert!(names.contains(&phase), "missing phase span {phase}");
    }
    // ...the ordering is one span, not one per pivot...
    assert_eq!(names.iter().filter(|n| **n == "ordering").count(), 1);
    assert!(!names.iter().any(|n| n.starts_with("mindeg")));
    // ...the pipeline and numeric-executor processes are both named...
    assert!(meta_names.contains(&"pipeline"));
    assert!(meta_names.contains(&"numeric executor"));
    // ...and every numeric task event under pid 1 carries its label.
    let task_names: Vec<&str> = events
        .iter()
        .filter(|e| e.get("cat").and_then(|c| c.as_str()) == Some("task"))
        .map(|e| {
            assert_eq!(e.get("pid").and_then(|p| p.as_num()), Some(1.0));
            e.get("name").and_then(|n| n.as_str()).expect("task name")
        })
        .collect();
    assert!(!task_names.is_empty(), "no numeric task spans");
    for name in task_names {
        assert!(
            name.starts_with("F(") || name.starts_with("U("),
            "unlabelled numeric task span {name:?}"
        );
    }
    // Every complete event sits on the shared epoch: ts >= 0 and within
    // an hour (i.e. not absolute wall-clock microseconds).
    for e in events {
        if e.get("ph").and_then(|p| p.as_str()) == Some("X") {
            let ts = e.get("ts").and_then(|t| t.as_num()).unwrap();
            assert!((0.0..3.6e9).contains(&ts), "timestamp {ts} off-epoch");
        }
    }
}

#[test]
fn perturbed_columns_counter_matches_health() {
    use parsplu::core::BreakdownPolicy;
    // A matrix engineered to need pivot perturbation: a zero column
    // tail under threshold pivoting with the Perturb policy.
    let a = CscMatrix::from_triplets(
        3,
        3,
        &[
            (0, 0, 1.0),
            (1, 0, 1.0),
            (0, 1, 1.0),
            (1, 1, 1.0),
            (2, 2, 1.0),
        ],
    )
    .unwrap();
    let opts = Options {
        breakdown: BreakdownPolicy::perturb_default(),
        ..Options::default()
    };
    let session = ObsSession::new();
    // Structurally fine but numerically hopeless inputs may still error
    // under other policies; this test only pins the counter when
    // perturbation ran.
    if let Ok(lu) = SparseLu::factor_observed(&a, &opts, &session) {
        assert_eq!(
            session.metrics().get(Counter::PerturbedColumns),
            lu.health().perturbed_columns.len() as u64
        );
    }
}

/// Every stored word of the session's factors, with its position, as bits.
fn factor_bits(s: &SluSession) -> Vec<(usize, usize, u64)> {
    let mut words = Vec::new();
    let bm = s.block_matrix().expect("factored");
    bm.for_each_entry(|i, j, v| words.push((i, j, v.to_bits())));
    words
}

/// One thread, no watchdog: an observed run replays inline like an
/// unobserved one, so the factors are the same to the bit and the report
/// is that of one worker that was busy for the whole run.
#[test]
fn observed_one_thread_runs_are_the_unobserved_run_with_a_recorder() {
    for m in paper_suite(Scale::Reduced) {
        let mut s = SluSession::analyze(m.a.pattern(), &Options::default()).unwrap();
        s.factor(&m.a).unwrap();
        // On the in-block structure since the factor: the observed
        // refactors below replay the very same program.
        s.refactor(&m.a).unwrap();
        let unobserved = factor_bits(&s);
        for obs in [ObsSession::new(), ObsSession::with_events()] {
            s.refactor_observed(&m.a, &obs).unwrap();
            assert!(factor_bits(&s) == unobserved, "{}: factors moved", m.name);
            let meta = MatrixMeta::from_stats(m.name, s.stats());
            let report = obs.report(meta, s.options(), RunStatus::success());
            let sched = report.sched.expect("the numeric phase ran");
            // One task per stored update and per factor: the in-block
            // storage's, not the static graph's.
            let n_tasks = s.block_matrix().unwrap().num_tasks();
            assert!(n_tasks <= s.stats().graph_tasks, "{}", m.name);
            assert_eq!(sched.n_tasks, n_tasks, "{}", m.name);
            assert_eq!(sched.tasks_started, n_tasks as u64, "{}", m.name);
            assert_eq!(sched.tasks_retired, n_tasks as u64, "{}", m.name);
            sched.assert_consistent();
            assert_eq!((sched.nthreads, sched.workers.len()), (1, 1), "{}", m.name);
            let busy = sched.busy_total();
            assert!(
                0.0 < busy && busy <= sched.wall_s,
                "{}: busy {busy}",
                m.name
            );
            assert_eq!(sched.idle_total(), 0.0, "{}", m.name);
            assert_eq!(sched.steal_total(), 0.0, "{}", m.name);
            assert_eq!(
                sched.critical_path_s, None,
                "one thread: nothing to measure"
            );
            for (name, v) in sched.counters() {
                if matches!(name, "steals" | "steal_attempts" | "parks") {
                    assert_eq!(v, 0, "{}: a calling thread never {name}", m.name);
                }
            }
        }
    }
}

/// An event session of a one-thread run — one range, no plan held:
/// exactly one labelled `Task` event per task on the one worker track, in
/// the left-looking order, back to back, inside the driver's `numeric` span
/// on the shared epoch.
#[test]
fn event_session_records_one_task_event_per_task_in_replay_order() {
    let m = &paper_suite(Scale::Reduced)[0];
    let mut s = SluSession::analyze(m.a.pattern(), &Options::default()).unwrap();
    s.factor(&m.a).unwrap();
    let obs = ObsSession::with_events();
    // Let the epoch age, so run-relative stamps could not pass for shared ones.
    std::thread::sleep(std::time::Duration::from_millis(3));
    s.refactor_observed(&m.a, &obs).unwrap();
    let doc = parse(&obs.chrome_json()).expect("chrome trace is valid JSON");
    validate_chrome_trace(&doc).expect("chrome trace schema-validates");
    let events = doc.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
    let field = |e: &splu_bench::json::Json, key: &str| e.get(key).and_then(|v| v.as_num());
    let numeric = events
        .iter()
        .find(|e| e.get("name").and_then(|n| n.as_str()) == Some("numeric"))
        .expect("the driver's numeric span");
    let (phase_ts, phase_dur) = (
        field(numeric, "ts").unwrap(),
        field(numeric, "dur").unwrap(),
    );
    assert!(
        phase_ts >= 3000.0,
        "the numeric span sits on the session epoch"
    );
    let tasks: Vec<_> = events
        .iter()
        .filter(|e| e.get("cat").and_then(|c| c.as_str()) == Some("task"))
        .collect();
    let want: Vec<String> = (s.block_matrix().unwrap().tasks())
        .map(|t| t.to_string())
        .collect();
    let got: Vec<&str> = tasks
        .iter()
        .map(|e| e.get("name").and_then(|n| n.as_str()).unwrap())
        .collect();
    assert_eq!(got, want, "one event per task, in the left-looking order");
    let mut last_end = phase_ts - 1.0;
    for e in &tasks {
        assert_eq!((field(e, "pid"), field(e, "tid")), (Some(1.0), Some(0.0)));
        let (ts, dur) = (field(e, "ts").unwrap(), field(e, "dur").unwrap());
        // Stamps print to the nanosecond; spans are whole microseconds.
        assert!(ts + 1e-3 >= last_end, "task events overlap at {ts}");
        assert!(dur >= 0.0);
        last_end = ts + dur;
    }
    assert!(
        last_end <= phase_ts + phase_dur + 1.0,
        "task events outlive the numeric span"
    );
    assert!(!events.iter().any(|e| matches!(
        e.get("cat").and_then(|c| c.as_str()),
        Some("steal" | "idle")
    )));
}
