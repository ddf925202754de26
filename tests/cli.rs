//! Integration tests for the `parsplu` command-line interface.

use parsplu::cli::run;
use parsplu::serve::ServeConfig;

/// A serve engine on `n` worker lanes.
fn workers(n: usize) -> ServeConfig {
    ServeConfig {
        workers: n,
        ..ServeConfig::default()
    }
}

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

fn tmp(name: &str) -> String {
    std::env::temp_dir()
        .join(format!("parsplu_cli_{name}_{}.mtx", std::process::id()))
        .to_string_lossy()
        .into_owned()
}

#[test]
fn help_and_empty_args() {
    assert!(run(&args(&["--help"])).unwrap().contains("USAGE"));
    let err = run(&[]).unwrap_err();
    assert!(err.message.contains("USAGE"));
    assert_eq!(err.exit_code, 2);
    assert!(run(&args(&["frobnicate"]))
        .unwrap_err()
        .message
        .contains("unknown"));
}

#[test]
fn gen_analyze_solve_condest_roundtrip() {
    let path = tmp("roundtrip");
    let out = run(&args(&["gen", "orsreg1", &path, "--reduced"])).unwrap();
    assert!(out.contains("wrote"), "{out}");

    let out = run(&args(&["analyze", &path])).unwrap();
    assert!(out.contains("supernodes"), "{out}");
    assert!(out.contains("task graph"), "{out}");

    let out = run(&args(&["solve", &path])).unwrap();
    assert!(out.contains("scaled residual"), "{out}");
    assert!(!out.contains("WARNING"), "{out}");

    let out = run(&args(&["solve", &path, "--threads", "2", "--dynamic"])).unwrap();
    assert!(out.contains("scaled residual"), "{out}");

    let out = run(&args(&["solve", &path, "--transpose", "--equilibrate"])).unwrap();
    assert!(out.contains("scaled residual"), "{out}");

    let out = run(&args(&["solve", &path, "--refine", "--no-postorder"])).unwrap();
    assert!(out.contains("scaled residual"), "{out}");

    let out = run(&args(&["condest", &path])).unwrap();
    assert!(out.contains("cond_1"), "{out}");

    let _ = std::fs::remove_file(&path);
}

/// `solve` reports the words the one-shot factorization holds — those of
/// the in-block structure it ran on — next to the static structure's, with
/// the static structure's padding.
#[test]
fn factor_storage_line_prints_held_and_static_words() {
    use parsplu::core::{Options, SparseLu};
    use parsplu::matgen::{paper_matrix, Scale};
    let path = tmp("storage");
    run(&args(&["gen", "orsreg1", &path, "--reduced"])).unwrap();
    let a = paper_matrix("orsreg1", Scale::Reduced).unwrap();
    for (flags, amalgamation) in [(&[][..], true), (&["--no-amalgamation"][..], false)] {
        let out = run(&args(&[&["solve", &path][..], flags].concat())).unwrap();
        let line = out.lines().find(|l| l.starts_with("factor storage"));
        let opts = Options {
            amalgamation: amalgamation.then(Default::default),
            ..Options::default()
        };
        let st = SparseLu::factor(&a, &opts).unwrap().storage();
        assert!(st.words < st.static_words, "{st:?}");
        assert_eq!(st.static_words == st.structural, !amalgamation, "{st:?}");
        let want = format!(
            "factor storage    : {} words held of {} static ({:.1}% padding)",
            st.words,
            st.static_words,
            100.0 * st.padding_fraction
        );
        assert_eq!(line, Some(&want[..]), "{flags:?}");
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn kernel_choice_is_accepted_and_solution_invariant() {
    let path = tmp("kernels");
    run(&args(&["gen", "saylr4", &path, "--reduced"])).unwrap();
    let solve = |choice: &str| {
        let out = tmp(&format!("kernels_x_{choice}"));
        run(&args(&["solve", &path, "--kernels", choice, "--out", &out])).unwrap();
        let x = std::fs::read_to_string(&out).unwrap();
        let _ = std::fs::remove_file(&out);
        x
    };
    let portable = solve("portable");
    // Bitwise identity of the printed solution under every kernel choice
    // (`simd` is the old spelling of `auto`).
    assert_eq!(portable, solve("simd"));
    assert_eq!(portable, solve("auto"));
    assert!(run(&args(&["solve", &path, "--kernels", "avx9000"]))
        .unwrap_err()
        .message
        .contains("unknown kernel choice"));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn flag_errors_are_reported() {
    let path = tmp("flags");
    run(&args(&["gen", "sherman5", &path, "--reduced"])).unwrap();
    assert!(run(&args(&["solve", &path, "--threads"]))
        .unwrap_err()
        .message
        .contains("needs a value"));
    // Options are checked once, at analysis: an incoherent one is a usage
    // error like a flag error.
    let err = run(&args(&["solve", &path, "--threads", "0"])).unwrap_err();
    assert!(err.message.contains("threads must be at least 1"), "{err}");
    assert_eq!(err.exit_code, 2, "{err}");
    // `--front-threads` went with the threaded fill it configured.
    for unknown in [&["--wat"][..], &["--front-threads", "4"]] {
        let err = run(&args(&[&["solve", &path], unknown].concat())).unwrap_err();
        assert!(err.message.contains("unknown option"), "{err}");
        assert_eq!(err.exit_code, 2, "{err}");
    }
    assert!(run(&args(&["gen", "nosuch", &path]))
        .unwrap_err()
        .message
        .contains("unknown matrix"));
    let _ = std::fs::remove_file(&path);
}

/// The eforest graph is the only one a run executes: `--graph` is an
/// unknown option of the one-shot commands and of serve jobs alike, not a
/// flag accepted and ignored.
#[test]
fn graph_flag_is_refused_as_an_unknown_option() {
    use parsplu::serve::serve_loop;
    use std::io::Cursor;
    use std::sync::Mutex;
    let path = tmp("graph_flag");
    run(&args(&["gen", "sherman3", &path, "--reduced"])).unwrap();
    for kind in ["sstar", "eforest"] {
        let err = run(&args(&["solve", &path, "--graph", kind])).unwrap_err();
        assert!(err.message.contains("unknown option `--graph`"), "{err}");
        assert_eq!(err.exit_code, 2, "{err}");
    }
    let script = format!("analyze s {path} --graph sstar\nanalyze s {path}\n");
    let writer = Mutex::new(Vec::new());
    assert_eq!(
        serve_loop(workers(1), Cursor::new(script), &writer, None).unwrap(),
        2
    );
    let out = String::from_utf8(writer.into_inner().unwrap()).unwrap();
    let lines: Vec<&str> = out.lines().filter(|l| l.starts_with('{')).collect();
    assert_eq!(lines.len(), 2, "{out}");
    assert!(lines[0].contains(r#""status":"error""#), "{}", lines[0]);
    assert!(lines[0].contains(r#""exit_code":2"#), "{}", lines[0]);
    assert!(
        lines[0].contains("unknown option `--graph`"),
        "{}",
        lines[0]
    );
    assert!(lines[1].contains(r#""status":"ok""#), "{}", lines[1]);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn solve_with_rhs_and_out_files() {
    let path = tmp("rhsout");
    run(&args(&["gen", "sherman3", &path, "--reduced"])).unwrap();
    // Build an RHS file of the right length by reading the matrix header.
    let n = {
        let text = std::fs::read_to_string(&path).unwrap();
        let size_line = text.lines().nth(1).unwrap();
        size_line
            .split_whitespace()
            .next()
            .unwrap()
            .parse::<usize>()
            .unwrap()
    };
    let rhs_path = format!("{path}.rhs");
    let out_path = format!("{path}.x");
    let rhs_text: String = (0..n)
        .map(|i| format!("{}\n", (i % 5) as f64 - 2.0))
        .collect();
    std::fs::write(&rhs_path, &rhs_text).unwrap();
    let out = run(&args(&[
        "solve", &path, "--rhs", &rhs_path, "--out", &out_path,
    ]))
    .unwrap();
    assert!(out.contains("wrote solution"), "{out}");
    assert!(out.contains("determinant"), "{out}");
    assert!(out.contains("growth factor"), "{out}");
    let x: Vec<f64> = std::fs::read_to_string(&out_path)
        .unwrap()
        .lines()
        .map(|l| l.parse().unwrap())
        .collect();
    assert_eq!(x.len(), n);
    // A NaN in the right-hand side poisons the solution; the residual line
    // must say so instead of reporting a finite number.
    std::fs::write(&rhs_path, rhs_text.replacen("-2\n", "NaN\n", 1)).unwrap();
    let out = run(&args(&["solve", &path, "--rhs", &rhs_path])).unwrap();
    assert!(out.contains("scaled residual   : NaN"), "{out}");
    // Wrong-length RHS must error.
    std::fs::write(&rhs_path, "1.0\n2.0\n").unwrap();
    assert!(run(&args(&["solve", &path, "--rhs", &rhs_path]))
        .unwrap_err()
        .message
        .contains("expected"));
    for f in [path, rhs_path, out_path] {
        let _ = std::fs::remove_file(f);
    }
}

#[test]
fn analyze_writes_dot_files() {
    let path = tmp("dot");
    run(&args(&["gen", "orsreg1", &path, "--reduced"])).unwrap();
    let df = format!("{path}.forest.dot");
    let dg = format!("{path}.graph.dot");
    let out = run(&args(&[
        "analyze",
        &path,
        "--dot-forest",
        &df,
        "--dot-graph",
        &dg,
    ]))
    .unwrap();
    assert!(out.contains("wrote block eforest DOT"));
    let forest = std::fs::read_to_string(&df).unwrap();
    assert!(forest.starts_with("digraph"));
    let graph = std::fs::read_to_string(&dg).unwrap();
    assert!(graph.contains("\"F(0)\""));
    for f in [path, df, dg] {
        let _ = std::fs::remove_file(f);
    }
}

#[test]
fn breakdown_policy_through_the_cli() {
    // A matrix whose column 5 has an exactly-zero diagonal and no entries
    // above it: diagonal-rule pivoting in natural order must break down
    // there, and the two policies must respond per the documented exit
    // codes.
    let path = tmp("breakdown");
    let a = parsplu::matgen::tiny_pivot_matrix(16, &[5], 0.0, 3);
    parsplu::sparse::io::write_matrix_market(&a, std::path::Path::new(&path)).unwrap();
    let base = [
        "solve",
        path.as_str(),
        "--rule",
        "diagonal",
        "--ordering",
        "natural",
        "--no-postorder",
    ];

    // Default policy (and explicit `--breakdown error`): numerical failure,
    // exit code 3, naming the breakdown column.
    for extra in [&[][..], &["--breakdown", "error"][..]] {
        let mut cmd = base.to_vec();
        cmd.extend_from_slice(extra);
        let err = run(&args(&cmd)).unwrap_err();
        assert_eq!(err.exit_code, 3, "{err}");
        assert!(err.message.contains("column 5"), "{err}");
    }

    // Perturbation policy: completes, reports the perturbation, and the
    // auto-refined solve reaches a small residual (no WARNING line).
    for policy in ["perturb", "perturb:1e-6"] {
        let mut cmd = base.to_vec();
        cmd.extend_from_slice(&["--breakdown", policy]);
        let out = run(&args(&cmd)).unwrap();
        assert!(out.contains("pivot perturbations: 1 column(s)"), "{out}");
        assert!(out.contains("condest (perturbed)"), "{out}");
        assert!(!out.contains("WARNING"), "{policy}: {out}");
    }

    // Flag-parsing errors stay usage errors (exit code 2).
    for bad in ["bogus", "perturb:-1.0", "perturb:x"] {
        let err = run(&args(&["solve", &path, "--breakdown", bad])).unwrap_err();
        assert_eq!(err.exit_code, 2, "{bad}: {err}");
    }
    // Partial pivoting sails through the same matrix without perturbing.
    let out = run(&args(&["solve", &path, "--breakdown", "perturb"])).unwrap();
    assert!(!out.contains("pivot perturbations"), "{out}");
    let _ = std::fs::remove_file(&path);

    // [[1, 1, 0], [1, 1, 1], [0, 1, 1]] perturbs column 1 under the
    // diagonal rule. Every solve variant refines, through `parsplu solve`
    // and the daemon alike, to machine precision and to the same bits.
    use parsplu::serve::serve_loop;
    use parsplu::serve::solution_hash;
    use std::io::Cursor;
    use std::sync::Mutex;
    let three = tmp("breakdown_three");
    let entries = "1 1 1\n2 1 1\n1 2 1\n2 2 1\n3 2 1\n2 3 1\n3 3 1\n";
    let text = format!("%%MatrixMarket matrix coordinate real general\n3 3 7\n{entries}");
    std::fs::write(&three, text).unwrap();
    let out_path = format!("{three}.x");
    let opts = "--ordering natural --no-postorder --rule diagonal --breakdown perturb";
    let variants = ["", "--refine", "--transpose", "--transpose --refine"];
    let mut script = format!("analyze t {three} {opts}\nfactor t {three}\n");
    let mut hashes = Vec::new();
    for v in variants {
        let cmd = format!("solve {three} {opts} {v} --out {out_path}");
        let out = run(&args(&cmd.split_whitespace().collect::<Vec<_>>())).unwrap();
        let resid: f64 = (out.lines())
            .find_map(|l| l.strip_prefix("scaled residual   :"))
            .and_then(|r| r.trim().parse().ok())
            .expect("solve prints its residual");
        assert!(resid <= 1e-15, "`{v}`: {out}");
        let x: Vec<f64> = (std::fs::read_to_string(&out_path).unwrap().lines())
            .map(|l| l.parse().unwrap())
            .collect();
        hashes.push(format!("{:#018x}", solution_hash(&x)));
        script += &format!("solve t {v}\n");
    }
    let writer = Mutex::new(Vec::new());
    serve_loop(workers(1), Cursor::new(script), &writer, None).unwrap();
    let out = String::from_utf8(writer.into_inner().unwrap()).unwrap();
    let solves: Vec<&str> = (out.lines())
        .filter(|l| l.contains(r#""op":"solve""#))
        .collect();
    assert_eq!(solves.len(), variants.len(), "{out}");
    for ((l, hash), v) in solves.iter().zip(&hashes).zip(variants) {
        let reply = splu_bench::json::parse(l).unwrap();
        let resid = reply.get("residual").and_then(|r| r.as_num());
        assert!(resid.is_some_and(|r| r <= 1e-15), "`{v}`: {l}");
        let x_hash = reply.get("x_hash").and_then(|h| h.as_str());
        assert_eq!(x_hash, Some(hash.as_str()), "`{v}`: {l}");
    }
    let _ = std::fs::remove_file(&three);
    let _ = std::fs::remove_file(&out_path);
}

#[test]
fn structural_singularity_exits_with_code_3() {
    let path = tmp("singular");
    // Column 2 of 2 is empty: no transversal exists.
    std::fs::write(
        &path,
        "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n2 1 1.0\n",
    )
    .unwrap();
    let err = run(&args(&["solve", &path])).unwrap_err();
    assert_eq!(err.exit_code, 3, "{err}");
    assert!(err.message.contains("singular"), "{err}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn malformed_matrix_file_exits_with_code_2_and_names_the_line() {
    let path = tmp("malformed");
    std::fs::write(
        &path,
        "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 nan\n2 2 1.0\n",
    )
    .unwrap();
    let err = run(&args(&["solve", &path])).unwrap_err();
    assert_eq!(err.exit_code, 2, "{err}");
    assert!(
        err.message.contains("line 3") && err.message.contains("non-finite"),
        "{err}"
    );
    // A size line that declares more columns than entries is refused
    // before the entries are read: structurally singular, naming line 2.
    std::fs::write(
        &path,
        "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 nan\n",
    )
    .unwrap();
    let err = run(&args(&["solve", &path])).unwrap_err();
    assert_eq!(err.exit_code, 3, "{err}");
    assert!(err.message.contains("line 2: size line `2 2 1`"), "{err}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn missing_file_is_an_error() {
    let err = run(&args(&["analyze", "/nonexistent/x.mtx"])).unwrap_err();
    assert!(err.message.contains("reading"), "{err}");
    assert_eq!(err.exit_code, 2);
}

#[test]
fn all_orderings_work_through_the_cli() {
    let path = tmp("ord");
    run(&args(&["gen", "saylr4", &path, "--reduced"])).unwrap();
    let solve = |ord: &str| {
        let out = run(&args(&["solve", &path, "--ordering", ord])).unwrap();
        assert!(out.contains("scaled residual"), "{ord}: {out}");
        // The storage line follows the permutation; the timings vary.
        let storage = out.lines().find(|l| l.starts_with("factor storage"));
        storage.expect("storage is reported").to_string()
    };
    // `md` and `mindeg-multi` (an ordering older daemons journaled) are
    // spellings of `mindeg`.
    let mindeg = solve("mindeg");
    assert_eq!(mindeg, solve("md"));
    assert_eq!(mindeg, solve("mindeg-multi"));
    assert_ne!(mindeg, solve("natural"));
    solve("rcm");
    // Unknown orderings stay usage errors.
    let err = run(&args(&["solve", &path, "--ordering", "bogus"])).unwrap_err();
    assert_eq!(err.exit_code, 2, "{err}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn pivot_rules_through_the_cli() {
    let path = tmp("rule");
    run(&args(&["gen", "orsreg1", &path, "--reduced"])).unwrap();
    for rule in ["partial", "threshold:0.1", "diagonal"] {
        let out = run(&args(&["solve", &path, "--rule", rule])).unwrap();
        assert!(out.contains("scaled residual"), "{rule}: {out}");
        assert!(!out.contains("WARNING"), "{rule}: {out}");
    }
    assert!(run(&args(&["solve", &path, "--rule", "bogus"]))
        .unwrap_err()
        .message
        .contains("unknown pivot rule"));
    assert!(run(&args(&["solve", &path, "--rule", "threshold:7"]))
        .unwrap_err()
        .message
        .contains("threshold must be"));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn time_limit_and_watchdog_flags_through_the_cli() {
    let path = tmp("budget");
    run(&args(&["gen", "sherman5", &path, "--reduced"])).unwrap();
    // Generous limits leave a healthy solve alone.
    let out = run(&args(&[
        "solve",
        &path,
        "--threads",
        "2",
        "--time-limit",
        "600",
        "--watchdog",
        "5000",
    ]))
    .unwrap();
    assert!(out.contains("scaled residual"), "{out}");
    // A microscopic limit trips deterministically with exit code 5.
    let err = run(&args(&["solve", &path, "--time-limit", "0.000001"])).unwrap_err();
    assert_eq!(err.exit_code, 5, "{err}");
    assert!(err.message.contains("deadline exceeded"), "{err}");
    // Bad values are usage errors (code 2).
    for bad in [
        &["solve", &path, "--time-limit", "0"][..],
        &["solve", &path, "--time-limit", "abc"][..],
        &["solve", &path, "--watchdog", "0"][..],
        &["solve", &path, "--time-limit"][..],
    ] {
        let err = run(&args(bad)).unwrap_err();
        assert_eq!(err.exit_code, 2, "{bad:?}: {err}");
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn pre_cancelled_token_exits_with_code_130() {
    use parsplu::core::CancelToken;
    let path = tmp("cancel");
    run(&args(&["gen", "sherman3", &path, "--reduced"])).unwrap();
    let token = CancelToken::new();
    token.cancel();
    let err =
        parsplu::cli::run_with_token(&args(&["solve", &path, "--threads", "2"]), Some(&token))
            .unwrap_err();
    assert_eq!(err.exit_code, 130, "{err}");
    assert!(err.message.contains("cancelled"), "{err}");
    // The same args without the token solve fine — the token is the only
    // thing run_with_token adds.
    let out =
        parsplu::cli::run_with_token(&args(&["solve", &path, "--threads", "2"]), None).unwrap();
    assert!(out.contains("scaled residual"), "{out}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn report_and_trace_flags_write_validating_artifacts() {
    use splu_bench::json::{parse, validate_chrome_trace, validate_run_report};
    let path = tmp("report");
    run(&args(&["gen", "sherman5", &path, "--reduced"])).unwrap();
    let report_path = format!("{path}.report.json");
    let trace_path = format!("{path}.trace.json");

    let out = run(&args(&[
        "solve",
        &path,
        "--threads",
        "2",
        "--report",
        &report_path,
        "--trace",
        &trace_path,
    ]))
    .unwrap();
    assert!(out.contains("wrote run report"), "{out}");
    assert!(out.contains("wrote pipeline trace"), "{out}");

    let report = parse(&std::fs::read_to_string(&report_path).unwrap()).unwrap();
    validate_run_report(&report).expect("solve report schema-validates");
    // The matrix name is the file stem; the solve phase is present only
    // when the solve actually ran.
    assert!(report
        .get("matrix")
        .and_then(|m| m.get("name"))
        .and_then(|n| n.as_str())
        .is_some());
    assert!(report
        .get("phases_s")
        .and_then(|p| p.get("solve"))
        .is_some());
    assert_eq!(
        report
            .get("status")
            .and_then(|s| s.get("kind"))
            .and_then(|k| k.as_str()),
        Some("ok")
    );

    let trace = parse(&std::fs::read_to_string(&trace_path).unwrap()).unwrap();
    validate_chrome_trace(&trace).expect("pipeline trace schema-validates");

    // `analyze --report` works too and records no numeric phase.
    let out = run(&args(&["analyze", &path, "--report", &report_path])).unwrap();
    assert!(out.contains("wrote run report"), "{out}");
    let report = parse(&std::fs::read_to_string(&report_path).unwrap()).unwrap();
    validate_run_report(&report).expect("analyze report schema-validates");
    assert!(report
        .get("phases_s")
        .and_then(|p| p.get("numeric"))
        .is_none());

    for f in [&path, &report_path, &trace_path] {
        let _ = std::fs::remove_file(f);
    }
}

#[test]
fn failed_solves_still_write_a_report() {
    use splu_bench::json::{parse, validate_run_report};
    let path = tmp("report_singular");
    std::fs::write(
        &path,
        "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n2 1 1.0\n",
    )
    .unwrap();
    let report_path = format!("{path}.report.json");
    let err = run(&args(&["solve", &path, "--report", &report_path])).unwrap_err();
    assert_eq!(err.exit_code, 3, "{err}");
    let report = parse(&std::fs::read_to_string(&report_path).unwrap()).unwrap();
    validate_run_report(&report).expect("failure report schema-validates");
    assert_eq!(
        report
            .get("status")
            .and_then(|s| s.get("kind"))
            .and_then(|k| k.as_str()),
        Some("singular")
    );
    for f in [&path, &report_path] {
        let _ = std::fs::remove_file(f);
    }
}

#[test]
fn serve_mode_runs_a_session_script_in_process() {
    use parsplu::serve::serve_loop;
    use std::io::Cursor;
    use std::sync::Mutex;
    let path = tmp("serve_script");
    run(&args(&["gen", "goodwin", &path, "--reduced"])).unwrap();
    let script = format!(
        "# a comment and a blank line are skipped\n\n\
         analyze g {path}\n\
         factor g {path}\n\
         refactor g {path}\n\
         solve g\n\
         solve g --refine\n\
         quit\n\
         factor g {path}\n"
    );
    let writer = Mutex::new(Vec::new());
    let n = serve_loop(workers(3), Cursor::new(script), &writer, None).unwrap();
    assert_eq!(n, 5, "jobs after `quit` are not dispatched");
    let out = String::from_utf8(writer.into_inner().unwrap()).unwrap();
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 5, "one response line per job:\n{out}");
    for l in &lines {
        let v = splu_bench::json::parse(l).expect("each response is one-line JSON");
        assert_eq!(
            v.get("status").and_then(|s| s.as_str()),
            Some("ok"),
            "job failed: {l}"
        );
    }
    // analyze/factor/refactor responses embed a schema-valid run report.
    let mut reports = 0;
    for l in &lines {
        let v = splu_bench::json::parse(l).unwrap();
        if let Some(r) = v.get("report") {
            splu_bench::json::validate_run_report(r).expect("embedded report validates");
            reports += 1;
        }
    }
    assert_eq!(reports, 3, "analyze+factor+refactor embed reports:\n{out}");
    // solve responses carry a small residual.
    let solves: Vec<&&str> = lines
        .iter()
        .filter(|l| l.contains(r#""op":"solve""#))
        .collect();
    assert_eq!(solves.len(), 2);
    for l in solves {
        let v = splu_bench::json::parse(l).unwrap();
        let resid = v
            .get("residual")
            .and_then(|r| r.as_num())
            .expect("solve responses report the residual");
        assert!(resid < 1e-8, "{l}");
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn serve_reports_a_residual_that_is_not_a_number_as_null() {
    use parsplu::serve::serve_loop;
    use std::io::Cursor;
    use std::sync::Mutex;
    let path = tmp("serve_nan");
    run(&args(&["gen", "sherman3", &path, "--reduced"])).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    let n: usize = text
        .lines()
        .nth(1)
        .unwrap()
        .split_whitespace()
        .next()
        .unwrap()
        .parse()
        .unwrap();
    let rhs_path = format!("{path}.rhs");
    let rhs: String = (0..n)
        .map(|i| if i == 3 { "NaN\n" } else { "1.0\n" })
        .collect();
    std::fs::write(&rhs_path, rhs).unwrap();
    let script = format!("analyze s {path}\nfactor s {path}\nsolve s --rhs {rhs_path}\n");
    let writer = Mutex::new(Vec::new());
    serve_loop(workers(1), Cursor::new(script), &writer, None).unwrap();
    let out = String::from_utf8(writer.into_inner().unwrap()).unwrap();
    let solve = out
        .lines()
        .find(|l| l.contains(r#""op":"solve""#))
        .expect("solve reply");
    let v = splu_bench::json::parse(solve).expect("the reply stays valid JSON");
    assert_eq!(
        v.get("status").and_then(|s| s.as_str()),
        Some("ok"),
        "{solve}"
    );
    assert_eq!(
        v.get("residual"),
        Some(&splu_bench::json::Json::Null),
        "{solve}"
    );
    for f in [path, rhs_path] {
        let _ = std::fs::remove_file(f);
    }
}

#[test]
fn serve_mode_reports_structured_errors_and_stays_alive() {
    use parsplu::serve::serve_loop;
    use std::io::Cursor;
    use std::sync::Mutex;
    let good = tmp("serve_good");
    let other = tmp("serve_other");
    run(&args(&["gen", "sherman3", &good, "--reduced"])).unwrap();
    run(&args(&["gen", "orsreg1", &other, "--reduced"])).unwrap();
    let script = format!(
        "analyze s {good}\n\
         refactor s {other}\n\
         solve nosuch\n\
         solve s\n\
         refactor s {good}\n\
         solve s\n"
    );
    let writer = Mutex::new(Vec::new());
    // EOF without `quit` also ends the loop cleanly.
    let n = serve_loop(workers(2), Cursor::new(script), &writer, None).unwrap();
    assert_eq!(n, 6);
    let out = String::from_utf8(writer.into_inner().unwrap()).unwrap();
    // The pattern mismatch is a structured error naming both hashes...
    let mismatch = out
        .lines()
        .find(|l| l.contains("pattern"))
        .expect("mismatch response present");
    assert!(mismatch.contains(r#""status":"error""#), "{mismatch}");
    assert!(mismatch.contains(r#""exit_code":2"#), "{mismatch}");
    // ...the unknown session is rejected...
    assert!(out.contains("unknown session"), "{out}");
    // ...the first solve (before any values) fails, and after the good
    // refactor the session serves solves again.
    let oks = out
        .lines()
        .filter(|l| l.contains(r#""status":"ok""#))
        .count();
    assert_eq!(oks, 3, "analyze + refactor + final solve succeed:\n{out}");
    for f in [&good, &other] {
        let _ = std::fs::remove_file(f);
    }
}

#[test]
fn serve_mode_parallel_sessions_make_progress() {
    use parsplu::serve::serve_loop;
    use std::io::Cursor;
    use std::sync::Mutex;
    let p1 = tmp("serve_p1");
    let p2 = tmp("serve_p2");
    run(&args(&["gen", "sherman5", &p1, "--reduced"])).unwrap();
    run(&args(&["gen", "saylr4", &p2, "--reduced"])).unwrap();
    let mut script = String::new();
    for (name, path) in [("a", &p1), ("b", &p2)] {
        script.push_str(&format!("analyze {name} {path} --threads 2\n"));
    }
    for _ in 0..3 {
        for (name, path) in [("a", &p1), ("b", &p2)] {
            script.push_str(&format!("refactor {name} {path}\n"));
            script.push_str(&format!("solve {name}\n"));
        }
    }
    let writer = Mutex::new(Vec::new());
    let n = serve_loop(workers(4), Cursor::new(script), &writer, None).unwrap();
    assert_eq!(n, 14);
    let out = String::from_utf8(writer.into_inner().unwrap()).unwrap();
    assert_eq!(out.lines().count(), 14, "{out}");
    for l in out.lines() {
        assert!(l.contains(r#""status":"ok""#), "unexpected failure: {l}");
    }
    for f in [&p1, &p2] {
        let _ = std::fs::remove_file(f);
    }
}

#[test]
fn serve_flag_errors() {
    let err = run(&args(&["serve", "--workers", "0"])).unwrap_err();
    assert_eq!(err.exit_code, 2);
    assert!(err.message.contains("positive"), "{err}");
    let err = run(&args(&["serve", "--frobnicate"])).unwrap_err();
    assert!(err.message.contains("unknown serve option"), "{err}");
}
