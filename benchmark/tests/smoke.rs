//! Runs the whole benchmark at smoke scale and checks that it reports
//! exactly the workloads and metrics `BENCHMARK.json` lists, so the names
//! in the contract file and in the harness cannot drift apart.

use splu_client::{parse, Json};
use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

fn names(list: Option<&Json>) -> BTreeSet<String> {
    let Some(Json::Arr(items)) = list else {
        panic!("BENCHMARK.json: expected a list");
    };
    items
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

fn keys(obj: Option<&Json>) -> BTreeSet<String> {
    let Some(Json::Obj(map)) = obj else {
        panic!("results: expected an object");
    };
    map.keys().cloned().collect()
}

#[test]
fn smoke_run_reports_the_contracts_names() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap();
    let contract = parse(&std::fs::read_to_string(root.join("BENCHMARK.json")).unwrap()).unwrap();
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-results.json");

    let status = Command::new(env!("CARGO_BIN_EXE_parsplu-benchmark"))
        .args(["all", "--smoke", "--seed", "3", "--out"])
        .arg(&out)
        .status()
        .expect("running the harness");
    assert!(
        status.success(),
        "smoke run failed or an op failed its check"
    );

    let results = parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
    let provenance = results.get("provenance").expect("provenance envelope");
    for field in [
        "commit",
        "dirty",
        "nproc",
        "cpu_model",
        "cpu_flags",
        "rustc",
    ] {
        assert!(provenance.get(field).is_some(), "provenance lacks {field}");
    }
    let workloads = results.get("workloads");
    assert_eq!(keys(workloads), names(contract.get("workloads")));
    for w in keys(workloads) {
        let entry = workloads.unwrap().get(&w).unwrap();
        assert_eq!(entry.get("failed").and_then(Json::as_num), Some(0.0), "{w}");
        assert_eq!(
            keys(entry.get("end_to_end")),
            names(contract.get("end_to_end")),
            "{w}: end-to-end metric names"
        );
        assert_eq!(
            keys(entry.get("per_layer")),
            names(contract.get("per_layer")),
            "{w}: per-layer metric names"
        );
    }
}
