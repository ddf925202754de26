//! Regression comparison of two benchmark artifacts (`bench diff`).
//!
//! Takes a **baseline** and a **current** `BENCH_*.json` document of the
//! same kind (factor / sched / kernels / phases), matches records by their
//! identifying key fields, and compares each numeric metric under a
//! per-metric threshold: a *regression* is a change past the threshold in
//! the metric's bad direction (slower for times, lower for throughputs).
//! Records present in only one document are reported but are **not**
//! regressions — CI diffs a reduced-scale smoke artifact against the
//! committed full-scale one, so the intersection is what's comparable.
//!
//! The `bench_diff` binary wraps this module and exits nonzero when
//! [`DiffReport::has_regressions`] — the bench regression gate.

use crate::json::{
    validate_bench_factor, validate_bench_kernels, validate_bench_phases, validate_bench_sched,
    validate_bench_service, Json, PHASE_NAMES,
};

/// Which benchmark artifact a document is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArtifactKind {
    /// `BENCH_factor.json` — end-to-end factorization medians.
    Factor,
    /// `BENCH_sched.json` — scheduler telemetry and tracing overhead.
    Sched,
    /// `BENCH_kernels.json` — dense kernel micro-benchmarks.
    Kernels,
    /// `BENCH_phases.json` — per-phase pipeline walls.
    Phases,
    /// `BENCH_service.json` — session refactor speedups and serve-mode
    /// throughput.
    Service,
}

impl ArtifactKind {
    /// Guesses the kind from a file name (`BENCH_factor.json` → Factor).
    pub fn from_name(name: &str) -> Option<ArtifactKind> {
        let lower = name.to_ascii_lowercase();
        for (tag, kind) in [
            ("factor", ArtifactKind::Factor),
            ("sched", ArtifactKind::Sched),
            ("kernels", ArtifactKind::Kernels),
            ("phases", ArtifactKind::Phases),
            ("service", ArtifactKind::Service),
        ] {
            if lower.contains(tag) {
                return Some(kind);
            }
        }
        None
    }

    /// Parses a `--kind` argument.
    pub fn from_arg(arg: &str) -> Option<ArtifactKind> {
        match arg {
            "factor" => Some(ArtifactKind::Factor),
            "sched" => Some(ArtifactKind::Sched),
            "kernels" => Some(ArtifactKind::Kernels),
            "phases" => Some(ArtifactKind::Phases),
            "service" => Some(ArtifactKind::Service),
            _ => None,
        }
    }

    /// Schema-validates `doc` as this kind of artifact.
    pub fn validate(self, doc: &Json) -> Result<usize, String> {
        match self {
            ArtifactKind::Factor => validate_bench_factor(doc),
            ArtifactKind::Sched => validate_bench_sched(doc),
            ArtifactKind::Kernels => validate_bench_kernels(doc),
            ArtifactKind::Phases => validate_bench_phases(doc),
            ArtifactKind::Service => validate_bench_service(doc),
        }
    }

    /// The fields whose rendered values identify a record of this kind.
    fn key_fields(self) -> &'static [&'static str] {
        match self {
            ArtifactKind::Factor => &["matrix", "mapping", "kernel", "threads", "kind"],
            ArtifactKind::Sched => &["matrix", "mode", "threads", "kind"],
            ArtifactKind::Kernels => &["op", "shape", "kernel"],
            ArtifactKind::Phases => &["matrix", "front_threads", "kind"],
            ArtifactKind::Service => &["matrix", "threads", "kind"],
        }
    }

    /// The metrics compared for a record of this kind. Phase metrics are
    /// nested under the record's `phases` object as `phases.<name>`.
    fn metrics(self) -> Vec<MetricSpec> {
        match self {
            ArtifactKind::Factor => vec![MetricSpec::time("median_seconds")],
            ArtifactKind::Sched => vec![
                MetricSpec::time("median_off_s"),
                MetricSpec::time("median_traced_s"),
                MetricSpec::time("wall_s"),
                MetricSpec::time("makespan_s"),
                // Overhead is already a percentage: compare in absolute
                // points, not relative to a near-zero baseline.
                MetricSpec {
                    name: "overhead_pct",
                    lower_is_better: true,
                    abs_floor: 2.0,
                    absolute_only: true,
                },
            ],
            ArtifactKind::Kernels => vec![
                MetricSpec {
                    name: "gflops",
                    lower_is_better: false,
                    abs_floor: 0.05,
                    absolute_only: false,
                },
                MetricSpec::time("seconds_per_call"),
            ],
            // The walls, and the structure they were measured on: a
            // permutation that got worse shows here before it shows as time.
            ArtifactKind::Phases => PHASE_NAMES
                .iter()
                .map(|p| MetricSpec::nested_time(p))
                .chain(["fill_nnz", "model_flops"].map(MetricSpec::count))
                .collect(),
            // `speedup` records carry the timing metrics, `serve` records
            // the throughput; the missing ones are skipped per record.
            ArtifactKind::Service => vec![
                MetricSpec::time("factor_s"),
                MetricSpec::time("refactor_s"),
                MetricSpec {
                    name: "speedup",
                    lower_is_better: false,
                    abs_floor: 0.05,
                    absolute_only: false,
                },
                MetricSpec {
                    name: "jobs_per_sec",
                    lower_is_better: false,
                    abs_floor: 0.05,
                    absolute_only: false,
                },
            ],
        }
    }
}

/// One compared metric: where it lives in the record and which direction
/// is a regression.
#[derive(Debug, Clone)]
pub struct MetricSpec {
    /// Field name; `phases.<name>` reaches into the nested phases object.
    pub name: &'static str,
    /// `true` when growth is the bad direction (times); `false` when
    /// shrinkage is (throughputs).
    pub lower_is_better: bool,
    /// Absolute change below which a relative excursion is noise (seconds
    /// for times, units of the metric otherwise).
    pub abs_floor: f64,
    /// Compare by absolute difference only, ignoring the relative
    /// threshold (for metrics that are already ratios/percentages).
    pub absolute_only: bool,
}

impl MetricSpec {
    fn time(name: &'static str) -> MetricSpec {
        MetricSpec {
            name,
            lower_is_better: true,
            abs_floor: 1e-4,
            absolute_only: false,
        }
    }

    /// A structural count (deterministic: no noise floor).
    fn count(name: &'static str) -> MetricSpec {
        MetricSpec {
            name,
            lower_is_better: true,
            abs_floor: 0.0,
            absolute_only: false,
        }
    }

    fn nested_time(phase: &'static str) -> MetricSpec {
        // Leak-free: the nine names are 'static via a lookup table.
        let name = PHASE_FIELD_NAMES[PHASE_NAMES
            .iter()
            .position(|p| *p == phase)
            .expect("phase names are canonical")];
        MetricSpec {
            name,
            lower_is_better: true,
            abs_floor: 1e-3,
            absolute_only: false,
        }
    }
}

/// `phases.<name>` field paths, parallel to [`PHASE_NAMES`].
const PHASE_FIELD_NAMES: [&str; 9] = [
    "phases.parse",
    "phases.scale_transversal",
    "phases.ordering",
    "phases.symbolic_fill",
    "phases.eforest_postorder",
    "phases.supernode_partition",
    "phases.graph_build",
    "phases.numeric",
    "phases.solve",
];

/// Thresholds for a diff run.
#[derive(Debug, Clone)]
pub struct DiffOptions {
    /// Default relative threshold, percent: a metric regressed when it
    /// moved more than this fraction in the bad direction (and past the
    /// metric's absolute floor).
    pub rel_pct: f64,
    /// Per-metric threshold overrides, `(metric name, value)`. For
    /// relative metrics the value is a percent; for `absolute_only`
    /// metrics (already ratios/percentages, e.g. `overhead_pct`) it
    /// replaces the absolute floor, in the metric's own units.
    pub overrides: Vec<(String, f64)>,
}

impl Default for DiffOptions {
    fn default() -> Self {
        DiffOptions {
            rel_pct: 10.0,
            overrides: Vec::new(),
        }
    }
}

impl DiffOptions {
    fn override_for(&self, metric: &str) -> Option<f64> {
        self.overrides
            .iter()
            .rev()
            .find(|(name, _)| name == metric)
            .map(|(_, pct)| *pct)
    }

    fn threshold_for(&self, metric: &str) -> f64 {
        self.override_for(metric).unwrap_or(self.rel_pct)
    }
}

/// One metric's comparison on one matched record.
#[derive(Debug, Clone, PartialEq)]
pub struct Delta {
    /// Rendered record key (`matrix=goodwin threads=8 ...`).
    pub key: String,
    /// Metric name.
    pub metric: String,
    /// Baseline value.
    pub baseline: f64,
    /// Current value.
    pub current: f64,
    /// Signed relative change, percent (positive = current larger).
    pub change_pct: f64,
    /// Whether this delta crosses the regression threshold in the bad
    /// direction.
    pub regressed: bool,
}

/// The full comparison result.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    /// Every compared metric, matched-record order.
    pub deltas: Vec<Delta>,
    /// Record keys present in the baseline only (informational).
    pub missing: Vec<String>,
    /// Record keys present in the current document only (informational).
    pub added: Vec<String>,
    /// Matched record count.
    pub matched: usize,
}

impl DiffReport {
    /// Whether any metric regressed past its threshold.
    pub fn has_regressions(&self) -> bool {
        self.deltas.iter().any(|d| d.regressed)
    }

    /// The regressed deltas only.
    pub fn regressions(&self) -> Vec<&Delta> {
        self.deltas.iter().filter(|d| d.regressed).collect()
    }
}

fn render_key(rec: &Json, fields: &[&str]) -> String {
    let mut out = String::new();
    for f in fields {
        if !out.is_empty() {
            out.push(' ');
        }
        let v = match rec.get(f) {
            Some(Json::Str(s)) => s.clone(),
            Some(Json::Num(x)) => format!("{x}"),
            _ => "?".to_string(),
        };
        out.push_str(&format!("{f}={v}"));
    }
    out
}

fn lookup(rec: &Json, path: &str) -> Option<f64> {
    let mut cur = rec;
    for part in path.split('.') {
        cur = cur.get(part)?;
    }
    cur.as_num()
}

/// Compares `current` against `baseline` (both already schema-valid for
/// `kind`). Records are matched by the kind's key fields; each of the
/// kind's metrics present in **both** records becomes a [`Delta`].
pub fn diff_artifacts(
    kind: ArtifactKind,
    baseline: &Json,
    current: &Json,
    opts: &DiffOptions,
) -> Result<DiffReport, String> {
    let base_records = baseline.as_arr().ok_or("baseline: not an array")?;
    let cur_records = current.as_arr().ok_or("current: not an array")?;
    let fields = kind.key_fields();
    let metrics = kind.metrics();

    let mut report = DiffReport::default();
    let cur_keyed: Vec<(String, &Json)> = cur_records
        .iter()
        .map(|r| (render_key(r, fields), r))
        .collect();
    let base_keys: Vec<String> = base_records.iter().map(|r| render_key(r, fields)).collect();
    for (key, _) in &cur_keyed {
        if !base_keys.contains(key) {
            report.added.push(key.clone());
        }
    }
    for (b, key) in base_records.iter().zip(&base_keys) {
        let Some((_, c)) = cur_keyed.iter().find(|(k, _)| k == key) else {
            report.missing.push(key.clone());
            continue;
        };
        report.matched += 1;
        for spec in &metrics {
            let (Some(bv), Some(cv)) = (lookup(b, spec.name), lookup(c, spec.name)) else {
                // A metric both sides lack (e.g. makespan_s on measured
                // sched records) is simply not compared.
                continue;
            };
            let change_pct = if bv != 0.0 {
                (cv - bv) / bv.abs() * 100.0
            } else if cv == 0.0 {
                0.0
            } else {
                f64::INFINITY * (cv - bv).signum()
            };
            let bad_move = if spec.lower_is_better {
                cv - bv
            } else {
                bv - cv
            };
            let regressed = if spec.absolute_only {
                // Already a ratio/percentage: an override is an absolute
                // budget in the metric's own units (points), not percent.
                bad_move > opts.override_for(spec.name).unwrap_or(spec.abs_floor)
            } else {
                let rel_pct = opts.threshold_for(spec.name);
                bad_move > spec.abs_floor && bad_move > bv.abs() * rel_pct / 100.0
            };
            report.deltas.push(Delta {
                key: key.clone(),
                metric: spec.name.to_string(),
                baseline: bv,
                current: cv,
                change_pct,
                regressed,
            });
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn factor_doc(median: f64) -> Json {
        parse(&format!(
            r#"[{{"matrix": "m", "threads": 2, "mapping": "static1d", "kind": "measured",
                 "kernel": "portable", "median_seconds": {median}}}]"#
        ))
        .unwrap()
    }

    #[test]
    fn unchanged_artifacts_pass() {
        let a = factor_doc(0.5);
        let report = diff_artifacts(ArtifactKind::Factor, &a, &a, &DiffOptions::default()).unwrap();
        assert_eq!(report.matched, 1);
        assert!(!report.has_regressions());
        assert_eq!(report.deltas.len(), 1);
        assert_eq!(report.deltas[0].change_pct, 0.0);
    }

    #[test]
    fn injected_slowdown_is_a_regression() {
        let base = factor_doc(0.5);
        let slow = factor_doc(0.75); // +50% over a 10% threshold
        let report =
            diff_artifacts(ArtifactKind::Factor, &base, &slow, &DiffOptions::default()).unwrap();
        assert!(report.has_regressions());
        let d = &report.regressions()[0];
        assert_eq!(d.metric, "median_seconds");
        assert!((d.change_pct - 50.0).abs() < 1e-9);
        // A speedup in the same metric is not a regression.
        let fast = factor_doc(0.25);
        let report =
            diff_artifacts(ArtifactKind::Factor, &base, &fast, &DiffOptions::default()).unwrap();
        assert!(!report.has_regressions());
    }

    #[test]
    fn thresholds_gate_regressions() {
        let base = factor_doc(0.50);
        let slight = factor_doc(0.54); // +8%
        let opts = DiffOptions::default(); // 10%
        assert!(!diff_artifacts(ArtifactKind::Factor, &base, &slight, &opts)
            .unwrap()
            .has_regressions());
        let tight = DiffOptions {
            overrides: vec![("median_seconds".to_string(), 5.0)],
            ..DiffOptions::default()
        };
        assert!(diff_artifacts(ArtifactKind::Factor, &base, &slight, &tight)
            .unwrap()
            .has_regressions());
    }

    #[test]
    fn absolute_only_overrides_are_points_budgets() {
        let mk = |overhead: f64| {
            parse(&format!(
                r#"[{{"matrix": "m", "mode": "dynamic", "threads": 8, "kind": "measured",
                     "median_off_s": 0.4, "median_traced_s": 0.41, "overhead_pct": {overhead},
                     "wall_s": 0.4, "tasks_total": 10, "panel_copies": 0,
                     "busy_s": [], "idle_s": [], "steal_s": [], "tasks": [], "steals_in": []}}]"#
            ))
            .unwrap()
        };
        // (diff_artifacts does not re-validate, so the empty per-worker
        // arrays are fine for this fixture.)
        let base = mk(1.0);
        let noisy = mk(8.0); // +7 points: over the default 2.0-point floor
        assert!(
            diff_artifacts(ArtifactKind::Sched, &base, &noisy, &DiffOptions::default())
                .unwrap()
                .has_regressions()
        );
        // A loose points budget (e.g. for reduced-scale smoke runs where
        // overhead is timer-noise-bound) admits the same move.
        let loose = DiffOptions {
            overrides: vec![("overhead_pct".to_string(), 50.0)],
            ..DiffOptions::default()
        };
        assert!(!diff_artifacts(ArtifactKind::Sched, &base, &noisy, &loose)
            .unwrap()
            .has_regressions());
    }

    #[test]
    fn tiny_absolute_changes_are_noise() {
        // +100% relative but only 50µs absolute: under the 1e-4 s floor.
        let base = factor_doc(5e-5);
        let cur = factor_doc(1e-4);
        assert!(
            !diff_artifacts(ArtifactKind::Factor, &base, &cur, &DiffOptions::default())
                .unwrap()
                .has_regressions()
        );
    }

    #[test]
    fn unmatched_records_are_reported_not_failed() {
        let base = parse(
            r#"[{"matrix": "a", "threads": 1, "mapping": "static1d", "kind": "measured",
                 "kernel": "portable", "median_seconds": 0.5},
                {"matrix": "b", "threads": 1, "mapping": "static1d", "kind": "measured",
                 "kernel": "portable", "median_seconds": 0.5}]"#,
        )
        .unwrap();
        let cur = parse(
            r#"[{"matrix": "a", "threads": 1, "mapping": "static1d", "kind": "measured",
                 "kernel": "portable", "median_seconds": 0.5},
                {"matrix": "c", "threads": 1, "mapping": "static1d", "kind": "measured",
                 "kernel": "portable", "median_seconds": 0.5}]"#,
        )
        .unwrap();
        let report =
            diff_artifacts(ArtifactKind::Factor, &base, &cur, &DiffOptions::default()).unwrap();
        assert_eq!(report.matched, 1);
        assert_eq!(report.missing.len(), 1);
        assert_eq!(report.added.len(), 1);
        assert!(!report.has_regressions());
    }

    #[test]
    fn kernel_throughput_direction_is_inverted() {
        let mk = |gflops: f64| {
            parse(&format!(
                r#"[{{"op": "gemm_sub", "shape": "64x16x16", "kernel": "baseline",
                     "gflops": {gflops}, "seconds_per_call": 1e-5}}]"#
            ))
            .unwrap()
        };
        let base = mk(5.0);
        let slower = mk(3.0); // -40% throughput
        let report = diff_artifacts(
            ArtifactKind::Kernels,
            &base,
            &slower,
            &DiffOptions::default(),
        )
        .unwrap();
        assert!(report.has_regressions());
        let faster = mk(8.0);
        let report = diff_artifacts(
            ArtifactKind::Kernels,
            &base,
            &faster,
            &DiffOptions::default(),
        )
        .unwrap();
        assert!(!report.has_regressions());
    }

    #[test]
    fn phases_compare_nested_walls_and_structure() {
        let mk = |numeric: f64, fill: u64| {
            let fields: Vec<String> = PHASE_NAMES
                .iter()
                .map(|p| {
                    let v = if *p == "numeric" { numeric } else { 0.01 };
                    format!("\"{p}\": {v}")
                })
                .collect();
            parse(&format!(
                "[{{\"matrix\": \"m\", \"front_threads\": 8, \"kind\": \"measured\", \
                  \"fill_nnz\": {fill}, \"model_flops\": 1e6, \"phases\": {{{}}}}}]",
                fields.join(", ")
            ))
            .unwrap()
        };
        let base = mk(1.0, 1000);
        let regressions = |current: &Json| {
            diff_artifacts(
                ArtifactKind::Phases,
                &base,
                current,
                &DiffOptions::default(),
            )
            .unwrap()
            .regressions()
            .iter()
            .map(|d| d.metric.clone())
            .collect::<Vec<_>>()
        };
        assert_eq!(regressions(&mk(1.5, 1000)), ["phases.numeric"]);
        // A worse permutation is a regression at equal walls; a few
        // percent of fill is not.
        assert_eq!(regressions(&mk(1.0, 1200)), ["fill_nnz"]);
        assert!(regressions(&mk(1.0, 1050)).is_empty());
    }

    #[test]
    fn kind_detection() {
        assert_eq!(
            ArtifactKind::from_name("BENCH_sched.json"),
            Some(ArtifactKind::Sched)
        );
        assert_eq!(
            ArtifactKind::from_name("/tmp/smoke/BENCH_phases.json"),
            Some(ArtifactKind::Phases)
        );
        assert_eq!(ArtifactKind::from_name("notes.json"), None);
        assert_eq!(
            ArtifactKind::from_arg("kernels"),
            Some(ArtifactKind::Kernels)
        );
        assert_eq!(ArtifactKind::from_arg("bogus"), None);
    }
}
