//! Differential suite for sessions on the in-block structure (DESIGN.md
//! §5.4–5.5): whatever path a `factor` or `refactor` takes — the in-block
//! structure, the fallback after a pivot left its diagonal block, or the
//! static structure a session stays on after one — its factors are the
//! static oracle's (`common::StaticFactors`) of the same values **bit for
//! bit**: pivots as global rows, every stored word at its global position,
//! every word the in-block storage leaves out exactly zero in the static
//! one, and every solve route.

mod common;

use common::{first_out_of_block, StaticFactors};
use parsplu::core::{
    solve_permuted_parallel, BlockMatrix, ObsSession, Options, RefactorPath, RunStatus, SluSession,
};
use parsplu::matgen::{cross_block_pivots, fig1_matrix, paper_suite, random_pattern, Scale};
use parsplu::obs::Counter;
use parsplu::sched::{block_forest, Mapping};
use parsplu::sparse::CscMatrix;
use parsplu::symbolic::SupernodeOptions;
use proptest::prelude::*;

const MANY: usize = 8;

/// Deterministic stream of doubles in `[-1, 1)`.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % (1 << 20)) as f64 / (1 << 19) as f64 - 1.0
    }
}

/// Random values on `a`'s pattern with a strictly column-dominant diagonal:
/// partial pivoting takes no interchange, whatever the seed.
fn dominant_values(a: &CscMatrix, seed: u64) -> CscMatrix {
    let mut rng = Stream(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
    let mut out = a.clone();
    let ptr = a.pattern().col_ptr().to_vec();
    for j in 0..a.ncols() {
        let rows = a.pattern().col(j).to_vec();
        let vals = &mut out.values_mut()[ptr[j]..ptr[j + 1]];
        let mut off = 0.0;
        for (v, &i) in vals.iter_mut().zip(&rows) {
            if i as usize != j {
                *v = rng.next();
                off += v.abs();
            }
        }
        let at = rows
            .iter()
            .position(|&i| i as usize == j)
            .expect("zero-free diagonal");
        vals[at] = (1.0 + off) * (1.5 + 0.5 * rng.next());
    }
    out
}

/// `a` with column `j` scaled by `2^(e_j)`, `e_j ∈ −2..=2`: the factorization
/// of the result takes `a`'s pivots exactly (`L` is the same, `U` scaled).
fn column_scaled(a: &CscMatrix, seed: u64) -> CscMatrix {
    let mut out = a.clone();
    let ptr = a.pattern().col_ptr().to_vec();
    for j in 0..a.ncols() {
        let e = (seed.wrapping_mul(31).wrapping_add(j as u64 * 7) % 5) as i32 - 2;
        for v in &mut out.values_mut()[ptr[j]..ptr[j + 1]] {
            *v *= 2f64.powi(e);
        }
    }
    out
}

/// A weak diagonal (`1e-3`) under one entry of magnitude 4 per column at a
/// permuted row: nearly every column interchanges, across supernodes.
fn weak_diagonal(n: usize, seed: u64) -> CscMatrix {
    let mut rng = Stream(seed.wrapping_mul(0x2545_f491_4f6c_dd1d) | 1);
    let mut keys: Vec<(u64, usize)> = (0..n)
        .map(|i| ((rng.next() * 1e6) as i64 as u64, i))
        .collect();
    keys.sort_unstable();
    let mut t = Vec::new();
    for (j, &(key, strong)) in keys.iter().enumerate() {
        t.push((j, j, 1e-3));
        t.push((strong, j, if key % 2 == 0 { 4.0 } else { -4.0 }));
    }
    for _ in 0..2 * n {
        let (i, j) = (rng.next().abs() * n as f64, rng.next().abs() * n as f64);
        t.push((i as usize % n, j as usize % n, 0.2 * rng.next()));
    }
    CscMatrix::from_triplets(n, n, &t).unwrap()
}

fn bits(x: &[f64]) -> Vec<u64> {
    x.iter().map(|v| v.to_bits()).collect()
}

fn rhs(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = Stream(seed | 1);
    (0..n).map(|_| rng.next()).collect()
}

fn parallel_solve(s: &SluSession, b: &[f64], threads: usize) -> Vec<f64> {
    let sym = s.symbolic();
    let mut y = sym.row_perm.apply_vec(b);
    let bm = s.block_matrix().unwrap();
    solve_permuted_parallel(bm, &sym.block_structure, &mut y, threads);
    sym.col_perm.apply_inverse_vec(&y)
}

fn interchanges(bm: &BlockMatrix) -> usize {
    let rows = bm.pivot_rows();
    rows.iter().enumerate().filter(|&(c, &r)| c != r).count()
}

/// The factors and solves of `s` against the static factors of the same
/// values.
fn assert_bitwise_static(s: &SluSession, reference: &StaticFactors, what: &str) {
    let bm = s.block_matrix().unwrap();
    assert_eq!(bm.factor_difference(&reference.bm), None, "{what}");

    // The storage is the one of the structure the session hands out, the
    // maps can be rebuilt from it, and it keeps the block eforest.
    let (bs, static_bs) = (
        &s.symbolic().block_structure,
        &reference.sym.block_structure,
    );
    assert_eq!(bm.storage_words(), bs.storage_words(), "{what}");
    assert_eq!(
        s.storage().unwrap().static_words,
        reference.bm.storage_words(),
        "{what}"
    );
    if s.is_realised() {
        assert!(bs.storage_words() <= static_bs.storage_words(), "{what}");
        for k in 0..bs.num_blocks() {
            for (sub, sup) in [
                (bs.l_rows.col(k), static_bs.l_rows.col(k)),
                (bs.u_cols.col(k), static_bs.u_cols.col(k)),
            ] {
                assert!(sub.iter().all(|x| sup.binary_search(x).is_ok()), "{what}");
            }
        }
        assert_eq!(BlockMatrix::zeros(bs).storage_words(), bs.storage_words());
    } else {
        assert_eq!(bs, static_bs, "{what}");
    }
    assert_eq!(block_forest(bs), block_forest(static_bs), "{what}");

    let n = bm.n();
    let b = rhs(n, 0xb0b);
    let x = reference.solve(&b);
    assert_eq!(bits(&s.try_solve(&b).unwrap()), bits(&x), "{what}: solve");
    assert_eq!(
        bits(&s.try_solve_transposed(&b).unwrap()),
        bits(&reference.solve_transposed(&b)),
        "{what}: transposed solve"
    );
    let bb: Vec<f64> = (0..MANY).flat_map(|r| rhs(n, 77 + r as u64)).collect();
    assert_eq!(
        bits(&s.try_solve_many(&bb, MANY).unwrap()),
        bits(&reference.solve_many(&bb, MANY)),
        "{what}: {MANY} right-hand sides"
    );
    for threads in [2, 4] {
        let xp = parallel_solve(s, &b, threads);
        assert_eq!(bits(&xp), bits(&x), "{what}: {threads}-thread solve");
    }
}

/// Value sets with their static factors.
fn with_references(sets: Vec<CscMatrix>, opts: &Options) -> Vec<(CscMatrix, StaticFactors)> {
    (sets.into_iter())
        .map(|a| {
            let reference = StaticFactors::factor(&a, opts).unwrap();
            (a, reference)
        })
        .collect()
}

/// The structure an observed `factor` / `refactor` of `s` ran on.
fn path_of(obs: &ObsSession, s: &SluSession) -> Option<RefactorPath> {
    (obs.report(Default::default(), s.options(), RunStatus::success())).refactor
}

/// Feeds `sets` to `s.refactor` one after the other and holds every result
/// to the static factors of the same values; returns how many of the calls
/// ran (to completion) on the in-block structure.
fn refactor_all(s: &mut SluSession, sets: &[(CscMatrix, StaticFactors)], what: &str) -> u64 {
    let mut realised = 0;
    for (step, (a, reference)) in sets.iter().enumerate() {
        let obs = ObsSession::new();
        s.refactor_observed(a, &obs).unwrap();
        realised += obs.metrics().get(Counter::RefactorRealised);
        assert_bitwise_static(s, reference, &format!("{what}, step {step}"));
    }
    realised
}

fn options(threads: usize, mapping: Mapping) -> Options {
    Options {
        threads,
        mapping,
        ..Options::default()
    }
}

#[test]
fn realised_refactor_is_bitwise_the_static_factor_suitewide() {
    for m in paper_suite(Scale::Reduced) {
        let sets = (0..5).map(|k| dominant_values(&m.a, k)).collect();
        let sets = with_references(sets, &Options::default());
        for threads in [1usize, 2, 4] {
            for mapping in [Mapping::Static1D, Mapping::Dynamic] {
                let what = format!("{} threads={threads} {mapping:?}", m.name);
                let mut s = SluSession::analyze(m.a.pattern(), &options(threads, mapping)).unwrap();
                let obs = ObsSession::new();
                s.factor_observed(&sets[0].0, &obs).unwrap();
                assert_eq!(path_of(&obs, &s), Some(RefactorPath::Realised), "{what}");
                assert_bitwise_static(&s, &sets[0].1, &what);
                // The first factorization speculates, and every refactor
                // stays on its structure.
                let realised = refactor_all(&mut s, &sets[1..], &what);
                assert_eq!(realised, 4, "{what}");
                assert!(s.is_realised(), "{what}");
                assert_eq!(interchanges(s.block_matrix().unwrap()), 0, "{what}");
            }
        }
    }
}

/// Histories **with** interchanges: one whose pivots stay inside their
/// blocks keeps the in-block structure; one whose pivots leave them falls
/// back once — on the first `factor` — and refactors on the static
/// structure from then on. Bitwise the static factors throughout.
#[test]
fn histories_with_interchanges_derive_correctly() {
    // The two hand-made cases of `core::numeric`'s unit tests: tiny
    // diagonals on the paper's Figure 1, and an interchange into a block
    // that stores more columns than the pivot row's.
    let fig1 = fig1_matrix();
    let tiny: Vec<(usize, usize, f64)> = fig1
        .triplets()
        .map(|(i, j, v)| (i, j, if i == j { 1e-6 } else { v }))
        .collect();
    let mut wide = vec![
        (0, 0, 1e-9),
        (0, 3, 2.0),
        (1, 1, 3.0),
        (1, 4, -1.5),
        (2, 0, 1.0),
        (2, 1, 0.5),
        (2, 2, 2.5),
        (2, 3, -0.75),
        (4, 2, 0.25),
    ];
    for i in 3..6 {
        for j in 3..6 {
            let v = if i == j {
                4.0
            } else {
                0.5 + (i + 2 * j) as f64 / 16.0
            };
            wide.push((i, j, v));
        }
    }
    let mut cases = vec![
        (
            "fig1 with tiny diagonals".to_string(),
            CscMatrix::from_triplets(7, 7, &tiny).unwrap(),
        ),
        (
            "wider partner block".to_string(),
            CscMatrix::from_triplets(6, 6, &wide).unwrap(),
        ),
    ];
    for seed in 0..6u64 {
        let n = 40 + 17 * seed as usize;
        cases.push((format!("weak diagonal n={n}"), weak_diagonal(n, seed)));
    }
    let (mut moved, mut fell_back) = (0, 0);
    for (name, a) in &cases {
        for amalgamation in [Some(SupernodeOptions::default()), None] {
            let reference_opts = Options {
                amalgamation,
                ..Options::default()
            };
            let reference = StaticFactors::factor(a, &reference_opts).unwrap();
            let leaves = first_out_of_block(&reference.bm).is_some();
            let sets = (1..5).map(|k| column_scaled(a, k)).collect();
            let sets = with_references(sets, &reference_opts);
            for (threads, mapping) in [
                (1, Mapping::Static1D),
                (2, Mapping::Dynamic),
                (4, Mapping::Static1D),
            ] {
                let what = format!(
                    "{name} amalgamation={} threads={threads}",
                    amalgamation.is_some()
                );
                let opts = Options {
                    amalgamation,
                    ..options(threads, mapping)
                };
                let mut s = SluSession::analyze(a.pattern(), &opts).unwrap();
                let obs = ObsSession::new();
                s.factor_observed(a, &obs).unwrap();
                let fallbacks = obs.metrics().get(Counter::RefactorFallback);
                assert_eq!(fallbacks, u64::from(leaves), "{what}");
                assert_bitwise_static(&s, &reference, &what);
                // Column scalings keep the history: in its blocks the
                // structure holds, out of them the session stays static.
                let realised = refactor_all(&mut s, &sets, &what);
                assert_eq!(realised, if leaves { 0 } else { 4 }, "{what}");
                assert_eq!(s.is_realised(), !leaves, "{what}");
                moved += interchanges(s.block_matrix().unwrap());
                fell_back += fallbacks;
            }
        }
    }
    assert!(moved > 500, "only {moved} interchanges were replayed");
    assert!(fell_back > 0, "no history left its blocks");
}

/// Sixteen random value sets that share the interchange-free history: the
/// lists the first `factor` derives hold every nonzero of all of them (the
/// wire never trips, and the static factors are zero outside the lists).
/// They are the pattern's: derived once per session, whatever the values.
#[test]
fn sixteen_value_sets_of_one_history_fit_the_derived_lists() {
    for m in paper_suite(Scale::Reduced).into_iter().take(4) {
        let mut s = SluSession::analyze(m.a.pattern(), &Options::default()).unwrap();
        s.factor(&dominant_values(&m.a, 100)).unwrap();
        assert!(s.is_realised(), "{}", m.name);
        let lists = s.symbolic().block_structure.clone();
        let static_words = s.stats().static_words;
        assert!(lists.storage_words() < static_words, "{}", m.name);

        let sets = (0..16).map(|k| dominant_values(&m.a, 200 + k)).collect();
        let sets = with_references(sets, &Options::default());
        let realised = refactor_all(&mut s, &sets, m.name);
        assert_eq!(realised, 16, "{}", m.name);
        assert!(s.is_realised());
        assert_eq!(s.symbolic().block_structure, lists, "{}", m.name);

        let mut t = SluSession::analyze(m.a.pattern(), &Options::default()).unwrap();
        t.factor(&sets[15].0).unwrap();
        assert_eq!(t.symbolic().block_structure, lists, "{}", m.name);
    }
}

/// `matgen::cross_block_pivots` takes pivots from below their diagonal
/// blocks: a `factor` trips the wire and answers the job through the static
/// structure (the report names the column); the session stays static for
/// its life — a `refactor` after it, a `factor` of values whose pivots stay
/// in their blocks, and a `refactor` of the cross-block values all run
/// there, with no second fallback. Bitwise the static factors throughout,
/// at 1/2/4/8 threads under both mappings. (A pivot that stays in its block
/// keeps the in-block structure: `tests/speculation.rs`.)
#[test]
fn a_flipped_pivot_trips_the_wire_and_the_job_is_answered_statically() {
    let a = cross_block_pivots(90, 2);
    let reference = StaticFactors::of(&a);
    let first = first_out_of_block(&reference.bm).expect("a pivot leaves its block");
    let history = reference.bm.pivot_rows();
    let scaled = column_scaled(&a, 1);
    let scaled_reference = StaticFactors::of(&scaled);
    let held = dominant_values(&a, 400);
    let held_reference = StaticFactors::of(&held);
    assert_eq!(first_out_of_block(&held_reference.bm), None);
    for threads in [1usize, 2, 4, 8] {
        for mapping in [Mapping::Static1D, Mapping::Dynamic] {
            let what = format!("threads={threads} {mapping:?}");
            let mut s = SluSession::analyze(a.pattern(), &options(threads, mapping)).unwrap();
            let obs = ObsSession::new();
            s.factor_observed(&a, &obs).unwrap();
            assert_eq!(obs.metrics().get(Counter::RefactorFallback), 1, "{what}");
            assert_eq!(obs.metrics().get(Counter::RefactorRealised), 0, "{what}");
            let report = obs.report(Default::default(), s.options(), RunStatus::success());
            let Some(RefactorPath::Fallback { column }) = report.refactor else {
                panic!("{what}: expected a fallback, got {:?}", report.refactor);
            };
            // One worker meets the first such column; several may meet
            // another one first — still one whose pivot left its block.
            if threads == 1 {
                assert_eq!(column, first, "{what}");
            }
            let bm = &reference.bm;
            let k = (0..bm.num_block_cols())
                .rfind(|&k| bm.global_col_start(k) <= column)
                .unwrap();
            assert!(history[column] >= bm.global_col_start(k + 1), "{what}");
            let doc = splu_bench::json::parse(&report.to_json()).expect("the report parses");
            let refactor = doc.get("refactor").expect("a refactor object");
            assert_eq!(
                refactor.get("path").and_then(|p| p.as_str()),
                Some("fallback")
            );
            let diverged = refactor.get("diverged_column").and_then(|c| c.as_num());
            assert_eq!(diverged, Some(column as f64), "{what}");
            // The job paid for rebuilding the static lists.
            assert!(
                report.phases_s.iter().any(|(p, _)| *p == "static_lists"),
                "{what}"
            );
            assert!(!s.is_realised() && s.is_factored(), "{what}");
            assert_bitwise_static(&s, &reference, &format!("{what}: factor"));

            let obs = ObsSession::new();
            s.refactor_observed(&scaled, &obs).unwrap();
            assert_eq!(path_of(&obs, &s), Some(RefactorPath::Static), "{what}");
            assert_bitwise_static(&s, &scaled_reference, &format!("{what}: static"));

            let obs = ObsSession::new();
            s.factor_observed(&held, &obs).unwrap();
            assert_eq!(path_of(&obs, &s), Some(RefactorPath::Static), "{what}");
            assert!(!s.is_realised(), "{what}");
            assert_bitwise_static(&s, &held_reference, &format!("{what}: held factor"));

            let obs = ObsSession::new();
            s.refactor_observed(&a, &obs).unwrap();
            assert_eq!(path_of(&obs, &s), Some(RefactorPath::Static), "{what}");
            assert_bitwise_static(&s, &reference, &format!("{what}: refactor"));

            let obs = ObsSession::new();
            s.refactor_observed(&held, &obs).unwrap();
            assert_eq!(path_of(&obs, &s), Some(RefactorPath::Static), "{what}");
            assert_bitwise_static(&s, &held_reference, &format!("{what}: stays"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any sequence of `factor`s and `refactor`s of value sets on a random
    /// pattern — repeats of one history, fresh histories, flips back —
    /// yields the static factors, whichever path each call takes.
    #[test]
    fn any_refactor_sequence_is_bitwise_static(
        n in 8usize..48,
        seed in 0u64..1000,
        weak in proptest::collection::vec(0usize..4, 6),
        factor_at in 0usize..64,
        threads in 1usize..4,
    ) {
        let pattern = random_pattern(n, 3 * n, seed);
        let ones = CscMatrix::from_triplets(
            n, n, &pattern.entries().map(|(i, j)| (i, j, 1.0)).collect::<Vec<_>>(),
        ).unwrap();
        // Step k: a dominant value set (history: no interchange) or, for
        // `weak[k] == 0`, one whose diagonal is tiny; consecutive equal
        // draws share a history through column scalings. Bit k of
        // `factor_at` makes the step a `factor`.
        let tiny: Vec<(usize, usize, f64)> = dominant_values(&ones, seed + 1)
            .triplets()
            .map(|(i, j, v)| (i, j, if i == j { 1e-3 } else { v }))
            .collect();
        let base = [
            dominant_values(&ones, seed),
            CscMatrix::from_triplets(n, n, &tiny).unwrap(),
        ];
        let sets: Vec<CscMatrix> = weak.iter().enumerate()
            .map(|(k, &w)| column_scaled(&base[usize::from(w == 0)], k as u64))
            .collect();
        let mut s = SluSession::analyze(&pattern, &options(threads, Mapping::Dynamic)).unwrap();
        // A weak diagonal may be singular: both sides must then say so.
        for (step, a) in sets.iter().enumerate() {
            let got = if factor_at >> step & 1 == 1 { s.factor(a) } else { s.refactor(a) };
            match (got, StaticFactors::factor(a, &Options::default())) {
                (Ok(()), Ok(reference)) => {
                    assert_bitwise_static(&s, &reference, &format!("step {step}"))
                }
                // Which singular column a parallel run meets first is the
                // schedule's business.
                (Err(_), Err(_)) => {}
                (got, want) => panic!(
                    "step {step}: {got:?} against the static {:?}",
                    want.map(|_| ())
                ),
            }
        }
    }
}

/// The graphs of a realised session's pattern built over the static
/// structure have the tasks every static factorization of the pattern runs
/// (the statistics' count), and the S* one, handed to the range plan,
/// factors bitwise like the realised session at 2 and 4 threads under both
/// mappings. Built over the in-block lists, the eforest graph has the
/// storage's tasks instead — rule 4 walks past the blocks those lists drop
/// — and is the graph the session's plan is contracted from (`session.rs`'
/// unit tests); on the full-scale sherman3 analogue as on the suite.
#[test]
fn graph_builders_read_the_static_structure_of_a_realised_session() {
    use parsplu::core::{analyze, factor_numeric_with, NumericRequest};
    use parsplu::matgen::paper_matrix;
    use parsplu::sched::{build_eforest_graph, build_sstar_graph};
    let full = (
        "sherman3 (full)",
        paper_matrix("sherman3", Scale::Full).unwrap(),
    );
    let suite = paper_suite(Scale::Reduced)
        .into_iter()
        .map(|m| (m.name, m.a));
    let mut dropped_blocks = 0;
    for (name, a) in std::iter::once(full).chain(suite) {
        let mut s = SluSession::analyze(a.pattern(), &options(2, Mapping::Static1D)).unwrap();
        s.factor(&a).unwrap();
        assert!(s.is_realised(), "{name}");
        let static_sym = analyze(a.pattern(), &Options::default()).unwrap();
        let (sym, static_bs) = (s.symbolic(), &static_sym.block_structure);
        let blocks = |bs: &parsplu::symbolic::BlockStructure| -> usize {
            bs.u_blocks.nnz() - bs.num_blocks()
        };
        dropped_blocks += blocks(static_bs) - blocks(&sym.block_structure);
        let built = build_eforest_graph(static_bs);
        assert_eq!(built.len(), s.stats().graph_tasks, "{name}");
        let held = build_eforest_graph(&sym.block_structure);
        assert_eq!(held.len(), s.block_matrix().unwrap().num_tasks(), "{name}");

        let sstar = build_sstar_graph(static_bs);
        assert_eq!(sstar.tasks(), built.tasks(), "{name}");
        let permuted = sym.permute_matrix(&a);
        let want = s.block_matrix().unwrap();
        for threads in [2, 4] {
            for mapping in [Mapping::Static1D, Mapping::Dynamic] {
                let bm = BlockMatrix::assemble(&permuted, static_bs);
                let req = NumericRequest::coarse(&sstar, mapping).threads(threads);
                factor_numeric_with(&bm, &req).unwrap();
                let what = format!("{name} S* threads={threads} {mapping:?}");
                assert_eq!(bm.factor_difference(want), None, "{what}");
            }
        }
    }
    assert!(dropped_blocks > 0, "the in-block lists leave blocks out");
}
