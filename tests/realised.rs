//! Differential suite for refactorization on the realised structure
//! (DESIGN.md §5.4–5.5): whatever path a `refactor` takes — static,
//! realised, or the fallback after a diverged pivot — its factors are the
//! static `factor`'s of the same values **bit for bit**: pivots as global
//! rows, every stored word at its global position, every word the realised
//! storage leaves out exactly zero in the static one, and every solve route.

use parsplu::core::{
    solve_permuted_parallel, BlockMatrix, ObsSession, Options, RefactorPath, SluSession,
};
use parsplu::matgen::{fig1_matrix, paper_suite, random_pattern, Scale};
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
            if i != j {
                *v = rng.next();
                off += v.abs();
            }
        }
        let at = rows
            .iter()
            .position(|&i| i == j)
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

/// The factors and solves of `s` against those of `reference`, a session on
/// the static structure that ran `factor` on the same values.
fn assert_bitwise_static(s: &SluSession, reference: &SluSession, what: &str) {
    assert!(!reference.is_realised(), "{what}: factor stays static");
    let (bm, want) = (s.block_matrix().unwrap(), reference.block_matrix().unwrap());
    assert_eq!(bm.factor_difference(want), None, "{what}");

    // The storage is the one of the structure the session hands out, the
    // maps can be rebuilt from it, and it keeps the block eforest.
    let (bs, static_bs) = (&s.symbolic().block_structure, s.static_structure());
    assert_eq!(bm.storage_words(), bs.storage_words(), "{what}");
    assert_eq!(static_bs, &reference.symbolic().block_structure, "{what}");
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
    assert_eq!(&block_forest(bs), &s.symbolic().block_forest, "{what}");

    let n = bm.n();
    let b = rhs(n, 0xb0b);
    let x = reference.try_solve(&b).unwrap();
    assert_eq!(bits(&s.try_solve(&b).unwrap()), bits(&x), "{what}: solve");
    assert_eq!(
        bits(&s.try_solve_transposed(&b).unwrap()),
        bits(&reference.try_solve_transposed(&b).unwrap()),
        "{what}: transposed solve"
    );
    let bb: Vec<f64> = (0..MANY).flat_map(|r| rhs(n, 77 + r as u64)).collect();
    assert_eq!(
        bits(&s.try_solve_many(&bb, MANY).unwrap()),
        bits(&reference.try_solve_many(&bb, MANY).unwrap()),
        "{what}: {MANY} right-hand sides"
    );
    for threads in [2, 4] {
        let xp = parallel_solve(s, &b, threads);
        assert_eq!(bits(&xp), bits(&x), "{what}: {threads}-thread solve");
    }
}

/// Feeds `sets` to `s.refactor` one after the other and holds every result
/// to `reference.factor` of the same values; returns how many of the calls
/// ran (to completion) on a realised structure.
fn refactor_all(
    s: &mut SluSession,
    reference: &mut SluSession,
    sets: &[CscMatrix],
    what: &str,
) -> u64 {
    let mut realised = 0;
    for (step, a) in sets.iter().enumerate() {
        let obs = ObsSession::new();
        s.refactor_observed(a, &obs).unwrap();
        realised += obs.metrics().get(Counter::RefactorRealised);
        reference.factor(a).unwrap();
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
        let sets: Vec<CscMatrix> = (0..5).map(|k| dominant_values(&m.a, k)).collect();
        let mut reference = SluSession::analyze(m.a.pattern(), &Options::default()).unwrap();
        for threads in [1usize, 2, 4] {
            for mapping in [Mapping::Static1D, Mapping::Dynamic] {
                let what = format!("{} threads={threads} {mapping:?}", m.name);
                let mut s = SluSession::analyze(m.a.pattern(), &options(threads, mapping)).unwrap();
                s.factor(&sets[0]).unwrap();
                let realised = refactor_all(&mut s, &mut reference, &sets[1..], &what);
                // The first refactor finds one history, the second two equal
                // ones: it and every later one run realised.
                assert_eq!(realised, 3, "{what}");
                assert!(s.is_realised(), "{what}");
                assert_eq!(interchanges(s.block_matrix().unwrap()), 0, "{what}");
            }
        }
    }
}

/// Histories **with** interchanges: the flags of a block's columns travel
/// with the rows that `Factor(K)` exchanges.
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
    let mut moved = 0;
    for (name, a) in &cases {
        for amalgamation in [Some(SupernodeOptions::default()), None] {
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
                let reference_opts = Options {
                    amalgamation,
                    ..Options::default()
                };
                let mut reference = SluSession::analyze(a.pattern(), &reference_opts).unwrap();
                let mut s = SluSession::analyze(a.pattern(), &opts).unwrap();
                s.factor(a).unwrap();
                let sets: Vec<CscMatrix> = (1..5).map(|k| column_scaled(a, k)).collect();
                let realised = refactor_all(&mut s, &mut reference, &sets, &what);
                assert_eq!(realised, 3, "{what}: column scalings keep the history");
                moved += interchanges(s.block_matrix().unwrap());
            }
        }
    }
    assert!(moved > 500, "only {moved} interchanges were replayed");
}

/// Sixteen random value sets that share the interchange-free history: the
/// lists derived from the first two hold every nonzero of all of them (the
/// wire never trips, and the static factors are zero outside the lists).
#[test]
fn sixteen_value_sets_of_one_history_fit_the_derived_lists() {
    for m in paper_suite(Scale::Reduced).into_iter().take(4) {
        let mut reference = SluSession::analyze(m.a.pattern(), &Options::default()).unwrap();
        let mut s = SluSession::analyze(m.a.pattern(), &Options::default()).unwrap();
        s.factor(&dominant_values(&m.a, 100)).unwrap();
        s.refactor(&dominant_values(&m.a, 101)).unwrap();
        let sets: Vec<CscMatrix> = (0..16).map(|k| dominant_values(&m.a, 200 + k)).collect();
        let lists = s.symbolic().block_structure.clone();
        let realised = refactor_all(&mut s, &mut reference, &sets, m.name);
        assert_eq!(realised, 16, "{}", m.name);
        assert!(s.is_realised());
        // Derived once: the second call moved the session, nothing since.
        let after_first = {
            let mut t = SluSession::analyze(m.a.pattern(), &Options::default()).unwrap();
            t.factor(&dominant_values(&m.a, 100)).unwrap();
            t.refactor(&dominant_values(&m.a, 101)).unwrap();
            assert!(!t.is_realised() && t.symbolic().block_structure == lists);
            t.refactor(&sets[0]).unwrap();
            t.symbolic().block_structure.clone()
        };
        assert_eq!(s.symbolic().block_structure, after_first, "{}", m.name);
        assert!(
            after_first.storage_words() < lists.storage_words(),
            "{}",
            m.name
        );
    }
}

/// One entry below its column's diagonal block, scaled above the diagonal,
/// flips that column's pivot out of the block: the job is answered through
/// the static structure, bit for bit, and the session re-derives once two
/// factorizations agree again. (A pivot that stays in its block keeps the
/// realised structure: `tests/speculation.rs`.)
#[test]
fn a_flipped_pivot_trips_the_wire_and_the_job_is_answered_statically() {
    let m = &paper_suite(Scale::Reduced)[0];
    for (threads, mapping) in [(1, Mapping::Static1D), (2, Mapping::Dynamic)] {
        let mut reference = SluSession::analyze(m.a.pattern(), &Options::default()).unwrap();
        let mut s = SluSession::analyze(m.a.pattern(), &options(threads, mapping)).unwrap();
        let sets: Vec<CscMatrix> = (0..3).map(|k| dominant_values(&m.a, 300 + k)).collect();
        s.factor(&sets[0]).unwrap();
        assert_eq!(
            refactor_all(&mut s, &mut reference, &sets[1..], "agreeing"),
            1
        );
        assert!(s.is_realised());

        // The first entry below its column's diagonal block in
        // factorization order.
        let sym = s.symbolic();
        let part = &s.static_structure().partition;
        let block_of = part.block_of_cols();
        let (e, row, col) = (m.a.triplets().enumerate())
            .map(|(e, (i, j, _))| (e, sym.row_perm.new_of(i), sym.col_perm.new_of(j)))
            .filter(|&(_, r, c)| r >= part.range(block_of[c]).end)
            .min_by_key(|&(_, _, c)| c)
            .expect("an entry below a diagonal block");
        let mut flipped = dominant_values(&m.a, 310);
        flipped.values_mut()[e] = 1e3;

        let obs = ObsSession::new();
        s.refactor_observed(&flipped, &obs).unwrap();
        assert_eq!(obs.metrics().get(Counter::RefactorFallback), 1);
        assert_eq!(obs.metrics().get(Counter::RefactorRealised), 0);
        let report = obs.report(
            Default::default(),
            s.options(),
            parsplu::core::RunStatus::success(),
        );
        match report.refactor {
            // One worker meets the flipped column first; several may notice
            // a later consequence of it before.
            Some(RefactorPath::Fallback { column }) if threads == 1 => assert_eq!(column, col),
            Some(RefactorPath::Fallback { column }) => assert!(column >= col),
            other => panic!("expected a fallback, got {other:?}"),
        }
        assert!(report
            .to_json()
            .contains(r#""refactor": {"path": "fallback", "diverged_column": "#));
        assert!(!s.is_realised() && s.is_factored());
        reference.factor(&flipped).unwrap();
        assert_bitwise_static(&s, &reference, "fallback");
        assert_eq!(s.block_matrix().unwrap().pivot_rows()[col], row);

        // The flipped history stays: one static refactor records it twice
        // in a row, the next derives from it.
        let stays: Vec<CscMatrix> = (1..4).map(|k| column_scaled(&flipped, k)).collect();
        let obs = ObsSession::new();
        s.refactor_observed(&stays[0], &obs).unwrap();
        assert!(!s.is_realised());
        assert_eq!(
            obs.report(
                Default::default(),
                s.options(),
                parsplu::core::RunStatus::success()
            )
            .refactor,
            Some(RefactorPath::Static)
        );
        assert_eq!(
            refactor_all(&mut s, &mut reference, &stays[1..], "re-derived"),
            2
        );
        assert!(s.is_realised());

        // `factor` is the oracle: it always returns to the static structure.
        s.factor(&sets[0]).unwrap();
        assert!(!s.is_realised());
        reference.factor(&sets[0]).unwrap();
        assert_bitwise_static(&s, &reference, "factor after realised");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any sequence of value sets on a random pattern — repeats of one
    /// history, fresh histories, flips back — refactors to the static
    /// factors, whichever path each call takes.
    #[test]
    fn any_refactor_sequence_is_bitwise_static(
        n in 8usize..48,
        seed in 0u64..1000,
        weak in proptest::collection::vec(0usize..4, 6),
        threads in 1usize..4,
    ) {
        let pattern = random_pattern(n, 3 * n, seed);
        let ones = CscMatrix::from_triplets(
            n, n, &pattern.entries().map(|(i, j)| (i, j, 1.0)).collect::<Vec<_>>(),
        ).unwrap();
        // Step k: a dominant value set (history: no interchange) or, for
        // `weak[k] == 0`, one whose diagonal is tiny; consecutive equal
        // draws share a history through column scalings.
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
        let mut reference = SluSession::analyze(&pattern, &Options::default()).unwrap();
        let mut s = SluSession::analyze(&pattern, &options(threads, Mapping::Dynamic)).unwrap();
        // A weak diagonal may be singular: both sides must then say so.
        for (step, a) in sets.iter().enumerate() {
            match (s.refactor(a), reference.factor(a)) {
                (Ok(()), Ok(())) => assert_bitwise_static(&s, &reference, &format!("step {step}")),
                // Which singular column a parallel run meets first is the
                // schedule's business.
                (Err(_), Err(_)) => {}
                (got, want) => panic!("step {step}: {got:?} against the static {want:?}"),
            }
        }
    }
}

/// The graph builders on a realised session: `SymbolicLu::build_graph`
/// builds over the static structure — the tasks every factorization of
/// the pattern runs — whichever structure the storage holds. Built over
/// the realised lists instead, the eforest builder panicked (rule 4 named
/// an update those lists dropped) and the S* builder returned a graph of
/// other tasks, on the full-scale sherman3 analogue as on the suite. The
/// S* graph of the static structure, handed to the range plan, factors
/// bitwise like the realised session at 2 and 4 threads under both
/// mappings.
#[test]
fn graph_builders_read_the_static_structure_of_a_realised_session() {
    use parsplu::core::{factor_numeric_with, NumericRequest};
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
        let mut s = SluSession::analyze(a.pattern(), &Options::default()).unwrap();
        for _ in 0..3 {
            s.refactor(&a).unwrap();
        }
        assert!(s.is_realised(), "{name}");
        let (sym, static_bs) = (s.symbolic(), s.static_structure());
        let blocks = |bs: &parsplu::symbolic::BlockStructure| -> usize {
            bs.u_blocks.iter().map(|b| b.len() - 1).sum()
        };
        dropped_blocks += blocks(static_bs) - blocks(&sym.block_structure);
        let (g, built) = (sym.build_graph(), build_eforest_graph(static_bs));
        assert_eq!(g.tasks(), built.tasks(), "{name}");
        assert_eq!(g.successor_lists(), built.successor_lists(), "{name}");
        assert_eq!(g.len(), s.stats().graph_tasks, "{name}");

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
    assert!(dropped_blocks > 0, "the realised lists leave blocks out");
}
