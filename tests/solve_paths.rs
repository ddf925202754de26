//! One differential suite for the solve doors: `SparseLu`, `SluSession`
//! (on the in-block structure) and the free sweeps `solve_permuted` /
//! `solve_permuted_parallel` (on the session's storage and on the static
//! oracle's, `common::StaticFactors`), over the reduced paper suite ×
//! {equilibrate off, on}.
//!
//! `SparseLu` is "scale → the session's solve → unscale", so whatever the
//! combination its answer is — bit for bit — the session's answer on the
//! matrix the session was given (`A`, or `R·A·C`), between the same scales.
//! The session's factors come from a speculative run on the in-block
//! structure, which answers as the static factors do at every thread count
//! and mapping.

mod common;

use common::StaticFactors;
use parsplu::core::gp::gp_factor;
use parsplu::core::{
    solve_many_permuted, solve_permuted, solve_permuted_parallel, solve_permuted_parallel_with,
    solve_permuted_with, solve_transposed_permuted_with, Dispatch, LuError, Options, SluSession,
    SparseLu,
};
use parsplu::dense::{lu_full, lu_solve, DenseMat};
use parsplu::matgen::{manufactured_rhs, paper_suite, Scale};
use parsplu::sparse::scaling::equilibrate;
use parsplu::sparse::{CscMatrix, ScaledResidual};

const MANY: usize = 8;

fn scaled(v: &[f64], by: &[f64]) -> Vec<f64> {
    v.iter().zip(by).map(|(&v, &s)| v * s).collect()
}

/// `max |x − want| / max |want|`.
fn relative_error(x: &[f64], want: &[f64]) -> f64 {
    let norm = want.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    let err = x
        .iter()
        .zip(want)
        .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
    err / norm
}

fn is_mismatch<T: std::fmt::Debug>(r: Result<T, LuError>, expected: usize, got: usize) -> bool {
    matches!(r, Err(LuError::DimensionMismatch { expected: e, got: g }) if e == expected && g == got)
}

/// One suite matrix with its right-hand sides and the two oracles' answers
/// for `A x = b` and `Aᵀ x = b`.
struct Case {
    name: &'static str,
    a: CscMatrix,
    b: Vec<f64>,
    /// `MANY` right-hand sides, column-major; column 0 is `b`.
    bb: Vec<f64>,
    gp: [Vec<f64>; 2],
    dense: [Vec<f64>; 2],
}

fn cases() -> Vec<Case> {
    paper_suite(Scale::Reduced)
        .into_iter()
        .map(|m| {
            let n = m.a.ncols();
            let b = manufactured_rhs(&m.a, 41).1;
            let mut bb = b.clone();
            for r in 1..MANY {
                bb.extend(manufactured_rhs(&m.a, 41 + r as u64).1);
            }
            let at = m.a.transpose();
            let oracles = |a: &CscMatrix| {
                let mut x_gp = b.clone();
                gp_factor(a, 0.0).unwrap().solve(&mut x_gp);
                let mut lu = DenseMat::from_fn(n, n, |i, j| a.get(i, j));
                let piv = lu_full(&mut lu).unwrap();
                let mut x_dense = b.clone();
                lu_solve(&lu, &piv, &mut x_dense);
                (x_gp, x_dense)
            };
            let ((gp, dense), (gp_t, dense_t)) = (oracles(&m.a), oracles(&at));
            Case {
                name: m.name,
                a: m.a,
                b,
                bb,
                gp: [gp, gp_t],
                dense: [dense, dense_t],
            }
        })
        .collect()
}

/// A session holding factors of `work` — on the in-block structure, which
/// every suite matrix keeps to — and the static factors of `work`.
fn session_on(work: &CscMatrix) -> (SluSession, StaticFactors) {
    let mut s = SluSession::analyze(work.pattern(), &Options::default()).unwrap();
    s.factor(work).unwrap();
    assert!(s.is_realised());
    let reference = StaticFactors::of(work);
    assert_eq!(
        s.storage().unwrap().static_words,
        reference.bm.storage_words()
    );
    (s, reference)
}

fn check(case: &Case, equil: bool) {
    let what = format!("{} equilibrate={equil}", case.name);
    let (a, b, bb) = (&case.a, &case.b[..], &case.bb[..]);
    let n = a.ncols();
    let opts = Options {
        equilibrate: equil,
        ..Options::default()
    };
    let lu = SparseLu::factor(a, &opts).unwrap();
    // The matrix the session sees and the scales around its solves (all
    // ones without equilibration: multiplying by 1.0 changes no bit).
    let eq = equil.then(|| equilibrate(a));
    let ones = vec![1.0; n];
    let (work, rows, cols) = match &eq {
        Some(eq) => (&eq.scaled, &eq.row_scale[..], &eq.col_scale[..]),
        None => (a, &ones[..], &ones[..]),
    };
    let (s, reference) = session_on(work);
    let columns = |v: &[f64], by: &[f64]| -> Vec<f64> {
        v.chunks(n).flat_map(|col| scaled(col, by)).collect()
    };

    // SparseLu is the session between the scales, bit for bit.
    let x = lu.try_solve(b).unwrap();
    let via_session = scaled(&s.try_solve(&scaled(b, rows)).unwrap(), cols);
    assert_eq!(x, via_session, "{what}: solve");
    if !equil {
        assert_eq!(x, s.try_solve(b).unwrap(), "{what}: solve, unscaled");
    }
    let xt = lu.try_solve_transposed(b).unwrap();
    let via_session = scaled(&s.try_solve_transposed(&scaled(b, cols)).unwrap(), rows);
    assert_eq!(xt, via_session, "{what}: transposed solve");
    let xs = lu.try_solve_many(bb, MANY).unwrap();
    let via_session = columns(&s.try_solve_many(&columns(bb, rows), MANY).unwrap(), cols);
    assert_eq!(xs, via_session, "{what}: many");
    assert_eq!(lu.solve(b), x);
    assert_eq!(lu.solve_transposed(b), xt);
    assert_eq!(lu.solve_many(bb, MANY), xs);
    assert_eq!(
        s.solve(&scaled(b, rows)),
        s.try_solve(&scaled(b, rows)).unwrap()
    );

    // Column r of the blocked solve is the single solve of column r, on
    // both objects.
    let ss = s.try_solve_many(bb, MANY).unwrap();
    for r in 0..MANY {
        let col = r * n..(r + 1) * n;
        let single = lu.try_solve(&bb[col.clone()]).unwrap();
        assert_eq!(xs[col.clone()], single[..], "{what}: SparseLu column {r}");
        let single = s.try_solve(&bb[col.clone()]).unwrap();
        assert_eq!(ss[col], single[..], "{what}: session column {r}");
    }

    // The free sweeps on the structure the session holds and on the
    // static one, and the static factors' other solves.
    let (sym, bm) = (s.symbolic(), s.block_matrix().unwrap());
    let mut y = sym.row_perm.apply_vec(b);
    solve_permuted(bm, &sym.block_structure, &mut y);
    assert_eq!(sym.col_perm.apply_inverse_vec(&y), s.try_solve(b).unwrap());
    let storages = [
        (bm, &sym.block_structure, "held"),
        (&reference.bm, &reference.sym.block_structure, "static"),
    ];
    for (bm, bs, held) in storages {
        let mut y_static = sym.row_perm.apply_vec(b);
        solve_permuted(bm, bs, &mut y_static);
        assert_eq!(y_static, y, "{what}: {held} sweep");
        for threads in [1usize, 2, 4] {
            let mut y_par = sym.row_perm.apply_vec(b);
            solve_permuted_parallel(bm, bs, &mut y_par, threads);
            assert_eq!(y_par, y, "{what}: {held} parallel sweep, {threads} threads");
        }
    }
    let wb = scaled(b, rows);
    assert_eq!(reference.solve(&wb), s.try_solve(&wb).unwrap(), "{what}");
    let wb = scaled(b, cols);
    let xt_static = reference.solve_transposed(&wb);
    assert_eq!(xt_static, s.try_solve_transposed(&wb).unwrap(), "{what}");
    let wbb = columns(bb, rows);
    let xs_static = reference.solve_many(&wbb, MANY);
    assert_eq!(xs_static, s.try_solve_many(&wbb, MANY).unwrap(), "{what}");

    // Both oracles, forward and transposed.
    for (x, t) in [(&x, 0), (&xt, 1)] {
        let (e_gp, e_dense) = (
            relative_error(x, &case.gp[t]),
            relative_error(x, &case.dense[t]),
        );
        assert!(e_gp < 1e-9, "{what}: transposed={t} vs gp: {e_gp}");
        assert!(e_dense < 1e-9, "{what}: transposed={t} vs dense: {e_dense}");
    }

    // Refinement, both directions: at most five steps and never worse than
    // 10× the unrefined residual; the deciding door is the raw solve, bit
    // for bit, when not asked on unperturbed factors, and the refined door
    // when asked.
    for (t, x0) in [(false, &x), (true, &xt)] {
        let omega = ScaledResidual::new(a, t);
        let r0 = omega.of(x0, b).1;
        let (x1, steps) = lu.try_solve_refined(a, b, t).unwrap();
        assert!(steps <= 5, "{what}: transposed={t}: {steps} steps");
        let r1 = omega.of(&x1, b).1;
        assert!(
            r1 <= r0 * 10.0 + 1e-15,
            "{what}: SparseLu t={t} {r0} → {r1}"
        );
        assert_eq!(&lu.try_solve_op(a, b, t, false).unwrap(), x0, "{what}");
        assert_eq!(lu.try_solve_op(a, b, t, true).unwrap(), x1, "{what}");

        let wb = scaled(b, if t { cols } else { rows });
        let y0 = if t {
            s.try_solve_transposed(&wb)
        } else {
            s.try_solve(&wb)
        };
        let y0 = y0.unwrap();
        let omega = ScaledResidual::new(work, t);
        let r0 = omega.of(&y0, &wb).1;
        let (y1, steps) = s.solve_refined(work, &wb, t).unwrap();
        assert!(steps <= 5, "{what}: session transposed={t}: {steps} steps");
        let r1 = omega.of(&y1, &wb).1;
        assert!(r1 <= r0 * 10.0 + 1e-15, "{what}: session t={t} {r0} → {r1}");
        assert_eq!(s.solve_op(work, &wb, t, false).unwrap(), y0, "{what}");
        assert_eq!(s.solve_op(work, &wb, t, true).unwrap(), y1, "{what}");
    }

    // Wrong lengths are structured errors on every fallible door.
    let (short, long) = (&b[..n - 1], &bb[..2 * n + 1]);
    assert!(is_mismatch(lu.try_solve(short), n, n - 1), "{what}");
    assert!(is_mismatch(lu.try_solve_transposed(short), n, n - 1));
    assert!(is_mismatch(lu.try_solve_many(long, 2), 2 * n, 2 * n + 1));
    assert!(is_mismatch(lu.try_solve_refined(a, short, false), n, n - 1));
    assert!(is_mismatch(
        lu.try_solve_op(a, short, true, false),
        n,
        n - 1
    ));
    assert!(is_mismatch(s.try_solve(short), n, n - 1), "{what}");
    assert!(is_mismatch(s.try_solve_transposed(short), n, n - 1));
    assert!(is_mismatch(s.try_solve_many(long, 2), 2 * n, 2 * n + 1));
    assert!(is_mismatch(s.solve_refined(work, short, true), n, n - 1));
    assert!(is_mismatch(s.solve_op(work, short, false, false), n, n - 1));
}

#[test]
fn every_solve_door_agrees_on_static_and_realised_structures() {
    for case in cases() {
        for equil in [false, true] {
            check(&case, equil);
        }
    }
}

/// The four sweeps of one set of factors — the single solve, the
/// parallel one at 1/2/4/8 threads, every column of the blocked one and
/// the transposed one — agree bit for bit under each kernel instantiation
/// the CPU runs, and with the baseline's (the C library's `fma` where the
/// others have the instruction), on the in-block storage and on the
/// static one.
#[test]
fn every_sweep_agrees_under_every_kernel_instantiation() {
    let base = Dispatch::portable();
    let bits = |x: Vec<f64>| -> Vec<u64> { x.into_iter().map(f64::to_bits).collect() };
    for case in cases() {
        let (a, n) = (&case.a, case.a.ncols());
        let (s, reference) = session_on(a);
        let sym = s.symbolic();
        let storages = [
            (s.block_matrix().unwrap(), &sym.block_structure, "held"),
            (&reference.bm, &reference.sym.block_structure, "static"),
        ];
        let columns: Vec<Vec<f64>> = (case.bb.chunks(n))
            .map(|col| sym.row_perm.apply_vec(col))
            .collect();
        let columns_t: Vec<Vec<f64>> = (case.bb.chunks(n))
            .map(|col| sym.col_perm.apply_vec(col))
            .collect();
        let mut wants_t = Vec::new();
        for (bm, bs, held) in storages {
            let single = |col: &[f64], d: &Dispatch| {
                let mut y = col.to_vec();
                solve_permuted_with(bm, bs, &mut y, d);
                y
            };
            let transposed = |col: &[f64], d: &Dispatch| {
                let mut y = col.to_vec();
                solve_transposed_permuted_with(bm, bs, &mut y, d);
                bits(y)
            };
            let want: Vec<Vec<f64>> = columns.iter().map(|c| single(c, &base)).collect();
            let want_t: Vec<Vec<u64>> = columns_t.iter().map(|c| transposed(c, &base)).collect();
            for d in Dispatch::available() {
                let what = format!("{}: {held}, {}", case.name, d.name());
                for (r, col) in columns.iter().enumerate() {
                    assert_eq!(single(col, &d), want[r], "{what}: column {r}");
                }
                for (r, col) in columns_t.iter().enumerate() {
                    let got = transposed(col, &d);
                    assert_eq!(got, want_t[r], "{what}: transposed column {r}");
                }
                for threads in [1usize, 2, 4, 8] {
                    let mut y = columns[0].clone();
                    solve_permuted_parallel_with(bm, bs, &mut y, threads, &d);
                    assert_eq!(y, want[0], "{what}: {threads} threads");
                }
                let mut many = columns.concat();
                solve_many_permuted(bm, bs, &mut many, MANY, &d);
                assert_eq!(many, want.concat(), "{what}: solve_many");
            }
            wants_t.push(want_t);
        }
        // The held and the static storage list the same rows below every
        // diagonal block, so their transposed dots agree too.
        assert_eq!(wants_t[0], wants_t[1], "{}: transposed", case.name);
        // The session's own solve runs its options' kernels: the same bits.
        let mut y = columns[0].clone();
        solve_permuted_with(storages[0].0, storages[0].1, &mut y, &base);
        let x = sym.col_perm.apply_inverse_vec(&y);
        assert_eq!(s.try_solve(&case.b).unwrap(), x, "{}", case.name);
        let mut y = sym.col_perm.apply_vec(&case.b);
        solve_transposed_permuted_with(storages[0].0, storages[0].1, &mut y, &base);
        let x = sym.row_perm.apply_inverse_vec(&y);
        let got = s.try_solve_transposed(&case.b).unwrap();
        assert_eq!(bits(got), bits(x), "{}: transposed", case.name);
    }
}

/// `SparseLu::factor` speculates on the in-block structure, which every
/// suite matrix keeps to: at every thread count and mapping its factors are
/// the static ones (one thread) and so is every solve, bit for bit.
#[test]
fn the_speculative_one_shot_factor_solves_as_the_static_session() {
    use parsplu::sched::Mapping;
    let bits = |x: Vec<f64>| -> Vec<u64> { x.into_iter().map(f64::to_bits).collect() };
    for m in paper_suite(Scale::Reduced) {
        let a = &m.a;
        let reference = StaticFactors::of(a);
        let b = manufactured_rhs(a, 41).1;
        let bb: Vec<f64> = (0..MANY as u64)
            .flat_map(|r| manufactured_rhs(a, 50 + r).1)
            .collect();
        let want = (
            bits(reference.solve(&b)),
            bits(reference.solve_transposed(&b)),
            bits(reference.solve_many(&bb, MANY)),
        );
        for threads in [1usize, 2, 4, 8] {
            for mapping in [Mapping::Static1D, Mapping::Dynamic] {
                let what = format!("{} threads={threads} {mapping:?}", m.name);
                let opts = Options {
                    threads,
                    mapping,
                    ..Options::default()
                };
                let lu = SparseLu::factor(a, &opts).unwrap();
                assert!(lu.session().is_realised(), "{what}");
                let bm = lu.session().block_matrix().unwrap();
                assert_eq!(bm.factor_difference(&reference.bm), None, "{what}");
                assert_eq!(bits(lu.try_solve(&b).unwrap()), want.0, "{what}: solve");
                let xt = lu.try_solve_transposed(&b).unwrap();
                assert_eq!(bits(xt), want.1, "{what}: transposed");
                let xs = lu.try_solve_many(&bb, MANY).unwrap();
                assert_eq!(bits(xs), want.2, "{what}: many");
            }
        }
    }
}

#[test]
fn a_session_without_factors_answers_not_factored_on_every_door() {
    let a = &paper_suite(Scale::Reduced)[0].a;
    let b = manufactured_rhs(a, 41).1;
    let s = SluSession::analyze(a.pattern(), &Options::default()).unwrap();
    let nf = |r: Result<Vec<f64>, LuError>| matches!(r, Err(LuError::NotFactored));
    assert!(nf(s.try_solve(&b)));
    assert!(nf(s.try_solve_transposed(&b)));
    assert!(nf(s.try_solve_many(&b, 1)));
    assert!(matches!(
        s.solve_refined(a, &b, false),
        Err(LuError::NotFactored)
    ));
    // Factors first, then the length: a short vector changes nothing.
    assert!(nf(s.try_solve(&b[..1])));
}
