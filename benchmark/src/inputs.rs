//! Seeded inputs and the correctness gate.
//!
//! Every value set and right-hand side is a function of `--seed` (through
//! a splitmix64 stream), so one seed always gives the same run. The
//! sparsity patterns are the same for every seed: fill, and with it op time
//! and memory, follows the pattern (±7 % across random `sherman3` patterns),
//! and a metric that moves with the seed cannot hold a 10 % bound. The
//! generators are the repository's `matgen` analogues of the paper's
//! matrices, called with the paper-size (or, under `--smoke`, reduced)
//! dimensions and the pattern seeds `matgen::paper_matrix` uses.

use parsplu::core::{LuError, Options, SluSession};
use parsplu::matgen::{
    fem2d_unsymmetric, grid3d_anisotropic, manufactured_rhs, navier_stokes_2d, GridOptions,
};
use parsplu::sparse::CscMatrix;

/// An op fails when its relative residual `‖Ax−b‖∞/‖b‖∞` exceeds this.
pub const RESIDUAL_LIMIT: f64 = 1e-10;

/// splitmix64: the seed stream every input seed is drawn from.
pub struct SeedStream(u64);

impl SeedStream {
    pub fn new(seed: u64) -> SeedStream {
        SeedStream(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Matrix sizes: the paper's orders, or the generators' reduced variants
/// for `--smoke`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

/// The `sherman3` analogue (thinned 7-point reservoir grid) with the given
/// value seed.
pub fn sherman3(scale: Scale, value_seed: u64) -> CscMatrix {
    let (nx, ny, nz) = match scale {
        Scale::Full => (35, 11, 13),
        Scale::Smoke => (8, 5, 4),
    };
    grid3d_anisotropic(
        nx,
        ny,
        nz,
        GridOptions {
            connection_prob: 0.5,
            convection: 0.2,
            pattern_seed: 33,
            value_seed,
            ..GridOptions::default()
        },
    )
}

/// The four low-fill reservoir/flow patterns of `oneshot_front`:
/// `sherman3`, `orsreg1`, `lnsp3937` and `saylr4` analogues.
pub fn front_matrices(scale: Scale, seeds: &mut SeedStream) -> Vec<CscMatrix> {
    let full = scale == Scale::Full;
    let orsreg1 = {
        let (nx, ny, nz) = if full { (21, 21, 5) } else { (7, 7, 3) };
        grid3d_anisotropic(
            nx,
            ny,
            nz,
            GridOptions {
                pattern_seed: 11,
                value_seed: seeds.next(),
                ..GridOptions::default()
            },
        )
    };
    let lnsp = {
        let c = if full { 36 } else { 9 };
        navier_stokes_2d(c, c, seeds.next())
    };
    let saylr4 = {
        let (nx, ny, nz) = if full { (33, 6, 18) } else { (9, 3, 6) };
        grid3d_anisotropic(
            nx,
            ny,
            nz,
            GridOptions {
                connection_prob: 0.95,
                pattern_seed: 44,
                value_seed: seeds.next(),
                ..GridOptions::default()
            },
        )
    };
    vec![sherman3(scale, seeds.next()), orsreg1, lnsp, saylr4]
}

/// The `goodwin` generator on a 40 × 40 node mesh, 2 unknowns per node
/// (n = 3200, nnz ≈ 127k): the pattern depends on the mesh only, the values
/// on `value_seed`. `refactor_numeric` and `solve_mix` share it.
pub fn goodwin(scale: Scale, value_seed: u64) -> CscMatrix {
    let (nx, ny) = match scale {
        Scale::Full => (40, 40),
        Scale::Smoke => (10, 11),
    };
    fem2d_unsymmetric(nx, ny, 2, value_seed)
}

/// A right-hand side `b = A·x` for a seeded `x`.
pub fn rhs(a: &CscMatrix, seed: u64) -> Vec<f64> {
    manufactured_rhs(a, seed).1
}

/// FNV-1a over the exact bit patterns of `x` — the same hash the daemon
/// returns as `x_hash`, so in-process and over-the-wire solutions compare.
pub fn solution_hash(x: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in x {
        for b in v.to_bits().to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The reference solver: a one-thread session over `a`'s pattern. Every
/// workload derives its reference hashes from one of these in set-up.
pub fn reference_session(a: &CscMatrix) -> Result<SluSession, LuError> {
    let mut s = SluSession::analyze(a.pattern(), &Options::default())?;
    s.factor(a)?;
    Ok(s)
}

/// The per-op check: `x` must hash to the reference and solve `A x = b` to
/// [`RESIDUAL_LIMIT`]. Returns what went wrong, if anything.
pub fn check_solution(a: &CscMatrix, x: &[f64], b: &[f64], want_hash: u64) -> Result<(), String> {
    let got = solution_hash(x);
    if got != want_hash {
        return Err(format!(
            "solution hash {got:#018x} differs from the reference {want_hash:#018x}"
        ));
    }
    let mut r = b.to_vec();
    a.mat_vec_sub(x, &mut r);
    let norm = |v: &[f64]| v.iter().fold(0.0_f64, |m, e| m.max(e.abs()));
    let limit = RESIDUAL_LIMIT * norm(b);
    // `all(.. <= ..)` also fails on a NaN entry, which a max-norm would skip.
    if r.iter().all(|e| e.abs() <= limit) {
        Ok(())
    } else {
        Err(format!(
            "relative residual {:e} above {RESIDUAL_LIMIT:e} (or not a number)",
            norm(&r) / norm(b)
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = front_matrices(Scale::Smoke, &mut SeedStream::new(5));
        let b = front_matrices(Scale::Smoke, &mut SeedStream::new(5));
        let c = front_matrices(Scale::Smoke, &mut SeedStream::new(6));
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.values(), y.values());
        }
        assert_ne!(a[0].values(), c[0].values());
    }

    #[test]
    fn check_rejects_wrong_answers() {
        let a = goodwin(Scale::Smoke, 1);
        let b = rhs(&a, 2);
        let s = reference_session(&a).unwrap();
        let x = s.solve(&b);
        let h = solution_hash(&x);
        assert!(check_solution(&a, &x, &b, h).is_ok());
        assert!(check_solution(&a, &x, &b, h ^ 1).is_err());
        let mut bad = x.clone();
        bad[0] = f64::NAN;
        assert!(check_solution(&a, &bad, &b, solution_hash(&bad)).is_err());
    }
}
