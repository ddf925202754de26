//! Deterministic synthetic analogues of the paper's benchmark matrices.
//!
//! The paper evaluates on seven Harwell–Boeing / Davis-collection matrices
//! (Table 1). Those files cannot be redistributed here, so each is replaced
//! by a generator that reproduces the *application structure* that drives
//! the symbolic and parallel behaviour — grid stencils for the oil-reservoir
//! matrices, a staggered coupled-variable stencil for the linearized
//! Navier–Stokes pair, and a dense-neighbourhood FEM discretization for
//! `goodwin` (see DESIGN.md §5, substitution 1). All generators are
//! deterministic given their seeds.
//!
//! | name     | paper: order / nnz | analogue                                |
//! |----------|--------------------|------------------------------------------|
//! | sherman3 | 5005 / 20033       | 35×11×13 grid, thinned 7-point stencil    |
//! | sherman5 | 3312 / 20793       | 16×23×9 grid, fully unsymmetric pattern   |
//! | lnsp3937 | 3937 / 25407       | 36×36 staggered Navier–Stokes (n = 3960)  |
//! | lns3937  | 3937 / 25407       | same pattern, different values            |
//! | orsreg1  | 2205 / 14133       | 21×21×5 full 7-point reservoir grid       |
//! | saylr4   | 3564 / 22316       | 33×6×18 7-point reservoir grid            |
//! | goodwin  | 7320 / 324772      | 60×61 mesh, 2 dofs, 21-node neighbourhood |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use splu_sparse::{CooMatrix, CscMatrix, CscRef, SparsityPattern};

/// Knobs for the 3D grid generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridOptions {
    /// Probability that each off-diagonal stencil connection is kept.
    pub connection_prob: f64,
    /// When `false`, the two directions of each connection are kept or
    /// dropped independently (a fully unsymmetric pattern, as in sherman5).
    pub pattern_symmetric: bool,
    /// Strength of the convection term that skews the values unsymmetric.
    pub convection: f64,
    /// Seed for the structural decisions.
    pub pattern_seed: u64,
    /// Seed for the numerical values.
    pub value_seed: u64,
}

impl Default for GridOptions {
    fn default() -> Self {
        GridOptions {
            connection_prob: 1.0,
            pattern_symmetric: true,
            convection: 0.3,
            pattern_seed: 1,
            value_seed: 2,
        }
    }
}

/// 3D 7-point reservoir-style grid operator on an `nx × ny × nz` grid.
///
/// Anisotropic diffusion plus a convection term; the diagonal is made
/// strictly dominant so the matrices are well conditioned (the paper's
/// reservoir matrices are similarly benign).
pub fn grid3d_anisotropic(nx: usize, ny: usize, nz: usize, opts: GridOptions) -> CscMatrix {
    let n = nx * ny * nz;
    let idx = |x: usize, y: usize, z: usize| x + nx * (y + ny * z);
    let mut pat_rng = SmallRng::seed_from_u64(opts.pattern_seed);
    let mut val_rng = SmallRng::seed_from_u64(opts.value_seed);
    // Direction-dependent permeabilities: vertical transmissibility much
    // smaller, as in layered reservoirs.
    let kdir = [1.0, 1.0, 0.9, 0.9, 0.08, 0.08];
    let mut coo = CooMatrix::with_capacity(n, n, 7 * n);
    let keep_pair = |rng: &mut SmallRng| rng.gen_bool(opts.connection_prob.clamp(0.0, 1.0));
    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                let i = idx(x, y, z);
                let mut diag = 0.0_f64;
                // (neighbor, direction id, sign of convection contribution)
                let neighbors: [(Option<usize>, usize, f64); 6] = [
                    (x.checked_sub(1).map(|xm| idx(xm, y, z)), 0, 1.0),
                    ((x + 1 < nx).then(|| idx(x + 1, y, z)), 1, -1.0),
                    (y.checked_sub(1).map(|ym| idx(x, ym, z)), 2, 1.0),
                    ((y + 1 < ny).then(|| idx(x, y + 1, z)), 3, -1.0),
                    (z.checked_sub(1).map(|zm| idx(x, y, zm)), 4, 1.0),
                    ((z + 1 < nz).then(|| idx(x, y, z + 1)), 5, -1.0),
                ];
                for (nb, dir, conv_sign) in neighbors {
                    let Some(j) = nb else { continue };
                    // Symmetric patterns decide each undirected pair once,
                    // via a hash of the (min, max) endpoints, so both
                    // directions agree; unsymmetric patterns decide each
                    // direction independently from the sequential stream.
                    let keep = if opts.pattern_symmetric {
                        pair_kept(opts.pattern_seed, i.min(j), i.max(j), opts.connection_prob)
                    } else {
                        keep_pair(&mut pat_rng)
                    };
                    if !keep {
                        continue;
                    }
                    let k = kdir[dir] * (0.5 + val_rng.gen_range(0.0..1.0));
                    let conv = opts.convection * conv_sign * val_rng.gen_range(0.0..1.0);
                    let off = -k + conv;
                    coo.push(i, j, off);
                    diag += k + conv.abs();
                }
                // Strict dominance margin.
                coo.push(i, i, diag + 1.0 + val_rng.gen_range(0.0..0.5));
            }
        }
    }
    coo.to_csc()
}

/// Deterministic keep/drop decision for the undirected pair `(a, b)`.
fn pair_kept(seed: u64, a: usize, b: usize, prob: f64) -> bool {
    let mut rng = SmallRng::seed_from_u64(
        seed ^ (a as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (b as u64).wrapping_mul(0xD1B5_4A32_D192_ED03),
    );
    rng.gen_bool(prob.clamp(0.0, 1.0))
}

/// 2D staggered-grid linearized Navier–Stokes operator (the
/// lnsp3937/lns3937 analogue): `u`, `v` velocities on faces, pressure `p`
/// in cells, with convection/diffusion blocks and the pressure-gradient /
/// divergence couplings.
pub fn navier_stokes_2d(cells_x: usize, cells_y: usize, value_seed: u64) -> CscMatrix {
    let nu = (cells_x + 1) * cells_y; // u on vertical faces
    let nv = cells_x * (cells_y + 1); // v on horizontal faces
    let np = cells_x * cells_y; // p in cells
    let n = nu + nv + np;
    let uid = |i: usize, j: usize| i + (cells_x + 1) * j;
    let vid = |i: usize, j: usize| nu + i + cells_x * j;
    let pid = |i: usize, j: usize| nu + nv + i + cells_x * j;
    let mut rng = SmallRng::seed_from_u64(value_seed);
    let mut coo = CooMatrix::with_capacity(n, n, 9 * n);

    // Momentum rows: 5-point convection-diffusion on the velocity grids,
    // plus pressure-gradient coupling.
    for j in 0..cells_y {
        for i in 0..=cells_x {
            let r = uid(i, j);
            let mut diag = 4.0 + rng.gen_range(0.0..1.0);
            let nb = |c: usize, coo: &mut CooMatrix, rng: &mut SmallRng| {
                coo.push(r, c, -1.0 + rng.gen_range(-0.4..0.4));
            };
            if i > 0 {
                nb(uid(i - 1, j), &mut coo, &mut rng);
            }
            if i < cells_x {
                nb(uid(i + 1, j), &mut coo, &mut rng);
            }
            if j > 0 {
                nb(uid(i, j - 1), &mut coo, &mut rng);
            }
            if j + 1 < cells_y {
                nb(uid(i, j + 1), &mut coo, &mut rng);
            }
            // Pressure gradient: cells left/right of the face.
            if i > 0 {
                coo.push(r, pid(i - 1, j), 1.0 + rng.gen_range(0.0..0.2));
                diag += 0.5;
            }
            if i < cells_x {
                coo.push(r, pid(i, j), -1.0 - rng.gen_range(0.0..0.2));
                diag += 0.5;
            }
            coo.push(r, r, diag);
        }
    }
    for j in 0..=cells_y {
        for i in 0..cells_x {
            let r = vid(i, j);
            let mut diag = 4.0 + rng.gen_range(0.0..1.0);
            if i > 0 {
                coo.push(r, vid(i - 1, j), -1.0 + rng.gen_range(-0.4..0.4));
            }
            if i + 1 < cells_x {
                coo.push(r, vid(i + 1, j), -1.0 + rng.gen_range(-0.4..0.4));
            }
            if j > 0 {
                coo.push(r, vid(i, j - 1), -1.0 + rng.gen_range(-0.4..0.4));
            }
            if j < cells_y {
                coo.push(r, vid(i, j + 1), -1.0 + rng.gen_range(-0.4..0.4));
            }
            if j > 0 {
                coo.push(r, pid(i, j - 1), 1.0 + rng.gen_range(0.0..0.2));
                diag += 0.5;
            }
            if j < cells_y {
                coo.push(r, pid(i, j), -1.0 - rng.gen_range(0.0..0.2));
                diag += 0.5;
            }
            coo.push(r, r, diag);
        }
    }
    // Continuity rows: divergence of the four surrounding faces, plus a
    // stabilization diagonal (keeps the matrix nonsingular, as penalty /
    // artificial-compressibility formulations do).
    for j in 0..cells_y {
        for i in 0..cells_x {
            let r = pid(i, j);
            coo.push(r, uid(i, j), -1.0 + rng.gen_range(-0.1..0.1));
            coo.push(r, uid(i + 1, j), 1.0 + rng.gen_range(-0.1..0.1));
            coo.push(r, vid(i, j), -1.0 + rng.gen_range(-0.1..0.1));
            coo.push(r, vid(i, j + 1), 1.0 + rng.gen_range(-0.1..0.1));
            coo.push(r, r, 4.5 + rng.gen_range(0.0..0.5));
        }
    }
    coo.to_csc()
}

/// Unsymmetric 2D FEM-style operator (the `goodwin` analogue): `dofs`
/// unknowns per node on an `nx × ny` node mesh, each node coupled to a
/// 21-node neighbourhood (5×5 square minus its corners), giving the ~44
/// nonzeros/row density of the original.
pub fn fem2d_unsymmetric(nx: usize, ny: usize, dofs: usize, value_seed: u64) -> CscMatrix {
    let nodes = nx * ny;
    let n = nodes * dofs;
    let node = |x: usize, y: usize| x + nx * y;
    let mut rng = SmallRng::seed_from_u64(value_seed);
    let mut coo = CooMatrix::with_capacity(n, n, 21 * dofs * dofs * nodes);
    for y in 0..ny {
        for x in 0..nx {
            let me = node(x, y);
            for dy in -2i64..=2 {
                for dx in -2i64..=2 {
                    // 5×5 neighbourhood minus the four extreme corners.
                    if dx.abs() == 2 && dy.abs() == 2 {
                        continue;
                    }
                    let (xx, yy) = (x as i64 + dx, y as i64 + dy);
                    if xx < 0 || yy < 0 || xx >= nx as i64 || yy >= ny as i64 {
                        continue;
                    }
                    let other = node(xx as usize, yy as usize);
                    let dist = (dx.abs() + dy.abs()) as f64;
                    for di in 0..dofs {
                        for dj in 0..dofs {
                            let r = me * dofs + di;
                            let c = other * dofs + dj;
                            if r == c {
                                coo.push(r, c, 30.0 + rng.gen_range(0.0..5.0));
                            } else {
                                // Unsymmetric advection-like coupling.
                                let v = (1.0 / (1.0 + dist)) * rng.gen_range(-1.0..1.0)
                                    + 0.15 * dx as f64;
                                coo.push(r, c, v);
                            }
                        }
                    }
                }
            }
        }
    }
    coo.to_csc()
}

/// A benchmark matrix: name, application domain, and the matrix itself.
pub struct BenchMatrix {
    /// The original matrix's name.
    pub name: &'static str,
    /// Application domain from the paper's Table 1.
    pub domain: &'static str,
    /// The synthetic analogue.
    pub a: CscMatrix,
}

/// Problem scale: `Full` matches the paper's orders; `Reduced` shrinks each
/// grid for fast tests and CI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Paper-size matrices (orders 2205–7320).
    Full,
    /// Shrunk variants of the same generators (orders ~100–600).
    Reduced,
}

/// Generates one of the paper's seven benchmark matrices by name.
pub fn paper_matrix(name: &str, scale: Scale) -> Option<CscMatrix> {
    let full = matches!(scale, Scale::Full);
    let m = match name {
        "sherman3" => {
            let (nx, ny, nz) = if full { (35, 11, 13) } else { (8, 5, 4) };
            grid3d_anisotropic(
                nx,
                ny,
                nz,
                GridOptions {
                    connection_prob: 0.5,
                    convection: 0.2,
                    pattern_seed: 33,
                    value_seed: 34,
                    ..GridOptions::default()
                },
            )
        }
        "sherman5" => {
            let (nx, ny, nz) = if full { (16, 23, 9) } else { (6, 7, 3) };
            grid3d_anisotropic(
                nx,
                ny,
                nz,
                GridOptions {
                    connection_prob: 0.9,
                    pattern_symmetric: false,
                    convection: 0.6,
                    pattern_seed: 55,
                    value_seed: 56,
                },
            )
        }
        "lnsp3937" => {
            let c = if full { 36 } else { 9 };
            navier_stokes_2d(c, c, 3937)
        }
        "lns3937" => {
            let c = if full { 36 } else { 9 };
            // Same pattern as lnsp3937, different values — the paper's pair
            // differs the same way.
            navier_stokes_2d(c, c, 3938)
        }
        "orsreg1" => {
            let (nx, ny, nz) = if full { (21, 21, 5) } else { (7, 7, 3) };
            grid3d_anisotropic(
                nx,
                ny,
                nz,
                GridOptions {
                    pattern_seed: 11,
                    value_seed: 12,
                    ..GridOptions::default()
                },
            )
        }
        "saylr4" => {
            let (nx, ny, nz) = if full { (33, 6, 18) } else { (9, 3, 6) };
            grid3d_anisotropic(
                nx,
                ny,
                nz,
                GridOptions {
                    connection_prob: 0.95,
                    pattern_seed: 44,
                    value_seed: 45,
                    ..GridOptions::default()
                },
            )
        }
        "goodwin" => {
            let (nx, ny) = if full { (60, 61) } else { (10, 11) };
            fem2d_unsymmetric(nx, ny, 2, 73)
        }
        _ => return None,
    };
    Some(m)
}

/// The seven benchmark matrices of the paper's Table 1, in table order.
pub fn paper_suite(scale: Scale) -> Vec<BenchMatrix> {
    let spec: [(&'static str, &'static str); 7] = [
        ("sherman3", "oil reservoir modelling"),
        ("sherman5", "oil reservoir modelling"),
        ("lnsp3937", "fluid flow modelling"),
        ("lns3937", "fluid flow modelling"),
        ("orsreg1", "oil reservoir modelling"),
        ("saylr4", "oil reservoir modelling"),
        ("goodwin", "fluid mechanics (FEM)"),
    ];
    spec.iter()
        .map(|&(name, domain)| BenchMatrix {
            name,
            domain,
            a: paper_matrix(name, scale).expect("all suite names are known"),
        })
        .collect()
}

/// A manufactured problem: returns `(x_true, b = A·x_true)` for testing the
/// full solve path.
pub fn manufactured_rhs<'a>(a: impl Into<CscRef<'a>>, seed: u64) -> (Vec<f64>, Vec<f64>) {
    let a = a.into();
    let mut rng = SmallRng::seed_from_u64(seed);
    let x: Vec<f64> = (0..a.pattern().ncols())
        .map(|_| rng.gen_range(-1.0..1.0))
        .collect();
    let b = a.mat_vec(&x);
    (x, b)
}

/// The 7×7 unsymmetric example of the paper's Figure 1(a) — the shared
/// walkthrough fixture for the symbolic machinery (re-exported as
/// `splu_symbolic::fixtures::fig1_pattern`).
///
/// The figure in the retrieved paper text is partially garbled, so this
/// fixture is a faithful *small unsymmetric matrix with a zero-free
/// diagonal* exercising the same phenomena (a genuine forest with several
/// trees, fill-in, nontrivial postorder) rather than a digit-perfect copy.
pub fn fig1_pattern() -> SparsityPattern {
    let entries = vec![
        (0, 0),
        (0, 2),
        (1, 1),
        (1, 3),
        (2, 0),
        (2, 2),
        (2, 4),
        (3, 1),
        (3, 3),
        (3, 6),
        (4, 4),
        (4, 5),
        (5, 2),
        (5, 5),
        (5, 6),
        (6, 4),
        (6, 6),
    ];
    SparsityPattern::from_entries(7, 7, entries).unwrap()
}

/// The Figure 1 matrix with deterministic nonzero values (diagonally
/// dominant so that no pivoting is strictly required, yet unsymmetric).
pub fn fig1_matrix() -> CscMatrix {
    let p = fig1_pattern();
    let vals: Vec<f64> = p
        .entries()
        .map(|(i, j)| {
            if i == j {
                10.0 + i as f64
            } else {
                1.0 + ((3 * i + 5 * j) % 7) as f64 * 0.25
            }
        })
        .collect();
    CscMatrix::from_pattern_values(p, vals).expect("pattern and values align")
}

/// A small random square pattern with a planted zero-free diagonal plus
/// `extra` uniformly random entries — the structural fuzzing workload of
/// the symbolic test-suites.
pub fn random_pattern(n: usize, extra: usize, seed: u64) -> SparsityPattern {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut entries: Vec<(usize, usize)> = (0..n).map(|i| (i, i)).collect();
    for _ in 0..extra {
        entries.push((rng.gen_range(0..n), rng.gen_range(0..n)));
    }
    SparsityPattern::from_entries(n, n, entries).unwrap()
}

/// A small random square matrix over a [`random_pattern`]-style structure:
/// diagonal `base + U[0, 1)`, then `extra` unit-interval off-diagonal
/// triplets (duplicates sum) — the numerical fuzzing workload of the
/// driver test-suites.
pub fn random_diag_dominant(n: usize, extra: usize, seed: u64, base: f64) -> CscMatrix {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut trips: Vec<(usize, usize, f64)> = (0..n)
        .map(|i| (i, i, base + rng.gen_range(0.0..1.0)))
        .collect();
    for _ in 0..extra {
        trips.push((
            rng.gen_range(0..n),
            rng.gen_range(0..n),
            rng.gen_range(-1.0..1.0),
        ));
    }
    CscMatrix::from_triplets(n, n, &trips).unwrap()
}

/// A random unsymmetric matrix with a guaranteed nonzero, diagonally
/// dominant diagonal — the generic fuzzing workload used across the
/// test-suites and stress examples.
pub fn random_unsymmetric(n: usize, extra_per_row: usize, seed: u64) -> CscMatrix {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut coo = CooMatrix::with_capacity(n, n, n * (extra_per_row + 1));
    for _ in 0..n * extra_per_row {
        coo.push(
            rng.gen_range(0..n),
            rng.gen_range(0..n),
            rng.gen_range(-1.0..1.0),
        );
    }
    // Dominant diagonal added last so duplicate sums keep it dominant.
    for i in 0..n {
        coo.push(
            i,
            i,
            2.0 * extra_per_row as f64 + 2.0 + rng.gen_range(0.0..1.0),
        );
    }
    coo.to_csc()
}

/// A banded unsymmetric matrix: half-bandwidths `lower`/`upper`, random
/// values, dominant diagonal. Useful for profile-oriented experiments
/// (RCM behaves very differently from minimum degree here).
pub fn banded(n: usize, lower: usize, upper: usize, seed: u64) -> CscMatrix {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut coo = CooMatrix::with_capacity(n, n, n * (lower + upper + 1));
    for i in 0..n {
        let lo = i.saturating_sub(lower);
        let hi = (i + upper).min(n - 1);
        for j in lo..=hi {
            if i == j {
                coo.push(i, i, (lower + upper) as f64 + 2.0 + rng.gen_range(0.0..1.0));
            } else {
                coo.push(i, j, rng.gen_range(-1.0..1.0));
            }
        }
    }
    coo.to_csc()
}

/// An ill-conditioned pivoting stress matrix: a banded, diagonally dominant
/// operator in which each column listed in `tiny_cols` is reduced to a
/// `tiny` diagonal plus a boosted subdiagonal `a[j+1, j] = 3.0` (no
/// entries above the diagonal, so under no-interchange pivoting the
/// column's upper factor stays numerically zero and the diagonal reaches
/// elimination still equal to `tiny`). Restricted (diagonal-rule) pivoting
/// therefore breaks down at exactly those columns, while the matrix itself
/// stays well conditioned because the large subdiagonal keeps the column
/// far from the span of the others. Used by the breakdown-policy and
/// fault-injection tests: `BreakdownPolicy::Error` must fail at the first
/// tiny column, and `BreakdownPolicy::Perturb` plus iterative refinement
/// must still reach a small residual.
///
/// # Panics
///
/// Panics if any entry of `tiny_cols` is `>= n - 1` (the boosted
/// subdiagonal must exist) or if `tiny_cols` has adjacent columns (the
/// boosted subdiagonal of one tiny column must not be the diagonal row of
/// another).
pub fn tiny_pivot_matrix(n: usize, tiny_cols: &[usize], tiny: f64, seed: u64) -> CscMatrix {
    for &j in tiny_cols {
        assert!(
            j + 1 < n,
            "tiny column {j} needs a subdiagonal row in 0..{n}"
        );
        assert!(
            !tiny_cols.contains(&(j + 1)),
            "tiny columns {j} and {} are adjacent",
            j + 1
        );
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut coo = CooMatrix::with_capacity(n, n, 5 * n);
    for j in 0..n {
        let is_tiny = tiny_cols.contains(&j);
        let lo = j.saturating_sub(2);
        let hi = (j + 2).min(n - 1);
        for i in lo..=hi {
            let v = if i == j {
                if is_tiny {
                    tiny
                } else {
                    8.0 + rng.gen_range(0.0..1.0)
                }
            } else if is_tiny && i == j + 1 {
                // Boosted subdiagonal: keeps the column well scaled even
                // though its diagonal is negligible.
                3.0
            } else if is_tiny {
                // No other entries: in particular nothing above the
                // diagonal, so Schur updates cannot inflate the tiny pivot.
                continue;
            } else {
                rng.gen_range(-1.0..1.0)
            };
            coo.push(i, j, v);
        }
    }
    coo.to_csc()
}

/// Partial pivoting that leaves the diagonal block: a `1e-3` diagonal, one
/// entry of magnitude 4 per column at a shuffled row, and `2n` entries of
/// magnitude below `0.2`. Nearly every pivot comes from the strong entry,
/// which lies outside the column's supernode for most columns — so a
/// one-shot factorization's speculation on the in-block structure falls
/// back to the static one.
pub fn cross_block_pivots(n: usize, seed: u64) -> CscMatrix {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut rows: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        rows.swap(i, rng.gen_range(0..=i));
    }
    let mut coo = CooMatrix::with_capacity(n, n, 4 * n);
    for (j, &strong) in rows.iter().enumerate() {
        coo.push(j, j, 1e-3);
        coo.push(strong, j, if rng.gen_bool(0.5) { 4.0 } else { -4.0 });
    }
    for _ in 0..2 * n {
        let (i, j) = (rng.gen_range(0..n), rng.gen_range(0..n));
        coo.push(i, j, rng.gen_range(-0.2..0.2));
    }
    coo.to_csc()
}

/// Partial pivoting that stays inside the diagonal block: `blocks` dense
/// `width × width` diagonal blocks, each a `1e-3` diagonal under entries of
/// magnitude 1 to 2, chained by one row of every block coupled to all
/// columns of the next with entries of magnitude below `1e-3`. Every column
/// interchanges, always for a row of its own dense block; the columns of a
/// block share their structure, so a supernode never splits one.
pub fn in_block_pivots(blocks: usize, width: usize, seed: u64) -> CscMatrix {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = blocks * width;
    let mut coo = CooMatrix::with_capacity(n, n, n * (width + 1));
    for b in 0..blocks {
        let block = b * width..(b + 1) * width;
        let coupled = (b > 0).then(|| rng.gen_range(block.start - width..block.start));
        for j in block.clone() {
            for i in block.clone() {
                let v = rng.gen_range(1.0..2.0) * if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
                coo.push(i, j, if i == j { 1e-3 } else { v });
            }
            if let Some(r) = coupled {
                coo.push(r, j, rng.gen_range(-1e-3..1e-3));
            }
        }
    }
    coo.to_csc()
}

#[cfg(test)]
mod tests {
    use super::*;
    use splu_ordering::{maximum_transversal, StructuralRank};

    #[test]
    fn fig1_fixture_is_unsymmetric_with_zero_free_diagonal() {
        let p = fig1_pattern();
        assert!(p.has_zero_free_diagonal());
        assert_ne!(p, p.transpose());
        let m = fig1_matrix();
        assert_eq!(m.nnz(), p.nnz());
        assert!(m.get(0, 0) >= 10.0);
    }

    #[test]
    fn small_random_generators_are_deterministic_with_planted_diagonals() {
        let p = random_pattern(20, 40, 3);
        assert_eq!(p, random_pattern(20, 40, 3));
        assert!(p.has_zero_free_diagonal());
        let a = random_diag_dominant(20, 60, 5, 3.0);
        assert_eq!(a, random_diag_dominant(20, 60, 5, 3.0));
        // Random duplicates sum onto the planted diagonal, so its exact
        // value floats — but it stays present and far from zero.
        assert!(a.pattern().has_zero_free_diagonal());
        for i in 0..20 {
            assert!(a.get(i, i) >= 2.0, "column {i}: {}", a.get(i, i));
        }
    }

    #[test]
    fn generators_are_deterministic() {
        let a = paper_matrix("orsreg1", Scale::Reduced).unwrap();
        let b = paper_matrix("orsreg1", Scale::Reduced).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn suite_has_seven_members_with_expected_orders() {
        let suite = paper_suite(Scale::Full);
        assert_eq!(suite.len(), 7);
        let orders: Vec<usize> = suite.iter().map(|m| m.a.ncols()).collect();
        assert_eq!(orders, vec![5005, 3312, 3960, 3960, 2205, 3564, 7320]);
        // lnsp/lns share the pattern but not the values.
        assert_eq!(suite[2].a.pattern(), suite[3].a.pattern());
        assert_ne!(suite[2].a.values(), suite[3].a.values());
    }

    #[test]
    fn nnz_counts_are_in_the_right_ballpark() {
        // Within 2x of the paper's Table 1 numbers.
        let targets = [
            ("sherman3", 20033usize),
            ("sherman5", 20793),
            ("lnsp3937", 25407),
            ("orsreg1", 14133),
            ("saylr4", 22316),
            ("goodwin", 324772),
        ];
        for (name, target) in targets {
            let a = paper_matrix(name, Scale::Full).unwrap();
            let nnz = a.nnz();
            assert!(
                nnz * 2 >= target && nnz <= target * 2,
                "{name}: nnz {nnz} vs paper {target}"
            );
        }
    }

    #[test]
    fn all_matrices_are_structurally_nonsingular() {
        for m in paper_suite(Scale::Reduced) {
            match maximum_transversal(m.a.pattern()) {
                StructuralRank::Full(_) => {}
                StructuralRank::Deficient { rank } => {
                    panic!("{} is structurally singular (rank {rank})", m.name)
                }
            }
            assert!(m.a.pattern().has_zero_free_diagonal(), "{}", m.name);
        }
    }

    #[test]
    fn sherman5_pattern_is_unsymmetric() {
        let a = paper_matrix("sherman5", Scale::Reduced).unwrap();
        assert_ne!(a.pattern(), &a.pattern().transpose());
    }

    #[test]
    fn sherman3_symmetric_pattern_option_holds() {
        let a = paper_matrix("sherman3", Scale::Reduced).unwrap();
        // Structurally symmetric (values differ).
        assert_eq!(a.pattern(), &a.pattern().transpose());
    }

    #[test]
    fn manufactured_rhs_matches_matvec() {
        let a = paper_matrix("orsreg1", Scale::Reduced).unwrap();
        let (x, b) = manufactured_rhs(&a, 9);
        let b2 = a.mat_vec(&x);
        assert_eq!(b, b2);
        assert_eq!(x.len(), a.ncols());
    }

    #[test]
    fn unknown_name_returns_none() {
        assert!(paper_matrix("nosuch", Scale::Full).is_none());
    }

    #[test]
    fn random_unsymmetric_has_dominant_diagonal() {
        let a = random_unsymmetric(50, 4, 7);
        assert_eq!(a.ncols(), 50);
        for i in 0..50 {
            let (rows, vals) = a.col(i);
            let diag = a.get(i, i);
            let off: f64 = rows
                .iter()
                .zip(vals)
                .filter(|(&r, _)| r as usize != i)
                .map(|(_, v)| v.abs())
                .sum();
            assert!(diag.abs() > off, "column {i} not dominant");
        }
        assert_eq!(a, random_unsymmetric(50, 4, 7), "deterministic");
    }

    #[test]
    fn tiny_pivot_matrix_has_tiny_diagonals_and_boosted_subdiagonals() {
        let n = 40;
        let tiny_cols = [7, 19, 31];
        let a = tiny_pivot_matrix(n, &tiny_cols, 1e-30, 11);
        assert_eq!(a.ncols(), n);
        for j in 0..n {
            let d = a.get(j, j);
            if tiny_cols.contains(&j) {
                assert_eq!(d, 1e-30, "column {j}");
                assert_eq!(a.get(j + 1, j), 3.0, "subdiagonal of column {j}");
                let (rows, _) = a.col(j);
                assert_eq!(rows, &[j as u32, j as u32 + 1], "tiny column {j} structure");
            } else {
                assert!(d >= 8.0, "column {j} diagonal {d}");
            }
        }
        assert_eq!(
            a,
            tiny_pivot_matrix(n, &tiny_cols, 1e-30, 11),
            "deterministic"
        );
        assert!(a.pattern().has_zero_free_diagonal());
    }

    #[test]
    #[should_panic(expected = "needs a subdiagonal row")]
    fn tiny_pivot_matrix_rejects_last_column() {
        tiny_pivot_matrix(10, &[9], 1e-30, 1);
    }

    #[test]
    fn pivoting_stress_generators_are_deterministic_with_weak_diagonals() {
        let a = in_block_pivots(4, 5, 3);
        assert_eq!(a, in_block_pivots(4, 5, 3));
        // Four dense 5 × 5 blocks and one coupling per column of the last three.
        assert_eq!((a.ncols(), a.nnz()), (20, 4 * 25 + 3 * 5));
        for j in 0..20 {
            assert_eq!(a.get(j, j), 1e-3, "column {j}");
        }
        let b = cross_block_pivots(30, 4);
        assert_eq!(b, cross_block_pivots(30, 4));
        assert!(b.pattern().has_zero_free_diagonal());
        let strong = (0..30)
            .filter(|&j| (0..30).any(|i| b.get(i, j).abs() > 3.0))
            .count();
        assert_eq!(strong, 30, "one strong entry per column");
    }

    #[test]
    fn banded_respects_the_bandwidth() {
        let a = banded(30, 2, 3, 1);
        for (i, j, _) in a.triplets() {
            assert!(j + 2 >= i && i + 3 >= j, "entry ({i},{j}) outside band");
        }
        assert!(a.pattern().has_zero_free_diagonal());
    }
}
