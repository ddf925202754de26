//! The column elimination tree (the etree of `AᵀA`) and the SuperLU-style
//! structure bound it induces.
//!
//! SuperLU postorders the *column etree* and upper-bounds the LU structures
//! by the Cholesky factor of `AᵀA`. Section 3 of the paper argues this
//! "substantially overestimates the structures of L and U"; this module
//! provides the machinery to quantify that claim (see the `fill_bounds`
//! benchmark binary): Liu's etree algorithm with path compression and a
//! symbolic Cholesky factorization for the `AᵀA` bound.

// Index-based loops are the natural idiom for the symbolic algorithms here
// (as in `splu-symbolic`, where this module used to live).
#![allow(clippy::needless_range_loop)]

use splu_sparse::SparsityPattern;
use splu_symbolic::EliminationForest;

/// Computes the elimination tree of a **symmetric** pattern (only the lower
/// triangle is read) using Liu's algorithm with path compression.
pub fn etree_symmetric(pattern: &SparsityPattern) -> EliminationForest {
    assert!(pattern.is_square(), "etree requires a square pattern");
    let n = pattern.ncols();
    let mut parent = vec![usize::MAX; n];
    let mut ancestor = vec![usize::MAX; n];
    for j in 0..n {
        for &i in pattern.col(j) {
            let i = i as usize;
            if i >= j {
                continue;
            }
            // Walk from i to the root of its current tree, compressing.
            let mut x = i;
            while ancestor[x] != usize::MAX && ancestor[x] != j {
                let next = ancestor[x];
                ancestor[x] = j;
                x = next;
            }
            if ancestor[x] == usize::MAX {
                ancestor[x] = j;
                parent[x] = j;
            }
        }
    }
    EliminationForest::from_parent_vec(parent)
}

/// Symbolic Cholesky factorization of a **symmetric** pattern: returns the
/// row structure of each column of the factor `L` (diagonal included).
///
/// Classic up-looking merge: the structure of column `j` is the union of
/// the original column and the structures of its etree children, restricted
/// to rows `≥ j`.
pub fn cholesky_column_structures(pattern: &SparsityPattern) -> Vec<Vec<usize>> {
    assert!(pattern.is_square(), "requires a square pattern");
    let n = pattern.ncols();
    let forest = etree_symmetric(pattern);
    let mut cols: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut mark = vec![usize::MAX; n];
    for j in 0..n {
        let mut s: Vec<usize> = Vec::new();
        mark[j] = j;
        s.push(j);
        for &i in pattern.col(j) {
            let i = i as usize;
            if i > j && mark[i] != j {
                mark[i] = j;
                s.push(i);
            }
        }
        for &c in forest.children(j) {
            for &i in &cols[c as usize] {
                if i > j && mark[i] != j {
                    mark[i] = j;
                    s.push(i);
                }
            }
        }
        s.sort_unstable();
        cols[j] = s;
    }
    cols
}

/// Number of entries in the Cholesky factor of `AᵀA` — the SuperLU upper
/// bound on `|L| + |U|` (each factor bounded by `R`/`Rᵀ` of the `AᵀA`
/// factorization, so the combined bound is `2·|R| − n`).
pub fn ata_cholesky_bound(pattern: &SparsityPattern) -> usize {
    let ata = pattern.ata();
    let chol: usize = cholesky_column_structures(&ata).iter().map(Vec::len).sum();
    2 * chol - pattern.ncols()
}

#[cfg(test)]
mod tests {
    use super::*;
    use splu_sparse::SparsityPattern;
    use splu_symbolic::static_symbolic_factorization;

    fn dense_chol_fill(p: &SparsityPattern) -> Vec<Vec<usize>> {
        // O(n³) boolean elimination reference.
        let n = p.ncols();
        let sym = p.union(&p.transpose());
        let mut m = vec![vec![false; n]; n];
        for (i, j) in sym.entries() {
            m[i][j] = true;
            m[j][i] = true;
        }
        for k in 0..n {
            for i in k + 1..n {
                if m[i][k] {
                    for j in k + 1..n {
                        if m[k][j] {
                            m[i][j] = true;
                        }
                    }
                }
            }
        }
        (0..n)
            .map(|j| (j..n).filter(|&i| i == j || m[i][j]).collect())
            .collect()
    }

    fn random_sym(n: usize, extra: usize, seed: u64) -> SparsityPattern {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut e: Vec<(usize, usize)> = (0..n).map(|i| (i, i)).collect();
        for _ in 0..extra {
            let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
            e.push((a, b));
            e.push((b, a));
        }
        SparsityPattern::from_entries(n, n, e).unwrap()
    }

    #[test]
    fn etree_matches_fill_reference() {
        for seed in 0..6 {
            let p = random_sym(16, 24, seed);
            let forest = etree_symmetric(&p);
            let chol = dense_chol_fill(&p);
            // parent(j) = min{i > j : l_ij ≠ 0} — the classical etree
            // characterization.
            for j in 0..16 {
                let expected = chol[j].iter().copied().find(|&i| i > j);
                assert_eq!(forest.parent(j), expected, "node {j}, seed {seed}");
            }
        }
    }

    #[test]
    fn symbolic_cholesky_matches_reference() {
        for seed in 0..6 {
            let p = random_sym(14, 20, seed);
            let fast = cholesky_column_structures(&p);
            let slow = dense_chol_fill(&p);
            assert_eq!(fast, slow, "seed {seed}");
        }
    }

    #[test]
    fn ata_bound_dominates_static_structure() {
        // The SuperLU bound must be at least as large as the George–Ng
        // static structure (the paper's overestimation claim, lower-bounded).
        for seed in 0..6 {
            let p = {
                use rand::rngs::SmallRng;
                use rand::{Rng, SeedableRng};
                let mut rng = SmallRng::seed_from_u64(seed);
                let n = 20;
                let mut e: Vec<(usize, usize)> = (0..n).map(|i| (i, i)).collect();
                for _ in 0..45 {
                    e.push((rng.gen_range(0..n), rng.gen_range(0..n)));
                }
                SparsityPattern::from_entries(n, n, e).unwrap()
            };
            let f = static_symbolic_factorization(&p).unwrap();
            let bound = ata_cholesky_bound(&p);
            assert!(
                bound >= f.nnz_filled(),
                "AᵀA bound {bound} below static structure {} (seed {seed})",
                f.nnz_filled()
            );
        }
    }

    #[test]
    fn diagonal_pattern_has_no_tree_edges() {
        let p = SparsityPattern::identity(5);
        let forest = etree_symmetric(&p);
        assert_eq!(forest.roots().len(), 5);
        let chol = cholesky_column_structures(&p);
        assert!(chol.iter().all(|c| c.len() == 1));
        assert_eq!(ata_cholesky_bound(&p), 5);
    }
}
