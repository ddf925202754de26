//! Maximum transversal: a row permutation giving a zero-free diagonal.
//!
//! Implements Duff's MC21 algorithm (I. S. Duff, *On algorithms for obtaining
//! a maximum transversal*, ACM TOMS 7, 1981 — reference \[3\] of the paper):
//! depth-first search for augmenting paths in the bipartite graph of the
//! matrix pattern, with the classical "cheap assignment" first pass.

use splu_sparse::{Permutation, SparsityPattern};

/// Result of the transversal search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StructuralRank {
    /// A full transversal exists; the permutation `rp` satisfies
    /// `A[rp.old_of(j)][j] ≠ 0` structurally for every `j`, i.e.
    /// `A.permuted(&rp, &identity)` has a zero-free diagonal.
    Full(Permutation),
    /// The matrix is structurally singular; only `rank` columns could be
    /// matched.
    Deficient {
        /// Size of the maximum matching found.
        rank: usize,
    },
}

/// Computes a maximum transversal of a square pattern.
///
/// Returns [`StructuralRank::Full`] with the row permutation when the matrix
/// is structurally nonsingular, [`StructuralRank::Deficient`] otherwise.
pub fn maximum_transversal(pattern: &SparsityPattern) -> StructuralRank {
    assert!(pattern.is_square(), "transversal requires a square matrix");
    let n = pattern.ncols();
    // match_row[r] = column matched to row r (or NONE).
    // match_col[c] = row matched to column c (or NONE).
    const NONE: usize = usize::MAX;
    let mut match_row = vec![NONE; n];
    let mut match_col = vec![NONE; n];

    // Cheap assignment: first unmatched row in each column.
    for c in 0..n {
        for &r in pattern.col(c) {
            let r = r as usize;
            if match_row[r] == NONE {
                match_row[r] = c;
                match_col[c] = r;
                break;
            }
        }
    }

    // Augmenting-path phase. An iterative DFS; `visited` is stamped by the
    // starting column to avoid clearing.
    let mut visited = vec![NONE; n];
    // DFS stack entries: (column, index into that column's row list).
    let mut stack: Vec<(usize, usize)> = Vec::new();
    let mut rank = match_col.iter().filter(|&&r| r != NONE).count();

    for start in 0..n {
        if match_col[start] != NONE {
            continue;
        }
        stack.clear();
        stack.push((start, 0));
        visited[start] = start;
        // Records the row chosen at each stack level for path unwinding.
        let mut chosen: Vec<usize> = vec![NONE];
        let mut augmented = false;
        while let Some(&(c, idx)) = stack.last() {
            let rows = pattern.col(c);
            if idx >= rows.len() {
                stack.pop();
                chosen.pop();
                continue;
            }
            stack.last_mut().expect("stack nonempty").1 += 1;
            let r = rows[idx] as usize;
            let owner = match_row[r];
            if owner == NONE {
                // Augmenting path found: flip matches along the stack.
                *chosen.last_mut().expect("chosen tracks stack") = r;
                for level in 0..stack.len() {
                    let col = stack[level].0;
                    let row = chosen[level];
                    match_col[col] = row;
                    match_row[row] = col;
                }
                augmented = true;
                break;
            }
            if visited[owner] != start {
                visited[owner] = start;
                *chosen.last_mut().expect("chosen tracks stack") = r;
                stack.push((owner, 0));
                chosen.push(NONE);
            }
        }
        if augmented {
            rank += 1;
        }
    }

    if rank < n {
        return StructuralRank::Deficient { rank };
    }
    // Row permutation: new row j should be old row match_col[j].
    let perm = Permutation::from_vec(match_col).expect("perfect matching is a bijection");
    StructuralRank::Full(perm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use splu_sparse::SparsityPattern;

    fn check_full(pattern: &SparsityPattern) -> Permutation {
        match maximum_transversal(pattern) {
            StructuralRank::Full(p) => {
                let id = Permutation::identity(pattern.ncols());
                let b = pattern.permuted(&p, &id);
                assert!(b.has_zero_free_diagonal(), "diagonal not zero-free");
                p
            }
            StructuralRank::Deficient { rank } => {
                panic!("expected full rank, got deficient rank {rank}")
            }
        }
    }

    #[test]
    fn already_diagonal() {
        let p = SparsityPattern::identity(4);
        let t = check_full(&p);
        assert!(t.is_identity());
    }

    #[test]
    fn needs_augmenting_paths() {
        // Anti-diagonal matrix: must fully reverse.
        let n = 5;
        let p = SparsityPattern::from_entries(n, n, (0..n).map(|i| (n - 1 - i, i))).unwrap();
        check_full(&p);
    }

    #[test]
    fn chain_requiring_reassignment() {
        // Column 0: rows {0}; column 1: rows {0, 1}; column 2: rows {1, 2}.
        // The cheap pass matches col0→row0; col1 must then take row1 via the
        // augmenting machinery when col2 competes.
        let p = SparsityPattern::from_entries(3, 3, vec![(0, 0), (0, 1), (1, 1), (1, 2), (2, 2)])
            .unwrap();
        check_full(&p);
    }

    #[test]
    fn cheap_pass_blocking_case() {
        // Designed so the cheap assignment takes a row that the last column
        // needs, forcing a length-3 augmenting path.
        // col0: {r0, r1}; col1: {r0}; col2: {r1, r2}; all matched only via flip.
        let p = SparsityPattern::from_entries(3, 3, vec![(0, 0), (1, 0), (0, 1), (1, 2), (2, 2)])
            .unwrap();
        check_full(&p);
    }

    #[test]
    fn detects_structural_singularity() {
        // Column 2 is empty.
        let p = SparsityPattern::from_entries(3, 3, vec![(0, 0), (1, 1), (0, 1)]).unwrap();
        match maximum_transversal(&p) {
            StructuralRank::Deficient { rank } => assert_eq!(rank, 2),
            _ => panic!("expected deficiency"),
        }
    }

    #[test]
    fn two_columns_sharing_single_row_is_singular() {
        let p = SparsityPattern::from_entries(2, 2, vec![(0, 0), (0, 1)]).unwrap();
        assert_eq!(
            maximum_transversal(&p),
            StructuralRank::Deficient { rank: 1 }
        );
    }

    #[test]
    fn random_patterns_with_planted_diagonal() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(42);
        for n in [1usize, 2, 5, 17, 60] {
            let mut entries: Vec<(usize, usize)> = Vec::new();
            // Plant a hidden perfect matching along a random permutation.
            let mut rows: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                rows.swap(i, rng.gen_range(0..=i));
            }
            for (c, &r) in rows.iter().enumerate() {
                entries.push((r, c));
            }
            for _ in 0..3 * n {
                entries.push((rng.gen_range(0..n), rng.gen_range(0..n)));
            }
            let p = SparsityPattern::from_entries(n, n, entries).unwrap();
            check_full(&p);
        }
    }
}
