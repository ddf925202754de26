//! Static symbolic factorization (George & Ng, 1987).
//!
//! Computes structures `L̄`, `Ū` containing the nonzeros of the LU factors of
//! `P A` for **every** row permutation `P` that partial pivoting could
//! select. The numerical factorization can then run on a fixed data
//! structure (the S*/S+ approach the paper builds on), at the cost of some
//! explicitly stored zeros.
//!
//! The scheme: at step `k`, the *candidate pivot rows* are the uneliminated
//! rows with a nonzero in column `k`. Row `k` of `Ū` becomes the union of
//! the candidate rows' structures; column `k` of `L̄` becomes the candidate
//! row set; every remaining candidate row's structure is replaced by that
//! union. Because all candidates end up structurally identical, the
//! implementation keeps one shared structure per *row class*, which is how
//! S+ achieves near-linear behaviour.
//!
//! [`fill_skeleton`] runs that merge loop keeping only what later steps
//! need — the eforest parents, each row's first candidate step, and the
//! exact length of every `L̄` column and `Ū` row. The analysis stops there:
//! the supernode partition and the per-supernode row and column lists are
//! read off the skeleton ([`crate::supernode`]), relabelled into postorder
//! by [`FillSkeleton::relabeled`] first, and no scalar `L̄`/`Ū` is written.
//!
//! The scalar structure is the **oracle**: [`fill_columns`] computes `Ū`
//! columns as bounded climbs through the skeleton's forest,
//! [`assemble_filled`] lays `L̄`, `Ū` and the row-major `Ū` out with
//! counting scatters (no comparison sort anywhere), and
//! [`static_symbolic_factorization`] is the two in sequence — what the
//! theorem suites, the paper binaries and the benchmark's phase walk call.
//! [`static_symbolic_reference`] is the brute-force oracle behind that one.

use splu_sparse::{Permutation, SparseError, SparsityPattern};

/// Structures of the filled factors `L̄` (lower, including the unit
/// diagonal) and `Ū` (upper, including the diagonal).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FilledLu {
    /// Lower-triangular structure, diagonal included.
    pub l: SparsityPattern,
    /// Upper-triangular structure, diagonal included.
    pub u: SparsityPattern,
    /// Row-major copy of `Ū` ("column" `i` = row `i` of `Ū`), kept because
    /// the eforest and supernode algorithms walk `Ū` by rows.
    u_rows: SparsityPattern,
}

impl FilledLu {
    /// Matrix order.
    pub fn n(&self) -> usize {
        self.l.ncols()
    }

    /// Total entries of `Ā = L̄ + Ū − I` (diagonal counted once).
    pub fn nnz_filled(&self) -> usize {
        self.l.nnz() + self.u.nnz() - self.n()
    }

    /// The pattern of `Ā = L̄ + Ū − I`.
    pub fn filled_pattern(&self) -> SparsityPattern {
        self.l.union(&self.u)
    }

    /// Rows of `L̄` column `j` (strictly increasing, starts with `j`).
    pub fn l_col(&self, j: usize) -> &[u32] {
        self.l.col(j)
    }

    /// Columns of `Ū` row `i` (strictly increasing, starts with `i`).
    ///
    /// `Ū` is stored transposed internally through [`Self::u`] being a
    /// column pattern; this accessor reads the row via the precomputed
    /// row-major copy.
    pub fn u_row(&self, i: usize) -> &[u32] {
        self.u_rows.col(i)
    }

    /// Pattern of `Ū` by rows (each "column" `i` of the returned pattern is
    /// row `i` of `Ū`).
    pub fn u_by_rows(&self) -> &SparsityPattern {
        &self.u_rows
    }
}

impl FilledLu {
    /// Builds a [`FilledLu`] from the two triangular patterns, establishing
    /// the internal row-major copy of `Ū`.
    pub fn from_parts(l: SparsityPattern, u: SparsityPattern) -> Self {
        let u_rows = u.transpose();
        FilledLu { l, u, u_rows }
    }
}

/// Errors from the symbolic phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SymbolicError {
    /// The input pattern was not square.
    NotSquare,
    /// The diagonal had a structural zero at this index; run the maximum
    /// transversal first.
    ZeroOnDiagonal(usize),
    /// Propagated substrate error.
    Sparse(SparseError),
}

impl std::fmt::Display for SymbolicError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SymbolicError::NotSquare => write!(f, "pattern is not square"),
            SymbolicError::ZeroOnDiagonal(i) => {
                write!(f, "structural zero on the diagonal at index {i}")
            }
            SymbolicError::Sparse(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SymbolicError {}

impl From<SparseError> for SymbolicError {
    fn from(e: SparseError) -> Self {
        SymbolicError::Sparse(e)
    }
}

/// Runs the static symbolic factorization on a square pattern with a
/// zero-free diagonal and writes the scalar structure out: the skeleton
/// pass, every column's climbs, and the counting assembly.
pub fn static_symbolic_factorization(pattern: &SparsityPattern) -> Result<FilledLu, SymbolicError> {
    let skel = fill_skeleton(pattern)?;
    Ok(assemble_filled(&skel, &fill_columns(pattern, &skel)))
}

/// Output of the sequential skeleton pass of the static symbolic
/// factorization — see [`fill_skeleton`].
///
/// The skeleton is everything the per-column reachability pass needs:
///
/// * `parent[k]` — the next candidate step of the row class eliminated at
///   step `k` (`usize::MAX` when the class dies at `k`). This is exactly the
///   LU eforest parent array of Definition 1: the class's trimmed structure
///   minimum *is* `min{ r > k : ū_kr ≠ 0 }`, and the class survives step `k`
///   precisely when `|L̄_{*k}| > 1`.
/// * `first[r]` — the first candidate step of original row `r` (its minimum
///   column index), where row `r`'s climb through `parent` begins;
/// * `l_len[j]` / `u_len[i]` — the exact entry counts of `L̄` column `j`
///   and `Ū` row `i` (diagonal included), so the assembly can lay out every
///   CSC array without counting passes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FillSkeleton {
    n: usize,
    parent: Vec<usize>,
    first: Vec<usize>,
    l_len: Vec<usize>,
    u_len: Vec<usize>,
}

impl FillSkeleton {
    /// Matrix order.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The eforest parent array (`usize::MAX` = root), valid input for
    /// [`crate::eforest::EliminationForest::from_parent_vec`].
    pub fn parents(&self) -> &[usize] {
        &self.parent
    }

    /// First candidate step (minimum column index) of each original row.
    pub fn first(&self) -> &[usize] {
        &self.first
    }

    /// Entry count of each `L̄` column (diagonal included).
    pub fn l_len(&self) -> &[usize] {
        &self.l_len
    }

    /// Entry count of each `Ū` row (diagonal included).
    pub fn u_len(&self) -> &[usize] {
        &self.u_len
    }

    /// Total filled entries of `Ā = L̄ + Ū − I` (diagonal counted once).
    pub fn nnz_filled(&self) -> usize {
        self.l_len.iter().sum::<usize>() + self.u_len.iter().sum::<usize>() - self.n
    }

    /// The skeleton of `pattern.permuted(po, po)` for a postorder `po` of
    /// [`Self::parents`] (`po.old_of(new) = old`), without running the merge
    /// loop again.
    ///
    /// Theorem 3 makes the filled structure of the permuted pattern the
    /// permuted filled structure, so the forest and the lengths only change
    /// labels: `parent'[po(k)] = po(parent[k])`, lengths carried over. The
    /// row minima move with them, `first'[po(r)] = po(first[r])`: the
    /// entries of row `r` left of the diagonal lie on the branch
    /// `first[r] → … → r` (rows of `L̄` are branches), whose nodes a
    /// postorder numbers in ascending order, and the entries right of it
    /// stay right of it because `Ū` stays upper triangular.
    pub fn relabeled(&self, po: &Permutation) -> FillSkeleton {
        assert_eq!(po.len(), self.n, "postorder length");
        let relabel = |old: usize| match old {
            usize::MAX => usize::MAX,
            old => po.new_of(old),
        };
        let olds = (0..self.n).map(|new| po.old_of(new));
        let out = FillSkeleton {
            n: self.n,
            parent: olds.clone().map(|k| relabel(self.parent[k])).collect(),
            first: olds.clone().map(|r| relabel(self.first[r])).collect(),
            l_len: olds.clone().map(|k| self.l_len[k]).collect(),
            u_len: olds.map(|k| self.u_len[k]).collect(),
        };
        debug_assert!(
            (0..out.n).all(|k| out.parent[k] > k && out.first[k] <= k),
            "relabeled needs a topological order of the forest"
        );
        out
    }
}

/// Checks what every symbolic entry point requires of its input: a square
/// pattern with a zero-free diagonal.
fn check_input(pattern: &SparsityPattern) -> Result<(), SymbolicError> {
    if !pattern.is_square() {
        return Err(SymbolicError::NotSquare);
    }
    match (0..pattern.ncols()).find(|&j| !pattern.contains(j, j)) {
        Some(j) => Err(SymbolicError::ZeroOnDiagonal(j)),
        None => Ok(()),
    }
}

/// Runs the sequential skeleton pass: the row-class merge loop of the
/// George–Ng scheme with no sorting and no `Ū` materialization. Costs
/// `O(|Ū| + nnz)` integer operations and produces a [`FillSkeleton`], from
/// which the supernodes and their row and column lists — or, for the
/// oracle, every filled column (see [`fill_columns`]) — follow by
/// reachability, the GSoFa-style formulation: `ū_ij ≠ 0` iff some row `r`
/// with `a_rj ≠ 0` has `i` on its candidate-step chain
/// `first(r), parent(first(r)), …` with `i ≤ j`.
///
/// A class is named by one of its rows and is only ever looked at in the
/// bucket of its structure's minimum — its next candidate step — so no
/// union–find is needed to resolve names: a class cannot be merged away
/// before that step, because every merge at a step `k` involves classes
/// whose minimum *is* `k`. What a class keeps is its structure (the row's
/// own entries, borrowed, until its first merge; unsorted, minimum tracked
/// by the bucket it sits in) and the *number* of its uneliminated rows: row
/// `k` always belongs to the class formed at step `k` (its diagonal entry
/// makes it a candidate), so eliminating it is a decrement.
pub fn fill_skeleton(pattern: &SparsityPattern) -> Result<FillSkeleton, SymbolicError> {
    check_input(pattern)?;
    let n = pattern.ncols();
    let by_rows = pattern.transpose();
    // `by_rows` columns are sorted, so element 0 is the row minimum.
    let first: Vec<usize> = (0..n).map(|i| by_rows.col(i)[0] as usize).collect();

    // Per class: the union its latest merge left it (empty until then — the
    // structure is still `by_rows.col(class)`), and its uneliminated rows.
    let mut merged_struct: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut rows_left = vec![1usize; n];
    // Bucket `k` lists the classes whose structure minimum is `k`, threaded
    // through `next`: a class sits in one bucket at a time.
    const NIL: usize = usize::MAX;
    let mut head = vec![NIL; n];
    let mut next = vec![NIL; n];
    for i in (0..n).rev() {
        next[i] = head[first[i]];
        head[first[i]] = i;
    }

    let mut parent = vec![usize::MAX; n];
    let mut l_len = vec![0usize; n];
    let mut u_len = vec![0usize; n];
    // `in_union[c] == k` marks column `c` as already in step `k`'s union.
    let mut in_union = vec![usize::MAX; n];
    let mut merged: Vec<u32> = Vec::new();
    let mut reps: Vec<usize> = Vec::new();

    for k in 0..n {
        reps.clear();
        let mut class = head[k];
        while class != NIL {
            reps.push(class);
            class = next[class];
        }
        debug_assert!(
            !reps.is_empty(),
            "zero-free diagonal guarantees a candidate class at step {k}"
        );

        // Trimmed union (columns > k) of the candidate structures, tracking
        // its minimum — no sort needed.
        merged.clear();
        let mut min = usize::MAX;
        for &r in &reps {
            let structure = match merged_struct[r].as_slice() {
                [] => by_rows.col(r),
                merged => merged,
            };
            for &c32 in structure {
                let c = c32 as usize;
                if c > k && in_union[c] != k {
                    in_union[c] = k;
                    merged.push(c32);
                    min = min.min(c);
                }
            }
        }

        // L̄ column k = all rows in the candidate classes; Ū row k = {k} ∪
        // the trimmed union. Only the counts are recorded.
        let rows: usize = reps.iter().map(|&r| rows_left[r]).sum();
        l_len[k] = rows;
        u_len[k] = merged.len() + 1;

        // Merge the classes into one, drop row k, and re-bucket at the new
        // minimum. The root's old buffer becomes the next step's scratch; a
        // class that never merged owns none and gets an exact copy instead.
        let root = reps[0];
        for &r in &reps[1..] {
            merged_struct[r] = Vec::new();
        }
        if rows == 1 {
            merged_struct[root] = Vec::new();
            continue;
        }
        debug_assert!(
            min != usize::MAX,
            "surviving rows must have a diagonal entry ahead"
        );
        parent[k] = min;
        rows_left[root] = rows - 1;
        if merged_struct[root].capacity() == 0 {
            merged_struct[root] = merged.clone();
        } else {
            std::mem::swap(&mut merged_struct[root], &mut merged);
        }
        next[root] = head[min];
        head[min] = root;
    }

    Ok(FillSkeleton {
        n,
        parent,
        first,
        l_len,
        u_len,
    })
}

/// `Ū` by columns, flat and **unsorted within each column** (climb
/// discovery order) — the output of [`fill_columns`], consumed by
/// [`assemble_filled`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnsortedColumns {
    /// Column pointers into `idx` (length `n + 1`).
    pub ptr: Vec<usize>,
    /// Concatenated column row indices, unsorted within each column.
    pub idx: Vec<u32>,
}

/// Computes the columns of `Ū` from the skeleton.
///
/// Per column `j`, the `Ū` column is the union of parent-chain climbs
/// `first[r], parent[first[r]], …` truncated at `j`, one climb per
/// structural entry `a_rj`. Climbs stop at the first already-marked node,
/// so the column costs `O(|A_{*j}| + |Ū_{*j}|)`. Nothing is sorted here:
/// [`assemble_filled`] orders both factors with linear counting passes.
pub fn fill_columns(pattern: &SparsityPattern, skel: &FillSkeleton) -> UnsortedColumns {
    let n = skel.n;
    assert_eq!(pattern.ncols(), n, "pattern and skeleton orders differ");
    let mut ptr = Vec::with_capacity(n + 1);
    ptr.push(0);
    let mut idx: Vec<u32> = Vec::with_capacity(skel.u_len.iter().sum());
    // `seen_in_col[x] == j` marks row `x` as already in column `j`.
    let mut seen_in_col = vec![usize::MAX; n];
    for j in 0..n {
        for &r in pattern.col(j) {
            let mut x = skel.first[r as usize];
            // `parent` entries are either > x or usize::MAX, so the `x <= j`
            // bound also terminates dead-class chains.
            while x <= j && seen_in_col[x] != j {
                seen_in_col[x] = j;
                idx.push(x as u32);
                x = skel.parent[x];
            }
        }
        ptr.push(idx.len());
    }
    UnsortedColumns { ptr, idx }
}

/// Exclusive prefix sum of `lens` as a CSC pointer array.
pub(crate) fn prefix_ptr(lens: &[usize]) -> Vec<usize> {
    let mut ptr = Vec::with_capacity(lens.len() + 1);
    let mut acc = 0usize;
    ptr.push(0);
    for &l in lens {
        acc += l;
        ptr.push(acc);
    }
    ptr
}

/// Assembles the skeleton and the unsorted `Ū` columns into a [`FilledLu`].
///
/// No comparison sorts anywhere: every CSC pointer array is known exactly
/// from the skeleton's `l_len`/`u_len` and the column pointers, and
///
/// * `L̄` rows are **branches** (row `i` = the ascending parent path
///   `first[i] → … → i`), so scanning rows in ascending order while walking
///   each branch scatters `L̄` columns directly in sorted order;
/// * the unsorted `Ū` columns scatter (ascending column scan) into the
///   row-major `Ū`, which therefore comes out sorted, and a second scatter
///   (ascending row scan) back yields the column-compressed `Ū` sorted.
pub fn assemble_filled(skel: &FillSkeleton, u_cols: &UnsortedColumns) -> FilledLu {
    let n = skel.n;
    assert_eq!(u_cols.ptr.len(), n + 1, "one Ū column per skeleton column");

    // L̄ columns: scan rows ascending, walk each row's branch, scatter the
    // row index into every branch node's column.
    let l_ptr = prefix_ptr(&skel.l_len);
    let mut l_idx = vec![0u32; l_ptr[n]];
    let mut cursor = l_ptr[..n].to_vec();
    for i in 0..n {
        let mut x = skel.first[i];
        loop {
            l_idx[cursor[x]] = i as u32;
            cursor[x] += 1;
            if x == i {
                break;
            }
            x = skel.parent[x];
            debug_assert!(x <= i, "row branch overshot its row");
        }
    }
    debug_assert!((0..n).all(|j| cursor[j] == l_ptr[j + 1]));

    // Row-major Ū by one scatter of the unsorted columns (ascending column
    // scan → sorted rows).
    let ur_ptr = prefix_ptr(&skel.u_len);
    let mut ur_idx = vec![0u32; ur_ptr[n]];
    cursor.copy_from_slice(&ur_ptr[..n]);
    for j in 0..n {
        for &i in &u_cols.idx[u_cols.ptr[j]..u_cols.ptr[j + 1]] {
            let i = i as usize;
            ur_idx[cursor[i]] = j as u32;
            cursor[i] += 1;
        }
    }
    debug_assert!((0..n).all(|i| cursor[i] == ur_ptr[i + 1]));

    // Column-compressed Ū by scattering back (ascending row scan → sorted
    // columns).
    let mut u_idx = vec![0u32; u_cols.idx.len()];
    cursor.copy_from_slice(&u_cols.ptr[..n]);
    for i in 0..n {
        for &j in &ur_idx[ur_ptr[i]..ur_ptr[i + 1]] {
            let j = j as usize;
            u_idx[cursor[j]] = i as u32;
            cursor[j] += 1;
        }
    }
    debug_assert!((0..n).all(|j| cursor[j] == u_cols.ptr[j + 1]));

    FilledLu {
        l: SparsityPattern::from_sorted_parts(n, n, l_ptr, l_idx),
        u: SparsityPattern::from_sorted_parts(n, n, u_cols.ptr.clone(), u_idx),
        u_rows: SparsityPattern::from_sorted_parts(n, n, ur_ptr, ur_idx),
    }
}

/// Brute-force reference implementation on dense boolean matrices, O(n³).
///
/// Used by the test-suite (and available to downstream property tests) to
/// validate the skeleton-based implementation.
pub fn static_symbolic_reference(pattern: &SparsityPattern) -> Result<FilledLu, SymbolicError> {
    check_input(pattern)?;
    let n = pattern.ncols();
    let mut a = vec![vec![false; n]; n];
    for (i, j) in pattern.entries() {
        a[i][j] = true;
    }
    let mut eliminated = vec![false; n];
    let mut l_entries: Vec<(usize, usize)> = Vec::new();
    let mut u_entries: Vec<(usize, usize)> = Vec::new();
    for k in 0..n {
        let candidates: Vec<usize> = (0..n).filter(|&i| !eliminated[i] && a[i][k]).collect();
        // Union of candidate structures over columns ≥ k.
        let mut union_row = vec![false; n];
        for &i in &candidates {
            for (j, ur) in union_row.iter_mut().enumerate().skip(k) {
                *ur |= a[i][j];
            }
        }
        for (j, &u) in union_row.iter().enumerate().skip(k) {
            if u {
                u_entries.push((k, j));
            }
        }
        for &i in &candidates {
            l_entries.push((i, k));
            a[i][k..n].copy_from_slice(&union_row[k..n]);
        }
        eliminated[k] = true;
        for row in a.iter_mut() {
            row[k] = false;
        }
    }
    let l = SparsityPattern::from_entries(n, n, l_entries)?;
    let u_rows = SparsityPattern::from_entries(n, n, u_entries.iter().map(|&(i, j)| (j, i)))?;
    Ok(FilledLu::from_parts(l, u_rows.transpose()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use splu_sparse::SparsityPattern;

    use crate::fixtures::fig1_pattern;
    use splu_matgen::random_pattern;

    #[test]
    fn rejects_bad_inputs() {
        let rect = SparsityPattern::empty(2, 3);
        assert_eq!(
            static_symbolic_factorization(&rect),
            Err(SymbolicError::NotSquare)
        );
        let holed = SparsityPattern::from_entries(2, 2, vec![(0, 0), (0, 1)]).unwrap();
        assert_eq!(
            static_symbolic_factorization(&holed),
            Err(SymbolicError::ZeroOnDiagonal(1))
        );
    }

    #[test]
    fn diagonal_matrix_has_no_fill() {
        let p = SparsityPattern::identity(5);
        let f = static_symbolic_factorization(&p).unwrap();
        assert_eq!(f.l, SparsityPattern::identity(5));
        assert_eq!(f.u, SparsityPattern::identity(5));
        assert_eq!(f.nnz_filled(), 5);
    }

    #[test]
    fn dense_matrix_stays_dense() {
        let n = 4;
        let p =
            SparsityPattern::from_entries(n, n, (0..n).flat_map(|i| (0..n).map(move |j| (i, j))))
                .unwrap();
        let f = static_symbolic_factorization(&p).unwrap();
        assert_eq!(f.l.nnz(), n * (n + 1) / 2);
        assert_eq!(f.u.nnz(), n * (n + 1) / 2);
    }

    #[test]
    fn contains_original_pattern() {
        let p = fig1_pattern();
        let f = static_symbolic_factorization(&p).unwrap();
        let filled = f.filled_pattern();
        for (i, j) in p.entries() {
            assert!(filled.contains(i, j), "lost original entry ({i},{j})");
        }
    }

    #[test]
    fn matches_reference_on_fig1() {
        let p = fig1_pattern();
        let fast = static_symbolic_factorization(&p).unwrap();
        let slow = static_symbolic_reference(&p).unwrap();
        assert_eq!(fast.l, slow.l);
        assert_eq!(fast.u, slow.u);
    }

    #[test]
    fn matches_reference_on_random_matrices() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(2024);
        for n in [1usize, 2, 3, 5, 8, 13, 21] {
            for _ in 0..8 {
                let mut entries: Vec<(usize, usize)> = (0..n).map(|i| (i, i)).collect();
                for _ in 0..(2 * n) {
                    entries.push((rng.gen_range(0..n), rng.gen_range(0..n)));
                }
                let p = SparsityPattern::from_entries(n, n, entries).unwrap();
                let fast = static_symbolic_factorization(&p).unwrap();
                let slow = static_symbolic_reference(&p).unwrap();
                assert_eq!(fast.l, slow.l, "L mismatch, n={n}");
                assert_eq!(fast.u, slow.u, "U mismatch, n={n}");
            }
        }
    }

    #[test]
    fn upper_bounds_cholesky_of_ata_is_not_required_but_lu_covers_any_pivoting() {
        // For every pivot order realizable by partial pivoting, the actual
        // fill must be inside (L̄, Ū). We verify on a small matrix by brute
        // force: simulate Gaussian elimination structure for EVERY candidate
        // pivot choice sequence and check containment.
        let p = fig1_pattern();
        let f = static_symbolic_factorization(&p).unwrap();
        let n = p.ncols();
        let mut worklist = vec![{
            let mut a = vec![vec![false; n]; n];
            for (i, j) in p.entries() {
                a[i][j] = true;
            }
            (0usize, a, (0..n).collect::<Vec<usize>>())
        }];
        // (step, current structure, row labels: row_labels[r] = original row)
        // Enumerate every pivot choice (bounded: n=7, candidates small).
        let mut explored = 0usize;
        while let Some((k, a, labels)) = worklist.pop() {
            explored += 1;
            if explored > 5000 {
                break; // combinatorial safety valve; plenty explored already
            }
            if k == n {
                continue;
            }
            let candidates: Vec<usize> = (k..n).filter(|&r| a[r][k]).collect();
            assert!(!candidates.is_empty(), "structurally nonsingular");
            for &piv in &candidates {
                let mut b = a.clone();
                let mut lab = labels.clone();
                b.swap(k, piv);
                lab.swap(k, piv);
                // Row k is now the pivot row: check U row containment.
                for j in k..n {
                    if b[k][j] {
                        assert!(
                            f.u.contains(k, j),
                            "U entry ({k},{j}) outside static structure"
                        );
                    }
                }
                for r in k + 1..n {
                    if b[r][k] {
                        // L entry at (position r) — static L̄ column k must
                        // contain position r.
                        assert!(
                            f.l.contains(r, k),
                            "L entry ({r},{k}) outside static structure"
                        );
                        for j in k + 1..n {
                            if b[k][j] {
                                b[r][j] = true; // fill
                            }
                        }
                    }
                }
                worklist.push((k + 1, b, lab));
            }
        }
        assert!(explored > 100, "exploration should branch");
    }

    #[test]
    fn empty_matrix() {
        let p = SparsityPattern::empty(0, 0);
        let f = static_symbolic_factorization(&p).unwrap();
        assert_eq!(f.n(), 0);
        assert_eq!(f.nnz_filled(), 0);
    }

    /// [`fill_skeleton`] as it was written first: union–find over rows, one
    /// owned structure and one explicit row list per class, `Vec` buckets.
    /// The oracle the leaner loop is held to, array for array.
    fn fill_skeleton_with_row_lists(pattern: &SparsityPattern) -> FillSkeleton {
        let n = pattern.ncols();
        let by_rows = pattern.transpose();

        // Union–find over rows; each class owns one shared structure (kept
        // *unsorted*, minimum tracked separately) and its uneliminated rows.
        let mut uf: Vec<usize> = (0..n).collect();
        fn find(uf: &mut [usize], mut x: usize) -> usize {
            while uf[x] != x {
                uf[x] = uf[uf[x]];
                x = uf[x];
            }
            x
        }

        let mut class_struct: Vec<Vec<usize>> = (0..n)
            .map(|i| by_rows.col(i).iter().map(|&c| c as usize).collect())
            .collect();
        // `by_rows` columns are sorted, so element 0 is the row minimum.
        let first: Vec<usize> = (0..n).map(|i| class_struct[i][0]).collect();
        let mut class_min: Vec<usize> = first.clone();
        let mut class_rows: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
        let mut bucket: Vec<Vec<usize>> = vec![Vec::new(); n];
        for i in 0..n {
            bucket[first[i]].push(i);
        }

        let mut parent = vec![usize::MAX; n];
        let mut l_len = vec![0usize; n];
        let mut u_len = vec![0usize; n];
        let mut in_union = vec![false; n];
        let mut merged: Vec<usize> = Vec::new();

        for k in 0..n {
            let mut reps: Vec<usize> = Vec::new();
            for cand in std::mem::take(&mut bucket[k]) {
                let r = find(&mut uf, cand);
                if !class_rows[r].is_empty()
                    && !class_struct[r].is_empty()
                    && class_min[r] == k
                    && !reps.contains(&r)
                {
                    reps.push(r);
                }
            }
            debug_assert!(
                !reps.is_empty(),
                "zero-free diagonal guarantees a candidate class at step {k}"
            );

            // Trimmed union (columns > k) of the candidate structures, tracking
            // its minimum — no sort needed.
            merged.clear();
            let mut min = usize::MAX;
            for &r in &reps {
                for &c in &class_struct[r] {
                    if c > k && !in_union[c] {
                        in_union[c] = true;
                        merged.push(c);
                        min = min.min(c);
                    }
                }
            }
            for &c in &merged {
                in_union[c] = false;
            }

            // L̄ column k = all rows in the candidate classes; Ū row k = {k} ∪
            // the trimmed union. Only the counts are recorded — the entries are
            // reconstructed later from `(first, parent)`.
            l_len[k] = reps.iter().map(|&r| class_rows[r].len()).sum();
            u_len[k] = merged.len() + 1;

            // Merge the classes into one; drop row k; re-bucket at the new
            // minimum (recycling the old root structure as the next scratch).
            let root = reps[0];
            for &r in &reps[1..] {
                uf[r] = root;
                let rows = std::mem::take(&mut class_rows[r]);
                class_rows[root].extend(rows);
                class_struct[r] = Vec::new();
            }
            class_rows[root].retain(|&i| i != k);
            if class_rows[root].is_empty() {
                class_struct[root] = Vec::new();
            } else {
                debug_assert!(
                    min != usize::MAX,
                    "surviving rows must have a diagonal entry ahead"
                );
                parent[k] = min;
                class_min[root] = min;
                std::mem::swap(&mut class_struct[root], &mut merged);
                bucket[min].push(root);
            }
        }

        FillSkeleton {
            n,
            parent,
            first,
            l_len,
            u_len,
        }
    }

    #[test]
    fn skeleton_equals_the_row_list_oracle() {
        let mut cases = vec![
            fig1_pattern(),
            SparsityPattern::empty(0, 0),
            SparsityPattern::identity(1),
            SparsityPattern::identity(9),
        ];
        let dense = |n: usize| (0..n).flat_map(move |i| (0..n).map(move |j| (i, j)));
        cases.push(SparsityPattern::from_entries(6, 6, dense(6)).unwrap());
        for seed in 0..40u64 {
            let n = 1 + (seed as usize * 7) % 60;
            cases.push(random_pattern(n, n * (seed as usize % 6), seed));
        }
        for m in splu_matgen::paper_suite(splu_matgen::Scale::Reduced) {
            let q = splu_ordering::column_min_degree(m.a.pattern());
            cases.push(m.a.pattern().permuted(&q, &q));
            cases.push(m.a.pattern().clone());
        }
        for p in &cases {
            assert_eq!(
                fill_skeleton(p).unwrap(),
                fill_skeleton_with_row_lists(p),
                "n = {}",
                p.ncols()
            );
        }
    }

    #[test]
    fn matches_reference_on_random_patterns() {
        let mut cases = vec![fig1_pattern()];
        for (n, extra, seed) in [
            (1usize, 0usize, 1u64),
            (2, 2, 2),
            (7, 10, 3),
            (15, 25, 4),
            (25, 60, 5),
            (40, 90, 6),
            (60, 200, 7),
        ] {
            cases.push(random_pattern(n, extra, seed));
        }
        for p in &cases {
            let slow = static_symbolic_reference(p).unwrap();
            assert_eq!(static_symbolic_factorization(p).unwrap(), slow);
        }
    }

    /// Theorem 3 on the skeleton: relabelling by the postorder of its own
    /// forest gives the skeleton of the permuted pattern, and filling that
    /// pattern from it gives the permuted filled structure.
    #[test]
    fn relabeled_skeleton_fills_straight_into_postorder() {
        use crate::eforest::EliminationForest;
        for seed in 0..12 {
            let p = random_pattern(26, 45, seed);
            let skel = fill_skeleton(&p).unwrap();
            let po = EliminationForest::from_parent_vec(skel.parents().to_vec()).postorder();
            let p3 = p.permuted(&po, &po);
            let skel3 = skel.relabeled(&po);
            assert_eq!(skel3, fill_skeleton(&p3).unwrap(), "seed {seed}");
            let direct = assemble_filled(&skel3, &fill_columns(&p3, &skel3));
            let slow = static_symbolic_reference(&p).unwrap();
            let rebuilt =
                FilledLu::from_parts(slow.l.permuted(&po, &po), slow.u.permuted(&po, &po));
            assert_eq!(direct, rebuilt, "seed {seed}");
        }
    }

    #[test]
    fn skeleton_parents_equal_eforest_parents() {
        use crate::eforest::EliminationForest;
        for seed in 0..8 {
            let p = random_pattern(22, 50, seed);
            let skel = fill_skeleton(&p).unwrap();
            let f = static_symbolic_factorization(&p).unwrap();
            let forest = EliminationForest::from_filled(&f);
            for j in 0..p.ncols() {
                let skel_parent = match skel.parents()[j] {
                    usize::MAX => None,
                    v => Some(v),
                };
                assert_eq!(skel_parent, forest.parent(j), "node {j}, seed {seed}");
            }
        }
    }

    #[test]
    fn u_row_accessor_agrees_with_column_pattern() {
        let p = fig1_pattern();
        let f = static_symbolic_factorization(&p).unwrap();
        for i in 0..p.ncols() {
            for &j in f.u_row(i) {
                assert!(f.u.contains(i, j as usize));
            }
            let via_cols: Vec<u32> = (0..p.ncols() as u32)
                .filter(|&j| f.u.contains(i, j as usize))
                .collect();
            assert_eq!(f.u_row(i), &via_cols[..]);
        }
    }
}
