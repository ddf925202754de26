//! The LU elimination forest (Definition 1) and the extended forest
//! characterization of `L̄` and `Ū` (Section 2, Theorems 1–2).
//!
//! For the filled matrix `Ā = L̄ + Ū − I`:
//!
//! * `parent(j) = min{ r > j : ū_jr ≠ 0 }`, defined when `|L̄_{*j}| > 1`
//!   (column `j` has at least one off-diagonal entry in `L̄`);
//! * every row `i` of `L̄` is a **branch** of the forest: the parent-path
//!   from the row's first nonzero column up to `i` (the characterization of
//!   \[7\] the paper recalls);
//! * every column `j` of `Ū` is a union of **column subtrees**: by
//!   Theorems 1–2, the set `{ i : ū_ij ≠ 0 }` is closed under taking
//!   ancestors below `j`, so it is determined by its minimal elements
//!   ("leaves").
//!
//! [`ExtendedEforest`] stores exactly this compact information — one integer
//! per row plus the per-column leaf lists — and can reconstruct both factor
//! structures, realising the "compact storage scheme" the paper describes.

use crate::static_fact::FilledLu;
use splu_sparse::{Permutation, SparsityPattern};

/// Sentinel for "no parent" in the internal array.
const NONE: usize = usize::MAX;

/// The LU elimination forest of a filled structure: the parent of every
/// node, and the inverse relation as a pattern whose column `p` lists
/// `p`'s children in ascending order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EliminationForest {
    parent: Vec<usize>,
    children: SparsityPattern,
}

impl EliminationForest {
    /// Builds the forest from the filled structure per Definition 1.
    pub fn from_filled(f: &FilledLu) -> Self {
        let n = f.n();
        let mut parent = vec![NONE; n];
        for j in 0..n {
            if f.l_col(j).len() > 1 {
                // u_row(j) starts with the diagonal j; the parent is the
                // next entry if any.
                if let Some(&p) = f.u_row(j).get(1) {
                    parent[j] = p as usize;
                }
            }
        }
        Self::from_parent_vec(parent)
    }

    /// Builds a forest from a raw parent array (`usize::MAX` = root).
    ///
    /// # Panics
    /// Panics unless every parent is `> child` (forests over elimination
    /// orders are always heterochronous).
    pub fn from_parent_vec(parent: Vec<usize>) -> Self {
        let n = parent.len();
        // Entry `(j, parent(j))`: a counting sort by column lists each
        // node's children, ascending.
        let edges = (parent.iter().enumerate())
            .filter(|&(_, &p)| p != NONE)
            .map(|(j, &p)| {
                assert!(p > j && p < n, "parent({j}) = {p} must satisfy j < p < n");
                (j, p)
            });
        let children = SparsityPattern::from_entries(n, n, edges).expect("nodes below n");
        EliminationForest { parent, children }
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.parent.len()
    }

    /// Parent of `j`, or `None` for roots.
    pub fn parent(&self, j: usize) -> Option<usize> {
        match self.parent[j] {
            NONE => None,
            p => Some(p),
        }
    }

    /// Children of `j` in ascending order.
    pub fn children(&self, j: usize) -> &[u32] {
        self.children.col(j)
    }

    /// All roots in ascending order.
    pub fn roots(&self) -> Vec<usize> {
        (0..self.n()).filter(|&j| self.parent[j] == NONE).collect()
    }

    /// `true` when `anc` is an ancestor of `node` (strict) in the forest.
    pub fn is_ancestor(&self, anc: usize, node: usize) -> bool {
        let mut x = node;
        while let Some(p) = self.parent(x) {
            if p == anc {
                return true;
            }
            x = p;
        }
        false
    }

    /// Nodes of the subtree rooted at `root` (including `root`), ascending.
    pub fn subtree(&self, root: usize) -> Vec<usize> {
        let mut out = Vec::new();
        let mut stack = vec![root];
        while let Some(x) = stack.pop() {
            out.push(x);
            stack.extend(self.children(x).iter().map(|&c| c as usize));
        }
        out.sort_unstable();
        out
    }

    /// Root of the tree containing `node`.
    pub fn tree_root(&self, node: usize) -> usize {
        let mut x = node;
        while let Some(p) = self.parent(x) {
            x = p;
        }
        x
    }

    /// Number of nodes in each subtree.
    pub fn subtree_sizes(&self) -> Vec<usize> {
        let mut size = vec![1usize; self.n()];
        for j in 0..self.n() {
            if let Some(p) = self.parent(j) {
                // Children precede parents numerically, so a single ascending
                // pass accumulates correctly.
                size[p] += size[j];
            }
        }
        size
    }

    /// `true` when the labelling is already a postorder: every subtree
    /// occupies a contiguous label range ending at its root.
    pub fn is_postordered(&self) -> bool {
        let size = self.subtree_sizes();
        (0..self.n()).all(|j| {
            let lo = j + 1 - size[j];
            self.children(j)
                .iter()
                .all(|&c| (lo..j).contains(&(c as usize)))
        })
    }

    /// Depth of each node (roots have depth 0).
    pub fn depths(&self) -> Vec<usize> {
        let n = self.n();
        let mut depth = vec![0usize; n];
        // Parents have larger indices, so walk downward.
        for j in (0..n).rev() {
            for &c in self.children(j) {
                depth[c as usize] = depth[j] + 1;
            }
        }
        depth
    }

    /// Height of the forest (longest root-to-leaf path, in edges).
    pub fn height(&self) -> usize {
        self.depths().into_iter().max().unwrap_or(0)
    }

    /// Postorder permutation: depth-first, trees in ascending root order,
    /// children in ascending order. `perm.old_of(new)` is the original node
    /// receiving the new label `new`.
    pub fn postorder(&self) -> Permutation {
        let mut order = Vec::with_capacity(self.n());
        // Iterative DFS with explicit child cursor.
        let mut stack: Vec<(usize, usize)> = Vec::new();
        for root in self.roots() {
            stack.push((root, 0));
            while let Some(&(x, ci)) = stack.last() {
                if let Some(&c) = self.children(x).get(ci) {
                    stack.last_mut().expect("stack nonempty").1 += 1;
                    stack.push((c as usize, 0));
                } else {
                    order.push(x);
                    stack.pop();
                }
            }
        }
        Permutation::from_vec(order).expect("DFS visits every node once")
    }

    /// Graphviz DOT rendering of the forest (edges point child → parent).
    pub fn to_dot(&self, name: &str) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "digraph {name} {{");
        let _ = writeln!(out, "  rankdir=BT; node [shape=circle];");
        for j in 0..self.n() {
            match self.parent(j) {
                Some(p) => {
                    let _ = writeln!(out, "  {j} -> {p};");
                }
                None => {
                    let _ = writeln!(out, "  {j} [penwidth=2];");
                }
            }
        }
        let _ = writeln!(out, "}}");
        out
    }

    /// The forest with nodes relabelled by `perm` (`perm.old_of(new) = old`).
    pub fn relabel(&self, perm: &Permutation) -> EliminationForest {
        let parent = (0..self.n())
            .map(|new| match self.parent(perm.old_of(new)) {
                Some(p) => perm.new_of(p),
                None => NONE,
            })
            .collect();
        EliminationForest::from_parent_vec(parent)
    }
}

/// The extended LU eforest: the forest plus the compact row/column
/// information of the paper's Figure 1(b).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtendedEforest {
    forest: EliminationForest,
    /// Per row `i`: the first nonzero column of `L̄` row `i` — the start of
    /// the row branch ("italics at the left of each node").
    row_branch_start: Vec<usize>,
    /// Column `j`: the minimal elements (leaves) of the column subtrees
    /// of `Ū`, ascending ("italics at the right of each node").
    col_subtree_leaves: SparsityPattern,
}

impl ExtendedEforest {
    /// Builds the extended forest from a filled structure.
    pub fn new(f: &FilledLu) -> Self {
        let forest = EliminationForest::from_filled(f);
        let n = f.n();
        // Row branch starts: first nonzero column of each L̄ row. L̄ is
        // column-compressed; walk it once.
        let mut row_branch_start: Vec<usize> = (0..n).collect();
        let mut seen = vec![false; n];
        for j in 0..n {
            for &i in f.l_col(j) {
                let i = i as usize;
                if !seen[i] {
                    seen[i] = true;
                    row_branch_start[i] = j;
                }
            }
        }
        // Column subtree leaves: i ∈ struct(Ū_{*j}) is a leaf when no child
        // of i is also in the structure.
        let (mut ptr, mut leaves) = (Vec::with_capacity(n + 1), Vec::new());
        ptr.push(0);
        for j in 0..n {
            let col = f.u.col(j);
            for &i in col {
                let has_member_child =
                    (forest.children(i as usize).iter()).any(|c| col.binary_search(c).is_ok());
                if !has_member_child {
                    leaves.push(i);
                }
            }
            ptr.push(leaves.len());
        }
        let col_subtree_leaves = SparsityPattern::from_sorted_parts(n, n, ptr, leaves);
        ExtendedEforest {
            forest,
            row_branch_start,
            col_subtree_leaves,
        }
    }

    /// The underlying forest.
    pub fn forest(&self) -> &EliminationForest {
        &self.forest
    }

    /// Start of the `L̄` row branch for row `i`.
    pub fn row_branch_start(&self, i: usize) -> usize {
        self.row_branch_start[i]
    }

    /// Leaves of the `Ū` column subtrees for column `j`.
    pub fn col_subtree_leaves(&self, j: usize) -> &[u32] {
        self.col_subtree_leaves.col(j)
    }

    /// Reconstructs the `L̄` structure from the branches: row `i` is the
    /// parent path from `row_branch_start[i]` up to `i`.
    pub fn reconstruct_l(&self) -> SparsityPattern {
        let n = self.forest.n();
        let mut entries = Vec::new();
        for i in 0..n {
            let mut x = self.row_branch_start[i];
            loop {
                entries.push((i, x));
                if x == i {
                    break;
                }
                x = self
                    .forest
                    .parent(x)
                    .expect("branch must reach its own row index");
                debug_assert!(x <= i, "branch overshot its row");
            }
        }
        SparsityPattern::from_entries(n, n, entries).expect("branch reconstruction is valid")
    }

    /// Reconstructs the `Ū` structure from the column-subtree leaves:
    /// column `j` is the union of parent paths from each leaf, truncated at
    /// `j`.
    pub fn reconstruct_u(&self) -> SparsityPattern {
        let n = self.forest.n();
        let mut entries = Vec::new();
        for j in 0..n {
            for &leaf in self.col_subtree_leaves(j) {
                let mut x = leaf as usize;
                loop {
                    entries.push((x, j));
                    if x == j {
                        break;
                    }
                    match self.forest.parent(x) {
                        Some(p) if p <= j => x = p,
                        _ => break,
                    }
                }
            }
            entries.push((j, j));
        }
        SparsityPattern::from_entries(n, n, entries).expect("subtree reconstruction is valid")
    }

    /// Predicted number of entries in each `L̄` row, computed from the
    /// compact representation alone: a row is the branch from its start to
    /// itself, so its length is the depth difference plus one.
    ///
    /// This is the storage-prediction use of the compact scheme: exact
    /// factor sizes without materializing the structures.
    pub fn predicted_l_row_counts(&self) -> Vec<usize> {
        let depth = self.forest.depths();
        (0..self.forest.n())
            .map(|i| {
                let start = self.row_branch_start[i];
                // start is a descendant of i on one path: count edges.
                depth[start] - depth[i] + 1
            })
            .collect()
    }

    /// Predicted total `L̄` entries (diagonal included) from the forest
    /// alone.
    pub fn predicted_l_nnz(&self) -> usize {
        self.predicted_l_row_counts().iter().sum()
    }

    /// Memory footprint of the compact scheme in index words (one branch
    /// start per row + leaf lists + parent array), for the storage
    /// comparison in the benchmark harness.
    pub fn compact_words(&self) -> usize {
        self.forest.n() * 2 + self.col_subtree_leaves.nnz()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::fig1_pattern;
    use crate::static_fact::static_symbolic_factorization;
    use splu_matgen::random_pattern;
    use splu_sparse::SparsityPattern;

    fn filled(p: &SparsityPattern) -> FilledLu {
        static_symbolic_factorization(p).unwrap()
    }

    #[test]
    fn definition_matches_bruteforce() {
        for seed in 0..6 {
            let p = random_pattern(15, 30, seed);
            let f = filled(&p);
            let forest = EliminationForest::from_filled(&f);
            for j in 0..15 {
                let expected = if f.l_col(j).len() > 1 {
                    (j + 1..15).find(|&r| f.u.contains(j, r))
                } else {
                    None
                };
                assert_eq!(forest.parent(j), expected, "node {j}, seed {seed}");
            }
        }
    }

    #[test]
    fn diagonal_matrix_is_all_roots() {
        let f = filled(&SparsityPattern::identity(4));
        let forest = EliminationForest::from_filled(&f);
        assert_eq!(forest.roots(), vec![0, 1, 2, 3]);
        assert_eq!(forest.height(), 0);
        assert!(forest.is_postordered());
    }

    #[test]
    fn theorem1_ancestor_closure_of_u_columns() {
        // Theorem 1: ū_ij ≠ 0 implies ū_kj ≠ 0 for every ancestor k of i
        // with k < j.
        for seed in 0..8 {
            let p = random_pattern(18, 40, seed);
            let f = filled(&p);
            let forest = EliminationForest::from_filled(&f);
            for j in 0..18 {
                for &i in f.u.col(j) {
                    let mut x = i as usize;
                    while let Some(k) = forest.parent(x) {
                        if k >= j {
                            break;
                        }
                        assert!(
                            f.u.contains(k, j),
                            "Theorem 1 violated: ū({i},{j}) set but ū({k},{j}) clear (seed {seed})"
                        );
                        x = k;
                    }
                }
            }
        }
    }

    #[test]
    fn theorem2_membership_of_u_columns() {
        // Theorem 2: ū_ij ≠ 0 implies i ∈ T[j], or i ∈ T[k] for a root k < j.
        for seed in 0..8 {
            let p = random_pattern(18, 40, seed);
            let f = filled(&p);
            let forest = EliminationForest::from_filled(&f);
            for j in 0..18 {
                for &i in f.u.col(j) {
                    let i = i as usize;
                    if i == j {
                        continue;
                    }
                    let root = forest.tree_root(i);
                    let in_tj = root == j || forest.is_ancestor(j, i) || i == j;
                    let in_left_tree = forest.parent(root).is_none() && root < j;
                    assert!(
                        in_tj || in_left_tree || root >= j && forest.is_ancestor(j, i),
                        "Theorem 2 violated at ū({i},{j}), seed {seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn l_rows_are_branches() {
        // The [7] characterization: L̄ row i = parent path from its first
        // nonzero to i.
        for seed in 0..8 {
            let p = random_pattern(18, 40, seed);
            let f = filled(&p);
            let ext = ExtendedEforest::new(&f);
            assert_eq!(
                ext.reconstruct_l(),
                f.l,
                "branch reconstruction mismatch, seed {seed}"
            );
        }
    }

    #[test]
    fn u_columns_reconstruct_from_leaves() {
        for seed in 0..8 {
            let p = random_pattern(18, 40, seed);
            let f = filled(&p);
            let ext = ExtendedEforest::new(&f);
            assert_eq!(
                ext.reconstruct_u(),
                f.u,
                "subtree reconstruction mismatch, seed {seed}"
            );
        }
    }

    #[test]
    fn predicted_row_counts_match_actual_structure() {
        for seed in 0..8 {
            let p = random_pattern(20, 45, seed);
            let f = filled(&p);
            let ext = ExtendedEforest::new(&f);
            let predicted = ext.predicted_l_row_counts();
            // Actual L̄ row lengths via the transpose of the column pattern.
            let lt = f.l.transpose();
            for i in 0..20 {
                assert_eq!(
                    predicted[i],
                    lt.col(i).len(),
                    "row {i} count mismatch (seed {seed})"
                );
            }
            assert_eq!(ext.predicted_l_nnz(), f.l.nnz(), "total (seed {seed})");
        }
    }

    #[test]
    fn compact_storage_is_smaller_on_filled_problems() {
        let p = random_pattern(30, 120, 9);
        let f = filled(&p);
        let ext = ExtendedEforest::new(&f);
        // The compact scheme stores 2 words per node plus leaves; compare to
        // the raw index storage of L̄+Ū.
        assert!(ext.compact_words() < f.nnz_filled() + f.n());
    }

    #[test]
    fn postorder_is_valid_and_relabel_preserves_shape() {
        let p = fig1_pattern();
        let f = filled(&p);
        let forest = EliminationForest::from_filled(&f);
        let po = forest.postorder();
        let relabelled = forest.relabel(&po);
        assert!(relabelled.is_postordered());
        assert_eq!(relabelled.height(), forest.height());
        assert_eq!(relabelled.roots().len(), forest.roots().len());
    }

    #[test]
    fn subtree_and_ancestor_queries() {
        // Hand-built forest: parent = [2, 2, 4, 4, NONE, NONE]
        let forest = EliminationForest::from_parent_vec(vec![2, 2, 4, 4, usize::MAX, usize::MAX]);
        assert_eq!(forest.subtree(4), vec![0, 1, 2, 3, 4]);
        assert_eq!(forest.subtree(2), vec![0, 1, 2]);
        assert!(forest.is_ancestor(4, 0));
        assert!(!forest.is_ancestor(3, 0));
        assert_eq!(forest.tree_root(1), 4);
        assert_eq!(forest.tree_root(5), 5);
        assert_eq!(forest.children(4), &[2, 3]);
        assert_eq!(forest.depths(), vec![2, 2, 1, 1, 0, 0]);
        assert_eq!(forest.height(), 2);
        assert_eq!(forest.subtree_sizes(), vec![1, 1, 3, 1, 5, 1]);
        assert!(forest.is_postordered());
    }

    #[test]
    #[should_panic(expected = "must satisfy")]
    fn parent_must_exceed_child() {
        EliminationForest::from_parent_vec(vec![usize::MAX, 0]);
    }

    #[test]
    fn dot_export_lists_every_edge_and_root() {
        let forest = EliminationForest::from_parent_vec(vec![2, 2, usize::MAX, usize::MAX]);
        let dot = forest.to_dot("t");
        assert!(dot.starts_with("digraph t {"));
        assert!(dot.contains("0 -> 2;"));
        assert!(dot.contains("1 -> 2;"));
        assert!(dot.contains("2 [penwidth=2];"));
        assert!(dot.contains("3 [penwidth=2];"));
        assert!(dot.trim_end().ends_with('}'));
    }
}
