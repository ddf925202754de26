//! Task dependence graph construction (Section 4).

use crate::schedule::one_worker_order;
use splu_sparse::SparsityPattern;
use splu_symbolic::supernode::BlockStructure;
use splu_symbolic::EliminationForest;

/// A unit of work in the block factorization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Task {
    /// `Factor(k)`: factorize block column `k`, including its pivot search.
    Factor(usize),
    /// `Update(k, j)`: update block column `j` by the factored column `k`
    /// (`k < j`, block `B̄(k, j)` structurally nonzero).
    Update {
        /// Source (factored) block column.
        src: usize,
        /// Destination block column.
        dst: usize,
    },
}

/// `F(k)` / `U(src,dst)` — the one spelling every artifact uses (DOT
/// export, trace span labels, panic reports).
impl std::fmt::Display for Task {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Task::Factor(k) => write!(f, "F({k})"),
            Task::Update { src, dst } => write!(f, "U({src},{dst})"),
        }
    }
}

impl Task {
    /// The block column whose data this task writes — the key of the 1D
    /// mapping (`Factor(k)` and every `Update(·, k)` live on `owner(k)`).
    pub fn home_column(&self) -> usize {
        match *self {
            Task::Factor(k) => k,
            Task::Update { dst, .. } => dst,
        }
    }
}

/// An immutable task DAG over the tasks of a block structure: `Factor(k)`
/// has id `k`, and the updates follow, by source and then destination
/// block column. Its edges are a pattern whose column `t` lists the
/// successors of task `t` in ascending order.
#[derive(Debug, Clone)]
pub struct TaskGraph {
    tasks: Vec<Task>,
    edges: SparsityPattern,
    num_block_cols: usize,
}

impl TaskGraph {
    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// `true` for a graph with no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Number of dependence edges.
    pub fn num_edges(&self) -> usize {
        self.edges.nnz()
    }

    /// The task with id `id`.
    pub fn task(&self, id: usize) -> Task {
        self.tasks[id]
    }

    /// All tasks, indexable by id.
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// Successor ids of task `id`, ascending.
    pub fn successors(&self, id: usize) -> &[u32] {
        self.edges.col(id)
    }

    /// The dependence edges: column `t` lists the successors of task `t` —
    /// the view of the DAG that [`crate::ExecRequest::of`] takes.
    pub fn edges(&self) -> &SparsityPattern {
        &self.edges
    }

    /// Number of block columns the graph factorizes.
    pub fn num_block_cols(&self) -> usize {
        self.num_block_cols
    }

    /// Length of the longest path in tasks (unit task weights) — the
    /// height of the DAG, a parallelism indicator used by the experiments.
    pub fn critical_path_len(&self) -> usize {
        self.bottom_levels().into_iter().max().unwrap_or(0) as usize
    }

    /// Unit-weight **bottom level** of every task: the number of tasks on
    /// the longest dependence path from the task to a sink, inclusive (so
    /// sinks have level 1 and `max = critical_path_len`). This is the
    /// scheduling priority of the executor ([`crate::run`]): always prefer
    /// the ready task deepest on the critical path.
    pub fn bottom_levels(&self) -> Vec<u64> {
        bottom_levels(self.edges.col_ptr(), self.edges.row_indices())
    }

    /// Graphviz DOT rendering of the task graph (Figure 4 style).
    pub fn to_dot(&self, name: &str) -> String {
        use std::fmt::Write;
        let label = |t: Task| format!("\"{t}\"");
        let mut out = String::new();
        let _ = writeln!(out, "digraph {name} {{");
        let _ = writeln!(out, "  node [shape=box, fontsize=10];");
        for t in 0..self.len() {
            if let Task::Factor(_) = self.task(t) {
                let _ = writeln!(out, "  {} [style=bold];", label(self.task(t)));
            }
            for &s in self.successors(t) {
                let s = self.task(s as usize);
                let _ = writeln!(out, "  {} -> {};", label(self.task(t)), label(s));
            }
        }
        let _ = writeln!(out, "}}");
        out
    }

    /// `true` when `a` reaches `b` through dependence edges (BFS; test &
    /// diagnostics helper, not used on the hot path).
    pub fn reaches(&self, a: usize, b: usize) -> bool {
        let mut seen = vec![false; self.len()];
        let mut stack = vec![a];
        seen[a] = true;
        while let Some(t) = stack.pop() {
            if t == b {
                return true;
            }
            for &s in self.successors(t) {
                let s = s as usize;
                if !seen[s] {
                    seen[s] = true;
                    stack.push(s);
                }
            }
        }
        false
    }
}

/// In-degree of every node of a DAG whose node `t` precedes
/// `succ[ptr[t]..ptr[t + 1]]`.
pub(crate) fn in_degrees(ptr: &[usize], succ: &[u32]) -> Vec<usize> {
    let mut indeg = vec![0usize; ptr.len().saturating_sub(1)];
    for &s in succ {
        indeg[s as usize] += 1;
    }
    indeg
}

/// A topological order of the same DAG view: the one-worker order under
/// equal priorities, nodes by id among the ready. Panics on a cycle, which
/// would indicate a builder bug.
pub(crate) fn topo_order(ptr: &[usize], succ: &[u32]) -> Vec<usize> {
    one_worker_order(ptr, succ, &vec![0; ptr.len().saturating_sub(1)])
}

/// Unit-weight bottom levels of the same DAG view (sinks have level 1): the
/// executor's priorities when no [`crate::ExecSchedule`] is cached.
pub(crate) fn bottom_levels(ptr: &[usize], succ: &[u32]) -> Vec<u64> {
    let order = topo_order(ptr, succ);
    let mut level = vec![1u64; order.len()];
    for &t in order.iter().rev() {
        for &s in &succ[ptr[t]..ptr[t + 1]] {
            level[t] = level[t].max(1 + level[s as usize]);
        }
    }
    level
}

/// Computes the **block-level** LU elimination forest of a block structure:
/// Definition 1 applied to the quotient (block) matrix `B̄`.
///
/// `parent(I) = min{ K > I : B̄(I, K) ≠ 0 }` when block column `I` of `L̄`
/// has an off-diagonal block.
pub fn block_forest(bs: &BlockStructure) -> EliminationForest {
    let parent = (0..bs.num_blocks())
        .map(|i| match bs.u_blocks.col(i).get(1) {
            Some(&p) if bs.l_blocks.col(i).len() > 1 => p as usize,
            _ => usize::MAX,
        })
        .collect();
    EliminationForest::from_parent_vec(parent)
}

/// Task id of the first update out of block column `k`: the factors come
/// first, then `k`'s updates follow the `u_blocks` columns before it, each
/// of which heads its list with its own diagonal block.
fn first_update(bs: &BlockStructure, k: usize) -> usize {
    bs.num_blocks() + bs.u_blocks.col_ptr()[k] - k
}

/// The task set shared by both builders — one `Factor` per block column,
/// one `Update(k, j)` per off-diagonal `Ū` block — with the `F(k) → U(k,
/// j)` edges (rule 3) and, out of `U(k, j)` with task id `id`, the one edge
/// `next(k, j, id)` names, if any. `edges` is the edge count.
fn graph_of(
    bs: &BlockStructure,
    edges: usize,
    mut next: impl FnMut(usize, usize, usize) -> Option<usize>,
) -> TaskGraph {
    let (nb, u) = (bs.num_blocks(), &bs.u_blocks);
    let n = u.nnz();
    let mut tasks = Vec::with_capacity(n);
    tasks.extend((0..nb).map(Task::Factor));
    let (mut ptr, mut succ) = (Vec::with_capacity(n + 1), Vec::with_capacity(edges));
    ptr.push(0);
    for k in 0..nb {
        succ.extend(first_update(bs, k) as u32..first_update(bs, k + 1) as u32);
        ptr.push(succ.len());
    }
    for k in 0..nb {
        for &j in &u.col(k)[1..] {
            let j = j as usize;
            succ.extend(next(k, j, tasks.len()).map(|s| s as u32));
            ptr.push(succ.len());
            tasks.push(Task::Update { src: k, dst: j });
        }
    }
    debug_assert_eq!(succ.len(), edges, "the edge count");
    TaskGraph {
        tasks,
        edges: SparsityPattern::from_sorted_parts(n, n, ptr, succ),
        num_block_cols: nb,
    }
}

/// Builds the S* task dependence graph: for each destination column `j`,
/// the updates `U(k, j)` are chained in ascending `k`, and the last one
/// precedes `F(j)`.
pub fn build_sstar_graph(bs: &BlockStructure) -> TaskGraph {
    let nb = bs.num_blocks();
    // Column `j` of the transpose: its sources ascending, then `j`. Walking
    // the columns in order meets `k`'s updates in its own order, so a
    // cursor per source names each update's task id.
    let sources = bs.u_blocks.transpose();
    let mut cursor: Vec<usize> = (0..nb).map(|k| first_update(bs, k)).collect();
    let mut chained = vec![0usize; sources.nnz() - nb];
    for j in 0..nb {
        for w in sources.col(j).windows(2) {
            let (k, after) = (w[0] as usize, w[1] as usize);
            chained[cursor[k] - nb] = if after == j { j } else { cursor[after] };
            cursor[k] += 1;
        }
    }
    graph_of(bs, 2 * chained.len(), |_, _, id| Some(chained[id - nb]))
}

/// Builds the paper's eforest-guided task dependence graph (Section 4,
/// rules 1–5) over any block lists — the static ones or a session's
/// in-block ones. Rule 4, `U(i, k) → U(a, k)`, targets the nearest proper
/// ancestor `a` of `i` in the block eforest whose `Ū(a, k)` the lists hold;
/// rule 5, `U(i, k) → F(k)`, applies when that walk reaches `k` or leaves
/// `i`'s tree below it. On the static lists every walk stops at its first
/// step, `parent(i)` (Theorem 1), and a root's update has no successor
/// (Theorem 2). Every update out of a non-root has exactly one successor.
///
/// Updates from independent subtrees carry no mutual dependence — their
/// source columns have disjoint row structures (the row-branch
/// characterization of Section 2), so they touch disjoint data.
pub fn build_eforest_graph(bs: &BlockStructure) -> TaskGraph {
    let forest = block_forest(bs);
    let u = &bs.u_blocks;
    let updates = u.nnz() - bs.num_blocks();
    let from_non_roots: usize = (0..bs.num_blocks())
        .filter(|&i| forest.parent(i).is_some())
        .map(|i| u.col(i).len() - 1)
        .sum();
    graph_of(bs, updates + from_non_roots, |i, k, _| {
        // i is a root with U(i, k) ≠ 0: by Theorem 2 this means i's tree
        // lies entirely left of k; the update touches rows no other task
        // shares, so no outgoing edge.
        let mut a = forest.parent(i)?;
        debug_assert!(a <= k, "parent(i) = min of Ū row i, so parent(i) ≤ k");
        // Rule 4 on the nearest ancestor holding Ū(a, k), else rule 5.
        while a < k {
            if let Ok(at) = u.col(a)[1..].binary_search(&(k as u32)) {
                return Some(first_update(bs, a) + at);
            }
            a = forest.parent(a).unwrap_or(k);
        }
        Some(k)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use splu_sparse::SparsityPattern;
    use splu_symbolic::fixtures::fig1_pattern;
    use splu_symbolic::static_fact::static_symbolic_factorization;
    use splu_symbolic::supernode::{supernode_partition, BlockStructure};
    use splu_symbolic::Partition;

    fn fig1_blocks() -> BlockStructure {
        let f = static_symbolic_factorization(&fig1_pattern()).unwrap();
        let part = supernode_partition(&f);
        BlockStructure::new(&f, part)
    }

    fn singleton_blocks(p: &SparsityPattern) -> BlockStructure {
        let f = static_symbolic_factorization(p).unwrap();
        let n = f.n();
        BlockStructure::new(&f, Partition::singletons(n))
    }

    fn random_blocks(n: usize, extra: usize, seed: u64) -> BlockStructure {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut entries: Vec<(usize, usize)> = (0..n).map(|i| (i, i)).collect();
        for _ in 0..extra {
            entries.push((rng.gen_range(0..n), rng.gen_range(0..n)));
        }
        let p = SparsityPattern::from_entries(n, n, entries).unwrap();
        singleton_blocks(&p)
    }

    #[test]
    fn both_graphs_have_identical_task_sets() {
        let bs = fig1_blocks();
        let s = build_sstar_graph(&bs);
        let e = build_eforest_graph(&bs);
        assert_eq!(s.len(), e.len());
        assert_eq!(s.tasks(), e.tasks());
        assert!(!s.is_empty());
    }

    #[test]
    fn eforest_graph_never_has_more_edges() {
        for seed in 0..10 {
            let bs = random_blocks(20, 40, seed);
            let s = build_sstar_graph(&bs);
            let e = build_eforest_graph(&bs);
            assert!(
                e.num_edges() <= s.num_edges(),
                "eforest graph denser than S* (seed {seed}): {} vs {}",
                e.num_edges(),
                s.num_edges()
            );
        }
    }

    #[test]
    fn eforest_graph_exposes_at_least_as_much_parallelism() {
        for seed in 0..10 {
            let bs = random_blocks(20, 40, seed);
            let s = build_sstar_graph(&bs);
            let e = build_eforest_graph(&bs);
            assert!(
                e.critical_path_len() <= s.critical_path_len(),
                "eforest critical path longer (seed {seed})"
            );
        }
    }

    /// The correctness core: in the eforest graph, every ordering the S*
    /// graph imposes between two updates writing overlapping data must be
    /// preserved. Overlap happens exactly when one source column is an
    /// ancestor of the other (disjoint subtrees have disjoint row
    /// structures).
    #[test]
    fn eforest_graph_orders_all_ancestor_related_updates() {
        for seed in 0..8 {
            let bs = random_blocks(16, 30, seed);
            let e = build_eforest_graph(&bs);
            let forest = block_forest(&bs);
            // Gather update ids by (src, dst).
            let mut updates: Vec<(usize, usize, usize)> = Vec::new();
            for (id, t) in e.tasks().iter().enumerate() {
                if let Task::Update { src, dst } = *t {
                    updates.push((src, dst, id));
                }
            }
            for &(i1, k1, id1) in &updates {
                for &(i2, k2, id2) in &updates {
                    if k1 != k2 || i1 >= i2 {
                        continue;
                    }
                    if forest.is_ancestor(i2, i1) {
                        assert!(
                            e.reaches(id1, id2),
                            "missing order U({i1},{k1}) → U({i2},{k2}) (seed {seed})"
                        );
                    }
                }
            }
            // Every update with dst = k whose source is in T[k] must
            // precede F(k).
            for &(i, k, id) in &updates {
                if forest.is_ancestor(k, i) {
                    assert!(
                        e.reaches(id, k),
                        "U({i},{k}) does not precede F({k}) (seed {seed})"
                    );
                }
            }
        }
    }

    #[test]
    fn sstar_serializes_each_destination_column() {
        let bs = fig1_blocks();
        let s = build_sstar_graph(&bs);
        let mut per_dst: Vec<Vec<(usize, usize)>> = vec![Vec::new(); s.num_block_cols()];
        for (id, t) in s.tasks().iter().enumerate() {
            if let Task::Update { src, dst } = *t {
                per_dst[dst].push((src, id));
            }
        }
        for (dst, mut ups) in per_dst.into_iter().enumerate() {
            ups.sort_unstable();
            for w in ups.windows(2) {
                assert!(s.reaches(w[0].1, w[1].1));
            }
            if let Some(&(_, last)) = ups.last() {
                assert!(s.reaches(last, dst));
            }
        }
    }

    #[test]
    fn topo_order_is_valid_for_both() {
        let bs = fig1_blocks();
        for g in [build_sstar_graph(&bs), build_eforest_graph(&bs)] {
            let order = topo_order(g.edges().col_ptr(), g.edges().row_indices());
            let mut pos = vec![0usize; g.len()];
            for (p, &t) in order.iter().enumerate() {
                pos[t] = p;
            }
            for t in 0..g.len() {
                for &s in g.successors(t) {
                    assert!(pos[t] < pos[s as usize], "edge violates topological order");
                }
            }
        }
    }

    #[test]
    fn block_forest_matches_scalar_forest_on_singleton_partition() {
        let p = fig1_pattern();
        let f = static_symbolic_factorization(&p).unwrap();
        let scalar = EliminationForest::from_filled(&f);
        let bs = singleton_blocks(&p);
        let blockf = block_forest(&bs);
        for j in 0..p.ncols() {
            assert_eq!(blockf.parent(j), scalar.parent(j), "node {j}");
        }
    }

    #[test]
    fn home_column_is_destination() {
        assert_eq!(Task::Factor(3).home_column(), 3);
        assert_eq!(Task::Update { src: 1, dst: 5 }.home_column(), 5);
    }

    #[test]
    fn tasks_display_as_the_papers_labels() {
        assert_eq!(Task::Factor(3).to_string(), "F(3)");
        assert_eq!(Task::Update { src: 3, dst: 7 }.to_string(), "U(3,7)");
    }

    #[test]
    fn dot_export_shows_tasks_and_edges() {
        let bs = fig1_blocks();
        let g = build_eforest_graph(&bs);
        let dot = g.to_dot("fig4");
        assert!(dot.starts_with("digraph fig4 {"));
        assert!(dot.contains("\"F(0)\""));
        // At least one dependence edge rendered.
        assert!(dot.contains("->"));
        assert_eq!(dot.matches("->").count(), g.num_edges());
    }

    #[test]
    fn diagonal_matrix_has_factor_tasks_only() {
        let bs = singleton_blocks(&SparsityPattern::identity(4));
        let g = build_eforest_graph(&bs);
        assert_eq!(g.len(), 4);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.critical_path_len(), 1);
    }
}
