//! Task dependence graph construction (Section 4).

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

/// An immutable task DAG.
#[derive(Debug, Clone)]
pub struct TaskGraph {
    tasks: Vec<Task>,
    succ: Vec<Vec<usize>>,
    pred_count: Vec<usize>,
    /// Task id of `Factor(k)` per block column.
    factor_ids: Vec<usize>,
    num_block_cols: usize,
}

impl TaskGraph {
    fn new(num_block_cols: usize) -> Self {
        TaskGraph {
            tasks: Vec::new(),
            succ: Vec::new(),
            pred_count: Vec::new(),
            factor_ids: Vec::new(),
            num_block_cols,
        }
    }

    fn add_task(&mut self, t: Task) -> usize {
        let id = self.tasks.len();
        self.tasks.push(t);
        self.succ.push(Vec::new());
        self.pred_count.push(0);
        id
    }

    fn add_edge(&mut self, from: usize, to: usize) {
        debug_assert_ne!(from, to);
        self.succ[from].push(to);
        self.pred_count[to] += 1;
    }

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
        self.succ.iter().map(Vec::len).sum()
    }

    /// The task with id `id`.
    pub fn task(&self, id: usize) -> Task {
        self.tasks[id]
    }

    /// All tasks, indexable by id.
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// Successor ids of task `id`.
    pub fn successors(&self, id: usize) -> &[usize] {
        &self.succ[id]
    }

    /// In-degree of each task.
    pub fn pred_counts(&self) -> &[usize] {
        &self.pred_count
    }

    /// Task id of `Factor(k)`.
    pub fn factor_id(&self, k: usize) -> usize {
        self.factor_ids[k]
    }

    /// Number of block columns the graph factorizes.
    pub fn num_block_cols(&self) -> usize {
        self.num_block_cols
    }

    /// One successor list per task id — with [`Self::pred_counts`], the
    /// view of the DAG that [`crate::ExecRequest`] takes.
    pub fn successor_lists(&self) -> &[Vec<usize>] {
        &self.succ
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
        bottom_levels(&self.pred_count, &self.succ)
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
                let _ = writeln!(out, "  {} -> {};", label(self.task(t)), label(self.task(s)));
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
            for &s in &self.succ[t] {
                if !seen[s] {
                    seen[s] = true;
                    stack.push(s);
                }
            }
        }
        false
    }
}

/// Kahn topological order of a DAG given as in-degrees plus successor
/// lists. Panics on a cycle, which would indicate a builder bug.
pub(crate) fn topo_order(pred_counts: &[usize], successors: &[Vec<usize>]) -> Vec<usize> {
    let n = pred_counts.len();
    let mut indeg = pred_counts.to_vec();
    let mut queue: std::collections::VecDeque<usize> = (0..n).filter(|&t| indeg[t] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(t) = queue.pop_front() {
        order.push(t);
        for &s in &successors[t] {
            indeg[s] -= 1;
            if indeg[s] == 0 {
                queue.push_back(s);
            }
        }
    }
    assert_eq!(order.len(), n, "task graph contains a cycle");
    order
}

/// Unit-weight bottom levels of the same DAG view (sinks have level 1): the
/// executor's priorities when no [`crate::ExecSchedule`] is cached.
pub(crate) fn bottom_levels(pred_counts: &[usize], successors: &[Vec<usize>]) -> Vec<u64> {
    let mut level = vec![1u64; pred_counts.len()];
    for &t in topo_order(pred_counts, successors).iter().rev() {
        for &s in &successors[t] {
            level[t] = level[t].max(1 + level[s]);
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
    let nb = bs.num_blocks();
    let mut parent = vec![usize::MAX; nb];
    for i in 0..nb {
        if bs.l_blocks.col(i).len() > 1 {
            if let Some(&p) = bs.u_blocks.col(i).get(1) {
                parent[i] = p as usize;
            }
        }
    }
    EliminationForest::from_parent_vec(parent)
}

/// Creates the task set shared by both builders: one `Factor` per block
/// column, one `Update(k, j)` per off-diagonal `Ū` block, plus the
/// `F(k) → U(k, j)` edges (rule 3).
///
/// Returns `(graph, update_ids)` with `update_ids[k]` listing
/// `(j, task_id)` pairs in ascending `j`.
fn base_graph(bs: &BlockStructure) -> (TaskGraph, Vec<Vec<(usize, usize)>>) {
    let nb = bs.num_blocks();
    let mut g = TaskGraph::new(nb);
    for k in 0..nb {
        let id = g.add_task(Task::Factor(k));
        g.factor_ids.push(id);
    }
    let mut update_ids: Vec<Vec<(usize, usize)>> = vec![Vec::new(); nb];
    for k in 0..nb {
        for &j in &bs.u_blocks.col(k)[1..] {
            let j = j as usize;
            let id = g.add_task(Task::Update { src: k, dst: j });
            g.add_edge(g.factor_ids[k], id);
            update_ids[k].push((j, id));
        }
    }
    (g, update_ids)
}

/// Builds the S* task dependence graph: for each destination column `j`,
/// the updates `U(k, j)` are chained in ascending `k`, and the last one
/// precedes `F(j)`.
pub fn build_sstar_graph(bs: &BlockStructure) -> TaskGraph {
    let (mut g, update_ids) = base_graph(bs);
    let nb = bs.num_blocks();
    // Collect updates per destination column.
    let mut per_dst: Vec<Vec<(usize, usize)>> = vec![Vec::new(); nb];
    for k in 0..nb {
        for &(j, id) in &update_ids[k] {
            per_dst[j].push((k, id));
        }
    }
    for j in 0..nb {
        per_dst[j].sort_unstable();
        for w in per_dst[j].windows(2) {
            g.add_edge(w[0].1, w[1].1);
        }
        if let Some(&(_, last)) = per_dst[j].last() {
            g.add_edge(last, g.factor_ids[j]);
        }
    }
    g
}

/// Builds the paper's eforest-guided task dependence graph (Section 4,
/// rules 1–5): `U(i, k) → U(i', k)` only when `i' = parent(i)` in the block
/// eforest, and `U(i, k) → F(k)` only when `k = parent(i)`.
///
/// Updates from independent subtrees carry no mutual dependence — their
/// source columns have disjoint row structures (the row-branch
/// characterization of Section 2), so they touch disjoint data.
pub fn build_eforest_graph(bs: &BlockStructure) -> TaskGraph {
    let forest = block_forest(bs);
    let (mut g, update_ids) = base_graph(bs);
    // Fast lookup: id of U(k, j).
    let find_update = |ids: &Vec<Vec<(usize, usize)>>, k: usize, j: usize| -> Option<usize> {
        ids[k]
            .binary_search_by_key(&j, |&(jj, _)| jj)
            .ok()
            .map(|pos| ids[k][pos].1)
    };
    let nb = bs.num_blocks();
    for i in 0..nb {
        for &(k, id) in &update_ids[i] {
            match forest.parent(i) {
                Some(p) if p == k => {
                    // Rule 5: U(i, k) → F(k) when k = parent(i).
                    g.add_edge(id, g.factor_ids[k]);
                }
                Some(p) => {
                    debug_assert!(p < k, "parent(i) = min of Ū row i, so p ≤ k");
                    // Rule 4: U(i, k) → U(parent(i), k). Theorem 1
                    // guarantees the target exists.
                    let target = find_update(&update_ids, p, k).unwrap_or_else(|| {
                        panic!("Theorem 1 violated: U({p},{k}) missing for child {i}")
                    });
                    g.add_edge(id, target);
                }
                None => {
                    // i is a root with U(i, k) ≠ 0: by Theorem 2 this means
                    // i's tree lies entirely left of k; the update touches
                    // rows no other task shares, so no outgoing edge.
                }
            }
        }
    }
    g
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
                        e.reaches(id, e.factor_id(k)),
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
                assert!(s.reaches(last, s.factor_id(dst)));
            }
        }
    }

    #[test]
    fn topo_order_is_valid_for_both() {
        let bs = fig1_blocks();
        for g in [build_sstar_graph(&bs), build_eforest_graph(&bs)] {
            let order = topo_order(g.pred_counts(), g.successor_lists());
            let mut pos = vec![0usize; g.len()];
            for (p, &t) in order.iter().enumerate() {
                pos[t] = p;
            }
            for t in 0..g.len() {
                for &s in g.successors(t) {
                    assert!(pos[t] < pos[s], "edge violates topological order");
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
