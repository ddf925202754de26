//! Fine-grained (2D-ready) task decomposition — the paper's future work.
//!
//! Section 6 lists "extend our methods for a 2D partitioning of the matrix"
//! as future work (realized later in S+). This module explores that
//! direction at the scheduling level: each `Update(k, j)` is split into
//!
//! * `Apply(k, j)` — apply `Factor(k)`'s pivot interchanges to column `j`;
//! * `Trsm(k, j)` — compute `Ū(k, j) = L(k, k)⁻¹ B̄(k, j)`;
//! * `Gemm(k, j, i)` — one Schur update `B̄(i, j) −= L(i, k)·Ū(k, j)` per
//!   destination block row,
//!
//! so that the work of one destination column can spread over a whole
//! processor-grid column instead of a single 1D owner. The dependence rules
//! lift from Section 4: per destination, sources are chained along the
//! block eforest (`parent`), and the chain into `F(k)` closes the panel.
//!
//! The decomposition is evaluated with the deterministic list-scheduling
//! simulator under a 1D column or 2D block-cyclic owner map (`twod`
//! binary) only; the numerical executor keeps the paper's 1D column-task
//! granularity.

use crate::simulate::{bottom_levels, in_degrees, CostModel, Key, SimResult};
use splu_sparse::SparsityPattern;
use splu_symbolic::supernode::BlockStructure;
use splu_symbolic::EliminationForest;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A task of the fine decomposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FineTask {
    /// Factor block column `k` (panel LU with pivoting).
    Factor(usize),
    /// Apply `k`'s pivot interchanges to block column `j`.
    Apply {
        /// Source (factored) block column.
        src: usize,
        /// Destination block column.
        dst: usize,
    },
    /// Compute `Ū(src, dst)` by a triangular solve.
    Trsm {
        /// Source (factored) block column.
        src: usize,
        /// Destination block column.
        dst: usize,
    },
    /// One Schur update into block `(row, dst)`.
    Gemm {
        /// Source (factored) block column.
        src: usize,
        /// Destination block column.
        dst: usize,
        /// Destination block row.
        row: usize,
    },
}

/// Processor-grid shapes for owner mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grid {
    /// The paper's 1D mapping: all tasks of block column `j` on `j mod P`.
    OneD(usize),
    /// A 2D block-cyclic grid: task on block `(i, j)` runs on
    /// `(i mod pr) · pc + (j mod pc)`.
    TwoD(usize, usize),
}

impl Grid {
    /// Total processor count.
    pub fn nprocs(&self) -> usize {
        match *self {
            Grid::OneD(p) => p.max(1),
            Grid::TwoD(pr, pc) => (pr * pc).max(1),
        }
    }

    /// Owner of a task touching block `(i, j)`.
    fn owner(&self, i: usize, j: usize) -> usize {
        match *self {
            Grid::OneD(p) => j % p.max(1),
            Grid::TwoD(pr, pc) => (i % pr.max(1)) * pc.max(1) + (j % pc.max(1)),
        }
    }

    /// Owner of a fine task (by the block it writes).
    fn owner_of(&self, t: FineTask) -> usize {
        match t {
            FineTask::Factor(k) => self.owner(k, k),
            FineTask::Apply { src, dst } | FineTask::Trsm { src, dst } => self.owner(src, dst),
            FineTask::Gemm { dst, row, .. } => self.owner(row, dst),
        }
    }
}

/// The fine-grained dependence graph: column `t` of `edges` lists the
/// successors of task `t`, ascending.
#[derive(Debug, Clone)]
pub struct FineGraph {
    tasks: Vec<FineTask>,
    edges: SparsityPattern,
}

impl FineGraph {
    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.nnz()
    }

    /// All tasks by id.
    pub fn tasks(&self) -> &[FineTask] {
        &self.tasks
    }

    /// Successors of a task, ascending.
    pub fn successors(&self, id: usize) -> &[u32] {
        self.edges.col(id)
    }

    /// Longest path in tasks (unit weights).
    pub fn critical_path_len(&self) -> usize {
        (bottom_levels(&self.edges, |_| 1.0, |_, _| 0.0).into_iter()).fold(0.0, f64::max) as usize
    }
}

/// Builds the fine-grained graph from a block structure and its eforest,
/// following the Section 4 rules lifted to the split tasks.
pub fn build_fine_graph(bs: &BlockStructure, forest: &EliminationForest) -> FineGraph {
    let nb = bs.num_blocks();
    let mut tasks: Vec<FineTask> = (0..nb).map(FineTask::Factor).collect();
    // (successor, predecessor): the entries of the edge pattern.
    let mut edges = Vec::new();
    let mut add = |t: FineTask| {
        tasks.push(t);
        tasks.len() - 1
    };
    // Per (src, dst): ids of the stage tasks.
    struct Stages {
        dst: usize,
        apply: usize,
        trsm: usize,
        gemms: Vec<usize>,
    }
    let mut stages: Vec<Vec<Stages>> = (0..nb).map(|_| Vec::new()).collect();
    for (k, stages_k) in stages.iter_mut().enumerate() {
        for &j in &bs.u_blocks.col(k)[1..] {
            let j = j as usize;
            let apply = add(FineTask::Apply { src: k, dst: j });
            let trsm = add(FineTask::Trsm { src: k, dst: j });
            edges.extend([(apply, k), (trsm, apply)]);
            let mut gemms = Vec::new();
            for &i in &bs.l_blocks.col(k)[1..] {
                let i = i as usize;
                // Destination block (i, j) may be structurally absent; the
                // contribution is then exactly zero (see splu-core) and no
                // task is needed.
                if bs.block_nonzero(i, j) {
                    let g = add(FineTask::Gemm {
                        src: k,
                        dst: j,
                        row: i,
                    });
                    edges.push((g, trsm));
                    gemms.push(g);
                }
            }
            stages_k.push(Stages {
                dst: j,
                apply,
                trsm,
                gemms,
            });
        }
    }
    // Chain per destination along the eforest, and close into Factor.
    for i in 0..nb {
        for s in &stages[i] {
            let k = s.dst;
            let target = match forest.parent(i) {
                // All of source i's work into k precedes F(k).
                Some(p) if p == k => k,
                // Else the parent's Apply into the same destination.
                Some(p) => {
                    (stages[p].iter().find(|t| t.dst == k))
                        .unwrap_or_else(|| {
                            panic!("Theorem 1 violated at block level: U({p},{k}) missing")
                        })
                        .apply
                }
                None => continue,
            };
            edges.extend(
                std::iter::once(s.trsm)
                    .chain(s.gemms.iter().copied())
                    .map(|t| (target, t)),
            );
        }
    }
    let n = tasks.len();
    let edges = SparsityPattern::from_entries(n, n, edges).expect("task ids are in range");
    FineGraph { tasks, edges }
}

/// Per-task time for the fine decomposition under a grid and model, over
/// the shapes of the compact storage: `|R_k|` stored rows below supernode
/// `k`, `|S_kj|` stored columns of `Ū(k, j)`.
fn fine_task_time(bs: &BlockStructure, grid: &Grid, model: &CostModel, t: FineTask) -> f64 {
    let w = |b: usize| bs.partition.width(b) as f64;
    let stack_height = |k: usize| -> f64 { w(k) + bs.l_rows.col(k).len() as f64 };
    let remote = |a: (usize, usize), b: (usize, usize)| -> bool {
        grid.nprocs() > 1 && grid.owner(a.0, a.1) != grid.owner(b.0, b.1)
    };
    match t {
        FineTask::Factor(k) => {
            let m = stack_height(k);
            let wk = w(k);
            let mut flops = 0.0;
            let mut c = 0.0;
            while c < wk {
                flops += (m - c - 1.0).max(0.0) * (1.0 + 2.0 * (wk - c - 1.0).max(0.0));
                c += 1.0;
            }
            // Under a 2D grid the panel is spread over a grid column; the
            // pivot search serializes but the update spreads. Model the
            // extra coordination as comm proportional to the panel height.
            let comm = match grid {
                Grid::OneD(_) => 0.0,
                Grid::TwoD(pr, _) if *pr > 1 => m * model.seconds_per_word,
                Grid::TwoD(..) => 0.0,
            };
            model.task_overhead + flops * model.seconds_per_flop + comm
        }
        FineTask::Apply { src, dst } => {
            let wk = w(src);
            let wj = bs.u_cols_in(src, dst).len() as f64;
            let comm = if remote((src, src), (src, dst)) {
                wk * model.seconds_per_word
            } else {
                0.0
            };
            model.task_overhead + wk * wj * model.seconds_per_flop + comm
        }
        FineTask::Trsm { src, dst } => {
            let wk = w(src);
            let wj = bs.u_cols_in(src, dst).len() as f64;
            let comm = if remote((src, src), (src, dst)) {
                wk * wk * model.seconds_per_word
            } else {
                0.0
            };
            model.task_overhead + wk * (wk - 1.0) * wj * model.seconds_per_flop + comm
        }
        FineTask::Gemm { src, dst, row } => {
            let wk = w(src);
            let wj = bs.u_cols_in(src, dst).len() as f64;
            let wi = bs.l_rows_in(src, row).len() as f64;
            let mut comm = 0.0;
            if remote((row, src), (row, dst)) {
                comm += wi * wk * model.seconds_per_word; // L(i, k)
            }
            if remote((src, dst), (row, dst)) {
                comm += wk * wj * model.seconds_per_word; // Ū(k, j)
            }
            model.task_overhead + 2.0 * wi * wk * wj * model.seconds_per_flop + comm
        }
    }
}

/// Simulates the fine graph on the given processor grid (list scheduling,
/// owner-mapped, with cross-owner edge latency — the same discipline as
/// [`crate::simulate()`]).
pub fn simulate_fine(
    fg: &FineGraph,
    bs: &BlockStructure,
    grid: Grid,
    model: &CostModel,
) -> SimResult {
    let nprocs = grid.nprocs();
    let owners: Vec<usize> = fg.tasks.iter().map(|&t| grid.owner_of(t)).collect();
    let times: Vec<f64> = fg
        .tasks
        .iter()
        .map(|&t| fine_task_time(bs, &grid, model, t))
        .collect();

    let mut indeg = in_degrees(&fg.edges);
    let mut ready_time = vec![0.0_f64; fg.len()];
    let mut proc_free = vec![0.0_f64; nprocs];
    let mut heap: BinaryHeap<Reverse<Key>> = (0..fg.len())
        .filter(|&t| indeg[t] == 0)
        .map(|t| Reverse(Key(0.0, t)))
        .collect();
    let mut busy = vec![0.0_f64; nprocs];
    let mut total_work = 0.0;
    let mut makespan = 0.0_f64;
    let mut scheduled = 0usize;
    while let Some(Reverse(Key(ready, t))) = heap.pop() {
        scheduled += 1;
        let p = owners[t];
        let start = ready.max(proc_free[p]);
        let finish = start + times[t];
        proc_free[p] = finish;
        busy[p] += times[t];
        total_work += times[t];
        makespan = makespan.max(finish);
        for s in fg.successors(t).iter().map(|&s| s as usize) {
            let visible = if owners[s] != p && nprocs > 1 {
                finish + model.edge_latency
            } else {
                finish
            };
            ready_time[s] = ready_time[s].max(visible);
            indeg[s] -= 1;
            if indeg[s] == 0 {
                heap.push(Reverse(Key(ready_time[s], s)));
            }
        }
    }
    assert_eq!(scheduled, fg.len(), "cycle in fine graph");
    SimResult {
        makespan,
        total_work,
        busy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splu_sched::{block_forest, build_eforest_graph};
    use splu_sparse::SparsityPattern;
    use splu_symbolic::static_fact::static_symbolic_factorization;
    use splu_symbolic::supernode::{supernode_partition, BlockStructure};

    fn structure(n: usize, extra: usize, seed: u64) -> BlockStructure {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut entries: Vec<(usize, usize)> = (0..n).map(|i| (i, i)).collect();
        for _ in 0..extra {
            entries.push((rng.gen_range(0..n), rng.gen_range(0..n)));
        }
        let p = SparsityPattern::from_entries(n, n, entries).unwrap();
        let f = static_symbolic_factorization(&p).unwrap();
        let part = supernode_partition(&f);
        BlockStructure::new(&f, part)
    }

    #[test]
    fn fine_graph_is_acyclic_and_has_more_tasks() {
        for seed in 0..6 {
            let bs = structure(25, 55, seed);
            let forest = block_forest(&bs);
            let fg = build_fine_graph(&bs, &forest);
            let coarse = build_eforest_graph(&bs);
            assert!(fg.len() >= coarse.len(), "fine splits tasks");
            let _ = fg.critical_path_len(); // panics on a cycle
            assert!(!fg.is_empty());
            assert!(fg.num_edges() >= coarse.num_edges());
        }
    }

    #[test]
    fn fine_serial_simulation_is_consistent() {
        let bs = structure(20, 45, 3);
        let forest = block_forest(&bs);
        let fg = build_fine_graph(&bs, &forest);
        let model = CostModel {
            seconds_per_flop: 1.0,
            seconds_per_word: 0.0,
            task_overhead: 0.0,
            edge_latency: 0.0,
        };
        let r1 = simulate_fine(&fg, &bs, Grid::OneD(1), &model);
        assert!((r1.makespan - r1.total_work).abs() < 1e-9);
    }

    #[test]
    fn more_processors_do_not_slow_the_fine_schedule() {
        let bs = structure(30, 70, 5);
        let forest = block_forest(&bs);
        let fg = build_fine_graph(&bs, &forest);
        let model = CostModel {
            seconds_per_flop: 1.0,
            seconds_per_word: 0.0,
            task_overhead: 0.1,
            edge_latency: 0.0,
        };
        let r1 = simulate_fine(&fg, &bs, Grid::OneD(1), &model);
        let r4 = simulate_fine(&fg, &bs, Grid::TwoD(2, 2), &model);
        assert!(r4.makespan <= r1.makespan + 1e-9);
    }

    #[test]
    fn grid_owner_mapping_is_within_bounds() {
        let g = Grid::TwoD(3, 4);
        assert_eq!(g.nprocs(), 12);
        for i in 0..10 {
            for j in 0..10 {
                assert!(g.owner(i, j) < 12);
            }
        }
        assert_eq!(Grid::OneD(4).nprocs(), 4);
        assert_eq!(
            Grid::OneD(4).owner_of(FineTask::Gemm {
                src: 0,
                dst: 6,
                row: 9
            }),
            2
        );
    }

    #[test]
    fn factor_tasks_precede_their_stages() {
        let bs = structure(18, 40, 9);
        let forest = block_forest(&bs);
        let fg = build_fine_graph(&bs, &forest);
        // For every Apply(src, dst), Factor(src) must reach it.
        let mut factor_pos = std::collections::HashMap::new();
        for (id, t) in fg.tasks().iter().enumerate() {
            if let FineTask::Factor(k) = *t {
                factor_pos.insert(k, id);
            }
        }
        for (id, t) in fg.tasks().iter().enumerate() {
            if let FineTask::Apply { src, .. } = *t {
                let f = factor_pos[&src];
                assert!(
                    fg.successors(f).contains(&(id as u32)),
                    "Factor({src}) must directly precede Apply"
                );
            }
        }
    }
}
