//! Structural flop/communication estimates per task, feeding the
//! list-scheduling simulator of `splu-bench` (DESIGN.md §5, substitution 2).

use crate::numeric::factor_flops;
use splu_sched::{Task, TaskGraph};
use splu_symbolic::supernode::BlockStructure;

/// Work attributed to one task.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TaskCost {
    /// Floating-point operations the task performs.
    pub flops: f64,
    /// Words moved from another processor's memory when the source block
    /// column lives on a different owner (1D mapping).
    pub comm_words: f64,
    /// `true` when the task reads a remote block column (i.e. it is an
    /// `Update(k, j)` with `k ≠ j`); `Factor` tasks read only local data.
    pub reads_remote: bool,
    /// Source block column (for ownership checks); ignored unless
    /// `reads_remote`.
    pub src_col: usize,
    /// Destination (home) block column.
    pub dst_col: usize,
}

/// Estimates per-task flops and communication volume from the block
/// structure alone, over the shapes the compact storage runs the kernels
/// on (`m_k = w_k + |R_k|` panel rows, `s = |S_kj|` stored columns), so the
/// run-time kernel counters add up to exactly these numbers.
///
/// * `Factor(k)`: panel LU of an `m_k × w_k` panel —
///   `Σ_c (m_k − c − 1) · (1 + 2 (w_k − c − 1))` flops, no remote reads.
/// * `Update(k, j)`: `trsm` (`w_k (w_k − 1) · s`) plus the Schur `gemm`
///   (`2 |R_k| w_k s`); reads the remote panel of column `k`
///   (`m_k · w_k` words plus the pivot sequence).
pub fn estimate_task_costs(bs: &BlockStructure, graph: &TaskGraph) -> Vec<TaskCost> {
    graph
        .tasks()
        .iter()
        .map(|t| match *t {
            Task::Factor(k) => {
                let w = bs.partition.width(k);
                TaskCost {
                    flops: factor_flops(w + bs.l_rows.col(k).len(), w) as f64,
                    comm_words: 0.0,
                    reads_remote: false,
                    src_col: k,
                    dst_col: k,
                }
            }
            Task::Update { src, dst } => {
                let (w, below) = (bs.partition.width(src), bs.l_rows.col(src).len());
                let s = bs.u_cols_in(src, dst).len();
                let (wk, below_f) = (w as f64, below as f64);
                TaskCost {
                    flops: update_flops(w, below, s),
                    comm_words: (below_f + wk) * wk + wk,
                    reads_remote: true,
                    src_col: src,
                    dst_col: dst,
                }
            }
        })
        .collect()
}

/// Model flops of `Update(k, j)` for a source of width `w_k` with `below`
/// rows of `R_k` and `s = |S_kj|` stored columns: the `trsm`
/// `w_k (w_k − 1) s` plus the Schur `gemm` `2 |R_k| w_k s`.
pub(crate) fn update_flops(w_k: usize, below: usize, s: usize) -> f64 {
    let (wk, below, s) = (w_k as f64, below as f64, s as f64);
    let trsm = wk * (wk - 1.0) * s;
    let gemm = 2.0 * below * wk * s;
    trsm + gemm
}

/// Total flops of a task-cost vector (serial work under the flop model).
pub fn total_flops(costs: &[TaskCost]) -> f64 {
    costs.iter().map(|c| c.flops).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use splu_sched::build_eforest_graph;
    use splu_symbolic::fixtures::fig1_pattern;
    use splu_symbolic::static_fact::static_symbolic_factorization;
    use splu_symbolic::supernode::{supernode_partition, BlockStructure};

    #[test]
    fn costs_are_positive_and_consistent() {
        let f = static_symbolic_factorization(&fig1_pattern()).unwrap();
        let bs = BlockStructure::new(&f, supernode_partition(&f));
        let g = build_eforest_graph(&bs);
        let costs = estimate_task_costs(&bs, &g);
        assert_eq!(costs.len(), g.len());
        for (t, c) in g.tasks().iter().zip(&costs) {
            match *t {
                Task::Factor(k) => {
                    assert!(!c.reads_remote);
                    assert_eq!(c.dst_col, k);
                    assert!(c.flops >= 0.0);
                }
                Task::Update { src, dst } => {
                    assert!(c.reads_remote);
                    assert_eq!((c.src_col, c.dst_col), (src, dst));
                    // A width-1 source with no sub-diagonal blocks does its
                    // whole update inside the unit-diagonal trsm: 0 flops.
                    assert!(c.flops >= 0.0);
                    assert!(c.comm_words > 0.0);
                }
            }
        }
        assert!(total_flops(&costs) > 0.0);
    }

    #[test]
    fn wider_panels_cost_more() {
        // A dense 6x6 matrix as one supernode vs six singletons: the total
        // factor flops should be in the same ballpark (identical elimination),
        // and the single-panel Factor must dominate any singleton Factor.
        use splu_sparse::SparsityPattern;
        use splu_symbolic::Partition;
        let n = 6;
        let p =
            SparsityPattern::from_entries(n, n, (0..n).flat_map(|i| (0..n).map(move |j| (i, j))))
                .unwrap();
        let f = static_symbolic_factorization(&p).unwrap();
        let bs1 = BlockStructure::new(&f, supernode_partition(&f));
        assert_eq!(bs1.num_blocks(), 1);
        let g1 = build_eforest_graph(&bs1);
        let c1 = estimate_task_costs(&bs1, &g1);
        let bsn = BlockStructure::new(&f, Partition::singletons(n));
        let gn = build_eforest_graph(&bsn);
        let cn = estimate_task_costs(&bsn, &gn);
        let f1 = total_flops(&c1);
        let fnn = total_flops(&cn);
        assert!(f1 > 0.0 && fnn > 0.0);
        // Same arithmetic, different task decomposition: within 2x.
        assert!(f1 < 2.0 * fnn && fnn < 2.0 * f1, "f1={f1}, fn={fnn}");
    }
}
