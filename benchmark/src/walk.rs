//! The pipeline walked phase by phase through the public per-phase
//! functions, with a span around each call.
//!
//! `SparseLu::factor` runs these same steps behind one call; the walk
//! exists so that the time of one factorization can be attributed to the
//! layer that spent it. Its solution must be bitwise equal to the one-shot
//! call's — the caller checks the hash — so the walk cannot drift into
//! measuring a different computation.

use crate::trace::Tracer;
use parsplu::core::{
    estimate_task_costs, factor_numeric_with, solve_permuted, total_flops, BlockMatrix,
    NumericRequest,
};
use parsplu::ordering::{column_min_degree, maximum_transversal, StructuralRank};
use parsplu::sched::{
    block_forest, build_eforest_graph, build_sstar_graph, ExecSchedule, Mapping, TaskGraph,
};
use parsplu::sparse::{CscMatrix, Permutation};
use parsplu::symbolic::{
    amalgamate, postorder_permutation, static_symbolic_factorization, supernode_partition,
    BlockStructure, EliminationForest, FilledLu, SupernodeOptions,
};
use std::sync::Arc;

/// What one walk leaves behind: the factors, the structures they were
/// built on, and the exact structural counts.
pub struct Walked {
    pub row_perm: Permutation,
    pub col_perm: Permutation,
    /// `a` in factorization order.
    pub permuted: CscMatrix,
    pub bs: BlockStructure,
    pub graph: TaskGraph,
    pub schedule: Arc<ExecSchedule>,
    /// Factored block storage.
    pub bm: BlockMatrix,
    /// Entries of the filled structure `L̄ + Ū − I`.
    pub fill_nnz: usize,
    /// Structural flop count of the numeric phase (the cost model's).
    pub model_flops: f64,
}

impl Walked {
    /// Solves `A x = b` through the walked factors (one span).
    pub fn solve(&self, b: &[f64], tr: &mut Tracer) -> Vec<f64> {
        tr.span("core.solve", || {
            let mut y = self.row_perm.apply_vec(b);
            solve_permuted(&self.bm, &self.bs, &mut y);
            self.col_perm.apply_inverse_vec(&y)
        })
    }

    /// Edge count of the S* graph over the same block structure — the
    /// baseline the least-dependence (eforest) graph is compared with.
    pub fn sstar_edges(&self) -> usize {
        build_sstar_graph(&self.bs).num_edges()
    }
}

/// Analyzes and factors `a` step by step under the default options
/// (transversal, minimum degree on `AᵀA`, static fill, eforest postorder,
/// amalgamated supernodes, eforest task graph, one thread).
pub fn walk(a: &CscMatrix, tr: &mut Tracer) -> Result<Walked, String> {
    let n = a.ncols();
    let pattern = a.pattern();
    let rp0 = tr.span("ordering.transversal", || maximum_transversal(pattern));
    let rp0 = match rp0 {
        StructuralRank::Full(p) => p,
        StructuralRank::Deficient { rank } => {
            return Err(format!("structurally singular input (rank {rank} of {n})"))
        }
    };
    let p1 = tr.span("sparse.permute", || {
        pattern.permuted(&rp0, &Permutation::identity(n))
    });
    let q = tr.span("ordering.mindeg", || column_min_degree(&p1));
    let p2 = tr.span("sparse.permute", || p1.permuted(&q, &q));
    let f2 = tr
        .span("symbolic.fill", || static_symbolic_factorization(&p2))
        .map_err(|e| format!("static fill: {e:?}"))?;
    let po = tr.span("symbolic.postorder", || postorder_permutation(&f2));
    let filled = tr.span("sparse.permute", || {
        FilledLu::from_parts(f2.l.permuted(&po, &po), f2.u.permuted(&po, &po))
    });
    let row_perm = po.compose(&q.compose(&rp0));
    let col_perm = po.compose(&q);
    let bs = tr.span("symbolic.supernode", || {
        let exact = supernode_partition(&filled);
        let merged = amalgamate(&filled, &exact, &SupernodeOptions::default());
        BlockStructure::new(&filled, merged)
    });
    // The analysis also derives its statistics here: the scalar forest's
    // tree count, a first build of the graph with its critical path, and
    // the flop model. They are part of what one `SparseLu::factor` costs.
    tr.span("symbolic.eforest_stats", || {
        EliminationForest::from_filled(&filled).roots().len()
    });
    let stats_graph = tr.span("sched.graph_stats", || {
        let _forest = block_forest(&bs);
        let g = build_eforest_graph(&bs);
        let _ = g.critical_path_len();
        g
    });
    let model_flops = tr.span("core.cost_model", || {
        total_flops(&estimate_task_costs(&bs, &stats_graph))
    });
    let (graph, schedule) = tr.span("sched.graph_build", || {
        let g = build_eforest_graph(&bs);
        let s = Arc::new(ExecSchedule::for_graph(&g));
        (g, s)
    });
    let permuted = tr.span("sparse.permute", || a.permuted(&row_perm, &col_perm));
    let bm = tr.span("core.assemble", || BlockMatrix::assemble(&permuted, &bs));
    tr.span("core.numeric", || {
        factor_numeric_with(
            &bm,
            &NumericRequest::coarse(&graph, Mapping::Static1D).schedule(Arc::clone(&schedule)),
        )
    })
    .map_err(|e| format!("numeric phase: {e}"))?;
    Ok(Walked {
        row_perm,
        col_perm,
        permuted,
        bs,
        graph,
        schedule,
        bm,
        fill_nnz: filled.nnz_filled(),
        model_flops,
    })
}
