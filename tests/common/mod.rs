//! The static oracle of the differential suites. A session and a
//! `SparseLu` factor on the in-block structure and reach the static `Ā`
//! only when a pivot leaves its diagonal block; the oracle reaches it
//! through no door of theirs: the values are assembled straight into the
//! storage of the static structure and factored by the numeric driver.

// Each test binary that includes this module uses a part of it.
#![allow(dead_code)]

pub mod alloc;
pub mod stepped;

use parsplu::core::{
    analyze, factor_numeric_with, solve_many_permuted, solve_permuted,
    solve_transposed_permuted_with, BlockMatrix, Dispatch, KernelChoice, LuError, NumericRequest,
    Options, SymbolicLu,
};
use parsplu::sparse::CscMatrix;

/// `a` factored on the static structure of its analysis under `opts` (its
/// threads, mapping, pivoting, kernels, breakdown policy and budget).
pub struct StaticFactors {
    /// The analysis; its `block_structure` is the static one.
    pub sym: SymbolicLu,
    /// The factored storage of the static structure.
    pub bm: BlockMatrix,
}

impl StaticFactors {
    pub fn factor(a: &CscMatrix, opts: &Options) -> Result<Self, LuError> {
        let sym = analyze(a.pattern(), opts)?;
        let bm = BlockMatrix::assemble(&sym.permute_matrix(a), &sym.block_structure);
        assert_eq!(
            bm.storage_words(),
            sym.stats.static_words,
            "the oracle holds the static words"
        );
        let graph = sym.build_graph();
        let req = NumericRequest::coarse(&graph, opts.mapping)
            .threads(opts.threads)
            .pivot_rule(opts.pivot_rule)
            .pivot_threshold(opts.pivot_threshold)
            .kernels(opts.kernels)
            .breakdown(opts.breakdown)
            .budget(opts.budget.clone());
        factor_numeric_with(&bm, &req)?;
        Ok(StaticFactors { sym, bm })
    }

    /// The static factors of `a` on one thread under the default options.
    pub fn of(a: &CscMatrix) -> Self {
        Self::factor(a, &Options::default()).expect("the static factorization succeeds")
    }

    /// `A x = b`: permute, the sweeps over the static storage, un-permute.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut y = self.sym.row_perm.apply_vec(b);
        solve_permuted(&self.bm, &self.sym.block_structure, &mut y);
        self.sym.col_perm.apply_inverse_vec(&y)
    }

    /// `Aᵀ x = b`.
    pub fn solve_transposed(&self, b: &[f64]) -> Vec<f64> {
        let mut y = self.sym.col_perm.apply_vec(b);
        let kernels = Dispatch::resolve(KernelChoice::Auto);
        solve_transposed_permuted_with(&self.bm, &self.sym.block_structure, &mut y, &kernels);
        self.sym.row_perm.apply_inverse_vec(&y)
    }

    /// `A X = B` for `nrhs` column-major right-hand sides.
    pub fn solve_many(&self, b: &[f64], nrhs: usize) -> Vec<f64> {
        let n = self.bm.n();
        let mut work: Vec<f64> = (b.chunks(n))
            .flat_map(|col| self.sym.row_perm.apply_vec(col))
            .collect();
        let kernels = Dispatch::resolve(KernelChoice::Auto);
        solve_many_permuted(
            &self.bm,
            &self.sym.block_structure,
            &mut work,
            nrhs,
            &kernels,
        );
        (work.chunks(n))
            .flat_map(|col| self.sym.col_perm.apply_inverse_vec(col))
            .collect()
    }
}

/// The first (global) column of the factorization in `bm` whose pivot row
/// lies below the column's diagonal block: where a run on the in-block
/// structure trips its wire.
pub fn first_out_of_block(bm: &BlockMatrix) -> Option<usize> {
    let history = bm.pivot_rows();
    (0..bm.num_block_cols()).find_map(|k| {
        let (start, end) = (bm.global_col_start(k), bm.global_col_start(k + 1));
        (start..end).find(|&c| history[c] >= end)
    })
}
