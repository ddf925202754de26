//! Parallel triangular solves, scheduled by the block eforest.
//!
//! The forward (`L̄`) solve parallelizes bottom-up over the forest: a block
//! column only reads right-hand-side rows written by its descendants (row
//! branches are paths, so sibling subtrees touch **element-disjoint** rows),
//! making child→parent the complete dependence relation. The backward
//! (`Ū`) solve runs the reverse direction, with one dependence per
//! structurally nonzero `Ū` block.
//!
//! The right-hand side is sharded into per-block-row segments behind cheap
//! mutexes; since concurrent writers are element-disjoint, lock contention
//! is the only cost and the result is **bit-identical** to the sequential
//! solve (asserted by the tests): both run `crate::solve`'s per-column
//! steps.

use crate::blocks::BlockMatrix;
use crate::solve::{backward_diagonal, forward_column};
use parking_lot::Mutex;
use splu_sched::{run, ExecRequest};
use splu_symbolic::supernode::BlockStructure;

/// Right-hand side sharded by block row.
struct Shards {
    segs: Vec<Mutex<Vec<f64>>>,
}

impl Shards {
    fn scatter(b: &[f64], bs: &BlockStructure) -> Self {
        let part = &bs.partition;
        let segs = (0..part.num_blocks())
            .map(|k| Mutex::new(b[part.range(k)].to_vec()))
            .collect();
        Shards { segs }
    }

    fn gather(self, b: &mut [f64], bs: &BlockStructure) {
        let part = &bs.partition;
        for (k, seg) in self.segs.into_iter().enumerate() {
            b[part.range(k)].copy_from_slice(&seg.into_inner());
        }
    }
}

/// Parallel version of [`crate::solve_permuted`]: solves `Ā x = b` in
/// factorization order using `nthreads` workers. Overwrites `b`.
pub fn solve_permuted_parallel(
    bm: &BlockMatrix,
    bs: &BlockStructure,
    b: &mut [f64],
    nthreads: usize,
) {
    assert_eq!(b.len(), bm.n(), "rhs length mismatch");
    let nb = bm.num_block_cols();
    if nb == 0 {
        return;
    }
    let part = &bs.partition;

    // ---- Forward sweep, bottom-up over the block eforest. -------------
    // Dependences: child → parent, derived from each column's first
    // off-diagonal Ū entry exactly like the forest builder.
    let forest = splu_sched::block_forest(bs);
    let mut fwd_succ: Vec<Vec<usize>> = vec![Vec::new(); nb];
    let mut fwd_pred = vec![0usize; nb];
    for k in 0..nb {
        if let Some(p) = forest.parent(k) {
            fwd_succ[k].push(p);
            fwd_pred[p] += 1;
        }
    }
    let shards = Shards::scatter(b, bs);
    let forward = ExecRequest {
        threads: nthreads,
        ..ExecRequest::new(&fwd_pred, &fwd_succ)
    };
    let block_of = part.block_of_cols();
    // (block row, row inside its segment) of a global row.
    let locate = |r: usize| (block_of[r], r - part.range(block_of[r]).start);
    run(&forward, |k, _| {
        let col = bm.column(k).read();
        let piv = col
            .pivots
            .as_ref()
            .expect("solve requires a completed factorization");
        // Apply interchanges. Swapped rows live in this column's panel
        // (its own block row + ancestors) — disjoint from concurrent
        // sibling work, but possibly in shared segments: lock per swap.
        for (c, &p) in piv.swaps().iter().enumerate() {
            if c == p {
                continue;
            }
            let (ib1, r1) = locate(bs.panel_row(k, c));
            let (ib2, r2) = locate(bs.panel_row(k, p));
            if ib1 == ib2 {
                let mut seg = shards.segs[ib1].lock();
                seg.swap(r1, r2);
            } else {
                // Ordered acquisition avoids deadlock.
                let (lo, hi) = if ib1 < ib2 { (ib1, ib2) } else { (ib2, ib1) };
                let mut s_lo = shards.segs[lo].lock();
                let mut s_hi = shards.segs[hi].lock();
                let (rlo, rhi) = if ib1 < ib2 { (r1, r2) } else { (r2, r1) };
                std::mem::swap(&mut s_lo[rlo], &mut s_hi[rhi]);
            }
        }
        // Unit-lower solve on the diagonal block, and the product headed
        // for the rows below.
        let rows = bs.l_rows.col(k);
        let mut y = vec![0.0; rows.len()];
        {
            let mut seg = shards.segs[k].lock();
            forward_column(&col.panel, &mut seg, &mut y);
        }
        // Add it in, one lock per block row the rows fall into.
        let mut t = 0;
        while t < rows.len() {
            let (ib, _) = locate(rows[t]);
            let mut seg = shards.segs[ib].lock();
            while t < rows.len() && rows[t] < part.range(ib).end {
                seg[rows[t] - part.range(ib).start] += y[t];
                t += 1;
            }
        }
    })
    .rethrow();

    // ---- Backward sweep. ------------------------------------------------
    // Unlike the forward direction, several sources update the *same*
    // element of a destination segment (a Ū row is not a path), so
    // unordered concurrency would make the floating-point sums
    // schedule-dependent. We therefore chain, per destination segment, all
    // its source columns in descending order — exactly the sequential
    // sweep's order — keeping the result bit-identical while still running
    // independent destinations in parallel.
    let mut bwd_succ: Vec<Vec<usize>> = vec![Vec::new(); nb];
    let mut bwd_pred = vec![0usize; nb];
    {
        // Sources per destination block row, ascending; chain descending.
        let mut sources: Vec<Vec<usize>> = vec![Vec::new(); nb];
        for j in 0..nb {
            for (ib, _) in bm.sources(j) {
                sources[ib].push(j);
            }
        }
        for (ib, srcs) in sources.iter().enumerate() {
            // srcs is ascending; iterate descending.
            let mut prev: Option<usize> = None;
            for &j in srcs.iter().rev() {
                if let Some(p) = prev {
                    bwd_succ[p].push(j);
                    bwd_pred[j] += 1;
                }
                prev = Some(j);
            }
            if let Some(last) = prev {
                bwd_succ[last].push(ib);
                bwd_pred[ib] += 1;
            }
        }
    }
    let backward = ExecRequest {
        threads: nthreads,
        ..ExecRequest::new(&bwd_pred, &bwd_succ)
    };
    run(&backward, |k, _| {
        let col = bm.column(k).read();
        let xk = {
            let mut seg = shards.segs[k].lock();
            backward_diagonal(&col.panel, &mut seg);
            seg.clone()
        };
        for (blk, (ib, cols)) in col.ublocks.iter().zip(bm.sources(k)) {
            let mut seg = shards.segs[ib].lock();
            for (x, &lc) in cols.iter().enumerate() {
                let s = xk[lc as usize];
                if s != 0.0 {
                    for (xr, &v) in seg.iter_mut().zip(blk.col(x)) {
                        *xr -= v * s;
                    }
                }
            }
        }
    })
    .rethrow();

    shards.gather(b, bs);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{factor_numeric_with, NumericRequest};
    use crate::solve::solve_permuted;
    use splu_sched::{build_eforest_graph, Mapping};
    use splu_sparse::CscMatrix;
    use splu_symbolic::static_fact::static_symbolic_factorization;
    use splu_symbolic::supernode::{supernode_partition, BlockStructure};

    fn factored(a: &CscMatrix) -> (BlockMatrix, BlockStructure) {
        let f = static_symbolic_factorization(a.pattern()).unwrap();
        let bs = BlockStructure::new(&f, supernode_partition(&f));
        let bm = BlockMatrix::assemble(a, &bs);
        let graph = build_eforest_graph(&bs);
        factor_numeric_with(&bm, &NumericRequest::coarse(&graph, Mapping::Static1D)).unwrap();
        (bm, bs)
    }

    #[test]
    fn parallel_solve_is_bit_identical_to_sequential() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(17);
        for n in [10usize, 35, 80] {
            let mut trips: Vec<(usize, usize, f64)> = (0..n)
                .map(|i| (i, i, 3.0 + rng.gen_range(0.0..1.0)))
                .collect();
            for _ in 0..4 * n {
                trips.push((
                    rng.gen_range(0..n),
                    rng.gen_range(0..n),
                    rng.gen_range(-1.0..1.0),
                ));
            }
            let a = CscMatrix::from_triplets(n, n, &trips).unwrap();
            let (bm, bs) = factored(&a);
            let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.29).sin()).collect();
            let mut x_seq = b.clone();
            solve_permuted(&bm, &bs, &mut x_seq);
            for threads in [1usize, 2, 4] {
                let mut x_par = b.clone();
                solve_permuted_parallel(&bm, &bs, &mut x_par, threads);
                assert_eq!(x_par, x_seq, "n={n}, threads={threads}");
            }
        }
    }

    #[test]
    fn parallel_solve_with_pivoting_swaps() {
        // Tiny diagonal → interchanges cross block boundaries in the solve.
        let n = 40;
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(5);
        let mut trips: Vec<(usize, usize, f64)> = (0..n).map(|i| (i, i, 1e-10)).collect();
        for _ in 0..5 * n {
            trips.push((
                rng.gen_range(0..n),
                rng.gen_range(0..n),
                rng.gen_range(-2.0..2.0),
            ));
        }
        let a = CscMatrix::from_triplets(n, n, &trips).unwrap();
        let (bm, bs) = factored(&a);
        let b: Vec<f64> = (0..n).map(|i| ((i % 7) as f64) - 3.0).collect();
        let mut x_seq = b.clone();
        solve_permuted(&bm, &bs, &mut x_seq);
        let mut x_par = b.clone();
        solve_permuted_parallel(&bm, &bs, &mut x_par, 4);
        assert_eq!(x_par, x_seq);
    }
}
