//! Property test: the work-stealing executor is **bitwise deterministic**.
//!
//! The paper's Section 5 argument: updates into one block column have
//! pairwise-disjoint scalar write/read-modify sets only *per element*; their
//! floating-point contributions into an element commute because each element
//! is touched by a fixed sequence of `gemm` subtractions whose order is
//! pinned by the task graph's dependences, not by the schedule. Any
//! topological execution order — including dynamic self-scheduling with
//! work stealing on any number of threads — therefore produces the same
//! factors **bit for bit** as the sequential left-looking sweep.
//!
//! This test drives the executor under both mappings — static 1D and
//! `Mapping::Dynamic` (stealing) — at 1, 2, 4 and 8 threads over random
//! diagonally-dominant matrices and compares
//! every stored `Ū` block, every L panel and every pivot sequence bitwise
//! against the sequential reference. Every run repeats under each
//! [`KernelChoice`] — the kernel dispatch layer promises the same bits, so
//! the instantiation picked for this CPU must reproduce the sequential
//! baseline reference exactly.

use proptest::prelude::*;
use splu_core::{
    factor_left_looking, factor_numeric_with, BlockMatrix, KernelChoice, NumericRequest,
};
use splu_sched::{build_eforest_graph, Mapping};
use splu_sparse::CscMatrix;
use splu_symbolic::static_fact::static_symbolic_factorization;
use splu_symbolic::supernode::{supernode_partition, BlockStructure};

/// Random square matrices with a dominant diagonal (so partial pivoting
/// never breaks down) and enough off-diagonal mass to produce nontrivial
/// supernodes and fill.
fn arb_dominant(max_n: usize) -> impl Strategy<Value = CscMatrix> {
    (6..=max_n).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n, -1.0f64..1.0), n..6 * n).prop_map(move |mut t| {
            for i in 0..n {
                t.push((i, i, 4.0 + (i as f64) * 0.01));
            }
            CscMatrix::from_triplets(n, n, &t).expect("indices in range")
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn stealing_execution_is_bitwise_identical_to_sequential(a in arb_dominant(48)) {
        let f = static_symbolic_factorization(a.pattern()).unwrap();
        let bs = BlockStructure::new(&f, supernode_partition(&f));
        let graph = build_eforest_graph(&bs);

        let bm_seq = BlockMatrix::assemble(&a, &bs);
        factor_left_looking(&bm_seq, 0.0).unwrap();

        for (threads, mapping) in [1usize, 2, 4, 8]
            .into_iter()
            .flat_map(|t| [(t, Mapping::Static1D), (t, Mapping::Dynamic)])
        {
            for kernels in [KernelChoice::Portable, KernelChoice::Auto] {
                let bm = BlockMatrix::assemble(&a, &bs);
                factor_numeric_with(
                    &bm,
                    &NumericRequest::coarse(&graph, mapping)
                        .threads(threads)
                        .kernels(kernels),
                )
                .unwrap();
                prop_assert_eq!(
                    bm.pivot_rows(), bm_seq.pivot_rows(),
                    "pivots differ: threads {}, {:?}, {:?}", threads, mapping, kernels
                );
                for k in 0..bm.num_block_cols() {
                    let cd = bm.column(k).read();
                    let cs = bm_seq.column(k).read();
                    prop_assert_eq!(
                        cd.data(), cs.data(),
                        "panel or U block bits differ: threads {}, {:?}, {:?}, column {}",
                        threads, mapping, kernels, k
                    );
                }
            }
        }
    }
}
