//! Property test: **telemetry is invisible to the numerics**.
//!
//! The tracing layer's contract is that recording per-worker event streams
//! changes nothing but wall clock: the recorder is worker-owned (no shared
//! state on the hot path) and runs strictly *around* task bodies, so the
//! schedule-independent bitwise determinism argument (see
//! `proptest_determinism.rs`) carries over verbatim. This test factors
//! random diagonally-dominant matrices with full tracing enabled at 1, 2, 4
//! and 8 threads and compares every pivot sequence, `Ū` block and L panel
//! bitwise against the untraced sequential reference, while also checking
//! the report's accounting invariants (started == retired == n_tasks, one
//! Task event per task in the event stream).

use proptest::prelude::*;
use splu_core::{
    factor_left_looking, factor_numeric_with, BlockMatrix, NumericRequest, TraceConfig,
};
use splu_sched::{build_eforest_graph, EventKind, Mapping};
use splu_sparse::CscMatrix;
use splu_symbolic::static_fact::static_symbolic_factorization;
use splu_symbolic::supernode::{supernode_partition, BlockStructure};

/// Same generator family as `proptest_determinism.rs`: dominant diagonal so
/// partial pivoting cannot break down, dense enough for real fill.
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
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn full_tracing_leaves_the_factors_bitwise_unchanged(a in arb_dominant(40)) {
        let f = static_symbolic_factorization(a.pattern()).unwrap();
        let bs = BlockStructure::new(&f, supernode_partition(&f));
        let graph = build_eforest_graph(&bs);

        let bm_seq = BlockMatrix::assemble(&a, &bs);
        factor_left_looking(&bm_seq, 0.0).unwrap();

        for threads in [1usize, 2, 4, 8] {
            let bm = BlockMatrix::assemble(&a, &bs);
            let config = TraceConfig::full(graph.len(), threads);
            let report = factor_numeric_with(
                &bm,
                &NumericRequest::coarse(&graph, Mapping::Dynamic)
                    .threads(threads)
                    .trace(config),
            ).unwrap();

            // Accounting invariants of the report itself.
            report.stats.assert_consistent();
            prop_assert_eq!(report.stats.nthreads, threads);
            let trace = report.trace.as_ref().expect("full mode keeps events");
            let task_events = trace
                .events
                .iter()
                .filter(|e| matches!(e.kind, EventKind::Task { .. }))
                .count();
            prop_assert_eq!(task_events, graph.len(), "one Task event per task");

            // The factors are bit-identical to the untraced reference.
            prop_assert_eq!(
                bm.pivot_rows(), bm_seq.pivot_rows(),
                "pivots differ: threads {}", threads
            );
            for k in 0..bm.num_block_cols() {
                let cd = bm.column(k).read();
                let cs = bm_seq.column(k).read();
                prop_assert_eq!(
                    cd.data(), cs.data(),
                    "panel or U block bits differ: threads {}, column {}", threads, k
                );
            }
        }
    }
}
