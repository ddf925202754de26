//! Future-work experiment (paper Section 6): 1D column mapping vs a 2D
//! block-cyclic processor grid, on the fine-grained task decomposition.
//!
//! For each benchmark matrix the simulated makespan of the fine-grained DAG
//! is reported for a 1D mapping and for 2D grids at the same processor
//! counts, with the calibrated Origin-style cost model. The expectation
//! (confirmed by the S+ line of work) is that 2D mappings relieve the
//! single-owner bottleneck of large block columns as P grows. The fine
//! decomposition is simulated only; what executes is the coarse graph.
//!
//! ```text
//! cargo run --release -p splu-bench --bin twod
//! ```

use splu_bench::{
    build_fine_graph, calibrated_model, prepare_suite, simulate_fine, time_factor, Grid,
};
use splu_sched::block_forest;

fn main() {
    println!("Future work: 1D vs 2D mapping on the fine-grained task DAG (simulated)");
    println!(
        "{:<10} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>10}",
        "Matrix", "1D P=4", "2x2", "1D P=8", "2x4", "1D P=16", "4x4", "2D gain@16"
    );
    for p in prepare_suite() {
        let serial = time_factor(&p, &p.eforest, 1);
        let model = calibrated_model(&p, &p.eforest, serial);
        let forest = block_forest(&p.sym.block_structure);
        let fg = build_fine_graph(&p.sym.block_structure, &forest);
        let run = |g: Grid| simulate_fine(&fg, &p.sym.block_structure, g, &model).makespan;
        let d4 = run(Grid::OneD(4));
        let g22 = run(Grid::TwoD(2, 2));
        let d8 = run(Grid::OneD(8));
        let g24 = run(Grid::TwoD(2, 4));
        let d16 = run(Grid::OneD(16));
        let g44 = run(Grid::TwoD(4, 4));
        println!(
            "{:<10} {:>8.1}m {:>8.1}m {:>8.1}m {:>8.1}m {:>8.1}m {:>8.1}m {:>9.1}%",
            p.name,
            d4 * 1e3,
            g22 * 1e3,
            d8 * 1e3,
            g24 * 1e3,
            d16 * 1e3,
            g44 * 1e3,
            100.0 * (1.0 - g44 / d16)
        );
    }
    println!("\n(fine DAG: Apply/Trsm/Gemm stages per update; 'm' = model milliseconds)");
}
