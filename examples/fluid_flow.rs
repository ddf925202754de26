//! Fluid-flow scenario: compare the two task dependence graphs on a
//! linearized Navier–Stokes system (the lnsp3937/lns3937 workload).
//!
//! Prints tasks/edges/critical path for the S* graph and the paper's
//! eforest graph, wall-clock times with 1 and 2 threads, and the simulated
//! makespans on up to 8 virtual processors.
//!
//! ```text
//! cargo run --release --example fluid_flow
//! ```

use parsplu::core::{
    analyze, estimate_task_costs, factor_numeric_with, solve_permuted, BlockMatrix, NumericRequest,
    Options,
};
use parsplu::matgen::{manufactured_rhs, navier_stokes_2d};
use parsplu::sched::{build_sstar_graph, Mapping};
use parsplu::sparse::relative_residual;
use splu_bench::{simulate, CostModel};
use std::time::Instant;

fn main() {
    let a = navier_stokes_2d(24, 24, 7);
    println!(
        "linearized Navier–Stokes 24x24 staggered grid: n = {}, nnz = {}",
        a.ncols(),
        a.nnz()
    );
    let sym = analyze(a.pattern(), &Options::default()).expect("analysis succeeds");
    let (_, b) = manufactured_rhs(&a, 3);
    let permuted = sym.permute_matrix(&a);

    let graphs = [
        ("SStar", build_sstar_graph(&sym.block_structure)),
        ("EForest", sym.build_graph()),
    ];
    for (kind, graph) in graphs {
        println!(
            "\n{kind}: {} tasks, {} edges, critical path {}",
            graph.len(),
            graph.num_edges(),
            graph.critical_path_len()
        );
        for threads in [1usize, 2] {
            let t = Instant::now();
            let bm = BlockMatrix::assemble(&permuted, &sym.block_structure);
            let req = NumericRequest::coarse(&graph, Mapping::Static1D).threads(threads);
            factor_numeric_with(&bm, &req).expect("factorization succeeds");
            let dt = t.elapsed();
            let mut y = sym.row_perm.apply_vec(&b);
            solve_permuted(&bm, &sym.block_structure, &mut y);
            let x = sym.col_perm.apply_inverse_vec(&y);
            let resid = relative_residual(&a, &x, &b);
            println!("  threads = {threads}: factor {dt:>9.2?}  residual {resid:.2e}");
        }
        // Simulated Origin-2000-style scaling beyond the physical cores.
        let costs = estimate_task_costs(&sym.block_structure, &graph);
        let model = CostModel::default();
        print!("  simulated makespan:");
        for p in [1usize, 2, 4, 8] {
            let r = simulate(&graph, p, Mapping::Static1D, &costs, &model);
            print!("  P={p}: {:.1} ms", r.makespan * 1e3);
        }
        println!();
    }
    println!("\nok");
}
