//! Walkthrough of the paper's Figures 1–4 on the small example matrix:
//! the extended LU eforest (Fig. 1), the block-upper-triangular form after
//! postordering (Fig. 3), and the two task dependence graphs (Fig. 4).
//!
//! ```text
//! cargo run --example paper_figures
//! ```

use parsplu::sched::{build_eforest_graph, build_sstar_graph};
use parsplu::symbolic::fixtures::fig1_pattern;
use parsplu::symbolic::supernode::BlockStructure;
use parsplu::symbolic::{
    block_triangular_form, static_symbolic_factorization, ExtendedEforest, Partition,
};

fn print_pattern(title: &str, p: &parsplu::sparse::SparsityPattern) {
    println!("{title}");
    for i in 0..p.nrows() {
        print!("  ");
        for j in 0..p.ncols() {
            print!("{}", if p.contains(i, j) { " x" } else { " ." });
        }
        println!();
    }
}

fn main() {
    // --- Figure 1: the matrix, its filled structure and extended eforest.
    let a = fig1_pattern();
    print_pattern("Figure 1(a): matrix A", &a);
    let f = static_symbolic_factorization(&a).expect("zero-free diagonal");
    print_pattern(
        "\nstatic symbolic factorization Ā = L̄ + Ū − I",
        &f.filled_pattern(),
    );

    let ext = ExtendedEforest::new(&f);
    let forest = ext.forest();
    println!("\nFigure 1(b): extended LU eforest");
    println!("  node | parent | row-branch start | col-subtree leaves");
    for j in 0..f.n() {
        println!(
            "  {:>4} | {:>6} | {:>16} | {:?}",
            j,
            forest
                .parent(j)
                .map_or("root".to_string(), |p| p.to_string()),
            ext.row_branch_start(j),
            ext.col_subtree_leaves(j),
        );
    }

    // --- Figure 3: postordering → block upper triangular form.
    let po = forest.postorder();
    println!("\npostorder permutation (new ← old): {:?}", po.as_slice());
    let permuted = f.filled_pattern().permuted(&po, &po);
    print_pattern("\nFigure 3: Pᵀ Ā P (block upper triangular)", &permuted);
    let relabelled = forest.relabel(&po);
    let blocks = block_triangular_form(&relabelled);
    println!(
        "diagonal blocks: {:?}",
        blocks.iter().map(|b| (b.start, b.end)).collect::<Vec<_>>()
    );

    // --- Figure 4: the task dependence graphs (per-column granularity, as
    //     in the paper's illustration).
    let f2 = static_symbolic_factorization(&a.permuted(&po, &po)).expect("Theorem 3");
    let bs = BlockStructure::new(&f2, Partition::singletons(f2.n()));
    let sstar = build_sstar_graph(&bs);
    let eforest = build_eforest_graph(&bs);
    println!("\nFigure 4(b): S* task dependence graph");
    println!(
        "  {} tasks, {} edges, critical path {}",
        sstar.len(),
        sstar.num_edges(),
        sstar.critical_path_len()
    );
    println!("Figure 4(c): new (eforest) task dependence graph");
    println!(
        "  {} tasks, {} edges, critical path {}",
        eforest.len(),
        eforest.num_edges(),
        eforest.critical_path_len()
    );
    println!("\nedges of the eforest graph:");
    for t in 0..eforest.len() {
        for &s in eforest.successors(t) {
            println!("  {} -> {}", eforest.task(t), eforest.task(s as usize));
        }
    }
    println!("\nok");
}
