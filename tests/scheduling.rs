//! Integration tests of the simulators (`splu-bench`) on real
//! (reduced-scale) benchmark structures: simulator invariants and the
//! paper's graph comparison.

use parsplu::core::{analyze, estimate_task_costs, Options};
use parsplu::matgen::{paper_suite, Scale};
use parsplu::sched::{block_forest, build_sstar_graph, Mapping};
use splu_bench::{
    build_fine_graph, simulate, simulate_fine, simulate_static_order, CostModel, Grid,
};

fn model() -> CostModel {
    CostModel {
        seconds_per_flop: 1e-8,
        seconds_per_word: 4e-8,
        task_overhead: 4e-6,
        edge_latency: 1e-5,
    }
}

#[test]
fn simulated_makespans_shrink_with_processors_on_the_suite() {
    for m in paper_suite(Scale::Reduced) {
        let sym = analyze(m.a.pattern(), &Options::default()).unwrap();
        let g = sym.build_graph();
        let costs = estimate_task_costs(&sym.block_structure, &g);
        let mk = |p: usize| simulate(&g, p, Mapping::Dynamic, &costs, &model()).makespan;
        let (m1, m2, m8) = (mk(1), mk(2), mk(8));
        assert!(m2 <= m1 + 1e-12, "{}: P=2 slower than serial", m.name);
        assert!(m8 <= m2 + 1e-12, "{}: P=8 slower than P=2", m.name);
        assert!(m8 >= m1 / 8.0 - 1e-12, "{}: superlinear speedup", m.name);
    }
}

#[test]
fn all_three_disciplines_agree_at_one_processor() {
    for m in paper_suite(Scale::Reduced).into_iter().take(3) {
        let sym = analyze(m.a.pattern(), &Options::default()).unwrap();
        let g = sym.build_graph();
        let costs = estimate_task_costs(&sym.block_structure, &g);
        let md = model();
        let a = simulate(&g, 1, Mapping::Static1D, &costs, &md).makespan;
        let b = simulate(&g, 1, Mapping::Dynamic, &costs, &md).makespan;
        let c = simulate_static_order(&g, 1, &costs, &md).makespan;
        assert!((a - b).abs() < 1e-9 * a.max(1e-30), "{}", m.name);
        assert!((a - c).abs() < 1e-9 * a.max(1e-30), "{}", m.name);
    }
}

#[test]
fn eforest_graph_beats_sstar_under_dynamic_simulation_suitewide() {
    // The Figures 5-6 claim as an integration invariant: the mean
    // improvement over the suite is positive at P = 4 and 8.
    for p in [4usize, 8] {
        let mut ratio_sum = 0.0;
        let mut count = 0;
        for m in paper_suite(Scale::Reduced) {
            let sym = analyze(m.a.pattern(), &Options::default()).unwrap();
            let ge = sym.build_graph();
            let gs = build_sstar_graph(&sym.block_structure);
            let ce = estimate_task_costs(&sym.block_structure, &ge);
            let cs = estimate_task_costs(&sym.block_structure, &gs);
            let te = simulate(&ge, p, Mapping::Dynamic, &ce, &model()).makespan;
            let ts = simulate(&gs, p, Mapping::Dynamic, &cs, &model()).makespan;
            ratio_sum += te / ts;
            count += 1;
        }
        let mean = ratio_sum / count as f64;
        assert!(
            mean < 1.0,
            "eforest graph should win on average at P={p}: mean ratio {mean}"
        );
    }
}

#[test]
fn fine_decomposition_covers_the_same_work() {
    for m in paper_suite(Scale::Reduced).into_iter().take(4) {
        let sym = analyze(m.a.pattern(), &Options::default()).unwrap();
        let forest = block_forest(&sym.block_structure);
        let fg = build_fine_graph(&sym.block_structure, &forest);
        let coarse = sym.build_graph();
        assert!(fg.len() >= coarse.len(), "{}", m.name);
        // Simulated serial fine work should be within 2x of coarse serial
        // work under the same pure-flop model (stage splitting adds only
        // overhead terms).
        let md = CostModel {
            seconds_per_flop: 1.0,
            seconds_per_word: 0.0,
            task_overhead: 0.0,
            edge_latency: 0.0,
        };
        let fine = simulate_fine(&fg, &sym.block_structure, Grid::OneD(1), &md);
        let costs = estimate_task_costs(&sym.block_structure, &coarse);
        let coarse_work: f64 = costs.iter().map(|c| c.flops).sum();
        assert!(
            fine.total_work <= 2.0 * coarse_work + 1e-9
                && coarse_work <= 2.0 * fine.total_work + 1e-9,
            "{}: fine {} vs coarse {}",
            m.name,
            fine.total_work,
            coarse_work
        );
    }
}

#[test]
fn two_d_grids_help_on_large_processor_counts() {
    // The future-work trend: at P=16 a 4x4 grid should not lose to 1D on
    // the suite average.
    let mut ratio_sum = 0.0;
    let mut count = 0;
    for m in paper_suite(Scale::Reduced) {
        let sym = analyze(m.a.pattern(), &Options::default()).unwrap();
        let forest = block_forest(&sym.block_structure);
        let fg = build_fine_graph(&sym.block_structure, &forest);
        let md = model();
        let one_d = simulate_fine(&fg, &sym.block_structure, Grid::OneD(16), &md).makespan;
        let two_d = simulate_fine(&fg, &sym.block_structure, Grid::TwoD(4, 4), &md).makespan;
        ratio_sum += two_d / one_d;
        count += 1;
    }
    let mean = ratio_sum / count as f64;
    assert!(mean < 1.1, "2D grids collapsed at P=16: mean ratio {mean}");
}
