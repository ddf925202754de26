//! Regenerates the paper's **Figures 5 and 6**: performance improvement of
//! the new (eforest) task dependence graph over the S* graph,
//! `1 − T(new)/T(old)`, versus processor count.
//!
//! Figure 5 plots sherman3, sherman5, orsreg1, goodwin; Figure 6 plots
//! lns3937, lnsp3937, saylr4. As in Table 2, both real-thread measurements
//! (P ≤ host cores) and calibrated simulator results (P up to 8) are
//! reported; the paper measures 4–30% improvement. A last table lists
//! every real two-thread run of both graphs — numeric wall and the
//! measured critical path of traced runs — and says whether the
//! difference is resolved on the machine that runs it.
//!
//! ```text
//! cargo run --release -p splu-bench --bin fig5_6
//! ```

use splu_bench::{
    calibrated_model, factor_times, prepare_suite, simulated_seconds, time_factor, Prepared,
};
use splu_sched::{Mapping, TaskGraph, TraceConfig};

fn improvement_line(p: &Prepared) -> String {
    let procs = [2usize, 4, 8];
    // Real threads at P=2 (the host has 2 cores).
    let real_old = time_factor(p, &p.sstar, 2).as_secs_f64();
    let real_new = time_factor(p, &p.eforest, 2).as_secs_f64();
    let real_imp = 1.0 - real_new / real_old;
    // Calibrated simulation for the full processor axis.
    let serial = time_factor(p, &p.eforest, 1);
    let model = calibrated_model(p, &p.eforest, serial);
    let mut s = format!("{:<10} real P=2: {:>6.1}%   sim:", p.name, 100.0 * real_imp);
    for &np in &procs {
        let t_old = simulated_seconds(p, &p.sstar, np, Mapping::Dynamic, &model);
        let t_new = simulated_seconds(p, &p.eforest, np, Mapping::Dynamic, &model);
        s.push_str(&format!(
            "  P={np}: {:>5.1}%",
            100.0 * (1.0 - t_new / t_old)
        ));
    }
    s
}

/// Runs per graph of the real-thread table, alternated between the graphs.
const RUNS: usize = 7;

/// `RUNS` two-thread runs of each graph, alternated: untraced walls (ms)
/// and, from fully traced runs, measured critical paths (ms) — each after
/// the warm-up runs of [`factor_times`].
fn two_thread_runs(p: &Prepared) -> [(Vec<f64>, Vec<f64>); 2] {
    let mut out: [(Vec<f64>, Vec<f64>); 2] = Default::default();
    let graphs: [&TaskGraph; 2] = [&p.eforest, &p.sstar];
    for _ in 0..RUNS {
        for (g, (walls, paths)) in graphs.iter().zip(&mut out) {
            let (wall, _) = factor_times(p, g, 2, 1, TraceConfig::off())[0];
            walls.push(wall.as_secs_f64() * 1e3);
            let (_, cp) = factor_times(p, g, 2, 1, TraceConfig::full(g.len(), 2))[0];
            paths.push(cp.expect("traced on two threads") * 1e3);
        }
    }
    out
}

/// The side that is faster in all but at most one of the alternated
/// pairs and whose median beats the other's by more than the other's
/// interquartile range — "eforest" / "S*" — or "unresolved".
fn verdict(new: &[f64], old: &[f64]) -> &'static str {
    let quartiles = |v: &[f64]| {
        let mut v = v.to_vec();
        v.sort_by(f64::total_cmp);
        let at = |q: f64| v[((v.len() - 1) as f64 * q).round() as usize];
        (at(0.25), at(0.5), at(0.75))
    };
    let wins = |a: &[f64], b: &[f64]| a.iter().zip(b).filter(|(x, y)| x < y).count();
    let beats = |a: &[f64], b: &[f64]| {
        let ((_, ma, _), (qb1, mb, qb3)) = (quartiles(a), quartiles(b));
        wins(a, b) + 1 >= a.len() && mb - ma > qb3 - qb1
    };
    if beats(new, old) {
        "eforest"
    } else if beats(old, new) {
        "S*"
    } else {
        "unresolved"
    }
}

fn main() {
    let prepared = prepare_suite();
    let fig5 = ["sherman3", "sherman5", "orsreg1", "goodwin"];
    let fig6 = ["lns3937", "lnsp3937", "saylr4"];
    println!("Figures 5-6: improvement of the eforest task graph over the S* graph");
    println!("(1 - T(new)/T(old); positive = new graph faster)\n");
    println!("Figure 5:");
    for p in prepared.iter().filter(|p| fig5.contains(&p.name)) {
        println!("  {}", improvement_line(p));
    }
    println!("\nFigure 6:");
    for p in prepared.iter().filter(|p| fig6.contains(&p.name)) {
        println!("  {}", improvement_line(p));
    }
    println!("\n(the paper reports 4-30% improvements, generally growing with P)");
    println!("\nTask graph shapes (context):");
    println!(
        "{:<10} {:>8} {:>12} {:>12} {:>10} {:>10}",
        "Matrix", "tasks", "edges S*", "edges new", "cp S*", "cp new"
    );
    for p in &prepared {
        println!(
            "{:<10} {:>8} {:>12} {:>12} {:>10} {:>10}",
            p.name,
            p.sstar.len(),
            p.sstar.num_edges(),
            p.eforest.num_edges(),
            p.sstar.critical_path_len(),
            p.eforest.critical_path_len()
        );
    }
    println!("\nReal threads, P = 2 (range plan, static 1D owners): every run, ms, the two graphs alternated");
    let fmt = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.2}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    for p in &prepared {
        let [(new_wall, new_cp), (old_wall, old_cp)] = two_thread_runs(p);
        println!("{:<10} wall    eforest: {}", p.name, fmt(&new_wall));
        println!("{:<10} wall    S*     : {}", "", fmt(&old_wall));
        println!("{:<10} cp      eforest: {}", "", fmt(&new_cp));
        println!("{:<10} cp      S*     : {}", "", fmt(&old_cp));
        println!(
            "{:<10} faster: wall {}, critical path {}",
            "",
            verdict(&new_wall, &old_wall),
            verdict(&new_cp, &old_cp)
        );
    }
}
