//! Reverse Cuthill–McKee profile-reducing ordering.
//!
//! Not used by the paper's own pipeline (it uses minimum degree on `AᵀA`),
//! but provided as an alternative fill-reducing ordering for the ablation
//! benchmarks: band-oriented orderings produce very different supernode and
//! elimination-forest shapes, which is instructive when studying the
//! postordering step.

use splu_sparse::{Permutation, SparsityPattern};
use std::collections::VecDeque;

/// Computes the reverse Cuthill–McKee ordering of the symmetrized pattern.
///
/// Each connected component is started from a pseudo-peripheral vertex found
/// by repeated BFS. Returns a permutation in the same convention as
/// [`crate::column_min_degree`].
pub fn reverse_cuthill_mckee(pattern: &SparsityPattern) -> Permutation {
    assert!(pattern.is_square(), "RCM requires a square pattern");
    let n = pattern.ncols();
    let sym = pattern.union(&pattern.transpose());
    let neighbors = |v: usize| {
        sym.col(v)
            .iter()
            .map(|&u| u as usize)
            .filter(move |&u| u != v)
    };
    let degree: Vec<usize> = (0..n).map(|v| neighbors(v).count()).collect();

    let mut visited = vec![false; n];
    let mut order: Vec<usize> = Vec::with_capacity(n);
    let mut queue = VecDeque::new();

    for root_candidate in 0..n {
        if visited[root_candidate] {
            continue;
        }
        let root = pseudo_peripheral(&sym, root_candidate, &degree);
        queue.push_back(root);
        visited[root] = true;
        while let Some(v) = queue.pop_front() {
            order.push(v);
            let mut nbrs: Vec<usize> = neighbors(v).filter(|&u| !visited[u]).collect();
            nbrs.sort_unstable_by_key(|&u| degree[u]);
            for u in nbrs {
                visited[u] = true;
                queue.push_back(u);
            }
        }
    }
    order.reverse();
    Permutation::from_vec(order).expect("BFS over all components is a bijection")
}

/// Finds a pseudo-peripheral vertex of the component containing `start` by
/// the George–Liu iteration: BFS, move to a minimum-degree vertex on the last
/// level, repeat while eccentricity grows.
fn pseudo_peripheral(sym: &SparsityPattern, start: usize, degree: &[usize]) -> usize {
    let n = sym.ncols();
    let mut current = start;
    let mut last_ecc = 0usize;
    let mut level = vec![usize::MAX; n];
    loop {
        // BFS from `current`.
        level.iter_mut().for_each(|l| *l = usize::MAX);
        level[current] = 0;
        let mut q = VecDeque::from([current]);
        let mut far = current;
        while let Some(v) = q.pop_front() {
            for &u in sym.col(v) {
                let u = u as usize;
                if u != v && level[u] == usize::MAX {
                    level[u] = level[v] + 1;
                    if level[u] > level[far] {
                        far = u;
                    }
                    q.push_back(u);
                }
            }
        }
        let ecc = level[far];
        if ecc <= last_ecc {
            return current;
        }
        last_ecc = ecc;
        // Minimum-degree vertex on the last level.
        current = (0..n)
            .filter(|&v| level[v] == ecc)
            .min_by_key(|&v| degree[v])
            .unwrap_or(far);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bandwidth of the symmetrized, permuted pattern.
    fn bandwidth(pattern: &SparsityPattern, perm: &Permutation) -> usize {
        let sym = pattern.union(&pattern.transpose());
        let b = sym.permuted(perm, perm);
        b.entries().map(|(i, j)| i.abs_diff(j)).max().unwrap_or(0)
    }

    fn grid(nx: usize, ny: usize) -> SparsityPattern {
        let n = nx * ny;
        let id = |x: usize, y: usize| x + y * nx;
        let mut e = Vec::new();
        for y in 0..ny {
            for x in 0..nx {
                let v = id(x, y);
                e.push((v, v));
                if x + 1 < nx {
                    e.push((v, id(x + 1, y)));
                    e.push((id(x + 1, y), v));
                }
                if y + 1 < ny {
                    e.push((v, id(x, y + 1)));
                    e.push((id(x, y + 1), v));
                }
            }
        }
        SparsityPattern::from_entries(n, n, e).unwrap()
    }

    #[test]
    fn rcm_is_a_permutation_and_reduces_bandwidth_of_shuffled_path() {
        use rand::rngs::SmallRng;
        use rand::Rng;
        use rand::SeedableRng;
        let n = 30;
        // A path graph with shuffled labels has large bandwidth; RCM should
        // recover bandwidth 1.
        let mut labels: Vec<usize> = (0..n).collect();
        let mut rng = SmallRng::seed_from_u64(3);
        for i in (1..n).rev() {
            labels.swap(i, rng.gen_range(0..=i));
        }
        let mut e: Vec<(usize, usize)> = (0..n).map(|i| (labels[i], labels[i])).collect();
        for i in 0..n - 1 {
            e.push((labels[i], labels[i + 1]));
            e.push((labels[i + 1], labels[i]));
        }
        let p = SparsityPattern::from_entries(n, n, e).unwrap();
        let perm = reverse_cuthill_mckee(&p);
        assert_eq!(bandwidth(&p, &perm), 1);
    }

    #[test]
    fn rcm_on_grid_beats_random_labelling() {
        let p = grid(7, 7);
        let perm = reverse_cuthill_mckee(&p);
        // Optimal grid bandwidth is min(nx, ny); allow slack but require
        // much better than the worst case of n-1.
        assert!(bandwidth(&p, &perm) <= 10);
    }

    #[test]
    fn handles_disconnected_components_and_isolated_vertices() {
        // Two disjoint edges + one isolated vertex.
        let e = vec![
            (0, 0),
            (1, 1),
            (0, 1),
            (1, 0),
            (2, 2),
            (3, 3),
            (2, 3),
            (3, 2),
            (4, 4),
        ];
        let p = SparsityPattern::from_entries(5, 5, e).unwrap();
        let perm = reverse_cuthill_mckee(&p);
        assert_eq!(perm.len(), 5);
    }

    #[test]
    fn empty_graph() {
        let p = SparsityPattern::empty(0, 0);
        assert!(reverse_cuthill_mckee(&p).is_empty());
    }
}
