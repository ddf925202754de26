//! Minimum-degree fill-reducing ordering.
//!
//! The paper (Section 1) uses "the minimum degree algorithm on `AᵀA`" as its
//! fill-reducing ordering, exactly as the SuperLU family does for the column
//! ordering. [`min_degree`] implements the classical minimum (external)
//! degree algorithm on a symmetric pattern using a quotient graph with
//! element absorption — the George–Liu formulation — augmented with
//! **supervariable merging**: indistinguishable vertices (identical
//! adjacency in the quotient graph) are collapsed and eliminated together,
//! which is what makes the method practical on FEM-style graphs with
//! repeated connectivity (goodwin drops from seconds to tens of
//! milliseconds). [`column_min_degree`] is the convenience wrapper that
//! forms the `AᵀA` pattern first.

use splu_sparse::{Permutation, SparsityPattern};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Computes a minimum-degree ordering of a **symmetric** square pattern.
///
/// Returns a permutation `p` such that eliminating vertices in the order
/// `p.old_of(0), p.old_of(1), …` keeps fill low. Only the union of the
/// pattern and its transpose is considered, so callers may pass unsymmetric
/// patterns and get the ordering of the symmetrized graph.
///
/// Quotient-graph state per surviving supervariable `i`:
///
/// * `adj[i]` — still-uncovered neighbouring supervariables;
/// * `var_elems[i]` — elements (cliques from past eliminations) touching it;
/// * `weight[i]` — number of original vertices it represents;
/// * `members[i]` — those original vertices.
///
/// Eliminating the minimum-degree supervariable replaces it and all its
/// elements by one new element (element absorption), recomputes the exact
/// weighted external degree of every boundary supervariable, and merges
/// boundary supervariables that became indistinguishable.
pub fn min_degree(pattern: &SparsityPattern) -> Permutation {
    mmd(pattern, false, &mut || true, detect_and_merge)
        .expect("uncancellable run cannot be cancelled")
}

/// [`min_degree`] with a cancellation callback, polled once per elimination
/// round. Returns `None` when `keep_going` reports `false`.
pub fn min_degree_with(
    pattern: &SparsityPattern,
    keep_going: &mut dyn FnMut() -> bool,
) -> Option<Permutation> {
    mmd(pattern, false, keep_going, detect_and_merge)
}

/// Multiple-elimination minimum degree: each round eliminates an
/// **independent set** of minimum-degree supervariables instead of a single
/// one, with the exact degree updates deferred to the end of the round.
///
/// This is the parallel-friendly variant of [`min_degree`] (Liu's multiple
/// minimum degree): the eliminations within a round touch disjoint
/// boundaries, so a threaded implementation could process them
/// concurrently, and the deferred update visits each affected vertex once
/// per round rather than once per elimination. The resulting permutation
/// generally **differs** from single elimination but has comparable fill;
/// it is a valid bijection for any input.
pub fn min_degree_multi(pattern: &SparsityPattern) -> Permutation {
    mmd(pattern, true, &mut || true, detect_and_merge)
        .expect("uncancellable run cannot be cancelled")
}

/// [`min_degree_multi`] with a cancellation callback, polled once per
/// elimination round. Returns `None` when `keep_going` reports `false`.
pub fn min_degree_multi_with(
    pattern: &SparsityPattern,
    keep_going: &mut dyn FnMut() -> bool,
) -> Option<Permutation> {
    mmd(pattern, true, keep_going, detect_and_merge)
}

/// Supervariable detection over a freshly updated boundary; see
/// [`detect_and_merge`]. A parameter of [`mmd`] so the tests can run the
/// whole ordering over the reference routine.
type Merge = fn(
    boundary: &[usize],
    adj: &mut [Vec<usize>],
    var_elems: &mut [Vec<usize>],
    alive: &mut [bool],
    weight: &mut [usize],
    members: &mut [Vec<usize>],
    scratch: &mut Vec<(u64, usize)>,
);

/// Shared driver for single and multiple elimination.
///
/// With `multi = false` each round pops exactly one valid minimum-degree
/// candidate and the deferred update degenerates to the classical
/// per-elimination boundary update, so the ordering is identical to the
/// historical single-elimination implementation.
fn mmd(
    pattern: &SparsityPattern,
    multi: bool,
    keep_going: &mut dyn FnMut() -> bool,
    merge: Merge,
) -> Option<Permutation> {
    assert!(pattern.is_square(), "min_degree requires a square pattern");
    let n = pattern.ncols();
    if n == 0 {
        return Some(Permutation::identity(0));
    }
    let sym = pattern.union(&pattern.transpose());

    let mut adj: Vec<Vec<usize>> = (0..n)
        .map(|j| sym.col(j).iter().copied().filter(|&i| i != j).collect())
        .collect();
    let mut elem_bound: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut var_elems: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut alive = vec![true; n]; // supervariable still in the graph
    let mut absorbed = vec![false; n]; // per element id
    let mut weight = vec![1usize; n];
    let mut members: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();

    // Weighted external degree (counts original vertices, not
    // supervariables).
    let mut degree: Vec<usize> = adj.iter().map(Vec::len).collect();

    let mut heap: BinaryHeap<Reverse<(usize, usize)>> =
        (0..n).map(|i| Reverse((degree[i], i))).collect();
    let mut order = Vec::with_capacity(n);
    let mut mark = vec![usize::MAX; n];
    let mut stamp = 0usize;

    // Batch-selection scratch (multi mode).
    let mut sel_mark = vec![false; n]; // vertex chosen for this round
    let mut elem_sel = vec![false; n]; // element adjacent to a chosen vertex
                                       // Union of round boundaries for the deferred degree update.
    let mut touched: Vec<usize> = Vec::new();
    let mut tmark = vec![usize::MAX; n];
    let mut tstamp = 0usize;
    let mut merge_scratch: Vec<(u64, usize)> = Vec::new();

    while order.len() < n {
        if !keep_going() {
            return None;
        }

        // Select this round's batch: the first valid minimum-degree
        // candidate, plus (in multi mode) every further candidate of the
        // same degree that is independent of the ones already chosen —
        // no direct edge to a chosen vertex, no shared element.
        let mut batch: Vec<usize> = Vec::new();
        let mut marked_elems: Vec<usize> = Vec::new();
        let d_min = loop {
            let Reverse((d, cand)) = heap.pop().expect("heap exhausted before all eliminated");
            if alive[cand] && d == degree[cand] {
                batch.push(cand);
                break d;
            }
        };
        if multi {
            sel_mark[batch[0]] = true;
            for &e in &var_elems[batch[0]] {
                if !absorbed[e] && !elem_sel[e] {
                    elem_sel[e] = true;
                    marked_elems.push(e);
                }
            }
            let mut rejected: Vec<usize> = Vec::new();
            while let Some(&Reverse((d, cand))) = heap.peek() {
                if d > d_min {
                    break;
                }
                heap.pop();
                if !alive[cand] || d != degree[cand] {
                    continue; // stale entry
                }
                let independent = adj[cand].iter().all(|&v| !sel_mark[v])
                    && var_elems[cand].iter().all(|&e| absorbed[e] || !elem_sel[e]);
                if independent {
                    sel_mark[cand] = true;
                    for &e in &var_elems[cand] {
                        if !absorbed[e] && !elem_sel[e] {
                            elem_sel[e] = true;
                            marked_elems.push(e);
                        }
                    }
                    batch.push(cand);
                } else {
                    rejected.push(cand);
                }
            }
            for cand in rejected {
                heap.push(Reverse((degree[cand], cand)));
            }
            for &p in &batch {
                sel_mark[p] = false;
            }
            for &e in &marked_elems {
                elem_sel[e] = false;
            }
        }

        // Eliminate the batch. Members are pairwise non-adjacent, so each
        // elimination leaves the others' structures and degrees untouched.
        tstamp += 1;
        touched.clear();
        for &p in &batch {
            alive[p] = false;
            order.extend_from_slice(&members[p]);
            members[p] = Vec::new();

            // Form the new element boundary L_p.
            stamp += 1;
            let mut boundary: Vec<usize> = Vec::new();
            for &i in &adj[p] {
                if alive[i] && mark[i] != stamp {
                    mark[i] = stamp;
                    boundary.push(i);
                }
            }
            for &e in &var_elems[p] {
                if absorbed[e] {
                    continue;
                }
                for &i in &elem_bound[e] {
                    if alive[i] && mark[i] != stamp {
                        mark[i] = stamp;
                        boundary.push(i);
                    }
                }
                absorbed[e] = true;
                elem_bound[e] = Vec::new();
            }
            adj[p] = Vec::new();
            var_elems[p] = Vec::new();

            // Update boundary adjacency: drop covered edges and absorbed
            // elements, register the new element.
            for &i in &boundary {
                adj[i].retain(|&v| alive[v] && mark[v] != stamp);
                var_elems[i].retain(|&e| !absorbed[e]);
                var_elems[i].push(p);
            }
            elem_bound[p] = boundary;
            let boundary = &elem_bound[p];

            // Supervariable detection: group boundary variables by a cheap
            // hash of their quotient adjacency; verify and merge equal ones.
            if boundary.len() > 1 {
                merge(
                    boundary,
                    &mut adj,
                    &mut var_elems,
                    &mut alive,
                    &mut weight,
                    &mut members,
                    &mut merge_scratch,
                );
            }

            for &i in boundary {
                if alive[i] && tmark[i] != tstamp {
                    tmark[i] = tstamp;
                    touched.push(i);
                }
            }
        }

        // Deferred exact weighted external degree over the union of the
        // round's boundaries (each affected vertex once per round).
        for idx in 0..touched.len() {
            let i = touched[idx];
            if !alive[i] {
                continue; // merged away
            }
            stamp += 1;
            mark[i] = stamp;
            let mut d = 0usize;
            for &v in &adj[i] {
                if alive[v] && mark[v] != stamp {
                    mark[v] = stamp;
                    d += weight[v];
                }
            }
            for &e in &var_elems[i] {
                for &v in &elem_bound[e] {
                    if alive[v] && mark[v] != stamp {
                        mark[v] = stamp;
                        d += weight[v];
                    }
                }
            }
            degree[i] = d;
            heap.push(Reverse((d, i)));
        }
    }

    Some(Permutation::from_vec(order).expect("elimination order is a bijection"))
}

/// Detects indistinguishable supervariables on a freshly updated boundary
/// and merges them (second into first), transferring weight and members.
///
/// Two boundary variables are indistinguishable when their quotient-graph
/// adjacency matches exactly: same surviving `adj` sets (ignoring each
/// other) and same element lists. Both lists are small after the boundary
/// update, so sorting them for comparison is cheap.
///
/// Candidates are the runs of equal hash in `scratch`, sorted in place by
/// `(hash, position in the boundary)`: within a run the pairs are compared
/// in boundary order, and runs do not interact (a merge rewrites only the
/// lists of its own pair), so the outcome does not depend on the order of
/// the runs. Nothing is allocated once `scratch` has grown.
fn detect_and_merge(
    boundary: &[usize],
    adj: &mut [Vec<usize>],
    var_elems: &mut [Vec<usize>],
    alive: &mut [bool],
    weight: &mut [usize],
    members: &mut [Vec<usize>],
    scratch: &mut Vec<(u64, usize)>,
) {
    scratch.clear();
    for (pos, &i) in boundary.iter().enumerate() {
        if !alive[i] {
            continue;
        }
        adj[i].sort_unstable();
        var_elems[i].sort_unstable();
        scratch.push((adjacency_hash(&adj[i], &var_elems[i]), pos));
    }
    scratch.sort_unstable();
    for group in scratch.chunk_by(|x, y| x.0 == y.0) {
        for (a, &(_, pos_i)) in group.iter().enumerate() {
            let i = boundary[pos_i];
            if !alive[i] {
                continue;
            }
            for &(_, pos_j) in &group[a + 1..] {
                let j = boundary[pos_j];
                if !alive[j] || var_elems[i] != var_elems[j] {
                    continue;
                }
                // adj sets must match modulo the pair itself.
                let ai = adj[i].iter().filter(|&&v| v != j);
                let aj = adj[j].iter().filter(|&&v| v != i);
                if !ai.eq(aj) {
                    continue;
                }
                // Merge j into i. Dead entries in element boundaries and
                // adjacency lists are filtered lazily through the `alive`
                // checks.
                alive[j] = false;
                weight[i] += weight[j];
                let m = std::mem::take(&mut members[j]);
                members[i].extend(m);
                adj[j] = Vec::new();
                var_elems[j] = Vec::new();
                adj[i].retain(|&v| v != j);
            }
        }
    }
}

/// Cheap order-dependent hash of a (sorted) quotient adjacency.
fn adjacency_hash(adj: &[usize], elems: &[usize]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &v in adj {
        h ^= (v as u64).wrapping_mul(0x1000_0000_01b3);
        h = h.rotate_left(13);
    }
    for &e in elems {
        h ^= (e as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h = h.rotate_left(7);
    }
    h
}

/// Minimum-degree ordering of the `AᵀA` pattern of a (generally rectangular
/// or unsymmetric) matrix — the paper's fill-reducing column ordering.
pub fn column_min_degree(pattern: &SparsityPattern) -> Permutation {
    min_degree(&pattern.ata())
}

/// [`column_min_degree`] with a cancellation callback (see
/// [`min_degree_with`]).
pub fn column_min_degree_with(
    pattern: &SparsityPattern,
    keep_going: &mut dyn FnMut() -> bool,
) -> Option<Permutation> {
    if !keep_going() {
        return None;
    }
    min_degree_with(&pattern.ata(), keep_going)
}

/// Multiple-elimination minimum-degree ordering of the `AᵀA` pattern (see
/// [`min_degree_multi`]).
pub fn column_min_degree_multi(pattern: &SparsityPattern) -> Permutation {
    min_degree_multi(&pattern.ata())
}

/// [`column_min_degree_multi`] with a cancellation callback.
pub fn column_min_degree_multi_with(
    pattern: &SparsityPattern,
    keep_going: &mut dyn FnMut() -> bool,
) -> Option<Permutation> {
    if !keep_going() {
        return None;
    }
    min_degree_multi_with(&pattern.ata(), keep_going)
}

#[cfg(test)]
mod tests {
    use super::*;
    use splu_sparse::SparsityPattern;

    /// The routine [`detect_and_merge`] replaced, kept as its oracle: a
    /// `HashMap` of buckets per call and two filtered copies per compared pair.
    ///
    /// Two boundary variables are indistinguishable when their quotient-graph
    /// adjacency matches exactly: same surviving `adj` sets (ignoring each
    /// other) and same element lists. Both lists are small after the boundary
    /// update, so sorting them for comparison is cheap.
    fn detect_and_merge_reference(
        boundary: &[usize],
        adj: &mut [Vec<usize>],
        var_elems: &mut [Vec<usize>],
        alive: &mut [bool],
        weight: &mut [usize],
        members: &mut [Vec<usize>],
        _scratch: &mut Vec<(u64, usize)>,
    ) {
        use std::collections::HashMap;
        let mut buckets: HashMap<u64, Vec<usize>> = HashMap::new();
        for &i in boundary {
            if !alive[i] {
                continue;
            }
            adj[i].sort_unstable();
            var_elems[i].sort_unstable();
            let h = adjacency_hash(&adj[i], &var_elems[i]);
            buckets.entry(h).or_default().push(i);
        }
        for group in buckets.values() {
            if group.len() < 2 {
                continue;
            }
            for a in 0..group.len() {
                let i = group[a];
                if !alive[i] {
                    continue;
                }
                for &j in &group[a + 1..] {
                    if !alive[j] {
                        continue;
                    }
                    if var_elems[i] != var_elems[j] {
                        continue;
                    }
                    // adj sets must match modulo the pair itself.
                    let eq = {
                        let ai: Vec<usize> = adj[i].iter().copied().filter(|&v| v != j).collect();
                        let aj: Vec<usize> = adj[j].iter().copied().filter(|&v| v != i).collect();
                        ai == aj
                    };
                    if !eq {
                        continue;
                    }
                    // Merge j into i.
                    alive[j] = false;
                    weight[i] += weight[j];
                    let m = std::mem::take(&mut members[j]);
                    members[i].extend(m);
                    adj[j] = Vec::new();
                    var_elems[j] = Vec::new();
                    adj[i].retain(|&v| v != j);
                }
            }
        }
    }

    /// The allocation-free supervariable detection orders exactly as the
    /// routine it replaced, on the `AᵀA` graphs of the paper suite and on
    /// random graphs, single and multiple elimination.
    #[test]
    fn in_place_merge_orders_exactly_as_the_reference() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut cases: Vec<SparsityPattern> = splu_matgen::paper_suite(splu_matgen::Scale::Reduced)
            .iter()
            .map(|m| m.a.pattern().ata())
            .collect();
        let mut rng = SmallRng::seed_from_u64(77);
        for n in [2usize, 9, 30, 60, 120] {
            for per_vertex in [1usize, 3, 6] {
                let mut e: Vec<(usize, usize)> = (0..n).map(|i| (i, i)).collect();
                for _ in 0..per_vertex * n {
                    e.push((rng.gen_range(0..n), rng.gen_range(0..n)));
                }
                // Duplicated vertices make indistinguishable pairs common.
                let doubled = e.iter().flat_map(|&(i, j)| {
                    [(0, 0), (1, 0), (0, 1), (1, 1)].map(|(di, dj)| (2 * i + di, 2 * j + dj))
                });
                cases.push(SparsityPattern::from_entries(2 * n, 2 * n, doubled).unwrap());
                cases.push(SparsityPattern::from_entries(n, n, e).unwrap());
            }
        }
        for p in &cases {
            for multi in [false, true] {
                assert_eq!(
                    mmd(p, multi, &mut || true, detect_and_merge),
                    mmd(p, multi, &mut || true, detect_and_merge_reference),
                    "n={} multi={multi}",
                    p.ncols()
                );
            }
        }
    }

    /// Counts Cholesky fill of a symmetric pattern eliminated in the given
    /// order (brute-force reference: dense boolean elimination).
    fn fill_count(pattern: &SparsityPattern, perm: &Permutation) -> usize {
        let n = pattern.ncols();
        let sym = pattern.union(&pattern.transpose());
        let b = sym.permuted(perm, perm);
        let mut m = vec![vec![false; n]; n];
        for (i, j) in b.entries() {
            m[i][j] = true;
            m[j][i] = true;
        }
        let mut fill = 0;
        for k in 0..n {
            for i in k + 1..n {
                if m[i][k] {
                    for j in k + 1..n {
                        if m[k][j] && !m[i][j] {
                            m[i][j] = true;
                            fill += 1;
                        }
                    }
                }
            }
        }
        fill
    }

    fn path_pattern(n: usize) -> SparsityPattern {
        let mut e = Vec::new();
        for i in 0..n {
            e.push((i, i));
            if i + 1 < n {
                e.push((i, i + 1));
                e.push((i + 1, i));
            }
        }
        SparsityPattern::from_entries(n, n, e).unwrap()
    }

    fn star_pattern(n: usize) -> SparsityPattern {
        let mut e: Vec<(usize, usize)> = (0..n).map(|i| (i, i)).collect();
        for i in 1..n {
            e.push((0, i));
            e.push((i, 0));
        }
        SparsityPattern::from_entries(n, n, e).unwrap()
    }

    fn grid_pattern(nx: usize, ny: usize) -> SparsityPattern {
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
    fn star_center_is_eliminated_last() {
        let p = star_pattern(8);
        let perm = min_degree(&p);
        // Leaves have degree 1, the hub degree 7: a leaf (or merged leaf
        // supervariable) is eliminated first and the elimination is
        // fill-free.
        assert_ne!(perm.old_of(0), 0);
        assert_eq!(fill_count(&p, &perm), 0);
    }

    #[test]
    fn path_graph_has_no_fill_under_md() {
        let p = path_pattern(12);
        let perm = min_degree(&p);
        assert_eq!(fill_count(&p, &perm), 0);
    }

    #[test]
    fn grid_fill_is_no_worse_than_natural() {
        let p = grid_pattern(6, 6);
        let md = min_degree(&p);
        let natural = Permutation::identity(36);
        let f_md = fill_count(&p, &md);
        let f_nat = fill_count(&p, &natural);
        assert!(
            f_md < f_nat,
            "minimum degree should beat natural on a grid: {f_md} vs {f_nat}"
        );
    }

    #[test]
    fn supervariable_merging_preserves_quality_on_duplicated_graphs() {
        // Two dofs per node with identical connectivity: the classic
        // supervariable case. Fill must stay comparable to the grid case.
        let nx = 5;
        let ny = 5;
        let base = grid_pattern(nx, ny);
        let n = nx * ny;
        let mut e = Vec::new();
        for (i, j) in base.entries() {
            for di in 0..2usize {
                for dj in 0..2usize {
                    e.push((2 * i + di, 2 * j + dj));
                }
            }
        }
        let p = SparsityPattern::from_entries(2 * n, 2 * n, e).unwrap();
        let perm = min_degree(&p);
        assert_eq!(perm.len(), 2 * n);
        // Sanity: the fill of the doubled problem stays within a small
        // factor of 4x the single-dof fill (2x2 blocks ~ 4x entries).
        let single = fill_count(&base, &min_degree(&base));
        let doubled = fill_count(&p, &perm);
        assert!(
            doubled <= 8 * single.max(8),
            "supervariables degraded quality: {doubled} vs base {single}"
        );
    }

    #[test]
    fn ordering_is_a_permutation_on_random_graphs() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(7);
        for n in [1usize, 2, 3, 10, 40, 80] {
            let mut e: Vec<(usize, usize)> = (0..n).map(|i| (i, i)).collect();
            for _ in 0..4 * n {
                let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
                e.push((a, b));
                e.push((b, a));
            }
            let p = SparsityPattern::from_entries(n, n, e).unwrap();
            let perm = min_degree(&p);
            assert_eq!(perm.len(), n);
            let _ = fill_count(&p, &perm);
        }
    }

    #[test]
    fn column_min_degree_runs_on_unsymmetric_input() {
        let n = 10;
        let mut e: Vec<(usize, usize)> = (0..n).map(|i| (i, i)).collect();
        for i in 0..n - 1 {
            e.push((i, i + 1));
        }
        let p = SparsityPattern::from_entries(n, n, e).unwrap();
        let perm = column_min_degree(&p);
        assert_eq!(perm.len(), n);
    }

    #[test]
    fn empty_and_singleton() {
        let p0 = SparsityPattern::empty(0, 0);
        assert_eq!(min_degree(&p0).len(), 0);
        let p1 = SparsityPattern::identity(1);
        assert_eq!(min_degree(&p1).as_slice(), &[0]);
    }

    #[test]
    fn multi_orderings_are_bijections_with_comparable_fill() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(21);
        let mut cases: Vec<SparsityPattern> = vec![
            path_pattern(12),
            star_pattern(8),
            grid_pattern(6, 6),
            SparsityPattern::identity(1),
        ];
        for n in [10usize, 40, 80] {
            let mut e: Vec<(usize, usize)> = (0..n).map(|i| (i, i)).collect();
            for _ in 0..4 * n {
                let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
                e.push((a, b));
                e.push((b, a));
            }
            cases.push(SparsityPattern::from_entries(n, n, e).unwrap());
        }
        for p in &cases {
            let n = p.ncols();
            let multi = min_degree_multi(p);
            assert_eq!(multi.len(), n); // Permutation::from_vec enforced bijection
            let f_single = fill_count(p, &min_degree(p));
            let f_multi = fill_count(p, &multi);
            // Multiple elimination may differ but must stay in the same
            // quality class (the 1.25x bound from the suite-level test,
            // with an additive slack for tiny fills).
            assert!(
                4 * f_multi <= 5 * f_single + 40,
                "n={n}: multi fill {f_multi} vs single {f_single}"
            );
        }
    }

    #[test]
    fn multi_batches_independent_vertices() {
        // On a path, all interior vertices have degree 2 and alternate ones
        // are independent; multiple elimination must still produce a valid
        // fill-free ordering.
        let p = path_pattern(30);
        let perm = min_degree_multi(&p);
        assert_eq!(fill_count(&p, &perm), 0);
    }

    #[test]
    fn cancellation_stops_the_ordering() {
        let p = grid_pattern(6, 6);
        assert!(min_degree_with(&p, &mut || true).is_some());
        assert!(min_degree_with(&p, &mut || false).is_none());
        assert!(min_degree_multi_with(&p, &mut || false).is_none());
        assert!(column_min_degree_with(&p, &mut || false).is_none());
        assert!(column_min_degree_multi_with(&p, &mut || false).is_none());
        // Cancel mid-run: allow a few rounds, then stop.
        let mut budget = 3usize;
        let got = min_degree_with(&p, &mut || {
            budget = budget.saturating_sub(1);
            budget > 0
        });
        assert!(got.is_none());
    }

    #[test]
    fn column_min_degree_multi_runs_on_unsymmetric_input() {
        let n = 10;
        let mut e: Vec<(usize, usize)> = (0..n).map(|i| (i, i)).collect();
        for i in 0..n - 1 {
            e.push((i, i + 1));
        }
        let p = SparsityPattern::from_entries(n, n, e).unwrap();
        assert_eq!(column_min_degree_multi(&p).len(), n);
    }

    #[test]
    fn complete_graph_collapses_to_supervariables() {
        // In K_n every vertex is indistinguishable after the first
        // elimination; the ordering must still enumerate all vertices.
        let n = 12;
        let p =
            SparsityPattern::from_entries(n, n, (0..n).flat_map(|i| (0..n).map(move |j| (i, j))))
                .unwrap();
        let perm = min_degree(&p);
        assert_eq!(perm.len(), n);
        assert_eq!(fill_count(&p, &perm), 0); // already complete
    }
}
