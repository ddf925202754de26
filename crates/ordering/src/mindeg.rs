//! Approximate minimum degree column ordering, computed straight on `A`.
//!
//! The paper (Section 1) uses "the minimum degree algorithm on `AᵀA`" as its
//! fill-reducing ordering, exactly as the SuperLU family does for the column
//! ordering. [`column_min_degree`] orders that graph without forming it:
//! every row of `A` is a clique on the columns it touches, and the union of
//! those cliques *is* `AᵀA`, so the quotient graph of the elimination starts
//! with **the rows as its elements** and has no variable–variable edges at
//! all. A dense row costs its length, not its length squared.
//!
//! The elimination is the sequential core of AMD (Amestoy, Davis and Duff;
//! restated in §2 of "Parallelizing the Approximate Minimum Degree Ordering
//! Algorithm", PAPERS.md):
//!
//! * **approximate external degree** `min(n−k, d_old + |Lp∖i|,
//!   |Lp∖i| + Σ_e |Le∖Lp|)`, with every `|Le∖Lp|` of a pivot obtained in one
//!   pass over the element lists of `Lp` (the `w` stamps);
//! * **degree buckets** with a moving minimum — a pivot is the head of the
//!   first non-empty bucket, and a re-scored variable goes to the head of
//!   its bucket;
//! * **aggressive element absorption** (`|Le∖Lp| = 0` kills `e`) and **mass
//!   elimination** (a variable left with the new element only goes with the
//!   pivot);
//! * **supervariables**: variables of `Lp` whose element lists hash equal
//!   are compared and merged, so indistinguishable columns are eliminated
//!   as one;
//! * identical rows are **deduplicated** before the first pivot — a clique
//!   counted twice doubles every degree bound built on it.
//!
//! The whole state is `u32` arrays sized once from `nnz(A)`, the row count
//! and the column count; nothing is allocated per pivot and nothing is
//! iterated in hash order, so the permutation is a pure function of the
//! pattern.

use splu_obs::{Counter, MetricsRegistry};
use splu_sparse::{Permutation, SparsityPattern};

/// Null link, empty bucket.
const NONE: u32 = u32::MAX;
/// Tags the first word of a live element list while the pool is compacted;
/// every index stored in the pool is below it.
const HEADER: u32 = 1 << 31;

/// Approximate-minimum-degree ordering of the columns of `pattern` on the
/// graph of `AᵀA` — the paper's fill-reducing column ordering.
///
/// Returns a permutation `p` such that eliminating columns in the order
/// `p.old_of(0), p.old_of(1), …` keeps the fill of `AᵀA` low. The pattern
/// may be rectangular.
pub fn column_min_degree(pattern: &SparsityPattern) -> Permutation {
    column_min_degree_with(pattern, None, &mut || true)
        .expect("uncancellable run cannot be cancelled")
}

/// [`column_min_degree`] with a cancellation callback, polled once per
/// pivot (the first poll comes after the workspace is built); returns
/// `None` as soon as `keep_going` reports `false`. A registry, when given,
/// receives the run's pivot, merge, absorption and mass-elimination counts.
pub fn column_min_degree_with(
    pattern: &SparsityPattern,
    metrics: Option<&MetricsRegistry>,
    keep_going: &mut dyn FnMut() -> bool,
) -> Option<Permutation> {
    let mut q = Quotient::new(pattern, 2);
    q.eliminate(keep_going)?;
    if let Some(reg) = metrics {
        reg.add(Counter::OrderingPivots, q.pivots);
        reg.add(Counter::OrderingMerged, q.merged);
        reg.add(Counter::OrderingAbsorbed, q.absorbed);
        reg.add(Counter::OrderingMassEliminated, q.mass_eliminated);
    }
    Some(
        Permutation::from_vec(q.order.iter().map(|&v| v as usize))
            .expect("elimination order is a bijection"),
    )
}

/// The quotient graph of the elimination: variables are the columns of
/// `A`, elements are rows of `A` and, later, the cliques pivots leave.
///
/// `pool[..nnz]` holds each variable's element list at the pattern's own
/// column offsets — a list never grows, because a variable that enters a
/// new element lost at least one absorbed one. `pool[nnz..]` holds the
/// element lists: the rows first, new elements appended at `free`, dead
/// space reclaimed by [`Quotient::compact`]. The live element words never
/// exceed `nnz` (a new element is smaller than the lists it replaces), so
/// after a compaction at least `nnz + n` words are free.
struct Quotient<'a> {
    n: usize,
    vstart: &'a [usize],
    pool: Vec<u32>,
    free: usize,

    // Per variable.
    /// Live length of the element list.
    vlen: Vec<u32>,
    /// Columns the supervariable stands for; `0` once eliminated or merged.
    nv: Vec<u32>,
    /// Approximate external degree, in columns.
    degree: Vec<u32>,
    /// Bucket links; inside a pivot, `next` chains a hash bucket and `prev`
    /// keeps the hash.
    next: Vec<u32>,
    prev: Vec<u32>,
    /// Members of a supervariable, principal first.
    chain_next: Vec<u32>,
    chain_tail: Vec<u32>,
    /// `in_lp[i] == p` while `i` is in the element pivot `p` is forming.
    in_lp: Vec<u32>,
    /// Degree bucket heads and the moving minimum.
    head: Vec<u32>,
    mindeg: usize,
    /// Hash bucket heads of the supervariable detection.
    bucket: Vec<u32>,

    // Per element (row slot; a new element takes the slot of one it absorbs).
    estart: Vec<u32>,
    elen: Vec<u32>,
    /// Weighted size `|Le|` in columns; exact while `e` lives.
    edeg: Vec<u32>,
    /// `0`: dead. `≥ wflg`: `w[e] − wflg = |Le∖Lp|` for the current pivot.
    /// Otherwise alive and not yet seen by it.
    w: Vec<u32>,
    wflg: u32,
    /// Largest `edeg` so far: how far one pivot can push `w` past `wflg`.
    lemax: u32,

    order: Vec<u32>,
    pivots: u64,
    merged: u64,
    absorbed: u64,
    mass_eliminated: u64,
}

impl<'a> Quotient<'a> {
    /// Builds the initial graph: rows as elements (duplicates dropped),
    /// columns bucketed by the degree bound `Σ_e (|Le| − 1)`. `wflg` is the
    /// first stamp (`≥ 2`; a parameter so a test can start next to the
    /// wrap-around).
    fn new(pattern: &'a SparsityPattern, wflg: u32) -> Self {
        let (m, n, nnz) = (pattern.nrows(), pattern.ncols(), pattern.nnz());
        assert!(
            m.max(n) < (HEADER / 2) as usize && nnz < (NONE / 4) as usize,
            "pattern too large for the 32-bit ordering workspace"
        );
        let mut pool = vec![0u32; 3 * nnz + n];
        pool[..nnz].copy_from_slice(pattern.row_indices());
        // Row lists behind the column lists; columns ascend within a row.
        let mut elen = vec![0u32; m];
        for &r in pattern.row_indices() {
            elen[r as usize] += 1;
        }
        let mut estart = vec![0u32; m];
        let mut at = nnz as u32;
        for r in 0..m {
            estart[r] = at;
            at += elen[r];
        }
        let mut w = estart.clone();
        for j in 0..n {
            for &r in pattern.col(j) {
                let r = r as usize;
                pool[w[r] as usize] = j as u32;
                w[r] += 1;
            }
        }
        // Identical rows are one clique: keep the first of each. `edeg`
        // heads the hash buckets and `w` links them until both are set
        // below.
        let mut edeg = vec![NONE; m];
        for r in 0..m {
            let row = |r: usize| &pool[estart[r] as usize..(estart[r] + elen[r]) as usize];
            let cols = row(r);
            if cols.is_empty() {
                continue;
            }
            let h = cols.iter().fold(cols.len(), |h, &c| {
                h.wrapping_mul(31).wrapping_add(c as usize)
            }) % m;
            let mut twin = edeg[h];
            while twin != NONE && row(twin as usize) != cols {
                twin = w[twin as usize];
            }
            if twin == NONE {
                w[r] = edeg[h];
                edeg[h] = r as u32;
            } else {
                elen[r] = 0;
            }
        }
        for r in 0..m {
            w[r] = (elen[r] != 0) as u32;
            edeg[r] = elen[r];
        }
        let mut q = Quotient {
            n,
            vstart: pattern.col_ptr(),
            pool,
            free: 2 * nnz,
            vlen: vec![0; n],
            nv: vec![1; n],
            degree: vec![0; n],
            next: vec![NONE; n],
            prev: vec![NONE; n],
            chain_next: vec![NONE; n],
            chain_tail: (0..n as u32).collect(),
            in_lp: vec![NONE; n],
            head: vec![NONE; n],
            mindeg: 0,
            bucket: vec![NONE; n],
            lemax: elen.iter().copied().max().unwrap_or(0),
            estart,
            elen,
            edeg,
            w,
            wflg,
            order: Vec::with_capacity(n),
            pivots: 0,
            merged: 0,
            absorbed: 0,
            mass_eliminated: 0,
        };
        // Last column first, so each bucket is headed by its lowest column.
        for j in (0..n).rev() {
            let vs = q.vstart[j];
            let mut dst = vs;
            let mut deg = 0usize;
            for k in vs..q.vstart[j + 1] {
                let e = q.pool[k] as usize;
                if q.w[e] != 0 {
                    q.pool[dst] = e as u32;
                    dst += 1;
                    deg += q.elen[e] as usize - 1;
                }
            }
            q.vlen[j] = (dst - vs) as u32;
            q.degree[j] = deg.min(n - 1) as u32;
            q.push_front(j);
        }
        q
    }

    /// Puts `i` at the head of the bucket of `degree[i]`.
    fn push_front(&mut self, i: usize) {
        let d = self.degree[i] as usize;
        let h = self.head[d];
        self.next[i] = h;
        self.prev[i] = NONE;
        if h != NONE {
            self.prev[h as usize] = i as u32;
        }
        self.head[d] = i as u32;
        self.mindeg = self.mindeg.min(d);
    }

    /// Takes `i` out of the bucket of `degree[i]`.
    fn unlink(&mut self, i: usize) {
        let (p, nx) = (self.prev[i], self.next[i]);
        if p == NONE {
            self.head[self.degree[i] as usize] = nx;
        } else {
            self.next[p as usize] = nx;
        }
        if nx != NONE {
            self.prev[nx as usize] = p;
        }
    }

    /// Appends the columns of supervariable `i` to the order and retires it.
    fn emit(&mut self, i: usize) {
        let mut v = i as u32;
        while v != NONE {
            self.order.push(v);
            v = self.chain_next[v as usize];
        }
        self.nv[i] = 0;
    }

    /// Slides the live element lists down to the start of the element
    /// region. Each list's first word is swapped for a tagged element id
    /// (the word itself waits in `estart`), so one scan of the pool finds
    /// the lists in storage order.
    fn compact(&mut self) {
        let base = self.vstart[self.n];
        for e in 0..self.w.len() {
            if self.w[e] != 0 {
                let s = self.estart[e] as usize;
                self.estart[e] = self.pool[s];
                self.pool[s] = HEADER | e as u32;
            }
        }
        let (mut src, mut dst) = (base, base);
        while src < self.free {
            let word = self.pool[src];
            if word & HEADER == 0 {
                src += 1;
                continue;
            }
            let e = (word ^ HEADER) as usize;
            let len = self.elen[e] as usize;
            self.pool[dst] = self.estart[e];
            self.pool.copy_within(src + 1..src + len, dst + 1);
            self.estart[e] = dst as u32;
            src += len;
            dst += len;
        }
        self.free = dst;
    }

    /// Eliminates every column, filling `order`; `None` when `keep_going`
    /// stops it.
    fn eliminate(&mut self, keep_going: &mut dyn FnMut() -> bool) -> Option<()> {
        let n = self.n;
        while self.order.len() < n {
            if !keep_going() {
                return None;
            }
            if self.wflg as usize + 2 * n >= NONE as usize {
                for w in self.w.iter_mut().filter(|w| **w != 0) {
                    *w = 1;
                }
                self.wflg = 2;
            }
            while self.head[self.mindeg] == NONE {
                self.mindeg += 1;
            }
            let me = self.head[self.mindeg] as usize;
            self.unlink(me);
            self.emit(me);
            self.pivots += 1;
            let (vs, ve) = (self.vstart[me], self.vstart[me] + self.vlen[me] as usize);
            if vs == ve {
                continue; // touches no row: nothing to form
            }

            // The new element Lp: the union of the pivot's elements, which
            // it absorbs, appended to the pool; it takes the slot of the
            // first of them.
            let slot = self.pool[vs] as usize;
            let words: usize = (vs..ve)
                .map(|k| self.elen[self.pool[k] as usize] as usize)
                .sum();
            if self.pool.len() - self.free < words.min(n - self.order.len()) {
                self.compact();
            }
            let lstart = self.free;
            let mut lend = lstart;
            let mut degme = 0u32;
            for k in vs..ve {
                let e = self.pool[k] as usize;
                let es = self.estart[e] as usize;
                for t in es..es + self.elen[e] as usize {
                    let i = self.pool[t] as usize;
                    if self.nv[i] != 0 && self.in_lp[i] != me as u32 {
                        self.in_lp[i] = me as u32;
                        degme += self.nv[i];
                        self.pool[lend] = i as u32;
                        lend += 1;
                        self.unlink(i);
                    }
                }
                self.w[e] = 0;
            }
            self.absorbed += (ve - vs - 1) as u64;

            // One pass gives |Le∖Lp| for every element that meets Lp: the
            // first visit stamps |Le|, every visit subtracts the visitor.
            let wflg = self.wflg;
            for t in lstart..lend {
                let i = self.pool[t] as usize;
                let nvi = self.nv[i];
                let vs = self.vstart[i];
                for k in vs..vs + self.vlen[i] as usize {
                    let e = self.pool[k] as usize;
                    let we = self.w[e];
                    if we >= wflg {
                        self.w[e] = we - nvi;
                    } else if we != 0 {
                        self.w[e] = self.edeg[e] + wflg - nvi;
                    }
                }
            }

            // Re-score Lp. Each list drops its dead elements (the absorbed
            // ones, and those that now lie inside Lp) and gains `slot`.
            for t in lstart..lend {
                let i = self.pool[t] as usize;
                let vs = self.vstart[i];
                let (mut dst, mut deg, mut hash) = (vs, 0usize, slot);
                for k in vs..vs + self.vlen[i] as usize {
                    let e = self.pool[k] as usize;
                    let we = self.w[e];
                    if we > wflg {
                        deg += (we - wflg) as usize;
                        hash += e;
                        self.pool[dst] = e as u32;
                        dst += 1;
                    } else if we != 0 {
                        self.w[e] = 0;
                        self.absorbed += 1;
                    }
                }
                if deg == 0 {
                    // Only the new element is left: i goes with the pivot.
                    degme -= self.nv[i];
                    self.mass_eliminated += 1;
                    self.vlen[i] = 0;
                    self.emit(i);
                } else {
                    self.pool[dst] = slot as u32;
                    self.vlen[i] = (dst + 1 - vs) as u32;
                    self.degree[i] = self.degree[i].min(deg.min(n) as u32);
                    let h = hash % n;
                    self.prev[i] = h as u32;
                    self.next[i] = self.bucket[h];
                    self.bucket[h] = i as u32;
                }
            }
            self.lemax = self.lemax.max(degme);
            self.wflg += self.lemax;

            // Supervariables: within a hash bucket, a variable whose list
            // is the stamped list of an earlier one merges into it.
            for t in lstart..lend {
                let i = self.pool[t] as usize;
                if self.nv[i] == 0 {
                    continue;
                }
                let h = self.prev[i] as usize;
                let mut i = std::mem::replace(&mut self.bucket[h], NONE);
                while i != NONE && self.next[i as usize] != NONE {
                    let iu = i as usize;
                    let (vs, len) = (self.vstart[iu], self.vlen[iu]);
                    for k in vs..vs + len as usize {
                        self.w[self.pool[k] as usize] = self.wflg;
                    }
                    let mut last = iu;
                    let mut j = self.next[iu];
                    while j != NONE {
                        let ju = j as usize;
                        let js = self.vstart[ju];
                        let same = self.vlen[ju] == len
                            && self.pool[js..js + len as usize]
                                .iter()
                                .all(|&e| self.w[e as usize] == self.wflg);
                        if same {
                            self.nv[iu] += self.nv[ju];
                            self.nv[ju] = 0;
                            self.vlen[ju] = 0;
                            self.chain_next[self.chain_tail[iu] as usize] = j;
                            self.chain_tail[iu] = self.chain_tail[ju];
                            self.next[last] = self.next[ju];
                            self.merged += 1;
                        } else {
                            last = ju;
                        }
                        j = self.next[ju];
                    }
                    self.wflg += 1;
                    i = self.next[iu];
                }
            }

            // Final degrees, back into the buckets; Lp keeps its survivors.
            let left = (n - self.order.len()) as u32;
            let mut dst = lstart;
            for t in lstart..lend {
                let i = self.pool[t] as usize;
                let nvi = self.nv[i];
                if nvi == 0 {
                    continue;
                }
                self.degree[i] = (self.degree[i] + degme - nvi).min(left - nvi);
                self.push_front(i);
                self.pool[dst] = i as u32;
                dst += 1;
            }
            self.estart[slot] = lstart as u32;
            self.elen[slot] = (dst - lstart) as u32;
            self.edeg[slot] = degme;
            self.w[slot] = (degme != 0) as u32;
            self.free = dst;
        }
        Some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use splu_matgen::{paper_suite, Scale};

    /// A pattern whose `AᵀA` graph is exactly the given graph: one row per
    /// edge (a clique on its two ends) and one per vertex (the diagonal).
    fn incidence(n: usize, edges: &[(usize, usize)]) -> SparsityPattern {
        let rows = edges
            .iter()
            .enumerate()
            .flat_map(|(r, &(a, b))| [(r, a), (r, b)])
            .chain((0..n).map(|v| (edges.len() + v, v)));
        SparsityPattern::from_entries(edges.len() + n, n, rows).unwrap()
    }

    /// Dense adjacency of the `AᵀA` graph, diagonal cleared.
    fn ata_dense(pattern: &SparsityPattern) -> Vec<Vec<bool>> {
        let mut m = pattern.ata().to_dense();
        for (v, row) in m.iter_mut().enumerate() {
            row[v] = false;
        }
        m
    }

    /// Eliminates `v` from a dense graph: its neighbours become a clique.
    /// Returns the edges added.
    fn eliminate(m: &mut [Vec<bool>], alive: &mut [bool], v: usize) -> usize {
        alive[v] = false;
        let nbrs: Vec<usize> = (0..m.len()).filter(|&u| alive[u] && m[v][u]).collect();
        let mut fill = 0;
        for (k, &a) in nbrs.iter().enumerate() {
            for &b in &nbrs[k + 1..] {
                if !m[a][b] {
                    m[a][b] = true;
                    m[b][a] = true;
                    fill += 1;
                }
            }
        }
        fill
    }

    /// Fill (edges added) of eliminating the `AᵀA` graph in the given order
    /// — brute force, dense boolean elimination.
    fn fill_count(pattern: &SparsityPattern, perm: &Permutation) -> usize {
        let mut m = ata_dense(pattern);
        let mut alive = vec![true; m.len()];
        (0..m.len())
            .map(|k| eliminate(&mut m, &mut alive, perm.old_of(k)))
            .sum()
    }

    /// The oracle: fill of the **exact** minimum-degree elimination of the
    /// `AᵀA` graph, lowest index among ties.
    fn exact_min_degree_fill(pattern: &SparsityPattern) -> usize {
        let mut m = ata_dense(pattern);
        let n = m.len();
        let mut alive = vec![true; n];
        (0..n)
            .map(|_| {
                let degree = |v: usize| (0..n).filter(|&u| alive[u] && m[v][u]).count();
                let v = (0..n)
                    .filter(|&v| alive[v])
                    .min_by_key(|&v| degree(v))
                    .unwrap();
                eliminate(&mut m, &mut alive, v)
            })
            .sum()
    }

    fn path(n: usize) -> SparsityPattern {
        incidence(n, &(1..n).map(|v| (v - 1, v)).collect::<Vec<_>>())
    }

    fn grid_edges(nx: usize, ny: usize) -> Vec<(usize, usize)> {
        let id = |x: usize, y: usize| x + y * nx;
        let mut e = Vec::new();
        for y in 0..ny {
            for x in 0..nx {
                if x + 1 < nx {
                    e.push((id(x, y), id(x + 1, y)));
                }
                if y + 1 < ny {
                    e.push((id(x, y), id(x, y + 1)));
                }
            }
        }
        e
    }

    fn random_square(n: usize, extra: usize, rng: &mut SmallRng) -> SparsityPattern {
        let entries = (0..n)
            .map(|i| (i, i))
            .chain((0..extra).map(|_| (rng.gen_range(0..n), rng.gen_range(0..n))))
            .collect::<Vec<_>>();
        SparsityPattern::from_entries(n, n, entries).unwrap()
    }

    /// Every row and column twice: the two-unknowns-per-node shape, where
    /// both the row dedup and the supervariables have work to do.
    fn doubled(p: &SparsityPattern) -> SparsityPattern {
        let entries = p.entries().flat_map(|(i, j)| {
            [(0, 0), (1, 0), (0, 1), (1, 1)].map(|(di, dj)| (2 * i + di, 2 * j + dj))
        });
        SparsityPattern::from_entries(2 * p.nrows(), 2 * p.ncols(), entries).unwrap()
    }

    #[test]
    fn path_star_and_complete_graph_order_without_fill() {
        let p = path(12);
        assert_eq!(fill_count(&p, &column_min_degree(&p)), 0);

        let star = incidence(8, &(1..8).map(|v| (0, v)).collect::<Vec<_>>());
        let perm = column_min_degree(&star);
        assert_ne!(perm.old_of(0), 0, "a leaf goes before the hub");
        assert_eq!(fill_count(&star, &perm), 0);

        let n = 12;
        let complete =
            SparsityPattern::from_entries(n, n, (0..n).flat_map(|i| (0..n).map(move |j| (i, j))))
                .unwrap();
        let perm = column_min_degree(&complete);
        assert_eq!(perm.len(), n);
        assert_eq!(fill_count(&complete, &perm), 0);
    }

    #[test]
    fn grid_fill_beats_the_natural_order() {
        let p = incidence(36, &grid_edges(6, 6));
        let f_md = fill_count(&p, &column_min_degree(&p));
        let f_nat = fill_count(&p, &Permutation::identity(36));
        assert!(f_md < f_nat, "minimum degree {f_md} vs natural {f_nat}");
    }

    /// The approximate degrees cost little against exact minimum degree:
    /// summed over each family of graphs, fill stays within 1.15× of the
    /// brute-force oracle's.
    #[test]
    fn fill_stays_within_15_percent_of_exact_minimum_degree() {
        let mut rng = SmallRng::seed_from_u64(77);
        let mut random = Vec::new();
        let mut twins = Vec::new();
        for n in [9usize, 30, 60, 120] {
            for per_column in [1usize, 2, 4] {
                let p = random_square(n, per_column * n, &mut rng);
                twins.push(doubled(&p));
                random.push(p);
            }
        }
        for (nx, ny) in [(5, 5), (8, 6), (12, 9)] {
            let g = incidence(nx * ny, &grid_edges(nx, ny));
            twins.push(doubled(&g));
            random.push(g);
        }
        let suite: Vec<SparsityPattern> = paper_suite(Scale::Reduced)
            .iter()
            .map(|m| m.a.pattern().clone())
            .collect();
        for (family, cases) in [("random", random), ("twins", twins), ("suite", suite)] {
            let ours: usize = cases
                .iter()
                .map(|p| fill_count(p, &column_min_degree(p)))
                .sum();
            let exact: usize = cases.iter().map(exact_min_degree_fill).sum();
            assert!(
                ours * 100 <= exact * 115,
                "{family}: fill {ours} against the oracle's {exact}"
            );
        }
    }

    #[test]
    fn every_input_shape_gives_a_bijection() {
        assert_eq!(column_min_degree(&SparsityPattern::empty(0, 0)).len(), 0);
        assert_eq!(
            column_min_degree(&SparsityPattern::identity(1)).as_slice(),
            &[0]
        );
        // Columns no row touches, and more rows than columns.
        assert_eq!(column_min_degree(&SparsityPattern::empty(3, 5)).len(), 5);
        assert_eq!(column_min_degree(&incidence(4, &[(0, 3)])).len(), 4);
        // `Permutation::from_vec` rejects anything but a bijection.
        let mut rng = SmallRng::seed_from_u64(7);
        for n in [2usize, 3, 10, 40, 80, 300] {
            for extra in [0, n, 4 * n, 12 * n] {
                let p = random_square(n, extra, &mut rng);
                assert_eq!(column_min_degree(&p).len(), n);
                assert_eq!(column_min_degree(&doubled(&p)).len(), 2 * n);
            }
        }
    }

    #[test]
    fn identical_columns_collapse_to_one_supervariable() {
        // Columns 1 and 2 sit in the same two rows. Whichever of 0 and 3
        // is the first pivot, its element holds both with equal lists.
        let p = SparsityPattern::from_entries(
            3,
            4,
            [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (1, 3), (2, 3)],
        )
        .unwrap();
        let reg = MetricsRegistry::new();
        let perm = column_min_degree_with(&p, Some(&reg), &mut || true).unwrap();
        assert_eq!(reg.get(Counter::OrderingMerged), 1);
        assert_eq!(perm.new_of(1).abs_diff(perm.new_of(2)), 1, "ordered as one");
        // Four columns in fewer pivots; nothing is counted twice.
        let eliminated = reg.get(Counter::OrderingPivots)
            + reg.get(Counter::OrderingMerged)
            + reg.get(Counter::OrderingMassEliminated);
        assert_eq!(eliminated, 4);
    }

    #[test]
    fn cancellation_stops_the_ordering() {
        let p = incidence(36, &grid_edges(6, 6));
        assert!(column_min_degree_with(&p, None, &mut || true).is_some());
        assert!(column_min_degree_with(&p, None, &mut || false).is_none());
        // One poll per pivot: stop at pivot n/2.
        let mut polls = 0;
        let stopped = column_min_degree_with(&p, None, &mut || {
            polls += 1;
            polls <= 18
        });
        assert!(stopped.is_none());
        assert_eq!(polls, 19);
    }

    #[test]
    fn the_permutation_is_a_function_of_the_pattern() {
        for m in paper_suite(Scale::Reduced) {
            let p = m.a.pattern();
            let first = column_min_degree(p);
            assert_eq!(first, column_min_degree(p), "{}", m.name);
            // Stamps that wrap around mid-run are reset, not reused.
            let mut q = Quotient::new(p, NONE - 2 * p.ncols() as u32 - 40);
            q.eliminate(&mut || true).unwrap();
            assert_eq!(first.as_slice(), &q.order[..], "{}", m.name);
        }
    }

    #[test]
    fn compaction_moves_the_element_lists_and_nothing_else() {
        let p = random_square(300, 900, &mut SmallRng::seed_from_u64(3));
        let uninterrupted = column_min_degree(&p);
        // Stop between two pivots, with dead lists scattered over the pool.
        let mut q = Quotient::new(&p, 2);
        let mut polls = 0;
        let stopped = q.eliminate(&mut || {
            polls += 1;
            polls <= 120
        });
        assert!(stopped.is_none());
        let lists = |q: &Quotient| -> Vec<Vec<u32>> {
            (0..q.w.len())
                .filter(|&e| q.w[e] != 0)
                .map(|e| q.pool[q.estart[e] as usize..][..q.elen[e] as usize].to_vec())
                .collect()
        };
        let before = lists(&q);
        let live: usize = before.iter().map(Vec::len).sum();
        assert!(q.free > p.nnz() + live, "nothing to reclaim yet");
        q.compact();
        assert_eq!(q.free, p.nnz() + live);
        assert_eq!(lists(&q), before);
        // The rest of the run does not notice.
        q.eliminate(&mut || true).unwrap();
        assert_eq!(uninterrupted.as_slice(), &q.order[..]);
    }
}
