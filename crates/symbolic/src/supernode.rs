//! L/U supernode partitioning and amalgamation (Section 3, after S+ \[10\]).
//!
//! After static symbolic factorization, consecutive columns with identical
//! `L̄` structure *and* identical `Ū` row structure form an unsymmetric
//! supernode: the corresponding panel is dense in both factors, so the
//! numerical factorization can run on dense BLAS-3 blocks. The same
//! partition is then applied to the rows, subdividing the matrix into
//! `N × N` submatrix blocks (the paper's `B̄_kj`).
//!
//! Supernodes occurring in practice are small ("2 or 3 columns"), so
//! [`amalgamate`] merges adjacent supernodes while the fraction of explicit
//! zeros it introduces stays below a threshold — the paper's amalgamation
//! step.
//!
//! None of this needs the scalar structure. Partition and amalgamation
//! read three arrays — the eforest parents and the lengths of every `L̄`
//! column and `Ū` row (`ChainCounts`) — and the row and column lists of
//! the supernodes are two walks through the forest
//! ([`BlockStructure::from_skeleton`]); the analysis takes all of it from
//! the [`FillSkeleton`]. The `&FilledLu` spellings read the same three
//! arrays off a filled structure and run the same rule, and
//! [`BlockStructure::new`] copies the lists out of it: the oracle path.

use crate::static_fact::{prefix_ptr, FillSkeleton, FilledLu};
use splu_sparse::SparsityPattern;

/// A partition of `0..n` into consecutive blocks (supernodes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// Block boundaries: block `k` spans `starts[k]..starts[k + 1]`;
    /// `starts.len() == num_blocks() + 1`.
    starts: Vec<usize>,
}

impl Partition {
    /// Builds a partition from boundary offsets (`starts[0] == 0`, strictly
    /// increasing, last element = `n`).
    pub fn from_starts(starts: Vec<usize>) -> Self {
        assert!(
            !starts.is_empty() && starts[0] == 0,
            "partition must start at 0"
        );
        assert!(
            starts.windows(2).all(|w| w[0] < w[1]),
            "partition boundaries must be strictly increasing"
        );
        Partition { starts }
    }

    /// The trivial partition: every column its own block.
    pub fn singletons(n: usize) -> Self {
        Partition {
            starts: (0..=n).collect(),
        }
    }

    /// Number of blocks `N`.
    pub fn num_blocks(&self) -> usize {
        self.starts.len() - 1
    }

    /// Total number of columns.
    pub fn n(&self) -> usize {
        *self.starts.last().expect("starts nonempty")
    }

    /// Column range of block `k`.
    pub fn range(&self, k: usize) -> std::ops::Range<usize> {
        self.starts[k]..self.starts[k + 1]
    }

    /// Width of block `k`.
    pub fn width(&self, k: usize) -> usize {
        self.starts[k + 1] - self.starts[k]
    }

    /// Boundary offsets, length `num_blocks() + 1`.
    pub fn starts(&self) -> &[usize] {
        &self.starts
    }

    /// Bytes the boundary offsets occupy on the heap.
    pub fn heap_bytes(&self) -> u64 {
        std::mem::size_of_val(&self.starts[..]) as u64
    }

    /// Map column → block index.
    pub fn block_of_cols(&self) -> Vec<usize> {
        let mut out = vec![0usize; self.n()];
        for k in 0..self.num_blocks() {
            for j in self.range(k) {
                out[j] = k;
            }
        }
        out
    }

    /// Largest block width.
    pub fn max_width(&self) -> usize {
        (0..self.num_blocks())
            .map(|k| self.width(k))
            .max()
            .unwrap_or(0)
    }
}

/// What the partition and amalgamation rules read: the eforest parents
/// (`usize::MAX` = root) and the entry counts of every `L̄` column and `Ū`
/// row, diagonal included.
///
/// Chain nesting: when `p = parent(k)`, every row of `L̄_{*k}∖{k}` leaves
/// step `k` with the structure `Ū_{k*}∖{k}`, whose minimum is `p`; each is
/// therefore still uneliminated and a candidate at step `p`, so
/// `L̄_{*k}∖{k} ⊆ L̄_{*p}` and `Ū_{k*}∖{k} ⊆ Ū_{p*}`. Between a column and
/// its parent, sets are nested — so equal *counts* are equal *sets*, and
/// along a chain the rows below and the columns right of a panel are
/// exactly those of its last column.
#[derive(Debug, Clone, Copy)]
struct ChainCounts<'a> {
    parent: &'a [usize],
    l_len: &'a [usize],
    u_len: &'a [usize],
}

impl<'a> ChainCounts<'a> {
    fn of_skeleton(skel: &'a FillSkeleton) -> Self {
        ChainCounts {
            parent: skel.parents(),
            l_len: skel.l_len(),
            u_len: skel.u_len(),
        }
    }

    /// Runs `rule` on the three arrays read off a filled structure
    /// (Definition 1: `parent(j)` is the first off-diagonal of `Ū` row `j`
    /// when `L̄` column `j` has one).
    fn with_filled<T>(f: &FilledLu, rule: impl FnOnce(ChainCounts<'_>) -> T) -> T {
        let n = f.n();
        let l_len: Vec<usize> = (0..n).map(|j| f.l_col(j).len()).collect();
        let u_len: Vec<usize> = (0..n).map(|i| f.u_row(i).len()).collect();
        let parent: Vec<usize> = (0..n)
            .map(|j| match (l_len[j], f.u_row(j).get(1)) {
                (2.., Some(&p)) => p as usize,
                _ => usize::MAX,
            })
            .collect();
        rule(ChainCounts {
            parent: &parent,
            l_len: &l_len,
            u_len: &u_len,
        })
    }

    /// `parent(b − 1) = b`: columns `b − 1` and `b` may share a supernode.
    fn chain_boundary(&self, b: usize) -> bool {
        self.parent[b - 1] == b
    }

    /// The exact partition: `j` and `j + 1` share a supernode iff
    /// `parent(j) = j + 1` and both nested inclusions are equalities.
    fn partition(&self) -> Partition {
        let n = self.parent.len();
        let mut starts = vec![0usize];
        for b in 1..n {
            let same = self.chain_boundary(b)
                && self.l_len[b - 1] == self.l_len[b] + 1
                && self.u_len[b - 1] == self.u_len[b] + 1;
            if !same {
                starts.push(b);
            }
        }
        if n > 0 {
            starts.push(n);
        }
        Partition::from_starts(starts)
    }

    /// `cum[j] = Σ_{i<j} (l_len[i] + u_len[i])`, what [`Self::chain_cost`]
    /// takes its exact counts from.
    fn prefix_sums(&self) -> Vec<usize> {
        let both: Vec<usize> = (self.l_len.iter().zip(self.u_len))
            .map(|(l, u)| l + u)
            .collect();
        prefix_ptr(&both)
    }

    /// Panel storage (in entries) and exact nonzeros of a candidate
    /// supernode `[a, c)` whose columns form a **parent chain** of the
    /// eforest (`parent(j) = j + 1` for `a ≤ j < c − 1`), counting both
    /// the `L̄` and `Ū` panels — O(1) given [`Self::prefix_sums`].
    fn chain_cost(&self, cum: &[usize], a: usize, c: usize) -> (usize, usize) {
        let width = c - a;
        let outside = (self.l_len[c - 1] - 1) + (self.u_len[c - 1] - 1);
        (width * (width + 1) + width * outside, cum[c] - cum[a])
    }

    /// See [`amalgamate`].
    fn amalgamate(&self, base: &Partition, opts: &SupernodeOptions) -> Partition {
        let nb = base.num_blocks();
        if nb == 0 {
            return base.clone();
        }
        let cum = self.prefix_sums();
        let mut starts = vec![0usize];
        let mut group_start = 0usize; // column index
        let mut k = 0usize;
        while k < nb {
            // Try to extend the current group [group_start, end_k) with block k+1.
            let mut end = base.range(k).end;
            let mut next = k + 1;
            while next < nb {
                let cand_end = base.range(next).end;
                if cand_end - group_start > opts.max_width {
                    break;
                }
                if !self.chain_boundary(base.range(next).start) {
                    break;
                }
                // Every boundary inside [group_start, cand_end) is a chain
                // boundary: the ones inside exact supernodes always are, the
                // ones between them passed the test above.
                let (storage, exact) = self.chain_cost(&cum, group_start, cand_end);
                let zeros = storage.saturating_sub(exact);
                if (zeros as f64) > opts.rel_fill * storage as f64 {
                    break;
                }
                end = cand_end;
                next += 1;
            }
            starts.push(end);
            group_start = end;
            k = next;
        }
        Partition::from_starts(starts)
    }
}

/// Computes the exact L/U supernode partition of a filled structure.
///
/// Columns `j` and `j + 1` share a supernode iff the sub-diagonal structure
/// of `L̄` column `j` equals that of column `j + 1` **and** the
/// super-diagonal structure of `Ū` row `j` equals that of row `j + 1`
/// (both including the required `(j+1, j)` / `(j, j+1)` couplings) —
/// decided on the counts, see [`FillSkeleton::supernode_partition`].
pub fn supernode_partition(f: &FilledLu) -> Partition {
    ChainCounts::with_filled(f, |counts| counts.partition())
}

impl FillSkeleton {
    /// The exact L/U supernode partition of the structure this skeleton
    /// describes, without the structure: `j` and `j + 1` share a supernode
    /// iff `parent(j) = j + 1`, `|L̄_{*j}| = |L̄_{*j+1}| + 1` and
    /// `|Ū_{j*}| = |Ū_{j+1*}| + 1`. Column `j`'s sets minus their diagonal
    /// are nested in those of its parent, so the counts agree exactly when
    /// the sets do.
    pub fn supernode_partition(&self) -> Partition {
        ChainCounts::of_skeleton(self).partition()
    }

    /// [`amalgamate`] on the structure this skeleton describes.
    pub fn amalgamate(&self, base: &Partition, opts: &SupernodeOptions) -> Partition {
        ChainCounts::of_skeleton(self).amalgamate(base, opts)
    }
}

/// Tuning knobs for [`amalgamate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SupernodeOptions {
    /// Maximum supernode width after amalgamation.
    pub max_width: usize,
    /// Maximum fraction of explicit zeros the merged panels may contain,
    /// relative to the merged panel storage.
    pub rel_fill: f64,
}

impl Default for SupernodeOptions {
    fn default() -> Self {
        SupernodeOptions {
            max_width: 48,
            rel_fill: 0.3,
        }
    }
}

/// [`ChainCounts::chain_cost`] by brute force — collects, sorts and dedups
/// the rows and columns outside the panel, for any `[a, c)`. The oracle the
/// tests hold the O(1) formula to.
#[cfg(test)]
fn panel_cost(f: &FilledLu, a: usize, c: usize) -> (usize, usize) {
    let width = c - a;
    // Rows below the panel reached by any column, columns right of the panel
    // reached by any row.
    let mut l_rows: Vec<usize> = Vec::new();
    let mut u_cols: Vec<usize> = Vec::new();
    let mut exact = 0usize;
    for j in a..c {
        exact += f.l_col(j).len() + f.u_row(j).len();
        l_rows.extend(f.l_col(j).iter().map(|&i| i as usize).filter(|&i| i >= c));
        u_cols.extend(f.u_row(j).iter().map(|&x| x as usize).filter(|&x| x >= c));
    }
    l_rows.sort_unstable();
    l_rows.dedup();
    u_cols.sort_unstable();
    u_cols.dedup();
    let triangle = width * (width + 1) / 2;
    let storage = 2 * triangle + width * (l_rows.len() + u_cols.len());
    (storage, exact)
}

/// Merges adjacent supernodes while the explicit-zero fraction of the merged
/// panels stays below `opts.rel_fill` and the width below `opts.max_width`.
///
/// Merging is restricted to supernodes connected by the scalar eforest
/// **parent relation** (`parent(last column of left) = first column of
/// right`). Columns of an exact supernode already form a parent chain, so
/// this keeps every amalgamated supernode a single chain of the elimination
/// forest — which is exactly what makes the block-level task graph of
/// Section 4 sound: every nonzero `Ū` block row of a chain supernode is
/// witnessed by its top column, so Theorem 1 lifts from scalar columns to
/// supernode blocks and the rule-4 edge targets always exist.
///
/// A single greedy left-to-right pass: each group is extended with the next
/// supernode as long as the chain relation and the fill bound hold.
pub fn amalgamate(f: &FilledLu, base: &Partition, opts: &SupernodeOptions) -> Partition {
    ChainCounts::with_filled(f, |counts| counts.amalgamate(base, opts))
}

/// Sorted distinct indices at or beyond `range.end` that the lists of
/// `cols` over `range` reach — the union fallback for a block that is not a
/// parent chain. `mark` is stamped, never cleared: `stamp` must be new to
/// it.
fn union_beyond(
    cols: &SparsityPattern,
    range: std::ops::Range<usize>,
    mark: &mut Vec<usize>,
    stamp: usize,
) -> Vec<u32> {
    mark.resize(cols.nrows(), usize::MAX);
    let end = range.end;
    let mut out = Vec::new();
    for k in range {
        for &x in cols.col(k) {
            if x as usize >= end && mark[x as usize] != stamp {
                mark[x as usize] = stamp;
                out.push(x);
            }
        }
    }
    out.sort_unstable();
    out
}

/// The entries of the ascending `list` that fall inside `range`.
fn within(list: &[u32], range: std::ops::Range<usize>) -> &[u32] {
    let lo = list.partition_point(|&x| (x as usize) < range.start);
    let hi = list.partition_point(|&x| (x as usize) < range.end);
    &list[lo..hi]
}

/// `k` followed by the distinct blocks of the ascending indices `outside`.
fn blocks_of<'a>(
    k: usize,
    outside: &'a [u32],
    block_of: &'a [usize],
) -> impl Iterator<Item = u32> + 'a {
    let mut prev = u32::MAX;
    let blocks =
        std::iter::once(k as u32).chain(outside.iter().map(|&x| block_of[x as usize] as u32));
    blocks.filter(move |&b| std::mem::replace(&mut prev, b) != b)
}

/// The `N × N` block lists of the `n × N` lists `lists`: column `K` holds
/// `K`, then the distinct blocks of `lists.col(K)` — one array, sized
/// before it is written.
fn block_lists(lists: &SparsityPattern, block_of: &[usize]) -> SparsityPattern {
    let nb = lists.ncols();
    let mut ptr = Vec::with_capacity(nb + 1);
    ptr.push(0);
    for k in 0..nb {
        ptr.push(ptr[k] + blocks_of(k, lists.col(k), block_of).count());
    }
    let mut idx = Vec::with_capacity(ptr[nb]);
    for k in 0..nb {
        idx.extend(blocks_of(k, lists.col(k), block_of));
    }
    SparsityPattern::from_sorted_parts(nb, nb, ptr, idx)
}

/// Block structure of the filled matrix under a partition: which submatrix
/// blocks `B̄(I, J)` are structurally nonzero, and which scalar rows and
/// columns of them the compact supernodal storage keeps.
///
/// Supernode `K` stores **dense subrows** in `L̄` — every row of
/// [`Self::l_rows`]`.col(K)` across the whole width of `K` — and **dense
/// subcolumns** in `Ū` — every column of [`Self::u_cols`]`.col(K)` across
/// the whole height of `K` (S\*'s layout). For a supernode whose columns
/// form a parent chain of the eforest (every partition the analysis
/// produces), chain nesting (see the module docs) makes those two lists
/// the off-diagonal structure of its **last** column and row:
/// [`Self::from_skeleton`] walks them out of the eforest, [`Self::new`]
/// copies them from a filled structure and falls back to the union over
/// the columns for any other block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockStructure {
    /// The column/row partition (identical, as in the paper).
    pub partition: Partition,
    /// Column `J` lists the block rows `I ≥ J` with a nonzero `L̄` block,
    /// ascending — always `J` itself first (`N × N`).
    pub l_blocks: SparsityPattern,
    /// Column `I` lists the block columns `J ≥ I` with a nonzero `Ū` block,
    /// ascending — always `I` itself first (`N × N`).
    pub u_blocks: SparsityPattern,
    /// Column `K` lists `R_K`: the scalar rows below supernode `K` that its
    /// `L̄` panel stores, ascending (`n × N`).
    pub l_rows: SparsityPattern,
    /// Column `K` lists `C_K`: the scalar columns right of supernode `K`
    /// that its `Ū` blocks store, ascending (`n × N`).
    pub u_cols: SparsityPattern,
}

impl BlockStructure {
    /// Computes the block structure under `partition` of the filled
    /// structure that `skel` (the skeleton of `pattern`) describes, without
    /// that structure — in `O(n + nnz(A) + Σ_K (|R_K| + |C_K|))`.
    ///
    /// Both lists are walks through the eforest at supernode granularity.
    /// A walk that stands on a column of supernode `K` on its way to a
    /// label beyond `K` passes the rest of `K` (its columns are a parent
    /// chain), so it may record `K` once and jump to `parent(last_K)`:
    ///
    /// * `R_K` — row `i` of `L̄` is the branch `first[i] → … → i`
    ///   (Theorem 1), so row `i` belongs to `R_K` of every supernode its
    ///   branch passes before the one holding `i`. Rows are scanned in
    ///   ascending order and a branch meets a supernode once: the lists
    ///   come out sorted, without a sort.
    /// * `C_K` — column `j` of `Ū` is the union over its entries `a_rj` of
    ///   the climbs from `first[r]`, cut off at `j` (Theorem 2), so `j`
    ///   belongs to `C_K` of every supernode a climb passes before the one
    ///   holding `j`. A climb stops at a supernode another climb of the
    ///   same column already recorded (one stamp per supernode); columns
    ///   are scanned in ascending order, so these lists are sorted too.
    ///
    /// The sizes `|R_K| = |L̄_{*last_K}| − 1`, `|C_K| = |Ū_{last_K*}| − 1`
    /// are known before the first index is written.
    ///
    /// # Panics
    /// Panics when a block of `partition` is not a parent chain of the
    /// eforest (the partitions [`FillSkeleton::supernode_partition`] and
    /// [`FillSkeleton::amalgamate`] produce always are): its lists would
    /// not be those of its last column. [`Self::new`] handles such blocks.
    pub fn from_skeleton(
        pattern: &SparsityPattern,
        skel: &FillSkeleton,
        partition: Partition,
    ) -> Self {
        let (n, nb) = (partition.n(), partition.num_blocks());
        assert_eq!(n, skel.n(), "partition and skeleton orders differ");
        assert_eq!(n, pattern.ncols(), "pattern and skeleton orders differ");
        let (parent, first) = (skel.parents(), skel.first());
        let last: Vec<usize> = (0..nb).map(|k| partition.range(k).end - 1).collect();
        for k in 0..nb {
            assert!(
                partition
                    .range(k)
                    .all(|j| j == last[k] || parent[j] == j + 1),
                "the partition is not made of eforest chains"
            );
        }
        let block_of = partition.block_of_cols();
        let sizes = |len: &[usize]| -> Vec<usize> { last.iter().map(|&j| len[j] - 1).collect() };
        let (l_ptr, u_ptr) = (
            prefix_ptr(&sizes(skel.l_len())),
            prefix_ptr(&sizes(skel.u_len())),
        );

        let mut l_idx = vec![0u32; l_ptr[nb]];
        let mut cursor = l_ptr[..nb].to_vec();
        for i in 0..n {
            let (mut k, home) = (block_of[first[i]], block_of[i]);
            while k != home {
                l_idx[cursor[k]] = i as u32;
                cursor[k] += 1;
                k = block_of[parent[last[k]]];
            }
        }
        debug_assert!((0..nb).all(|k| cursor[k] == l_ptr[k + 1]));

        let mut u_idx = vec![0u32; u_ptr[nb]];
        cursor.copy_from_slice(&u_ptr[..nb]);
        let mut seen_in_col = vec![usize::MAX; nb];
        for j in 0..n {
            let home = block_of[j];
            for &r in pattern.col(j) {
                let mut k = block_of[first[r as usize]];
                while k != home && seen_in_col[k] != j {
                    seen_in_col[k] = j;
                    u_idx[cursor[k]] = j as u32;
                    cursor[k] += 1;
                    // A climb whose class dies before column `j` ends at a
                    // root (`usize::MAX`).
                    match parent[last[k]] {
                        p if p <= j => k = block_of[p],
                        _ => break,
                    }
                }
            }
        }
        debug_assert!((0..nb).all(|k| cursor[k] == u_ptr[k + 1]));

        Self::from_lists(
            partition,
            SparsityPattern::from_sorted_parts(n, nb, l_ptr, l_idx),
            SparsityPattern::from_sorted_parts(n, nb, u_ptr, u_idx),
        )
    }

    /// The block structure whose supernode `K` stores the rows
    /// `l_rows.col(K)` and the columns `u_cols.col(K)` (both `n × N`,
    /// ascending, beyond `K`): the block lists are the distinct blocks of
    /// those.
    pub fn from_lists(
        partition: Partition,
        l_rows: SparsityPattern,
        u_cols: SparsityPattern,
    ) -> Self {
        let block_of = partition.block_of_cols();
        BlockStructure {
            l_blocks: block_lists(&l_rows, &block_of),
            u_blocks: block_lists(&u_cols, &block_of),
            l_rows,
            u_cols,
            partition,
        }
    }

    /// Computes the block structure of `f` under `partition` — the scalar
    /// oracle [`Self::from_skeleton`] is held to, and the builder for
    /// partitions that are not made of chains.
    pub fn new(f: &FilledLu, partition: Partition) -> Self {
        let (n, nb) = (partition.n(), partition.num_blocks());
        let u_by_rows = f.u_by_rows();
        let mut mark = Vec::new();
        let (mut l_ptr, mut l_idx) = (vec![0usize], Vec::new());
        let (mut u_ptr, mut u_idx) = (vec![0usize], Vec::new());
        for k in 0..nb {
            let r = partition.range(k);
            let last = r.end - 1;
            let chain = (r.start..last)
                .all(|j| f.l_col(j).len() > 1 && f.u_row(j).get(1) == Some(&(j as u32 + 1)));
            if chain {
                l_idx.extend_from_slice(&f.l_col(last)[1..]);
                u_idx.extend_from_slice(&f.u_row(last)[1..]);
            } else {
                l_idx.extend(union_beyond(&f.l, r.clone(), &mut mark, 2 * k));
                u_idx.extend(union_beyond(u_by_rows, r, &mut mark, 2 * k + 1));
            }
            l_ptr.push(l_idx.len());
            u_ptr.push(u_idx.len());
        }
        Self::from_lists(
            partition,
            SparsityPattern::from_sorted_parts(n, nb, l_ptr, l_idx),
            SparsityPattern::from_sorted_parts(n, nb, u_ptr, u_idx),
        )
    }

    /// Words the compact storage holds under this structure:
    /// `Σ_K w_K · (w_K + |R_K| + |C_K|)`.
    pub fn storage_words(&self) -> usize {
        (0..self.num_blocks())
            .map(|k| {
                let w = self.partition.width(k);
                w * (w + self.l_rows.col(k).len() + self.u_cols.col(k).len())
            })
            .sum()
    }

    /// The rows of `R_K` inside block row `i` — what the `L̄` block
    /// `(i, k)` stores (a contiguous run of the sorted list).
    pub fn l_rows_in(&self, k: usize, i: usize) -> &[u32] {
        within(self.l_rows.col(k), self.partition.range(i))
    }

    /// The columns `S_KJ = C_K ∩ J` — what the `Ū` block `(k, j)` stores (a
    /// contiguous run of the sorted list).
    pub fn u_cols_in(&self, k: usize, j: usize) -> &[u32] {
        within(self.u_cols.col(k), self.partition.range(j))
    }

    /// Global row of position `pos` of supernode `k`'s panel: its own rows
    /// first, then `R_K`.
    pub fn panel_row(&self, k: usize, pos: usize) -> usize {
        let own = self.partition.range(k);
        if pos < own.len() {
            own.start + pos
        } else {
            self.l_rows.col(k)[pos - own.len()] as usize
        }
    }

    /// Number of blocks per side.
    pub fn num_blocks(&self) -> usize {
        self.partition.num_blocks()
    }

    /// `true` when block `(ib, jb)` is structurally nonzero (either factor).
    pub fn block_nonzero(&self, ib: usize, jb: usize) -> bool {
        if ib >= jb {
            self.l_blocks.col(jb).binary_search(&(ib as u32)).is_ok()
        } else {
            self.u_blocks.col(ib).binary_search(&(jb as u32)).is_ok()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::fig1_pattern;
    use crate::postorder::postorder_permutation;
    use crate::static_fact::static_symbolic_factorization;
    use splu_sparse::SparsityPattern;

    fn filled(p: &SparsityPattern) -> FilledLu {
        static_symbolic_factorization(p).unwrap()
    }

    #[test]
    fn partition_basics() {
        let p = Partition::from_starts(vec![0, 2, 3, 7]);
        assert_eq!(p.num_blocks(), 3);
        assert_eq!(p.n(), 7);
        assert_eq!(p.range(0), 0..2);
        assert_eq!(p.width(2), 4);
        assert_eq!(p.block_of_cols(), vec![0, 0, 1, 2, 2, 2, 2]);
        assert_eq!(p.max_width(), 4);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn partition_rejects_bad_boundaries() {
        Partition::from_starts(vec![0, 3, 3]);
    }

    #[test]
    fn dense_matrix_is_one_supernode() {
        let n = 5;
        let p =
            SparsityPattern::from_entries(n, n, (0..n).flat_map(|i| (0..n).map(move |j| (i, j))))
                .unwrap();
        let f = filled(&p);
        let part = supernode_partition(&f);
        assert_eq!(part.num_blocks(), 1);
        assert_eq!(part.width(0), n);
    }

    #[test]
    fn diagonal_matrix_is_all_singletons() {
        let f = filled(&SparsityPattern::identity(6));
        let part = supernode_partition(&f);
        assert_eq!(part.num_blocks(), 6);
        assert_eq!(part.max_width(), 1);
    }

    /// Supernode columns must be genuinely identical in both factors.
    #[test]
    fn partition_columns_share_structure() {
        let p = fig1_pattern();
        let f = filled(&p);
        let part = supernode_partition(&f);
        for k in 0..part.num_blocks() {
            let r = part.range(k);
            for j in r.start..r.end.saturating_sub(1) {
                assert_eq!(f.l_col(j)[1..], *f.l_col(j + 1), "L mismatch in supernode");
                assert_eq!(f.u_row(j)[1..], *f.u_row(j + 1), "U mismatch in supernode");
            }
        }
    }

    /// Postordering must not increase the number of supernodes on matrices
    /// where it brings siblings together (the paper's Table 3 effect).
    #[test]
    fn postordering_does_not_fragment_supernodes() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(31);
        let mut improved = 0usize;
        let mut total = 0usize;
        for _ in 0..12 {
            let n = 30;
            let mut entries: Vec<(usize, usize)> = (0..n).map(|i| (i, i)).collect();
            for _ in 0..70 {
                entries.push((rng.gen_range(0..n), rng.gen_range(0..n)));
            }
            let p = SparsityPattern::from_entries(n, n, entries).unwrap();
            let f = filled(&p);
            let sn = supernode_partition(&f).num_blocks();
            let po = postorder_permutation(&f);
            let f2 = static_symbolic_factorization(&p.permuted(&po, &po)).unwrap();
            let snpo = supernode_partition(&f2).num_blocks();
            total += 1;
            if snpo <= sn {
                improved += 1;
            }
        }
        // Postordering should help (or tie) in the vast majority of cases.
        assert!(
            improved * 3 >= total * 2,
            "postordering fragmented supernodes too often: {improved}/{total}"
        );
    }

    #[test]
    fn amalgamation_reduces_block_count_and_respects_width() {
        let p = fig1_pattern();
        let f = filled(&p);
        let base = supernode_partition(&f);
        let opts = SupernodeOptions {
            max_width: 4,
            rel_fill: 0.9,
        };
        let am = amalgamate(&f, &base, &opts);
        assert!(am.num_blocks() <= base.num_blocks());
        assert!(am.max_width() <= 4);
        assert_eq!(am.n(), base.n());
    }

    #[test]
    fn amalgamation_with_zero_tolerance_is_identity_on_singletons() {
        let f = filled(&SparsityPattern::identity(5));
        let base = supernode_partition(&f);
        let opts = SupernodeOptions {
            max_width: 5,
            rel_fill: 0.0,
        };
        let am = amalgamate(&f, &base, &opts);
        // Merging two disjoint singleton columns introduces zeros, so
        // nothing merges at tolerance 0 unless structures truly overlap.
        assert_eq!(am.num_blocks(), 5);
    }

    #[test]
    fn block_structure_covers_every_entry() {
        let p = fig1_pattern();
        let f = filled(&p);
        let part = supernode_partition(&f);
        let bs = BlockStructure::new(&f, part);
        let block_of = bs.partition.block_of_cols();
        for (i, j) in f.filled_pattern().entries() {
            assert!(
                bs.block_nonzero(block_of[i], block_of[j]),
                "entry ({i},{j}) not covered by block structure"
            );
        }
        // Diagonal blocks always present.
        for k in 0..bs.num_blocks() {
            assert!(bs.block_nonzero(k, k));
            assert_eq!(bs.l_blocks.col(k)[0] as usize, k);
            assert_eq!(bs.u_blocks.col(k)[0] as usize, k);
        }
    }

    /// Patterns of the reduced paper suite (minimum-degree ordered) and
    /// random ones, each as given and postordered.
    fn suite_and_random_patterns() -> Vec<SparsityPattern> {
        use splu_matgen::{paper_suite, random_pattern, Scale};
        let mut patterns: Vec<SparsityPattern> = paper_suite(Scale::Reduced)
            .iter()
            .map(|m| {
                let q = splu_ordering::column_min_degree(m.a.pattern());
                m.a.pattern().permuted(&q, &q)
            })
            .collect();
        patterns.extend((0..16).map(|seed| random_pattern(20 + 3 * seed as usize, 90, seed)));
        let mut out = Vec::new();
        for p in patterns {
            let po = postorder_permutation(&filled(&p));
            out.push(p.permuted(&po, &po));
            out.push(p);
        }
        out
    }

    /// The filled structures of [`suite_and_random_patterns`].
    fn suite_and_random_filled() -> Vec<FilledLu> {
        suite_and_random_patterns().iter().map(filled).collect()
    }

    const AMALGAMATIONS: [(usize, f64); 4] = [(48, 0.3), (8, 0.9), (200, 1.0), (48, 0.0)];

    fn chain_cost(f: &FilledLu, a: usize, c: usize) -> (usize, usize) {
        ChainCounts::with_filled(f, |counts| counts.chain_cost(&counts.prefix_sums(), a, c))
    }

    /// One rule, two spellings: partition and amalgamation read off the
    /// skeleton equal those read off the filled structure, and the lists
    /// walked out of the forest equal the ones copied from it.
    #[test]
    fn skeleton_spelling_equals_the_filled_spelling() {
        use crate::static_fact::fill_skeleton;
        for p in suite_and_random_patterns() {
            let (skel, f) = (fill_skeleton(&p).unwrap(), filled(&p));
            let exact = skel.supernode_partition();
            assert_eq!(exact, supernode_partition(&f));
            let mut partitions = vec![exact.clone(), Partition::singletons(f.n())];
            for (max_width, rel_fill) in AMALGAMATIONS {
                let opts = SupernodeOptions {
                    max_width,
                    rel_fill,
                };
                let merged = skel.amalgamate(&exact, &opts);
                assert_eq!(merged, amalgamate(&f, &exact, &opts));
                partitions.push(merged);
            }
            for part in partitions {
                assert_eq!(
                    BlockStructure::from_skeleton(&p, &skel, part.clone()),
                    BlockStructure::new(&f, part)
                );
            }
            // The driver's route: postorder from the skeleton's parents,
            // labels moved, nothing recomputed.
            let po = crate::EliminationForest::from_parent_vec(skel.parents().to_vec()).postorder();
            let (p3, skel3) = (p.permuted(&po, &po), skel.relabeled(&po));
            let part = skel3.amalgamate(&skel3.supernode_partition(), &SupernodeOptions::default());
            assert_eq!(
                BlockStructure::from_skeleton(&p3, &skel3, part.clone()),
                BlockStructure::new(&filled(&p3), part)
            );
        }
    }

    #[test]
    fn skeleton_spelling_on_the_smallest_and_the_extreme_patterns() {
        use crate::static_fact::fill_skeleton;
        let dense = |n: usize| {
            let all = (0..n).flat_map(move |i| (0..n).map(move |j| (i, j)));
            SparsityPattern::from_entries(n, n, all).unwrap()
        };
        for (p, supernodes) in [
            (SparsityPattern::empty(0, 0), 0),
            (SparsityPattern::identity(1), 1),
            (SparsityPattern::identity(6), 6),
            (dense(5), 1),
        ] {
            let (skel, f) = (fill_skeleton(&p).unwrap(), filled(&p));
            let exact = skel.supernode_partition();
            assert_eq!(exact.num_blocks(), supernodes);
            assert_eq!(exact, supernode_partition(&f));
            let merged = skel.amalgamate(&exact, &SupernodeOptions::default());
            assert_eq!(merged, amalgamate(&f, &exact, &SupernodeOptions::default()));
            let bs = BlockStructure::from_skeleton(&p, &skel, merged.clone());
            assert_eq!(bs, BlockStructure::new(&f, merged));
            // Nothing outside the diagonal blocks in any of the four.
            assert_eq!(bs.l_rows.nnz() + bs.u_cols.nnz(), 0);
        }
    }

    #[test]
    #[should_panic(expected = "not made of eforest chains")]
    fn from_skeleton_refuses_a_partition_that_is_not_made_of_chains() {
        use crate::static_fact::fill_skeleton;
        // Two columns with no coupling: a forest of two roots.
        let p = SparsityPattern::identity(2);
        let skel = fill_skeleton(&p).unwrap();
        BlockStructure::from_skeleton(&p, &skel, Partition::from_starts(vec![0, 2]));
    }

    /// The O(1) chain formula equals the brute-force panel cost on every
    /// parent chain of exact supernodes — a superset of the boundaries
    /// `amalgamate` evaluates — and `amalgamate` covers every column under
    /// loose and tight options.
    #[test]
    fn chain_cost_equals_brute_force_on_every_chain() {
        let mut chains = 0usize;
        for f in suite_and_random_filled() {
            let base = supernode_partition(&f);
            let starts = base.starts();
            for (k, &a) in starts[..starts.len() - 1].iter().enumerate() {
                for &c in &starts[k + 1..] {
                    assert_eq!(chain_cost(&f, a, c), panel_cost(&f, a, c), "[{a}, {c})");
                    chains += 1;
                    let chain_goes_on = c < f.n()
                        && f.l_col(c - 1).len() > 1
                        && f.u_row(c - 1).get(1) == Some(&(c as u32));
                    if !chain_goes_on {
                        break;
                    }
                }
            }
            for (max_width, rel_fill) in AMALGAMATIONS {
                let am = amalgamate(
                    &f,
                    &base,
                    &SupernodeOptions {
                        max_width,
                        rel_fill,
                    },
                );
                assert_eq!(am.n(), f.n());
            }
        }
        assert!(chains > 1000, "only {chains} chains checked");
    }

    /// `BlockStructure::new` by brute force: a fresh mark array and a scan
    /// of all blocks per block, and the row/column lists as the sorted
    /// union over **every** column of the block — the oracle for the
    /// chain-nesting shortcut (last column only).
    fn block_structure_quadratic(f: &FilledLu, partition: Partition) -> BlockStructure {
        let (n, nb) = (partition.n(), partition.num_blocks());
        let block_of = partition.block_of_cols();
        let scan = |list: &dyn Fn(usize) -> Vec<usize>| -> SparsityPattern {
            let entries = (0..nb).flat_map(|kb| {
                let mut mark = vec![false; nb];
                for k in partition.range(kb) {
                    for x in list(k) {
                        mark[block_of[x]] = true;
                    }
                }
                (kb..nb).filter(move |&b| mark[b]).map(move |b| (b, kb))
            });
            SparsityPattern::from_entries(nb, nb, entries).unwrap()
        };
        let outside = |list: &dyn Fn(usize) -> Vec<usize>| -> SparsityPattern {
            let entries = (0..nb).flat_map(|kb| {
                let end = partition.range(kb).end;
                partition
                    .range(kb)
                    .flat_map(list)
                    .filter(move |&x| x >= end)
                    .map(move |x| (x, kb))
            });
            SparsityPattern::from_entries(n, nb, entries).unwrap()
        };
        let wide = |list: &[u32]| list.iter().map(|&x| x as usize).collect();
        let l_blocks = scan(&|j| wide(f.l_col(j)));
        let u_blocks = scan(&|i| wide(f.u_row(i)));
        let l_rows = outside(&|j| wide(f.l_col(j)));
        let u_cols = outside(&|i| wide(f.u_row(i)));
        BlockStructure {
            partition,
            l_blocks,
            u_blocks,
            l_rows,
            u_cols,
        }
    }

    #[test]
    fn block_structure_equals_the_quadratic_builder() {
        for f in suite_and_random_filled() {
            let exact = supernode_partition(&f);
            let merged = amalgamate(&f, &exact, &SupernodeOptions::default());
            // Pairs of columns: most are not parent chains, so the union
            // fallback runs too.
            let pairs = Partition::from_starts((0..f.n()).step_by(2).chain([f.n()]).collect());
            for part in [exact, merged, Partition::singletons(f.n()), pairs] {
                assert_eq!(
                    BlockStructure::new(&f, part.clone()),
                    block_structure_quadratic(&f, part)
                );
            }
        }
    }

    /// The compact storage is what `chain_cost` prices (which counts the
    /// diagonal in both triangles), and holds exactly the scalar structure
    /// when nothing is amalgamated.
    #[test]
    fn storage_words_are_the_chain_costs_and_exact_without_amalgamation() {
        for f in suite_and_random_filled() {
            let exact = supernode_partition(&f);
            let merged = amalgamate(&f, &exact, &SupernodeOptions::default());
            for part in [exact.clone(), merged] {
                let priced: usize = (0..part.num_blocks())
                    .map(|k| chain_cost(&f, part.range(k).start, part.range(k).end).0)
                    .sum();
                let bs = BlockStructure::new(&f, part);
                assert_eq!(bs.storage_words(), priced - f.n());
            }
            for part in [exact, Partition::singletons(f.n())] {
                assert_eq!(
                    BlockStructure::new(&f, part).storage_words(),
                    f.nnz_filled()
                );
            }
        }
    }

    #[test]
    fn panel_cost_counts_triangles_once() {
        // Dense 3x3: one supernode [0,3): storage = 2*6 + 0 = 12,
        // exact = Σ |l_col| + |u_row| = (3+2+1)+(3+2+1) = 12 → no zeros.
        let n = 3;
        let p =
            SparsityPattern::from_entries(n, n, (0..n).flat_map(|i| (0..n).map(move |j| (i, j))))
                .unwrap();
        let f = filled(&p);
        let (storage, exact) = panel_cost(&f, 0, 3);
        assert_eq!(storage, 12);
        assert_eq!(exact, 12);
    }
}
