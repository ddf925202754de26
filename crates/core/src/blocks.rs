//! Block storage of the filled matrix `Ā` under the supernode partition.
//!
//! The matrix is divided into `N × N` submatrix blocks `B̄(I, J)` by the
//! L/U supernode partition (the paper's Section 3). Positions inside a
//! block that are outside the *scalar* static structure hold explicit
//! zeros, and stay exactly `0.0` for the whole factorization (every kernel
//! write lands inside the scalar structure — the George–Ng closure
//! property).
//!
//! Storage is per block **column**, because the paper's 1D mapping makes the
//! block column the unit of ownership: `Factor(k)` and all `Update(·, k)`
//! write only column `k`. Within a column the layout is **panel-major**:
//!
//! * the whole L-region (diagonal block first, then the sub-diagonal `L̄`
//!   blocks in ascending block row) is ONE contiguous column-major
//!   [`DenseMat`] — exactly the stacked panel `Factor(k)` pivots over, so
//!   the panel LU runs **in place** with zero gather/scatter copies, and
//!   `Update(k, j)` reads each `L(i, k)` as a strided row range
//!   ([`MatRef`]) of the same storage;
//! * the U-region blocks (`B̄(I, J)` with `I < J`) stay individual dense
//!   matrices, since they are written one at a time by their own update.
//!
//! A debug counter ([`BlockMatrix::panel_copy_count`]) records any code
//! path that still gathers or scatters a panel; the factorization keeps it
//! at zero, which the test-suite asserts.

use parking_lot::RwLock;
use splu_dense::{DenseMat, MatMut, MatRef, Pivots};
use splu_sparse::CscMatrix;
use splu_symbolic::supernode::BlockStructure;
use std::sync::atomic::{AtomicUsize, Ordering};

/// All blocks of one block column, plus the pivot sequence once factored.
#[derive(Debug)]
pub struct ColumnData {
    /// Block-row ids with a structurally nonzero block in this column,
    /// ascending (strictly above-diagonal `Ū` rows first, then the diagonal
    /// and the `L̄` rows).
    pub block_rows: Vec<usize>,
    /// U-region storage: one dense block per `block_rows[p]` with
    /// `p < u_count()`.
    pub ublocks: Vec<DenseMat>,
    /// The L-region as one stacked column-major panel (diagonal block
    /// first); block `block_rows[u_count() + t]` occupies panel rows
    /// `l_offsets[t]..l_offsets[t + 1]`.
    pub panel: DenseMat,
    /// Prefix row offsets of the L-region blocks inside `panel`.
    pub l_offsets: Vec<usize>,
    /// Pivot sequence of `Factor(k)` over the stacked panel (positions are
    /// stack-local); `None` until factored.
    pub pivots: Option<Pivots>,
}

/// Where a block row's storage lives inside a [`ColumnData`].
enum Slot {
    /// Index into `ublocks`.
    U(usize),
    /// Index into `l_offsets` (the `t`-th L-region block).
    L(usize),
}

impl ColumnData {
    /// Index into `block_rows` for block row `i`, if present.
    #[inline]
    pub fn find(&self, i: usize) -> Option<usize> {
        self.block_rows.binary_search(&i).ok()
    }

    /// Number of U-region blocks (they lead `block_rows`).
    #[inline]
    pub fn u_count(&self) -> usize {
        self.ublocks.len()
    }

    /// Width of the block column.
    #[inline]
    pub fn width(&self) -> usize {
        self.panel.ncols()
    }

    fn slot(&self, pos: usize) -> Slot {
        if pos < self.ublocks.len() {
            Slot::U(pos)
        } else {
            Slot::L(pos - self.ublocks.len())
        }
    }

    /// Panel row range of the `t`-th L-region block.
    #[inline]
    fn l_range(&self, t: usize) -> std::ops::Range<usize> {
        self.l_offsets[t]..self.l_offsets[t + 1]
    }

    /// Immutable view of the block at block row `i`, if present — a direct
    /// borrow for U-region blocks, a strided row range of the panel for
    /// L-region blocks. Never copies.
    pub fn block(&self, i: usize) -> Option<MatRef<'_>> {
        let pos = self.find(i)?;
        Some(match self.slot(pos) {
            Slot::U(q) => self.ublocks[q].as_view(),
            Slot::L(t) => self.panel.row_range(self.l_range(t)),
        })
    }

    /// Mutable view of the block at block row `i`, if present.
    pub fn block_mut(&mut self, i: usize) -> Option<MatMut<'_>> {
        let pos = self.find(i)?;
        Some(match self.slot(pos) {
            Slot::U(q) => self.ublocks[q].as_view_mut(),
            Slot::L(t) => {
                let r = self.l_range(t);
                self.panel.row_range_mut(r)
            }
        })
    }

    /// Swaps scalar row `r1` of block row `ib1` with row `r2` of block row
    /// `ib2` across the whole column width. A side without storage here must
    /// be structurally — hence numerically — zero (debug-asserted); the swap
    /// is then a no-op.
    pub fn swap_scalar_rows(&mut self, (ib1, r1): (usize, usize), (ib2, r2): (usize, usize)) {
        let w = self.width();
        match (self.find(ib1), self.find(ib2)) {
            (Some(p1), Some(p2)) => match (self.slot(p1), self.slot(p2)) {
                (Slot::U(q1), Slot::U(q2)) if q1 == q2 => self.ublocks[q1].swap_rows(r1, r2),
                (Slot::U(q1), Slot::U(q2)) => {
                    let (lo, hi) = (q1.min(q2), q1.max(q2));
                    let (a, b) = self.ublocks.split_at_mut(hi);
                    let (first, second) = (&mut a[lo], &mut b[0]);
                    let (ra, rb) = if q1 < q2 { (r1, r2) } else { (r2, r1) };
                    for jj in 0..w {
                        std::mem::swap(&mut first[(ra, jj)], &mut second[(rb, jj)]);
                    }
                }
                (Slot::L(t1), Slot::L(t2)) => {
                    let (pr1, pr2) = (self.l_offsets[t1] + r1, self.l_offsets[t2] + r2);
                    self.panel.swap_rows(pr1, pr2);
                }
                (Slot::U(q), Slot::L(t)) => {
                    let pr = self.l_offsets[t] + r2;
                    for jj in 0..w {
                        std::mem::swap(&mut self.ublocks[q][(r1, jj)], &mut self.panel[(pr, jj)]);
                    }
                }
                (Slot::L(t), Slot::U(q)) => {
                    let pr = self.l_offsets[t] + r1;
                    for jj in 0..w {
                        std::mem::swap(&mut self.panel[(pr, jj)], &mut self.ublocks[q][(r2, jj)]);
                    }
                }
            },
            (Some(p), None) => self.debug_assert_stored_row_zero(p, r1),
            (None, Some(p)) => self.debug_assert_stored_row_zero(p, r2),
            (None, None) => {}
        }
    }

    /// The destination block at position `pos` mutably, together with the
    /// (shared) `Ū` source block at U-region position `qk` — the two
    /// operands of one Schur update `B̄(i, j) ← B̄(i, j) − L(i, k)·Ū(k, j)`.
    pub fn dst_and_u(&mut self, pos: usize, qk: usize) -> (MatMut<'_>, MatRef<'_>) {
        assert!(qk < self.ublocks.len(), "Ū block lives in the U-region");
        if pos < self.ublocks.len() {
            assert_ne!(pos, qk, "destination cannot be the Ū block itself");
            let (lo, hi) = (pos.min(qk), pos.max(qk));
            let (a, b) = self.ublocks.split_at_mut(hi);
            if pos < qk {
                (a[lo].as_view_mut(), b[0].as_view())
            } else {
                (b[0].as_view_mut(), a[lo].as_view())
            }
        } else {
            let t = pos - self.ublocks.len();
            let r = self.l_offsets[t]..self.l_offsets[t + 1];
            (self.panel.row_range_mut(r), self.ublocks[qk].as_view())
        }
    }

    /// Debug-only invariant: a row involved in an interchange whose partner
    /// has no storage in this column must itself be entirely zero here.
    fn debug_assert_stored_row_zero(&self, pos: usize, r: usize) {
        if cfg!(debug_assertions) {
            let view = match self.slot(pos) {
                Slot::U(q) => self.ublocks[q].as_view(),
                Slot::L(t) => self.panel.row_range(self.l_range(t)),
            };
            for jj in 0..view.ncols() {
                debug_assert_eq!(
                    view[(r, jj)],
                    0.0,
                    "pivot interchange would lose a nonzero at local row {r}"
                );
            }
        }
    }
}

/// Maps stacked-panel positions of a block column to `(block_row,
/// local_row)` pairs — fixed by the structure, shared by `Factor`, every
/// `Update` sourcing this column, and the triangular solves.
#[derive(Debug, Clone)]
pub struct StackMap {
    /// L-region block rows of this column (`l_blocks[k]`: diagonal first).
    pub l_rows: Vec<usize>,
    /// Prefix offsets: block `l_rows[t]` occupies stacked positions
    /// `offsets[t]..offsets[t + 1]`.
    pub offsets: Vec<usize>,
}

impl StackMap {
    /// Total stacked height.
    pub fn height(&self) -> usize {
        *self.offsets.last().expect("offsets nonempty")
    }

    /// Resolves a stacked position to `(block_row, local_row)`.
    pub fn locate(&self, pos: usize) -> (usize, usize) {
        debug_assert!(pos < self.height());
        let t = match self.offsets.binary_search(&pos) {
            Ok(t) => t,
            Err(t) => t - 1,
        };
        (self.l_rows[t], pos - self.offsets[t])
    }

    /// Index `t` of block row `ib` in the stack (`l_rows[t] == ib`), if the
    /// block row belongs to this column's L-region.
    pub fn find_row(&self, ib: usize) -> Option<usize> {
        self.l_rows.binary_search(&ib).ok()
    }
}

/// The block matrix: per-column data behind `RwLock`s (readers: updates
/// sourcing the column; writer: the column's own factor/update tasks).
pub struct BlockMatrix {
    columns: Vec<RwLock<ColumnData>>,
    stacks: Vec<StackMap>,
    n: usize,
    /// Global scalar column index of the first column of each block column —
    /// the single source callers use to map panel-local pivot columns to
    /// factorization-order column indices.
    col_starts: Vec<usize>,
    /// Panel gather/scatter copies performed since assembly — instrumenting
    /// the zero-copy claim; see [`Self::panel_copy_count`].
    panel_copies: AtomicUsize,
}

impl BlockMatrix {
    /// Allocates every structurally nonzero block of `Ā` under the given
    /// block structure, zero-filled and unfactored.
    pub fn zeros(bs: &BlockStructure) -> Self {
        let nb = bs.num_blocks();
        let part = &bs.partition;

        // Per column J: U-region block rows (I < J), from the row lists.
        let mut u_region: Vec<Vec<usize>> = vec![Vec::new(); nb];
        for i in 0..nb {
            for &j in bs.u_blocks[i].iter().skip(1) {
                u_region[j].push(i);
            }
        }
        let mut columns = Vec::with_capacity(nb);
        let mut stacks = Vec::with_capacity(nb);
        for jb in 0..nb {
            // u_region was filled in ascending i automatically.
            let u_rows = &u_region[jb];
            let mut block_rows = u_rows.clone();
            block_rows.extend_from_slice(&bs.l_blocks[jb]);
            let width = part.width(jb);
            let ublocks: Vec<DenseMat> = u_rows
                .iter()
                .map(|&ib| DenseMat::zeros(part.width(ib), width))
                .collect();
            let l_rows = bs.l_blocks[jb].clone();
            let mut offsets = Vec::with_capacity(l_rows.len() + 1);
            offsets.push(0);
            let mut acc = 0usize;
            for &ib in &l_rows {
                acc += part.width(ib);
                offsets.push(acc);
            }
            columns.push(RwLock::new(ColumnData {
                block_rows,
                ublocks,
                panel: DenseMat::zeros(acc, width),
                l_offsets: offsets.clone(),
                pivots: None,
            }));
            stacks.push(StackMap { l_rows, offsets });
        }
        let col_starts = (0..nb).map(|jb| part.range(jb).start).collect();
        BlockMatrix {
            columns,
            stacks,
            n: part.n(),
            col_starts,
            panel_copies: AtomicUsize::new(0),
        }
    }

    /// Assembles the block storage of `a` (already permuted into
    /// factorization order) under the given block structure: [`Self::zeros`]
    /// with the entries of `a` scattered into place.
    pub fn assemble(a: &CscMatrix, bs: &BlockStructure) -> Self {
        let mut bm = Self::zeros(bs);
        bm.scatter(a, bs);
        bm
    }

    /// Stores every entry of `a` (in factorization order) at its place.
    fn scatter(&mut self, a: &CscMatrix, bs: &BlockStructure) {
        assert_eq!(a.ncols(), self.n, "matrix and structure disagree");
        let part = &bs.partition;
        let block_of = part.block_of_cols();
        for (i, j, v) in a.triplets() {
            let (ib, jb) = (block_of[i], block_of[j]);
            let li = i - part.range(ib).start;
            let lj = j - part.range(jb).start;
            let col = self.columns[jb].get_mut();
            let mut blk = col
                .block_mut(ib)
                .expect("entry outside the filled block structure");
            blk[(li, lj)] = v;
        }
    }

    /// Zeroes every stored value and empties the pivot sequences **in
    /// place** — every allocation (U blocks, panels, pivot swap vectors) is
    /// retained, so a rescatter + refactorization on top allocates nothing.
    /// After the reset, factored columns hold `Some` *empty* pivots rather
    /// than `None`; the factor task treats both as "not factored" and
    /// recycles the swap storage.
    pub fn reset_values(&mut self) {
        for col in &mut self.columns {
            let col = col.get_mut();
            if let Some(p) = col.pivots.as_mut() {
                p.clear();
            }
            for blk in &mut col.ublocks {
                blk.data_mut().fill(0.0);
            }
            col.panel.data_mut().fill(0.0);
        }
        self.panel_copies.store(0, Ordering::Relaxed);
    }

    /// Resets the storage to hold the values of `a` again (zero everything,
    /// rescatter, forget pivots) — for repeated factorizations with the same
    /// structure without reallocating.
    pub fn reset_from(&mut self, a: &CscMatrix, bs: &BlockStructure) {
        self.reset_values();
        self.scatter(a, bs);
    }

    /// Matrix order (scalar).
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of block columns.
    pub fn num_block_cols(&self) -> usize {
        self.columns.len()
    }

    /// The lock guarding block column `j`.
    pub fn column(&self, j: usize) -> &RwLock<ColumnData> {
        &self.columns[j]
    }

    /// Exclusive access to column `j` without locking (requires `&mut`).
    pub fn column_mut(&mut self, j: usize) -> &mut ColumnData {
        self.columns[j].get_mut()
    }

    /// The stacked-panel map of block column `k`.
    pub fn stack(&self, k: usize) -> &StackMap {
        &self.stacks[k]
    }

    /// Global (factorization-order) scalar column index of the first column
    /// of block column `k` — the offset that maps a panel-local column to
    /// its global index, so every caller reports breakdown positions in the
    /// same coordinate system.
    pub fn global_col_start(&self, k: usize) -> usize {
        self.col_starts[k]
    }

    /// The matrix 1-norm `‖A‖₁` (maximum absolute column sum) of the stored
    /// values. Meaningful on the *assembled* values, before factoring — the
    /// perturbation magnitude `eps·‖A‖₁` of GESP-style static pivoting is
    /// computed from it.
    pub fn one_norm(&self) -> f64 {
        let mut norm = 0.0f64;
        for col in &self.columns {
            let col = col.read();
            for lj in 0..col.width() {
                let mut sum: f64 = col.panel.col(lj).iter().map(|x| x.abs()).sum();
                for blk in &col.ublocks {
                    sum += blk.col(lj).iter().map(|x| x.abs()).sum::<f64>();
                }
                norm = norm.max(sum);
            }
        }
        norm
    }

    /// Largest absolute stored value (`max |a_ij|` on the assembled values;
    /// `max |l/u_ij|` after factoring) — the two ends of the element-growth
    /// estimate.
    pub fn max_abs(&self) -> f64 {
        self.columns
            .iter()
            .map(|c| {
                let c = c.read();
                let u = c.ublocks.iter().fold(0.0f64, |m, b| m.max(b.max_abs()));
                u.max(c.panel.max_abs())
            })
            .fold(0.0f64, f64::max)
    }

    /// Records one panel gather or scatter copy. The panel-major layout
    /// makes `Factor(k)` pivot in place, so the factorization never calls
    /// this; any future code path that reintroduces a panel copy must, and
    /// the regression test on [`Self::panel_copy_count`] will catch it.
    pub fn record_panel_copy(&self) {
        self.panel_copies.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of panel gather/scatter copies since assembly (zero for the
    /// whole factor + solve pipeline).
    pub fn panel_copy_count(&self) -> usize {
        self.panel_copies.load(Ordering::Relaxed)
    }

    /// Total dense storage in f64 words (explicit zeros included).
    pub fn storage_words(&self) -> usize {
        self.columns
            .iter()
            .map(|c| {
                let c = c.read();
                let u: usize = c.ublocks.iter().map(|b| b.nrows() * b.ncols()).sum();
                u + c.panel.nrows() * c.panel.ncols()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splu_symbolic::fixtures::fig1_matrix;
    use splu_symbolic::static_fact::static_symbolic_factorization;
    use splu_symbolic::supernode::supernode_partition;
    use splu_symbolic::Partition;

    fn fig1_setup() -> (CscMatrix, BlockStructure) {
        let a = fig1_matrix();
        let f = static_symbolic_factorization(a.pattern()).unwrap();
        let part = supernode_partition(&f);
        (a, BlockStructure::new(&f, part))
    }

    #[test]
    fn assemble_places_every_entry() {
        let (a, bs) = fig1_setup();
        let bm = BlockMatrix::assemble(&a, &bs);
        let block_of = bs.partition.block_of_cols();
        for (i, j, v) in a.triplets() {
            let (ib, jb) = (block_of[i], block_of[j]);
            let col = bm.column(jb).read();
            let blk = col.block(ib).expect("block exists");
            let li = i - bs.partition.range(ib).start;
            let lj = j - bs.partition.range(jb).start;
            assert_eq!(blk[(li, lj)], v, "entry ({i},{j})");
        }
    }

    #[test]
    fn stack_map_locates_positions() {
        let (a, bs) = fig1_setup();
        let bm = BlockMatrix::assemble(&a, &bs);
        for k in 0..bm.num_block_cols() {
            let st = bm.stack(k);
            let mut pos = 0usize;
            for (t, &ib) in st.l_rows.iter().enumerate() {
                assert_eq!(st.find_row(ib), Some(t));
                for local in 0..bs.partition.width(ib) {
                    assert_eq!(st.locate(pos), (ib, local), "column {k}, t {t}");
                    pos += 1;
                }
            }
            assert_eq!(pos, st.height());
            assert_eq!(st.l_rows[0], k, "diagonal block leads the stack");
        }
    }

    /// The L-region of a column is one contiguous panel whose row ranges
    /// alias the per-block views — the zero-copy invariant.
    #[test]
    fn l_blocks_alias_the_panel() {
        let (a, bs) = fig1_setup();
        let bm = BlockMatrix::assemble(&a, &bs);
        for k in 0..bm.num_block_cols() {
            let st = bm.stack(k);
            let col = bm.column(k).read();
            assert_eq!(col.panel.nrows(), st.height(), "column {k}");
            assert_eq!(col.l_offsets, st.offsets, "column {k}");
            for (t, &ib) in st.l_rows.iter().enumerate() {
                let via_block = col.block(ib).expect("L block exists");
                let via_range = col.panel.row_range(st.offsets[t]..st.offsets[t + 1]);
                assert_eq!(via_block.nrows(), via_range.nrows());
                for jj in 0..col.width() {
                    for r in 0..via_block.nrows() {
                        assert!(
                            std::ptr::eq(&via_block[(r, jj)], &via_range[(r, jj)]),
                            "block view copies instead of aliasing (col {k}, row {ib})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn singleton_partition_gives_scalar_blocks() {
        let a = fig1_matrix();
        let f = static_symbolic_factorization(a.pattern()).unwrap();
        let bs = BlockStructure::new(&f, Partition::singletons(7));
        let bm = BlockMatrix::assemble(&a, &bs);
        assert_eq!(bm.num_block_cols(), 7);
        assert_eq!(bm.n(), 7);
        // Storage equals the filled nnz exactly for 1x1 blocks.
        assert_eq!(bm.storage_words(), f.nnz_filled());
    }

    #[test]
    fn cross_region_row_swaps_move_whole_rows() {
        let (a, bs) = fig1_setup();
        let bm = BlockMatrix::assemble(&a, &bs);
        // Find a column with both a U-region and an L-region block.
        for j in 0..bm.num_block_cols() {
            let mut col = bm.column(j).write();
            if col.u_count() == 0 {
                continue;
            }
            let ib_u = col.block_rows[0];
            let ib_l = col.block_rows[col.u_count()];
            let before_u: Vec<f64> = (0..col.width())
                .map(|jj| col.block(ib_u).unwrap()[(0, jj)])
                .collect();
            let before_l: Vec<f64> = (0..col.width())
                .map(|jj| col.block(ib_l).unwrap()[(0, jj)])
                .collect();
            col.swap_scalar_rows((ib_u, 0), (ib_l, 0));
            for jj in 0..col.width() {
                assert_eq!(col.block(ib_u).unwrap()[(0, jj)], before_l[jj]);
                assert_eq!(col.block(ib_l).unwrap()[(0, jj)], before_u[jj]);
            }
            return;
        }
        panic!("fixture has no column with both regions");
    }

    #[test]
    fn global_col_start_and_norms_match_dense_reference() {
        let (a, bs) = fig1_setup();
        let bm = BlockMatrix::assemble(&a, &bs);
        for k in 0..bm.num_block_cols() {
            assert_eq!(bm.global_col_start(k), bs.partition.range(k).start);
        }
        let n = a.ncols();
        let mut dense = vec![0.0f64; n * n];
        for (i, j, v) in a.triplets() {
            dense[j * n + i] = v;
        }
        let one = (0..n)
            .map(|j| {
                dense[j * n..(j + 1) * n]
                    .iter()
                    .map(|x| x.abs())
                    .sum::<f64>()
            })
            .fold(0.0f64, f64::max);
        let mx = dense.iter().fold(0.0f64, |m, &x| m.max(x.abs()));
        assert_eq!(bm.one_norm(), one);
        assert_eq!(bm.max_abs(), mx);
    }

    #[test]
    fn panel_copy_counter_starts_at_zero_and_records() {
        let (a, bs) = fig1_setup();
        let mut bm = BlockMatrix::assemble(&a, &bs);
        assert_eq!(bm.panel_copy_count(), 0);
        bm.record_panel_copy();
        assert_eq!(bm.panel_copy_count(), 1);
        bm.reset_from(&a, &bs);
        assert_eq!(bm.panel_copy_count(), 0, "reset clears the counter");
    }
}
