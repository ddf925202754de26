//! Compact supernodal storage of the filled matrix `Ā` (S\*'s layout).
//!
//! Under the L/U supernode partition every supernode `K` stores
//!
//! * **dense subrows of `L̄`**: one column-major panel of
//!   `(w_K + |R_K|) × w_K` — the diagonal block on top, then one full-width
//!   row per entry of the sorted row list `R_K`
//!   ([`BlockStructure::l_rows`]). `Factor(K)` runs the panel LU **in
//!   place** on it;
//! * **dense subcolumns of `Ū`**: for every block column `J` its row
//!   reaches, one `w_K × |S_KJ|` block holding only the columns
//!   `S_KJ = C_K ∩ J` of the sorted column list `C_K`
//!   ([`BlockStructure::u_cols`]).
//!
//! Storage is grouped per block **column**, because the paper's 1D mapping
//! makes the block column the unit of ownership: `Factor(J)` and every
//! `Update(·, J)` write only column `J`, so column `J` owns its panel and
//! the blocks `Ū(K, J)` of all its sources `K`, behind one lock.
//!
//! `Update(K, J)` multiplies the whole sub-diagonal panel of `K` by
//! `Ū(K, J)` into a scratch matrix and adds that into column `J` through
//! **relative index maps** — for each stored row of `K` where it lives in
//! column `J`, for each stored column of `K` where it lives in the rows
//! below. The maps depend on the structure only; [`Layout`] builds them
//! once, by merging the sorted lists, and every factorization of the
//! pattern shares them. They exist because the lists **nest**: a row
//! `r ∈ R_K` is a pivot candidate of `K`'s last column, so the static
//! symbolic factorization gave it every column of `C_K` (DESIGN.md §5.5).
//!
//! **One buffer per block column.** Column `J` lives in one `Vec<f64>`
//! ([`ColumnData`]): the panel first, then every `Ū(K, J)` in ascending
//! source `K`, each column-major at an offset the [`Layout`] keeps. A task
//! takes disjoint views of it with `split_at_mut`, so a session holds one
//! allocation per block column however many blocks the column has. The
//! buffer is allocated and receives `A`'s values in the one pass that
//! locates them, column by column. The pivots of every column are one flat
//! `u32` array of length `n` beside the buffers (DESIGN.md §5.5).
//!
//! **The value slot.** Where an input nonzero lands is one `u32`: its
//! offset inside its block column's buffer; the block column follows from
//! the entry's column. The slots depend on the pattern only
//! ([`Layout::slots`]): a held analysis keeps one per nonzero beside its
//! layout, and every session on it fills its storage through them with
//! plain indexed stores.

use parking_lot::RwLock;
use splu_dense::{MatMut, MatRef};
use splu_sched::Task;
use splu_sparse::{CscMatrix, CscRef, SparsityPattern};
use splu_symbolic::supernode::BlockStructure;
use std::cell::RefCell;
use std::mem::size_of;
use std::ops::Range;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

thread_local! {
    /// The calling thread's scratch matrix for update products
    /// ([`BlockMatrix::with_scratch`]).
    static SCRATCH: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// Bytes the calling thread's scratch for update products holds: grown to
/// the largest `|R_K| · |S_KJ|` product of any storage a factorization on
/// this thread ran on, and never shrunk while the thread lives. A daemon
/// lane charges it to its budget.
pub fn thread_scratch_bytes() -> u64 {
    SCRATCH.with(|cell| (cell.borrow().capacity() * size_of::<f64>()) as u64)
}

/// The values of one block column.
#[derive(Debug)]
pub struct ColumnData {
    /// The `L̄` panel (`height × width`: the diagonal block on top, then the
    /// rows `R_J`), then one `w_K × |S_KJ|` block `Ū(K, J)` per source `K`
    /// in ascending `K` (the order of [`BlockMatrix::sources`]), all
    /// column-major.
    data: Vec<f64>,
    width: u32,
    height: u32,
}

impl ColumnData {
    /// Width of the block column.
    #[inline]
    pub fn width(&self) -> usize {
        self.width as usize
    }

    /// Rows of the panel: the width plus `|R_J|`.
    #[inline]
    pub(crate) fn height(&self) -> usize {
        self.height as usize
    }

    /// The column's buffer: the panel, then its `Ū` blocks
    /// ([`BlockMatrix::ublocks`]).
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    fn panel_len(&self) -> usize {
        self.width() * self.height()
    }

    /// The `L̄` panel.
    pub fn panel(&self) -> MatRef<'_> {
        self.panel_rows(0..self.height())
    }

    /// Rows `r` of the panel, as a strided view.
    pub(crate) fn panel_rows(&self, r: Range<usize>) -> MatRef<'_> {
        let (w, ld) = (self.width(), self.height());
        MatRef::from_slice(&self.data[r.start..self.panel_len()], r.len(), w, ld)
    }

    pub(crate) fn panel_mut(&mut self) -> MatMut<'_> {
        let (w, ld) = (self.width(), self.height());
        MatMut::from_slice(&mut self.data[..w * ld], ld, w, ld)
    }

    /// `Ū(K, J)` for the update `u = (K, J)` into this column.
    pub(crate) fn ublock(&self, lay: &Layout, u: &UpdateMap) -> MatRef<'_> {
        let w_k = lay.width(u.src());
        MatRef::from_slice(&self.data[u.span(w_k)], w_k, u.ncols(), w_k)
    }

    pub(crate) fn ublock_mut(&mut self, lay: &Layout, u: &UpdateMap) -> MatMut<'_> {
        ublock_in(lay, &mut self.data, 0, u)
    }
}

/// `Ū(K, J)` of the update `u` inside `data`, which starts at offset `base`
/// of column `J`'s buffer.
fn ublock_in<'a>(lay: &Layout, data: &'a mut [f64], base: usize, u: &UpdateMap) -> MatMut<'a> {
    let w_k = lay.width(u.src());
    let span = u.span(w_k);
    let data = &mut data[span.start - base..span.end - base];
    MatMut::from_slice(data, w_k, u.ncols(), w_k)
}

fn idx32(x: usize) -> u32 {
    u32::try_from(x).expect("block storage index exceeds u32")
}

/// The rows of `R_K` that fall into one block row `I > K`.
#[derive(Debug, Clone)]
struct LBlock {
    /// The block row `I`.
    block: u32,
    /// Positions `t` of `R_K` inside `I`.
    rows: Range<u32>,
    /// First position of `C_K` beyond `I`.
    c0: u32,
    /// `rel[crel + (q − c0)]` is the column of `C_K[q]` inside the block
    /// `Ū(I, J)` of the block column `J` that holds it.
    crel: u32,
}

/// Everything `Update(K, J)` needs to know about where its operands live.
#[derive(Debug, Clone)]
pub(crate) struct UpdateMap {
    /// Source supernode `K`.
    src: u32,
    /// Offset of `Ū(K, J)` in column `J`'s buffer.
    off: u32,
    /// Positions of `S_KJ` inside `C_K`.
    cols: Range<u32>,
    /// `R_K[..t_diag]` lies above block row `J`, `R_K[t_diag..t_below]`
    /// inside it, `R_K[t_below..]` below it.
    t_diag: u32,
    t_below: u32,
    /// `targets[targets + b]` is the index, in the layout's updates, of
    /// `Update(I, J)` for the `b`-th `L̄` block `I` of `K` — one per block
    /// above block row `J`; its block `Ū(I, J)` receives those rows.
    targets: u32,
    /// `rel[row_rel + (t − t_below)]` is the panel row of `R_K[t]` in `J`.
    row_rel: u32,
}

impl UpdateMap {
    /// The source supernode `K`.
    pub(crate) fn src(&self) -> usize {
        self.src as usize
    }

    /// `|S_KJ|`.
    pub(crate) fn ncols(&self) -> usize {
        self.cols.len()
    }

    /// Where `Ū(K, J)` lies in column `J`'s buffer, `w_k` being `K`'s
    /// width.
    fn span(&self, w_k: usize) -> Range<usize> {
        let off = self.off as usize;
        off..off + w_k * self.ncols()
    }
}

/// The structure-only half of the storage: the offsets and the relative
/// index maps, shared (read-only, lock-free, behind an `Arc`) by every
/// task, every factorization and every session of one analysis. The
/// structure itself — partition, `R_K`, `C_K` — is the analysis', shared
/// and not copied: a stored row or column
/// is found inside its block as its global index less the block's start,
/// and the block is known wherever one is read.
#[derive(Debug)]
pub(crate) struct Layout {
    bs: Arc<BlockStructure>,
    /// `K`'s `L̄` blocks below the diagonal, ascending, one per entry of
    /// `l_blocks.col(K)[1..]`: `lblks[l_blocks.col_ptr()[K] − K..]`.
    lblks: Vec<LBlock>,
    /// Column `J`'s updates, in ascending source:
    /// `upds[upd_ptr[J]..upd_ptr[J + 1]]`.
    upd_ptr: Vec<u32>,
    upds: Vec<UpdateMap>,
    targets: Vec<u32>,
    /// Backing store of the relative maps.
    rel: Vec<u32>,
    /// Largest `|R_K| · |S_KJ|` over all updates.
    scratch_len: usize,
    /// Laid out from the in-block structure ([`in_block_flags`]): every
    /// `Factor(K)` on this storage must take its pivots from `K`'s diagonal
    /// block, and fails the run with [`crate::LuError::PivotHistoryDiverged`]
    /// when one comes from below it (the wire).
    in_block: bool,
}

/// The position in `sup` of every entry of `sub`. Both ascend, and
/// `sub ⊆ sup` is the nesting the layout leans on.
fn positions<'a>(sub: &'a [u32], sup: &'a [u32]) -> impl Iterator<Item = usize> + 'a {
    let mut p = 0usize;
    sub.iter().map(move |&x| {
        while p < sup.len() && sup[p] < x {
            p += 1;
        }
        assert!(
            p < sup.len() && sup[p] == x,
            "row/column lists do not nest: the partition is not made of eforest chains"
        );
        p
    })
}

/// How many entries of the ascending `list` lie below `end`.
fn count_below(list: &[u32], end: usize) -> usize {
    list.partition_point(|&x| (x as usize) < end)
}

/// Bytes of a vector's elements.
fn vec_bytes<T>(v: &[T]) -> usize {
    std::mem::size_of_val(v)
}

impl Layout {
    /// The layout of the storage of `bs`, wired when `in_block` says `bs`
    /// is the in-block structure ([`in_block_flags`]): a `Factor(K)` on it
    /// that takes a pivot from below `K`'s diagonal block fails the run
    /// with [`crate::LuError::PivotHistoryDiverged`]: such a pivot may fill
    /// what the storage leaves out.
    pub(crate) fn new(bs: Arc<BlockStructure>, in_block: bool) -> Self {
        let part = &bs.partition;
        let nb = part.num_blocks();
        let starts = part.starts();
        let block_of = part.block_of_cols();
        // The relative maps hold, per L̄ block I of K, the columns of C_K
        // beyond I, and per update (K, J) the rows of R_K beyond J; per
        // update, one target per L̄ block of K above J.
        let beyond = |list: &[u32], blocks: &[u32]| -> usize {
            (blocks.iter())
                .map(|&b| list.len() - count_below(list, starts[b as usize + 1]))
                .sum()
        };
        let (mut rel_len, mut targets_len) = (0, 0);
        for k in 0..nb {
            let (ls, us) = (&bs.l_blocks.col(k)[1..], &bs.u_blocks.col(k)[1..]);
            rel_len += beyond(bs.u_cols.col(k), ls) + beyond(bs.l_rows.col(k), us);
            targets_len += us
                .iter()
                .map(|&j| ls.partition_point(|&b| b < j))
                .sum::<usize>();
        }
        let mut rel: Vec<u32> = Vec::with_capacity(rel_len);

        // Per supernode K: the block rows its rows fall into, and the
        // column maps into the rows below.
        let mut lblks: Vec<LBlock> = Vec::with_capacity(bs.l_blocks.nnz() - nb);
        for k in 0..nb {
            let first = lblks.len();
            for (t, &r) in bs.l_rows.col(k).iter().enumerate() {
                let i = block_of[r as usize];
                if lblks.len() == first || lblks[lblks.len() - 1].block as usize != i {
                    lblks.push(LBlock {
                        block: idx32(i),
                        rows: idx32(t)..idx32(t),
                        c0: 0,
                        crel: 0,
                    });
                }
                let at = lblks.len() - 1;
                lblks[at].rows.end = idx32(t + 1);
            }
            let ck = bs.u_cols.col(k);
            let mut c0 = 0usize;
            for lb in &mut lblks[first..] {
                let i = lb.block as usize;
                while c0 < ck.len() && (ck[c0] as usize) < starts[i + 1] {
                    c0 += 1;
                }
                lb.c0 = idx32(c0);
                lb.crel = idx32(rel.len());
                rel.extend(positions(&ck[c0..], bs.u_cols.col(i)).map(idx32));
            }
            debug_assert_eq!(lblks.len(), bs.l_blocks.col_ptr()[k + 1] - k - 1);
        }

        // Per block column J: its sources, ascending, then J itself.
        let sources = bs.u_blocks.transpose();
        let upd_ptr: Vec<u32> = (sources.col_ptr().iter().enumerate())
            .map(|(j, &p)| idx32(p - j))
            .collect();

        // Per update (K, J), visited by ascending J so that the cursors into
        // C_K and R_K only move forward.
        let mut ccur = vec![0usize; nb];
        let mut tcur = vec![0usize; nb];
        // The block column each supernode's last update went into, and that
        // update's index.
        let mut upd_of = vec![(usize::MAX, 0u32); nb];
        let mut upds: Vec<UpdateMap> = Vec::with_capacity(upd_ptr[nb] as usize);
        let mut targets: Vec<u32> = Vec::with_capacity(targets_len);
        let mut scratch_len = 0usize;
        for j in 0..nb {
            let (start_j, end_j) = (starts[j], starts[j + 1]);
            let w_j = end_j - start_j;
            let into_j = upd_ptr[j] as usize..upd_ptr[j + 1] as usize;
            // The Ū blocks follow the panel in the column's buffer.
            let mut off = w_j * (w_j + bs.l_rows.col(j).len());
            for &k in &sources.col(j)[..into_j.len()] {
                let k = k as usize;
                upd_of[k] = (j, idx32(upds.len()));
                let (ck, rk) = (bs.u_cols.col(k), bs.l_rows.col(k));
                let a = ccur[k];
                let mut b = a;
                while b < ck.len() && (ck[b] as usize) < end_j {
                    b += 1;
                }
                debug_assert!(b > a && ck[a] as usize >= start_j);
                ccur[k] = b;
                let mut t = tcur[k];
                while t < rk.len() && (rk[t] as usize) < start_j {
                    t += 1;
                }
                let t_diag = t;
                while t < rk.len() && (rk[t] as usize) < end_j {
                    t += 1;
                }
                tcur[k] = t;
                let row_rel = rel.len();
                rel.extend(positions(&rk[t..], bs.l_rows.col(j)).map(idx32));
                for p in &mut rel[row_rel..] {
                    *p += idx32(w_j);
                }
                scratch_len = scratch_len.max(rk.len() * (b - a));
                upds.push(UpdateMap {
                    src: idx32(k),
                    off: idx32(off),
                    cols: idx32(a)..idx32(b),
                    t_diag: idx32(t_diag),
                    t_below: idx32(t),
                    targets: 0,
                    row_rel: idx32(row_rel),
                });
                off += (starts[k + 1] - starts[k]) * (b - a);
            }
            // Second pass, now that the first fixed where S_IJ starts in C_I
            // for every source I of J: name the updates (I, J) whose blocks
            // the rows of K above block row J add into, and make K's column
            // map into each relative to that block.
            for at in into_j {
                upds[at].targets = idx32(targets.len());
                let (k, cols) = (upds[at].src as usize, upds[at].cols.clone());
                let lbs =
                    &lblks[bs.l_blocks.col_ptr()[k] - k..bs.l_blocks.col_ptr()[k + 1] - k - 1];
                let above = lbs.partition_point(|lb| lb.rows.start < upds[at].t_diag);
                for lb in &lbs[..above] {
                    let (col, ui) = upd_of[lb.block as usize];
                    assert_eq!(
                        col, j,
                        "row/column lists do not nest: the partition is not made of eforest chains"
                    );
                    let seg = upds[ui as usize].cols.start;
                    let first = (lb.crel + cols.start - lb.c0) as usize;
                    for p in &mut rel[first..first + cols.len()] {
                        *p -= seg;
                    }
                    targets.push(ui);
                }
            }
        }
        debug_assert_eq!((rel.len(), targets.len()), (rel_len, targets_len));
        Layout {
            bs,
            lblks,
            upd_ptr,
            upds,
            targets,
            rel,
            scratch_len,
            in_block,
        }
    }

    /// The structure the storage is laid out on.
    pub(crate) fn structure(&self) -> &BlockStructure {
        &self.bs
    }

    fn num_blocks(&self) -> usize {
        self.bs.num_blocks()
    }

    /// Partition boundaries (`N + 1`).
    fn starts(&self) -> &[usize] {
        self.bs.partition.starts()
    }

    pub(crate) fn width(&self, k: usize) -> usize {
        self.bs.partition.width(k)
    }

    /// `R_K`: the global rows of `K`'s panel below its diagonal block.
    fn rows(&self, k: usize) -> &[u32] {
        self.bs.l_rows.col(k)
    }

    /// `|R_K|`.
    pub(crate) fn rows_below(&self, k: usize) -> usize {
        self.rows(k).len()
    }

    /// `K`'s `L̄` blocks below the diagonal, ascending.
    fn lblks(&self, k: usize) -> &[LBlock] {
        let ptr = self.bs.l_blocks.col_ptr();
        &self.lblks[ptr[k] - k..ptr[k + 1] - k - 1]
    }

    /// Length of column `j`'s buffer: its panel and its `Ū` blocks.
    fn column_len(&self, j: usize) -> usize {
        match self.updates(j).last() {
            Some(u) => u.span(self.width(u.src())).end,
            None => self.width(j) * (self.width(j) + self.rows_below(j)),
        }
    }

    /// Id of the first task of block column `j` in the left-looking order
    /// ([`BlockMatrix::tasks`]): every column before it holds one
    /// `Update` per stored source and its `Factor`.
    pub(crate) fn task_start(&self, j: usize) -> usize {
        self.upd_ptr[j] as usize + j
    }

    /// The updates into column `j`, in ascending source.
    pub(crate) fn updates(&self, j: usize) -> &[UpdateMap] {
        &self.upds[self.upd_ptr[j] as usize..self.upd_ptr[j + 1] as usize]
    }

    /// The columns `S_KJ` of `Ū(K, J)`, as global columns: column `c` lies
    /// at `c − starts[J]` of block column `J`.
    pub(crate) fn cols(&self, u: &UpdateMap) -> &[u32] {
        &self.bs.u_cols.col(u.src())[u.cols.start as usize..u.cols.end as usize]
    }

    /// Where `R_K[t]` lives in column `j` for the update `u = (K, j)`, and
    /// which columns there correspond to `S_Kj`. A row at or above block
    /// row `j` lies in the `L̄` block of `K` whose range holds `t` (binary
    /// search: this runs on an interchange only).
    fn row_dest(&self, j: usize, u: &UpdateMap, t: usize) -> RowDest<'_> {
        let (k, starts) = (u.src(), self.starts());
        let lbs = self.lblks(k);
        let b = lbs.partition_point(|lb| lb.rows.end as usize <= t);
        let row = match t.checked_sub(u.t_below as usize) {
            Some(below) => self.rel[u.row_rel as usize + below] as usize,
            None => self.rows(k)[t] as usize - starts[lbs[b].block as usize],
        };
        if t >= u.t_diag as usize {
            let (cols, base) = (self.cols(u), starts[j]);
            return RowDest::Panel { row, cols, base };
        }
        let first = (lbs[b].crel + u.cols.start - lbs[b].c0) as usize;
        RowDest::Above {
            block: &self.upds[self.targets[u.targets as usize + b] as usize],
            row,
            cols: &self.rel[first..first + u.cols.len()],
        }
    }

    /// Where each entry of `pattern` lands — its offset in its block
    /// column's buffer, in storage order — its rows `new_row` and its
    /// columns `old_col` relating to factorization order as in
    /// [`BlockMatrix::assembled`]: the locating pass, once per pattern.
    pub(crate) fn slots(
        &self,
        pattern: &SparsityPattern,
        new_row: impl Fn(usize) -> usize,
        old_col: impl Fn(usize) -> usize,
    ) -> Vec<u32> {
        let mut slots = vec![0; pattern.nnz()];
        let mut loc = Locator::new(self, pattern, new_row, old_col);
        for j in 0..self.num_blocks() {
            loc.column(self, j, |e, at| slots[e] = idx32(at));
        }
        slots
    }

    /// Stores `a`'s value `e` at `slots[e]` of `data`, block column `j`'s
    /// buffer, for the entries of its columns, factorization column `c`
    /// being `a`'s column `old_col(c)`: plain indexed stores.
    fn store_column(
        &self,
        j: usize,
        data: &mut [f64],
        a: CscRef<'_>,
        old_col: impl Fn(usize) -> usize,
        slots: &[u32],
    ) {
        let ptr = a.pattern().col_ptr();
        for c in self.bs.partition.range(j).map(old_col) {
            let entries = ptr[c]..ptr[c + 1];
            for (&at, &v) in slots[entries.clone()].iter().zip(&a.values()[entries]) {
                data[at as usize] = v;
            }
        }
    }

    /// Bytes the layout owns — its arrays, and itself, as it is held
    /// behind an `Arc`; the structure it shares is its holder's.
    pub(crate) fn bytes(&self) -> u64 {
        (size_of::<Layout>()
            + vec_bytes(&self.lblks)
            + vec_bytes(&self.upd_ptr)
            + vec_bytes(&self.upds)
            + vec_bytes(&self.targets)
            + vec_bytes(&self.rel)) as u64
    }
}

/// Finds where the entries of an input land, one block column at a time:
/// each block column stamps where its rows live, then looks its entries up
/// — linear in the entries plus the stored rows. The entries' rows
/// `new_row` maps into factorization order, and factorization column `j`
/// is the input's column `old_col(j)`.
struct Locator<'a, R, C> {
    pattern: &'a SparsityPattern,
    new_row: R,
    old_col: C,
    /// Per row: (the block column that stamped it, the index of its update
    /// among that column's or `IN_PANEL`, the row inside that storage).
    place: Vec<(usize, u32, u32)>,
    /// Per update into the current column: the position in `S_KJ` its
    /// entries reached.
    cursor: Vec<usize>,
}

const IN_PANEL: u32 = u32::MAX;

impl<'a, R: Fn(usize) -> usize, C: Fn(usize) -> usize> Locator<'a, R, C> {
    fn new(lay: &Layout, pattern: &'a SparsityPattern, new_row: R, old_col: C) -> Self {
        let n = lay.bs.partition.n();
        assert_eq!(pattern.ncols(), n, "matrix and structure disagree");
        Locator {
            pattern,
            new_row,
            old_col,
            place: vec![(usize::MAX, 0, 0); n],
            cursor: Vec::with_capacity(
                (0..lay.num_blocks())
                    .map(|j| lay.updates(j).len())
                    .max()
                    .unwrap_or(0),
            ),
        }
    }

    /// Calls `visit(e, at)` for every entry of block column `j`: entry
    /// number `e` of the pattern (in storage order) lands at offset `at` of
    /// the column's buffer.
    fn column(&mut self, lay: &Layout, j: usize, mut visit: impl FnMut(usize, usize)) {
        let place = &mut self.place;
        let (start, w) = (lay.starts()[j], lay.width(j));
        for r in 0..w {
            place[start + r] = (j, IN_PANEL, idx32(r));
        }
        for (t, &r) in lay.rows(j).iter().enumerate() {
            place[r as usize] = (j, IN_PANEL, idx32(w + t));
        }
        let into_j = lay.updates(j);
        for (q, u) in into_j.iter().enumerate() {
            let k = u.src();
            for r in 0..lay.width(k) {
                place[lay.starts()[k] + r] = (j, idx32(q), idx32(r));
            }
        }
        self.cursor.clear();
        self.cursor.resize(into_j.len(), 0);
        let ld = w + lay.rows_below(j);
        for lj in 0..w {
            let col = (self.old_col)(start + lj);
            let first = self.pattern.col_ptr()[col];
            for (e, &i) in self.pattern.col(col).iter().enumerate() {
                let (stamp, q, row) = place[(self.new_row)(i as usize)];
                assert_eq!(stamp, j, "entry outside the filled block structure");
                let at = if q == IN_PANEL {
                    lj * ld + row as usize
                } else {
                    // Columns are visited in ascending order, so the cursor
                    // into S_KJ only moves forward.
                    let u = &into_j[q as usize];
                    let cols = lay.cols(u);
                    let x = &mut self.cursor[q as usize];
                    while *x < cols.len() && (cols[*x] as usize) < start + lj {
                        *x += 1;
                    }
                    assert!(
                        *x < cols.len() && cols[*x] as usize == start + lj,
                        "entry outside the filled block structure"
                    );
                    u.off as usize + *x * lay.width(u.src()) + row as usize
                };
                visit(first + e, at);
            }
        }
    }
}

/// The flags [`in_block_flags`] starts from, one per entry of `bs.l_rows` /
/// `bs.u_cols`: an entry of `pattern` (whose rows `new_row` and columns
/// `old_col` relate to factorization order as in [`BlockMatrix::assembled`])
/// below its diagonal block is a live row of `R_J`, one right of it a live
/// column of `C_I`; and the first row of `R_K` and column of `C_K` are live
/// wherever `bs` has both — the edge of the block eforest, which the solves
/// and the task graph of `bs` keep using.
pub(crate) fn seed_flags(
    bs: &BlockStructure,
    pattern: &SparsityPattern,
    new_row: impl Fn(usize) -> usize,
    old_col: impl Fn(usize) -> usize,
) -> (Vec<bool>, Vec<bool>) {
    let (rows, cols) = (&bs.l_rows, &bs.u_cols);
    let (rp, cp, starts) = (rows.col_ptr(), cols.col_ptr(), bs.partition.starts());
    let block_of = bs.partition.block_of_cols();
    let (mut row_live, mut col_live) = (vec![false; rows.nnz()], vec![false; cols.nnz()]);
    // Per block column J, where each row of R_J sits; per block row I, a
    // cursor into C_I that ascending columns only move forward.
    let mut at = vec![usize::MAX; bs.partition.n()];
    let mut cursor = cp[..bs.num_blocks()].to_vec();
    for jb in 0..bs.num_blocks() {
        if rp[jb] < rp[jb + 1] && cp[jb] < cp[jb + 1] {
            row_live[rp[jb]] = true;
            col_live[cp[jb]] = true;
        }
        for p in rp[jb]..rp[jb + 1] {
            at[rows.row_indices()[p] as usize] = p;
        }
        for j in starts[jb]..starts[jb + 1] {
            for &i in pattern.col(old_col(j)) {
                let i = new_row(i as usize);
                let flag = if i >= starts[jb + 1] {
                    let p = at[i];
                    let held = (rp[jb]..rp[jb + 1]).contains(&p);
                    assert!(held, "entry outside the filled block structure");
                    &mut row_live[p]
                } else if i < starts[jb] {
                    let ib = block_of[i];
                    let c = &mut cursor[ib];
                    *c += count_below(&cols.row_indices()[*c..cp[ib + 1]], j);
                    let held = *c < cp[ib + 1] && cols.row_indices()[*c] as usize == j;
                    assert!(held, "entry outside the filled block structure");
                    &mut col_live[*c]
                } else {
                    continue;
                };
                *flag = true;
            }
        }
    }
    (row_live, col_live)
}

/// The **in-block structure**: what can become nonzero when every column's
/// pivot comes from its own supernode's diagonal block (the identity among
/// such pivot sequences) — an interchange inside the block row moves two
/// rows that store the same columns, so they all fill the same words. As
/// flags for [`realised_structure`], read off `bs`'s lists and the seeds of
/// the input ([`seed_flags`]) without building storage or index maps: the
/// boolean replay of the factorization at the granularity the storage has
/// (a row of `R_K`, a column of `C_K`), run right-looking over the lists
/// (the test module keeps the left-looking replay over the static maps as
/// its reference). Once the supernodes before `K` are visited, `K`'s flags
/// are final, and its updates make the live columns of `C_K` beyond every
/// block row `I` that a live row of `R_K` lies in live in `C_I` (they write
/// `Ū(I, J)` there), and the live rows of `R_K` beyond every block column
/// `J` that a live column of `C_K` lies in live in `R_J` (they write `J`'s
/// panel there).
pub(crate) fn in_block_flags(
    bs: &BlockStructure,
    (mut row_live, mut col_live): (Vec<bool>, Vec<bool>),
) -> (Vec<bool>, Vec<bool>) {
    let (rows, cols, starts) = (&bs.l_rows, &bs.u_cols, bs.partition.starts());
    let block_of = bs.partition.block_of_cols();
    // For every block B an entry of `by` lies in, the entries of `what`
    // beyond B are live in `lists.col(B)`, which holds them all.
    let spread = |by: &[u32], what: &[u32], lists: &SparsityPattern, live: &mut [bool]| {
        let (mut t, mut w) = (0, 0);
        while t < by.len() {
            let b = block_of[by[t] as usize];
            t += count_below(&by[t..], starts[b + 1]);
            w += count_below(&what[w..], starts[b + 1]);
            for p in positions(&what[w..], lists.col(b)) {
                live[lists.col_ptr()[b] + p] = true;
            }
        }
    };
    let live = |lists: &SparsityPattern, k: usize, flags: &[bool], out: &mut Vec<u32>| {
        let on = &flags[lists.col_ptr()[k]..];
        out.clear();
        out.extend(lists.col(k).iter().zip(on).filter(|x| *x.1).map(|x| *x.0));
    };
    let longest = |lists: &SparsityPattern| (0..bs.num_blocks()).map(|k| lists.col(k).len()).max();
    let (mut live_rows, mut live_cols) = (
        Vec::with_capacity(longest(rows).unwrap_or(0)),
        Vec::with_capacity(longest(cols).unwrap_or(0)),
    );
    for k in 0..bs.num_blocks() {
        live(rows, k, &row_live, &mut live_rows);
        live(cols, k, &col_live, &mut live_cols);
        spread(&live_rows, &live_cols, cols, &mut col_live);
        spread(&live_cols, &live_rows, rows, &mut row_live);
    }
    (row_live, col_live)
}

/// The sub-structure of `bs` that keeps the rows of `R_K` and the columns of
/// `C_K` flagged in `row_live` / `col_live` (one flag per list entry, as
/// [`in_block_flags`] returns them).
pub(crate) fn realised_structure(
    bs: &BlockStructure,
    row_live: &[bool],
    col_live: &[bool],
) -> BlockStructure {
    let nb = bs.num_blocks();
    let kept = |lists: &SparsityPattern, live: &[bool]| {
        let mut ptr = Vec::with_capacity(nb + 1);
        // Sized exactly: the session keeps these lists.
        let mut idx = Vec::with_capacity(live.iter().filter(|&&l| l).count());
        for k in 0..nb {
            ptr.push(idx.len());
            let at = lists.col_ptr()[k];
            let live = &live[at..at + lists.col(k).len()];
            idx.extend(lists.col(k).iter().zip(live).filter(|x| *x.1).map(|x| *x.0));
        }
        ptr.push(idx.len());
        SparsityPattern::from_sorted_parts(lists.nrows(), nb, ptr, idx)
    };
    BlockStructure::from_lists(
        bs.partition.clone(),
        kept(&bs.l_rows, row_live),
        kept(&bs.u_cols, col_live),
    )
}

/// Where a stored row of the source lives in the destination column of an
/// update.
enum RowDest<'a> {
    /// In the block `Ū(I, J)` of the update `block`, at `row`; `S_KJ[x]`
    /// is its column `cols[x]`.
    Above {
        block: &'a UpdateMap,
        row: usize,
        cols: &'a [u32],
    },
    /// In the panel, at `row`; `S_KJ[x]` is its column `cols[x] − base`.
    Panel {
        row: usize,
        cols: &'a [u32],
        base: usize,
    },
}

impl ColumnData {
    /// Replays one interchange of `Factor(K)` on this column, block column
    /// `j`, under the update `u = (K, j)`: row `c` of the diagonal block of
    /// `K` against panel position `p > c` of `K`, over the columns `S_Kj`.
    ///
    /// The partner row stores a superset of `S_KJ`; whatever it stores
    /// outside `S_KJ` is still exactly zero when `K` is eliminated (its
    /// structure at that step is inside `Ū_{K*}`), so nothing is lost —
    /// debug-asserted.
    pub(crate) fn swap_rows(&mut self, lay: &Layout, j: usize, u: &UpdateMap, c: usize, p: usize) {
        let w_k = lay.width(u.src());
        if p < w_k {
            self.ublock_mut(lay, u).swap_rows(c, p);
            return;
        }
        match lay.row_dest(j, u, p - w_k) {
            RowDest::Above { block, row, cols } => {
                // Ū(I, J) follows Ū(K, J) in the buffer: I > K.
                let (head, tail) = self.data.split_at_mut(block.off as usize);
                let theirs = ublock_in(lay, tail, block.off as usize, block);
                swap_into(ublock_in(lay, head, 0, u), c, theirs, row, cols, 0);
            }
            RowDest::Panel { row, cols, base } => {
                let (w, ld) = (self.width(), self.height());
                let (panel, rest) = self.data.split_at_mut(w * ld);
                let theirs = MatMut::from_slice(panel, ld, w, ld);
                swap_into(ublock_in(lay, rest, w * ld, u), c, theirs, row, cols, base);
            }
        }
    }

    /// Adds the scratch product `T = −L̄_below(K)·Ū(K, j)` into this
    /// column, block column `j`; `t` holds one row per position of `R_K`
    /// and one column per column of `S_Kj`.
    pub(crate) fn scatter_add(&mut self, lay: &Layout, j: usize, u: &UpdateMap, t: MatRef<'_>) {
        let (k, starts) = (u.src(), lay.starts());
        let rows = lay.rows(k);
        let end = t.nrows();
        let (t_diag, t_below) = (u.t_diag as usize, u.t_below as usize);
        // Rows above block row j: one Ū(I, j) block per L̄ block I of K, in
        // order, each row at its global index less I's start.
        let mut at = 0;
        for (b, lb) in lay.lblks(k).iter().enumerate() {
            if at >= end.min(t_diag) {
                break;
            }
            let seg = at..end.min(lb.rows.end as usize);
            let block = &lay.upds[lay.targets[u.targets as usize + b] as usize];
            let cmap = &lay.rel[(lb.crel + u.cols.start - lb.c0) as usize..];
            let dst = self.ublock_mut(lay, block);
            let top = starts[lb.block as usize];
            add_rows(dst, (cmap, 0), (&rows[seg.clone()], top), t, seg.start);
            at = seg.end;
        }
        // Rows inside block row j land in the diagonal block at their global
        // rows less j's start, rows below it in the panel rows of R_j.
        let (cols, start) = (lay.cols(u), starts[j]);
        let diag = t_diag.min(end)..t_below.min(end);
        if !diag.is_empty() {
            let rmap = (&rows[diag.clone()], start);
            add_rows(self.panel_mut(), (cols, start), rmap, t, diag.start);
        }
        if t_below < end {
            let rmap = &lay.rel[u.row_rel as usize..][..end - t_below];
            add_rows(self.panel_mut(), (cols, start), (rmap, 0), t, t_below);
        }
    }
}

/// `dst[rmap[i] − rbase, cmap[x] − cbase] += t[t_first + i, x]` for every
/// column `x` of `t` and every `i`: the maps name rows and columns of `dst`
/// relative to the bases.
fn add_rows(
    mut dst: MatMut<'_>,
    (cmap, cbase): (&[u32], usize),
    (rmap, rbase): (&[u32], usize),
    t: MatRef<'_>,
    t_first: usize,
) {
    let rbase = rbase as u32;
    for x in 0..t.ncols() {
        let src = &t.col(x)[t_first..t_first + rmap.len()];
        let dcol = dst.col_mut(cmap[x] as usize - cbase);
        for (&r, &v) in rmap.iter().zip(src) {
            dcol[(r - rbase) as usize] += v;
        }
    }
}

/// Exchanges row `c` of `mine` (all its columns) with row `row` of `theirs`
/// at the (ascending) columns `cols`, less `base`. Debug builds check that
/// `theirs` holds zeros in that row everywhere else.
fn swap_into(
    mut mine: MatMut<'_>,
    c: usize,
    mut theirs: MatMut<'_>,
    row: usize,
    cols: &[u32],
    base: usize,
) {
    if cfg!(debug_assertions) {
        let mut keep = cols.iter().peekable();
        for dc in 0..theirs.ncols() {
            if keep.next_if(|&&k| k as usize - base == dc).is_none() {
                assert_eq!(
                    theirs[(row, dc)],
                    0.0,
                    "pivot interchange would lose a nonzero at row {row}, column {dc}"
                );
            }
        }
    }
    for (x, &dc) in cols.iter().enumerate() {
        std::mem::swap(&mut mine[(c, x)], &mut theirs[(row, dc as usize - base)]);
    }
}

/// The first pivot slot of a block column that is not factored.
const UNFACTORED: u32 = u32::MAX;

/// The block matrix: per-column values behind `RwLock`s (readers: updates
/// sourcing the column; writer: the column's own factor/update tasks),
/// over a shared `Layout` (the index maps), and the pivots.
pub struct BlockMatrix {
    layout: Arc<Layout>,
    columns: Vec<RwLock<ColumnData>>,
    /// `pivots[starts[K] + c]`: the panel position step `c` of `Factor(K)`
    /// took its pivot from (`≥ c`); [`UNFACTORED`] in `K`'s first slot
    /// until `Factor(K)` succeeds. Stored relaxed by `Factor(K)` under
    /// column `K`'s write lock and loaded by readers that took its read
    /// lock since, or that run after the factorization: the lock orders
    /// them (DESIGN.md §5.5).
    pivots: Box<[AtomicU32]>,
}

impl BlockMatrix {
    /// Allocates the compact storage of `Ā` under the given block
    /// structure, zero-filled and unfactored, and builds its index maps.
    pub fn zeros(bs: &BlockStructure) -> Self {
        let layout = Layout::new(Arc::new(bs.clone()), false);
        Self::with_layout(Arc::new(layout), |_, _, _| {})
    }

    /// Assembles the block storage of `a` (already permuted into
    /// factorization order) under the given block structure: [`Self::zeros`]
    /// with the entries of `a` in place.
    pub fn assemble(a: &CscMatrix, bs: &BlockStructure) -> Self {
        let layout = Layout::new(Arc::new(bs.clone()), false);
        Self::assembled(Arc::new(layout), a.view(), |i| i, |j| j)
    }

    /// The storage laid out by `layout`, each column's buffer allocated and
    /// given the entries of `a` that land in it in one pass — the rows of
    /// `a` mapping into factorization order by `new_row`, factorization
    /// column `j` being `a`'s column `old_col(j)`.
    pub(crate) fn assembled(
        layout: Arc<Layout>,
        a: CscRef<'_>,
        new_row: impl Fn(usize) -> usize,
        old_col: impl Fn(usize) -> usize,
    ) -> Self {
        let values = a.values();
        let mut loc = Locator::new(&layout, a.pattern(), new_row, old_col);
        Self::with_layout(layout, |lay, j, data| {
            loc.column(lay, j, |e, at| data[at] = values[e]);
        })
    }

    /// The storage laid out by `layout`, each column's buffer allocated and
    /// given `a`'s values through `slots` ([`Layout::slots`] of `a`'s
    /// pattern), factorization column `j` being `a`'s column `old_col(j)`.
    pub(crate) fn through_slots(
        layout: Arc<Layout>,
        a: CscRef<'_>,
        old_col: impl Fn(usize) -> usize,
        slots: &[u32],
    ) -> Self {
        Self::with_layout(layout, |lay, j, data| {
            lay.store_column(j, data, a, &old_col, slots)
        })
    }

    /// Storage over `layout`: every column's buffer allocated zeroed and
    /// handed to `fill(layout, j, buffer)` before the next one is.
    pub(crate) fn with_layout(
        layout: Arc<Layout>,
        mut fill: impl FnMut(&Layout, usize, &mut [f64]),
    ) -> Self {
        let columns = (0..layout.num_blocks())
            .map(|j| {
                let mut data = vec![0.0; layout.column_len(j)];
                fill(&layout, j, &mut data);
                let (w, below) = (layout.width(j), layout.rows_below(j));
                RwLock::new(ColumnData {
                    data,
                    width: idx32(w),
                    height: idx32(w + below),
                })
            })
            .collect();
        let pivots = (0..layout.bs.partition.n())
            .map(|_| AtomicU32::new(UNFACTORED))
            .collect();
        BlockMatrix {
            layout,
            columns,
            pivots,
        }
    }

    /// Block column `k`'s pivot slots, one per column of the block.
    #[inline]
    pub(crate) fn pivot_slots(&self, k: usize) -> &[AtomicU32] {
        let starts = self.layout.starts();
        &self.pivots[starts[k]..starts[k + 1]]
    }

    /// Marks block column `k` not factored (after a failed `Factor(k)`).
    pub(crate) fn forget_pivots(&self, k: usize) {
        self.pivot_slots(k)[0].store(UNFACTORED, Ordering::Relaxed);
    }

    /// `true` once `Factor(k)` succeeded on the values held.
    pub fn is_factored(&self, k: usize) -> bool {
        self.pivot_slots(k)[0].load(Ordering::Relaxed) != UNFACTORED
    }

    /// The interchanges `Factor(K)` took, `cols` being `K`'s (global)
    /// columns, in step order: `(c, p)` for each step `c` whose pivot came
    /// from panel position `p ≠ c`. Panics when `K` is not factored. The
    /// caller names the columns from the structure it holds: a sweep over
    /// narrow supernodes pays for every load on the way to them.
    pub(crate) fn interchanges(
        &self,
        cols: Range<usize>,
    ) -> impl DoubleEndedIterator<Item = (usize, usize)> + '_ {
        let slots = &self.pivots[cols];
        let factored = slots[0].load(Ordering::Relaxed) != UNFACTORED;
        assert!(factored, "block column is not factored");
        (slots.iter().enumerate())
            .map(|(c, p)| (c, p.load(Ordering::Relaxed) as usize))
            .filter(|&(c, p)| c != p)
    }

    /// The pivot history of a completed factorization: the global
    /// (factorization-order) row every column's pivot came from, which is
    /// the column itself where no interchange was taken. Comparable across
    /// storages of one partition, whatever rows each stores.
    pub fn pivot_rows(&self) -> Vec<usize> {
        let bs = &*self.layout.bs;
        let mut rows = Vec::with_capacity(self.n());
        for k in 0..self.num_block_cols() {
            assert!(self.is_factored(k), "a completed factorization");
            let slots = self.pivot_slots(k).iter();
            rows.extend(slots.map(|p| bs.panel_row(k, p.load(Ordering::Relaxed) as usize)));
        }
        rows
    }

    /// The first difference between two factored storages of one
    /// partition, as a message — `None` when they hold the same factors:
    /// the same pivots as global rows and, bit for bit, the same word at
    /// every global position both store, with exact zeros wherever only
    /// one of them stores a word (the in-block storage leaves out what its
    /// pivots never fill). Diagnostics and tests.
    pub fn factor_difference(&self, other: &BlockMatrix) -> Option<String> {
        let (mine, theirs) = (self.pivot_rows(), other.pivot_rows());
        if let Some(c) = (0..mine.len().max(theirs.len())).find(|&c| mine.get(c) != theirs.get(c)) {
            return Some(format!("pivot of column {c} differs"));
        }
        let mut words = std::collections::HashMap::new();
        self.for_each_entry(|i, j, v| {
            words.insert((i, j), v);
        });
        let mut first = None;
        other.for_each_entry(|i, j, v| {
            let same = match words.remove(&(i, j)) {
                Some(w) => w.to_bits() == v.to_bits(),
                None => v == 0.0,
            };
            if !same {
                first.get_or_insert(format!("word ({i},{j}) differs"));
            }
        });
        first.or_else(|| {
            (words.into_iter().find(|&(_, v)| v != 0.0))
                .map(|((i, j), _)| format!("word ({i},{j}) is stored on one side only"))
        })
    }

    /// The wire: on wired storage ([`Layout::new`]), the first (global)
    /// column of block column `k`, just factored, whose pivot came from
    /// below `k`'s diagonal block, if any; `None` on any other storage.
    pub(crate) fn pivot_left_block(&self, k: usize) -> Option<usize> {
        let lay = &self.layout;
        if !lay.in_block {
            return None;
        }
        let below = |(_, p): &(usize, usize)| *p >= lay.width(k);
        let cols = lay.bs.partition.range(k);
        (self.interchanges(cols.clone()).find(below)).map(|(c, _)| cols.start + c)
    }

    /// Stores every entry of `a` at its place, its rows `new_row` and its
    /// columns `old_col` relating to factorization order as in
    /// [`Self::assembled`]: the locating pass, no slot is kept.
    pub(crate) fn scatter(
        &mut self,
        a: CscRef<'_>,
        new_row: impl Fn(usize) -> usize,
        old_col: impl Fn(usize) -> usize,
    ) {
        let values = a.values();
        let mut loc = Locator::new(&self.layout, a.pattern(), new_row, old_col);
        for (j, col) in self.columns.iter_mut().enumerate() {
            let data = &mut col.get_mut().data;
            loc.column(&self.layout, j, |e, at| data[at] = values[e]);
        }
    }

    /// Stores `a`'s value `e` at `slots[e]` of its column's buffer,
    /// factorization column `j` being `a`'s column `old_col(j)`: plain
    /// indexed stores, no allocation.
    pub(crate) fn store_values(
        &mut self,
        a: CscRef<'_>,
        old_col: impl Fn(usize) -> usize,
        slots: &[u32],
    ) {
        debug_assert_eq!(slots.len(), a.values().len());
        for (j, col) in self.columns.iter_mut().enumerate() {
            let data = &mut col.get_mut().data;
            self.layout.store_column(j, data, a, &old_col, slots);
        }
    }

    /// Zeroes every stored value and marks every column not factored **in
    /// place** — every allocation is retained, so a rescatter +
    /// refactorization on top allocates nothing.
    pub fn reset_values(&mut self) {
        for (k, col) in self.columns.iter_mut().enumerate() {
            col.get_mut().data.fill(0.0);
            self.pivots[self.layout.starts()[k]] = AtomicU32::new(UNFACTORED);
        }
    }

    /// Resets the storage to hold the values of `a` again (zero everything,
    /// rescatter, forget pivots) — for repeated factorizations with the same
    /// structure without reallocating.
    pub fn reset_from(&mut self, a: &CscMatrix, bs: &BlockStructure) {
        assert_eq!(
            bs.partition.starts(),
            self.layout.starts(),
            "storage was built for another structure"
        );
        self.reset_values();
        self.scatter(a.view(), |i| i, |j| j);
    }

    /// Matrix order (scalar).
    pub fn n(&self) -> usize {
        self.layout.bs.partition.n()
    }

    /// Number of block columns.
    pub fn num_block_cols(&self) -> usize {
        self.columns.len()
    }

    /// The lock guarding block column `j`.
    pub fn column(&self, j: usize) -> &RwLock<ColumnData> {
        &self.columns[j]
    }

    /// The index maps.
    pub(crate) fn layout(&self) -> &Layout {
        &self.layout
    }

    /// `true` when the two storages read one layout: the storages of two
    /// sessions on one analysis do.
    pub fn shares_layout(&self, other: &BlockMatrix) -> bool {
        Arc::ptr_eq(&self.layout, &other.layout)
    }

    /// The sources of block column `j` in ascending order — the `q`-th
    /// block of [`Self::ublocks`] is `Ū(K, j)` for the `q`-th pair
    /// `(K, S_Kj)` — each with the (global) columns of `j` its block stores.
    pub fn sources(&self, j: usize) -> impl Iterator<Item = (usize, &[u32])> + '_ {
        let lay = &self.layout;
        lay.updates(j).iter().map(move |u| (u.src(), lay.cols(u)))
    }

    /// The blocks `Ū(K, j)` of `col`, block column `j`, in ascending
    /// source: each with its source `K` and the (global) columns of `j` it
    /// stores (`w_K × |S_Kj|`, column-major).
    pub fn ublocks<'a>(
        &'a self,
        j: usize,
        col: &'a ColumnData,
    ) -> impl Iterator<Item = (usize, &'a [u32], MatRef<'a>)> + 'a {
        let lay = &self.layout;
        (lay.updates(j).iter()).map(move |u| (u.src(), lay.cols(u), col.ublock(lay, u)))
    }

    /// The tasks this storage is factored by, in the **left-looking
    /// order**: for each block column `j` ascending, `Update(k, j)` for its
    /// stored sources `k` ascending, then `Factor(j)` — the order
    /// [`crate::factor_left_looking`] runs them, a topological order of
    /// both task graphs. A task's position here is its id in the reports,
    /// traces and panics of a numeric run. The in-block storage holds fewer
    /// updates than the static structure's graph names: the blocks its
    /// pivots never fill are no tasks.
    pub fn tasks(&self) -> impl Iterator<Item = Task> + '_ {
        let lay = &self.layout;
        (0..self.num_block_cols()).flat_map(move |j| {
            (lay.updates(j).iter())
                .map(move |u| Task::Update {
                    src: u.src(),
                    dst: j,
                })
                .chain(std::iter::once(Task::Factor(j)))
        })
    }

    /// Number of [`Self::tasks`].
    pub fn num_tasks(&self) -> usize {
        self.layout.task_start(self.num_block_cols())
    }

    /// Global (factorization-order) scalar column index of the first column
    /// of block column `k` — the offset that maps a panel-local column to
    /// its global index, so every caller reports breakdown positions in the
    /// same coordinate system.
    pub fn global_col_start(&self, k: usize) -> usize {
        self.layout.starts()[k]
    }

    /// Runs `f` on `len` words of the calling thread's scratch matrix for
    /// update products. The scratch belongs to the thread, not to the
    /// matrix — workers share nothing and take no lock for it — and is
    /// grown once to the largest product any update of this structure
    /// forms (`max |R_K| · |S_KJ|`), so later factorizations on the thread
    /// allocate nothing.
    pub(crate) fn with_scratch<R>(&self, len: usize, f: impl FnOnce(&mut [f64]) -> R) -> R {
        SCRATCH.with(|cell| {
            let mut buf = cell.borrow_mut();
            if buf.len() < self.layout.scratch_len {
                // A zeroed allocation, not `resize`: pages no product
                // reaches are never touched.
                *buf = vec![0.0; self.layout.scratch_len];
            }
            f(&mut buf[..len])
        })
    }

    /// Calls `visit(i, j, v)` for every stored word, with its global
    /// (factorization-order) position — diagnostics, norms and tests; the
    /// kernels never go through here.
    pub fn for_each_entry(&self, mut visit: impl FnMut(usize, usize, f64)) {
        let lay = &self.layout;
        for (j, col) in self.columns.iter().enumerate() {
            let col = col.read();
            let (start, w) = (lay.starts()[j], lay.width(j));
            for (src, cols, blk) in self.ublocks(j, &col) {
                let top = lay.starts()[src];
                for (x, &c) in cols.iter().enumerate() {
                    for (r, &v) in blk.col(x).iter().enumerate() {
                        visit(top + r, c as usize, v);
                    }
                }
            }
            let panel = col.panel();
            for lj in 0..w {
                let pcol = panel.col(lj);
                for (r, &v) in pcol[..w].iter().enumerate() {
                    visit(start + r, start + lj, v);
                }
                for (&r, &v) in lay.rows(j).iter().zip(&pcol[w..]) {
                    visit(r as usize, start + lj, v);
                }
            }
        }
    }

    /// The matrix 1-norm `‖A‖₁` (maximum absolute column sum) of the stored
    /// values. Meaningful on the *assembled* values, before factoring — the
    /// perturbation magnitude `eps·‖A‖₁` of GESP-style static pivoting is
    /// computed from it.
    pub fn one_norm(&self) -> f64 {
        let mut sums = vec![0.0f64; self.n()];
        self.for_each_entry(|_, j, v| sums[j] += v.abs());
        sums.into_iter().fold(0.0, f64::max)
    }

    /// Largest absolute stored value (`max |a_ij|` on the assembled values;
    /// `max |l/u_ij|` after factoring) — the two ends of the element-growth
    /// estimate.
    pub fn max_abs(&self) -> f64 {
        (self.columns.iter())
            .map(|c| c.read().data.iter().fold(0.0f64, |m, &x| m.max(x.abs())))
            .fold(0.0f64, f64::max)
    }

    /// Total dense storage in f64 words: `Σ_K w_K · (w_K + |R_K| + |C_K|)`
    /// ([`BlockStructure::storage_words`]), explicit zeros of amalgamated
    /// supernodes included.
    pub fn storage_words(&self) -> usize {
        self.columns.iter().map(|c| c.read().data.len()).sum()
    }

    /// Bytes the storage holds: the column buffers, the pivots and the
    /// column table — from the lengths of the arrays. The layout it shares
    /// is the analysis' to count. [`factor_bytes`] of its structure,
    /// exactly.
    pub(crate) fn resident_bytes(&self) -> u64 {
        let words = self.storage_words() * size_of::<f64>();
        let table = vec_bytes(&self.columns);
        (words + vec_bytes(&self.pivots) + table) as u64
    }
}

/// What the storage of `bs` holds ([`BlockMatrix::resident_bytes`]), from
/// the structure alone: its words, one `u32` pivot per column and one
/// column-table entry per block column.
pub(crate) fn factor_bytes(bs: &BlockStructure) -> u64 {
    let words = bs.storage_words() * size_of::<f64>();
    let table = bs.num_blocks() * size_of::<RwLock<ColumnData>>();
    (words + bs.partition.n() * size_of::<AtomicU32>() + table) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use splu_symbolic::fixtures::fig1_matrix;
    use splu_symbolic::static_fact::{static_symbolic_factorization, FilledLu};
    use splu_symbolic::supernode::{amalgamate, supernode_partition, SupernodeOptions};
    use splu_symbolic::Partition;

    fn fig1_setup() -> (CscMatrix, BlockStructure) {
        let a = fig1_matrix();
        let f = static_symbolic_factorization(a.pattern()).unwrap();
        let part = supernode_partition(&f);
        (a, BlockStructure::new(&f, part))
    }

    /// `Ā` with the value `i·n + j + 1` at every structural position.
    fn labelled(f: &FilledLu) -> CscMatrix {
        let n = f.n();
        let trips: Vec<(usize, usize, f64)> = f
            .filled_pattern()
            .entries()
            .map(|(i, j)| (i, j, (i * n + j + 1) as f64))
            .collect();
        CscMatrix::from_triplets(n, n, &trips).unwrap()
    }

    #[test]
    fn assemble_places_every_entry() {
        let (a, bs) = fig1_setup();
        let bm = BlockMatrix::assemble(&a, &bs);
        let mut stored = 0usize;
        bm.for_each_entry(|i, j, v| {
            assert_eq!(v, a.get(i, j), "entry ({i},{j})");
            stored += 1;
        });
        assert_eq!(stored, bm.storage_words());
        assert_eq!(stored, bs.storage_words());
    }

    /// The relative maps name the right words: with every structural
    /// position labelled by its coordinates, each row of each update's
    /// scatter lands on the labels of its own row and of the columns
    /// `S_KJ` — in the `Ū` blocks above, the diagonal block and the rows
    /// below alike.
    #[test]
    fn update_maps_reach_the_rows_and_columns_they_name() {
        use splu_matgen::random_pattern;
        let mut rows_checked = [0usize; 2];
        for seed in 0..12u64 {
            let p = random_pattern(24 + 2 * seed as usize, 80, seed);
            let f = static_symbolic_factorization(&p).unwrap();
            let n = f.n();
            let bs = BlockStructure::new(&f, supernode_partition(&f));
            let bm = BlockMatrix::assemble(&labelled(&f), &bs);
            let lay = bm.layout();
            for j in 0..bs.num_blocks() {
                let col = bm.column(j).read();
                let start_j = bs.partition.range(j).start;
                for u in lay.updates(j) {
                    let k = u.src as usize;
                    let s_kj = lay.cols(u);
                    assert!(s_kj
                        .iter()
                        .all(|&c| bs.partition.range(j).contains(&(c as usize))));
                    for (t, &r) in bs.l_rows.col(k).iter().enumerate() {
                        for (x, &c) in s_kj.iter().enumerate() {
                            let c = c as usize;
                            let got = match lay.row_dest(j, u, t) {
                                RowDest::Above { block, row, cols } => {
                                    rows_checked[0] += 1;
                                    col.ublock(lay, block)[(row, cols[x] as usize)]
                                }
                                RowDest::Panel { row, cols, base } => {
                                    rows_checked[1] += 1;
                                    assert_eq!(base, start_j);
                                    col.panel()[(row, cols[x] as usize - base)]
                                }
                            };
                            let r = r as usize;
                            assert_eq!(got, (r * n + c + 1) as f64, "U({k},{j}) row {r} col {c}");
                        }
                    }
                }
            }
        }
        assert!(rows_checked.iter().all(|&c| c > 100), "{rows_checked:?}");
    }

    /// A stored row or column is found inside its block as its global index
    /// less the block's start: on random patterns, the `L̄` blocks tile `R_K`
    /// in order, and `row_dest` and `cols` give the block and the local
    /// index the column → block map gives.
    #[test]
    fn derived_local_rows_and_columns_are_the_encoded_ones() {
        for seed in 0..12u64 {
            let p = splu_matgen::random_pattern(24 + 2 * seed as usize, 80, seed);
            let f = static_symbolic_factorization(&p).unwrap();
            let bs = BlockStructure::new(&f, supernode_partition(&f));
            let (starts, block_of) = (bs.partition.starts(), bs.partition.block_of_cols());
            let local = |x: u32| x as usize - starts[block_of[x as usize]];
            let bm = BlockMatrix::zeros(&bs);
            let lay = bm.layout();
            for k in 0..bs.num_blocks() {
                let tiles = lay
                    .lblks(k)
                    .iter()
                    .flat_map(|lb| lb.rows.clone().map(|_| lb.block));
                let owners = bs
                    .l_rows
                    .col(k)
                    .iter()
                    .map(|&r| block_of[r as usize] as u32);
                assert!(tiles.eq(owners), "L̄ blocks of {k}");
            }
            for j in 0..bs.num_blocks() {
                for u in lay.updates(j) {
                    let k = u.src();
                    assert!(lay.cols(u).iter().all(|&c| block_of[c as usize] == j));
                    for (t, &r) in bs.l_rows.col(k).iter().enumerate().take(u.t_below as usize) {
                        let (block, row) = match lay.row_dest(j, u, t) {
                            RowDest::Above { block, row, .. } => (block.src(), row),
                            RowDest::Panel { row, .. } => (j, row),
                        };
                        let want = (block_of[r as usize], local(r));
                        assert_eq!((block, row), want, "row {r} of ({k}, {j})");
                    }
                }
            }
        }
    }

    #[test]
    fn storage_is_the_structure_plus_amalgamation_padding() {
        let a = fig1_matrix();
        let f = static_symbolic_factorization(a.pattern()).unwrap();
        let exact = supernode_partition(&f);
        for part in [exact.clone(), Partition::singletons(7)] {
            let bm = BlockMatrix::assemble(&a, &BlockStructure::new(&f, part));
            assert_eq!(bm.storage_words(), f.nnz_filled());
        }
        let loose = SupernodeOptions {
            max_width: 7,
            rel_fill: 0.9,
        };
        let bs = BlockStructure::new(&f, amalgamate(&f, &exact, &loose));
        let bm = BlockMatrix::assemble(&a, &bs);
        assert_eq!(bm.storage_words(), bs.storage_words());
        assert!(bm.storage_words() >= f.nnz_filled());
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
    #[should_panic(expected = "do not nest")]
    fn a_partition_that_is_not_made_of_chains_is_refused() {
        // Columns 0 and 1 are unrelated; row 2 is a candidate of column 0
        // only, so it does not store column 3, which row 1 reaches.
        let p = SparsityPattern::from_entries(
            4,
            4,
            [
                (0, 0),
                (1, 1),
                (2, 2),
                (3, 3),
                (2, 0),
                (0, 2),
                (1, 3),
                (3, 1),
            ],
        )
        .unwrap();
        let f = static_symbolic_factorization(&p).unwrap();
        let bs = BlockStructure::new(&f, Partition::from_starts(vec![0, 2, 3, 4]));
        BlockMatrix::zeros(&bs);
    }

    /// The reference for [`in_block_flags`]: the boolean replay of the
    /// identity pivot history over the maps of the static storage, in the
    /// left-looking order, in which the flags of `R_K` and of `S_KJ` are
    /// final when `Update(K, J)` is replayed. Every live row of `K` times
    /// every live column of `Ū(K, J)` marks its destination: per `L̄` block
    /// of `K` above `J` the mapped columns of `Ū(I, J)`, below `J` the
    /// mapped rows of `R_J`. (A pivot from below `K`'s block would first
    /// unite the flags of the two rows it exchanges; one inside the block
    /// exchanges rows that store the same columns, so every in-block
    /// history replays as the identity.)
    fn identity_replay(
        lay: &Layout,
        (mut row_live, mut col_live): (Vec<bool>, Vec<bool>),
    ) -> (Vec<bool>, Vec<bool>) {
        let mut live_x: Vec<usize> = Vec::new();
        for j in 0..lay.num_blocks() {
            let (w_j, into_j) = (lay.width(j), lay.updates(j));
            let (row_ptr, col_ptr) = (lay.bs.l_rows.col_ptr(), lay.bs.u_cols.col_ptr());
            for u in into_j {
                let k = u.src as usize;
                let ck = col_ptr[k] + u.cols.start as usize;
                live_x.clear();
                live_x.extend((0..u.cols.len()).filter(|&x| col_live[ck + x]));
                if live_x.is_empty() {
                    continue;
                }
                let rk = row_ptr[k];
                let above = (lay.lblks(k).iter()).take_while(|lb| lb.rows.start < u.t_diag);
                for (b, lb) in above.enumerate() {
                    let rows = rk + lb.rows.start as usize..rk + lb.rows.end as usize;
                    if !row_live[rows].contains(&true) {
                        continue;
                    }
                    let ui = &lay.upds[lay.targets[u.targets as usize + b] as usize];
                    let ci = col_ptr[ui.src as usize] + ui.cols.start as usize;
                    let cmap = &lay.rel[(lb.crel + u.cols.start - lb.c0) as usize..];
                    for &x in &live_x {
                        col_live[ci + cmap[x] as usize] = true;
                    }
                }
                // Rows inside block row J land in its diagonal block, which
                // is stored whole; rows below it in the rows of R_J.
                let rel = &lay.rel[u.row_rel as usize..];
                for t in u.t_below as usize..lay.rows_below(k) {
                    if row_live[rk + t] {
                        let row = rel[t - u.t_below as usize] as usize;
                        row_live[row_ptr[j] + row - w_j] = true;
                    }
                }
            }
        }
        (row_live, col_live)
    }

    /// Analyzes `pattern` under `opts` and holds [`in_block_flags`] to the
    /// replay; `true` when the in-block structure leaves something out.
    fn in_block_is_the_replay(pattern: &SparsityPattern, opts: &crate::Options) -> bool {
        let sym = crate::analyze(pattern, opts).unwrap();
        let (bs, rows, cols) = (&sym.block_structure, &sym.row_perm, &sym.col_perm);
        let seeds = seed_flags(bs, pattern, |i| rows.new_of(i), |j| cols.old_of(j));
        let want = identity_replay(&Layout::new(Arc::clone(bs), false), seeds.clone());
        let got = in_block_flags(bs, seeds);
        assert!(got == want, "the in-block flags are not the replay's");
        got.0.contains(&false) || got.1.contains(&false)
    }

    /// On the suite — reduced in a debug build; full-scale plus the
    /// benchmark's 40×40 mesh in a release build — the right-looking merge
    /// over the lists derives the replay's flags, and they leave words out.
    #[test]
    fn in_block_flags_are_the_identity_replay_on_the_suite() {
        use splu_matgen::{fem2d_unsymmetric, paper_suite, Scale};
        let scale = if cfg!(debug_assertions) {
            Scale::Reduced
        } else {
            Scale::Full
        };
        let mut cases: Vec<_> = paper_suite(scale)
            .into_iter()
            .map(|m| (m.name, m.a))
            .collect();
        if scale == Scale::Full {
            cases.push(("mesh40x40", fem2d_unsymmetric(40, 40, 2, 1)));
        }
        for (name, a) in &cases {
            let leaves_out = in_block_is_the_replay(a.pattern(), &crate::Options::default());
            assert!(leaves_out, "{name}");
        }
    }

    /// The in-block structure a session derives keeps every row below a
    /// diagonal block: its `R_K` is the static `R_K` for every `K` (only
    /// `C_K` shrinks). The transposed sweep relies on it: its
    /// `L̄_belowᵀ · x_{R_K}` dots put a term in the lane of its position in
    /// `R_K` (`Fused::dot`), so the held and the static storage give one
    /// solution bit for bit only while both list the same rows.
    fn rows_below_are_the_static_ones(pattern: &SparsityPattern, opts: &crate::Options) {
        let sym = crate::analyze(pattern, opts).unwrap();
        let s = crate::SluSession::analyze(pattern, opts).unwrap();
        assert!(s.is_realised());
        let held = &s.symbolic().block_structure;
        assert_eq!(held.partition, sym.block_structure.partition);
        assert_eq!(held.l_rows, sym.block_structure.l_rows, "R_K differs");
    }

    /// On the suite (reduced in a debug build, full-scale plus the
    /// benchmark's 40×40 mesh in a release build) and on the pivoting
    /// generators, as given, without postorder and without amalgamation.
    #[test]
    fn in_block_structure_keeps_every_row_below_on_the_suite() {
        use splu_matgen::{
            cross_block_pivots, fem2d_unsymmetric, in_block_pivots, paper_suite, Scale,
        };
        let scale = if cfg!(debug_assertions) {
            Scale::Reduced
        } else {
            Scale::Full
        };
        let mut cases: Vec<CscMatrix> = paper_suite(scale).into_iter().map(|m| m.a).collect();
        if scale == Scale::Full {
            cases.push(fem2d_unsymmetric(40, 40, 2, 1));
        }
        for seed in 0..4 {
            cases.push(cross_block_pivots(60, seed));
            cases.push(in_block_pivots(6, 5, seed));
        }
        let variants = [
            crate::Options::default(),
            crate::Options {
                postorder: false,
                ..crate::Options::default()
            },
            crate::Options {
                amalgamation: None,
                ..crate::Options::default()
            },
        ];
        for a in &cases {
            for opts in &variants {
                rows_below_are_the_static_ones(a.pattern(), opts);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The same on random patterns, postordered or not, with
        /// amalgamation on or off.
        #[test]
        fn in_block_structure_keeps_every_row_below_on_random_patterns(
            n in 8usize..80,
            extra in 1usize..5,
            seed in 0u64..100_000,
            postorder in 0usize..2,
            amalgamation in 0usize..2,
        ) {
            let opts = crate::Options {
                postorder: postorder == 1,
                amalgamation: (amalgamation == 1).then(SupernodeOptions::default),
                ..crate::Options::default()
            };
            rows_below_are_the_static_ones(&splu_matgen::random_pattern(n, extra * n, seed), &opts);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The same on random patterns, postordered or not, with
        /// amalgamation on or off.
        #[test]
        fn in_block_flags_are_the_identity_replay_on_random_patterns(
            n in 8usize..64,
            extra in 1usize..4,
            seed in 0u64..1000,
            postorder in 0usize..2,
            amalgamation in 0usize..2,
        ) {
            let opts = crate::Options {
                postorder: postorder == 1,
                amalgamation: (amalgamation == 1).then(SupernodeOptions::default),
                ..crate::Options::default()
            };
            in_block_is_the_replay(&splu_matgen::random_pattern(n, extra * n, seed), &opts);
        }
    }
}
