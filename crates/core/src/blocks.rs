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

use crate::request::RangePlan;
use parking_lot::{Mutex, RwLock};
use splu_dense::{DenseMat, MatRef, Pivots};
use splu_sched::{ExecSchedule, Task};
use splu_sparse::{CscMatrix, SparsityPattern};
use splu_symbolic::supernode::BlockStructure;
use std::cell::RefCell;
use std::ops::Range;
use std::sync::{Arc, Weak};

/// The values of one block column, plus the pivot sequence once factored.
#[derive(Debug)]
pub struct ColumnData {
    /// One `w_K × |S_KJ|` block per source `K` of this column, in ascending
    /// `K` (the order of [`BlockMatrix::sources`]).
    pub ublocks: Vec<DenseMat>,
    /// The `L̄` panel: the diagonal block on top, then the rows `R_J`.
    pub panel: DenseMat,
    /// Pivot sequence of `Factor(J)` over the panel rows; `None` until
    /// factored.
    pub pivots: Option<Pivots>,
}

impl ColumnData {
    /// Width of the block column.
    #[inline]
    pub fn width(&self) -> usize {
        self.panel.ncols()
    }
}

/// Where one nonzero of the input lands inside the block storage —
/// precomputed once per pattern so a refactorization scatters values with
/// plain indexed stores.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ValueSlot {
    /// Destination block column.
    jb: u32,
    /// Index into the column's `ublocks`, or [`IN_PANEL`].
    ublock: u32,
    /// Column-major flat index inside that dense storage.
    flat: u32,
}

const IN_PANEL: u32 = u32::MAX;

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
    /// Index of `Ū(K, J)` in column `J`'s `ublocks`.
    q: u32,
    /// Positions of `S_KJ` inside `C_K`.
    cols: Range<u32>,
    /// `R_K[..t_diag]` lies above block row `J`, `R_K[t_diag..t_below]`
    /// inside it, `R_K[t_below..]` below it.
    t_diag: u32,
    t_below: u32,
    /// `targets[targets + b]` is the index, in column `J`'s `ublocks`, of
    /// `Ū(I, J)` for the `b`-th `L̄` block `I` of `K` — one per block above
    /// block row `J`.
    targets: u32,
    /// `rel[row_rel + (t − t_below)]` is the panel row of `R_K[t]` in `J`.
    row_rel: u32,
}

impl UpdateMap {
    /// The source supernode `K`.
    pub(crate) fn src(&self) -> usize {
        self.src as usize
    }

    /// Index of `Ū(K, J)` in column `J`'s `ublocks`.
    pub(crate) fn ublock(&self) -> usize {
        self.q as usize
    }

    /// `|S_KJ|`.
    pub(crate) fn ncols(&self) -> usize {
        self.cols.len()
    }
}

/// The structure-only half of the storage: shapes and the relative index
/// maps, shared (read-only, lock-free) by every task and every
/// factorization of one pattern.
#[derive(Debug)]
pub(crate) struct Layout {
    n: usize,
    /// Partition boundaries (`N + 1`).
    starts: Vec<usize>,
    /// `R_K` occupies `row_ptr[K]..row_ptr[K + 1]` of `lrow` / `owner`.
    row_ptr: Vec<usize>,
    /// Row of `R_K[t]` inside the block row that holds it.
    lrow: Vec<u32>,
    /// Index, among `K`'s `L̄` blocks, of the block row holding `R_K[t]`.
    owner: Vec<u32>,
    /// `C_K` occupies `col_ptr[K]..col_ptr[K + 1]` of `ucol`.
    col_ptr: Vec<usize>,
    /// Column of `C_K[q]` inside the block column that holds it.
    ucol: Vec<u32>,
    /// `K`'s `L̄` blocks below the diagonal, ascending:
    /// `lblks[lblk_ptr[K]..lblk_ptr[K + 1]]`.
    lblk_ptr: Vec<usize>,
    lblks: Vec<LBlock>,
    /// Column `J`'s updates, in ascending source:
    /// `upds[upd_ptr[J]..upd_ptr[J + 1]]`.
    upd_ptr: Vec<usize>,
    upds: Vec<UpdateMap>,
    targets: Vec<u32>,
    /// Backing store of the relative maps.
    rel: Vec<u32>,
    /// Largest `|R_K| · |S_KJ|` over all updates.
    scratch_len: usize,
    /// The range plan of the last run on several threads over this layout.
    plan: Mutex<Option<KeptPlan>>,
}

/// A range plan with the schedule (of the coarse graph) and the thread
/// count it was derived for.
type KeptPlan = (Weak<ExecSchedule>, usize, Arc<RangePlan>);

/// Appends to `rel`, for every entry of `sub`, its position in `sup`. Both
/// ascend, and `sub ⊆ sup` is the nesting the layout leans on.
fn push_positions(rel: &mut Vec<u32>, sub: &[usize], sup: &[usize]) {
    let mut p = 0usize;
    for &x in sub {
        while p < sup.len() && sup[p] < x {
            p += 1;
        }
        assert!(
            p < sup.len() && sup[p] == x,
            "row/column lists do not nest: the partition is not made of eforest chains"
        );
        rel.push(idx32(p));
    }
}

impl Layout {
    fn new(bs: &BlockStructure) -> Self {
        let part = &bs.partition;
        let (n, nb) = (part.n(), part.num_blocks());
        let starts = part.starts().to_vec();
        let block_of = part.block_of_cols();
        let mut rel: Vec<u32> = Vec::new();

        // Per supernode K: where its rows and columns sit in their own
        // blocks, and the column maps into the rows below.
        let mut lrow = Vec::with_capacity(bs.l_rows.nnz());
        let mut owner = Vec::with_capacity(bs.l_rows.nnz());
        let mut ucol = Vec::with_capacity(bs.u_cols.nnz());
        let mut lblk_ptr = Vec::with_capacity(nb + 1);
        let mut lblks: Vec<LBlock> = Vec::new();
        for k in 0..nb {
            lblk_ptr.push(lblks.len());
            let first = lblks.len();
            for (t, &r) in bs.l_rows.col(k).iter().enumerate() {
                let i = block_of[r];
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
                lrow.push(idx32(r - starts[i]));
                owner.push(idx32(at - first));
            }
            let ck = bs.u_cols.col(k);
            ucol.extend(ck.iter().map(|&c| idx32(c - starts[block_of[c]])));
            let mut c0 = 0usize;
            for lb in &mut lblks[first..] {
                let i = lb.block as usize;
                while c0 < ck.len() && ck[c0] < starts[i + 1] {
                    c0 += 1;
                }
                lb.c0 = idx32(c0);
                lb.crel = idx32(rel.len());
                push_positions(&mut rel, &ck[c0..], bs.u_cols.col(i));
            }
        }
        lblk_ptr.push(lblks.len());

        // Per block column J: its sources, ascending.
        let mut upd_ptr = vec![0usize; nb + 1];
        for k in 0..nb {
            for &j in &bs.u_blocks[k][1..] {
                upd_ptr[j + 1] += 1;
            }
        }
        for j in 0..nb {
            upd_ptr[j + 1] += upd_ptr[j];
        }
        let mut srcs = vec![0usize; upd_ptr[nb]];
        let mut fill = upd_ptr.clone();
        for k in 0..nb {
            for &j in &bs.u_blocks[k][1..] {
                srcs[fill[j]] = k;
                fill[j] += 1;
            }
        }

        // Per update (K, J), visited by ascending J so that the cursors into
        // C_K and R_K only move forward.
        let (row_ptr, col_ptr) = (bs.l_rows.col_ptr(), bs.u_cols.col_ptr());
        let mut ccur = vec![0usize; nb];
        let mut tcur = vec![0usize; nb];
        let mut q_of = vec![(usize::MAX, 0u32); nb];
        let mut upds: Vec<UpdateMap> = Vec::with_capacity(srcs.len());
        let mut targets: Vec<u32> = Vec::new();
        let mut scratch_len = 0usize;
        for j in 0..nb {
            let (start_j, end_j) = (starts[j], starts[j + 1]);
            let sources = &srcs[upd_ptr[j]..upd_ptr[j + 1]];
            for (q, &k) in sources.iter().enumerate() {
                q_of[k] = (j, idx32(q));
                let (ck, rk) = (bs.u_cols.col(k), bs.l_rows.col(k));
                let a = ccur[k];
                let mut b = a;
                while b < ck.len() && ck[b] < end_j {
                    b += 1;
                }
                debug_assert!(b > a && ck[a] >= start_j);
                ccur[k] = b;
                let mut t = tcur[k];
                while t < rk.len() && rk[t] < start_j {
                    t += 1;
                }
                let t_diag = t;
                while t < rk.len() && rk[t] < end_j {
                    t += 1;
                }
                tcur[k] = t;
                let row_rel = rel.len();
                push_positions(&mut rel, &rk[t..], bs.l_rows.col(j));
                let width = idx32(end_j - start_j);
                for p in &mut rel[row_rel..] {
                    *p += width;
                }
                scratch_len = scratch_len.max(rk.len() * (b - a));
                upds.push(UpdateMap {
                    src: idx32(k),
                    q: idx32(q),
                    cols: idx32(a)..idx32(b),
                    t_diag: idx32(t_diag),
                    t_below: idx32(t),
                    targets: 0,
                    row_rel: idx32(row_rel),
                });
            }
            // Second pass, now that the first fixed where S_IJ starts in C_I
            // for every source I of J: name the blocks Ū(I, J) the rows of K
            // above block row J add into, and make K's column map into each
            // relative to that block.
            for at in upd_ptr[j]..upd_ptr[j + 1] {
                upds[at].targets = idx32(targets.len());
                let (k, cols) = (upds[at].src as usize, upds[at].cols.clone());
                let above = match upds[at].t_diag {
                    0 => 0,
                    t => owner[row_ptr[k] + t as usize - 1] as usize + 1,
                };
                for lb in &lblks[lblk_ptr[k]..][..above] {
                    let (col, q) = q_of[lb.block as usize];
                    assert_eq!(
                        col, j,
                        "row/column lists do not nest: the partition is not made of eforest chains"
                    );
                    let seg = upds[upd_ptr[j] + q as usize].cols.start;
                    let first = (lb.crel + cols.start - lb.c0) as usize;
                    for p in &mut rel[first..first + cols.len()] {
                        *p -= seg;
                    }
                    targets.push(q);
                }
            }
        }
        Layout {
            n,
            starts,
            row_ptr: row_ptr.to_vec(),
            lrow,
            owner,
            col_ptr: col_ptr.to_vec(),
            ucol,
            lblk_ptr,
            lblks,
            upd_ptr,
            upds,
            targets,
            rel,
            scratch_len,
            plan: Mutex::new(None),
        }
    }

    /// The range plan of runs under `schedule` on `threads` workers:
    /// the one kept from the last such run, or `derive`'s, kept for the
    /// next. A schedule belongs to one graph, so it names the graph.
    pub(crate) fn range_plan(
        &self,
        schedule: &Arc<ExecSchedule>,
        threads: usize,
        derive: impl FnOnce() -> RangePlan,
    ) -> Arc<RangePlan> {
        let mut kept = self.plan.lock();
        match &*kept {
            Some((s, t, plan)) if *t == threads && Weak::as_ptr(s) == Arc::as_ptr(schedule) => {
                Arc::clone(plan)
            }
            _ => {
                let plan = Arc::new(derive());
                *kept = Some((Arc::downgrade(schedule), threads, Arc::clone(&plan)));
                plan
            }
        }
    }

    fn num_blocks(&self) -> usize {
        self.starts.len() - 1
    }

    pub(crate) fn width(&self, k: usize) -> usize {
        self.starts[k + 1] - self.starts[k]
    }

    /// `|R_K|`.
    pub(crate) fn rows_below(&self, k: usize) -> usize {
        self.row_ptr[k + 1] - self.row_ptr[k]
    }

    /// Id of the first task of block column `j` in the left-looking order
    /// ([`BlockMatrix::tasks`]): every column before it holds one
    /// `Update` per stored source and its `Factor`.
    pub(crate) fn task_start(&self, j: usize) -> usize {
        self.upd_ptr[j] + j
    }

    /// The updates into column `j`, in ascending source.
    pub(crate) fn updates(&self, j: usize) -> &[UpdateMap] {
        &self.upds[self.upd_ptr[j]..self.upd_ptr[j + 1]]
    }

    /// The map of `Update(k, j)`; `None` when the structure holds no block
    /// `Ū(k, j)` — a realised structure lacks the blocks its pivot history
    /// never fills, under a task graph that still names them.
    pub(crate) fn update(&self, k: usize, j: usize) -> Option<&UpdateMap> {
        let into_j = self.updates(j);
        let at = into_j.binary_search_by_key(&k, |u| u.src as usize).ok()?;
        Some(&into_j[at])
    }

    /// The columns `S_KJ` of `Ū(K, J)`, as columns of block column `J`.
    pub(crate) fn local_cols(&self, u: &UpdateMap) -> &[u32] {
        let base = self.col_ptr[u.src as usize];
        &self.ucol[base + u.cols.start as usize..base + u.cols.end as usize]
    }

    /// Positions of `R_K` held by `K`'s `L̄` block in block row `row`.
    pub(crate) fn l_block_rows(&self, k: usize, row: usize) -> Range<usize> {
        let blocks = &self.lblks[self.lblk_ptr[k]..self.lblk_ptr[k + 1]];
        let at = blocks
            .binary_search_by_key(&row, |lb| lb.block as usize)
            .expect("Gemm(src, dst, row) requires block L̄(row, src)");
        blocks[at].rows.start as usize..blocks[at].rows.end as usize
    }

    /// Global row of every position of `R_K`, in order.
    fn global_rows(&self, k: usize) -> impl Iterator<Item = usize> + '_ {
        let w = self.width(k);
        (w..w + self.rows_below(k)).map(move |pos| self.panel_row(k, pos))
    }

    /// Global row of position `pos` of supernode `k`'s panel: its own rows
    /// first, then `R_K`.
    fn panel_row(&self, k: usize, pos: usize) -> usize {
        match pos.checked_sub(self.width(k)) {
            None => self.starts[k] + pos,
            Some(t) => {
                let at = self.row_ptr[k] + t;
                let lb = &self.lblks[self.lblk_ptr[k] + self.owner[at] as usize];
                self.starts[lb.block as usize] + self.lrow[at] as usize
            }
        }
    }

    /// Where `R_K[t]` lives in column `J` for the update `u = (K, J)`, and
    /// which columns there correspond to `S_KJ`.
    fn row_dest(&self, u: &UpdateMap, t: usize) -> RowDest<'_> {
        let k = u.src as usize;
        let at = self.row_ptr[k] + t;
        let row = self.lrow[at] as usize;
        if t < u.t_diag as usize {
            let b = self.owner[at] as usize;
            let lb = &self.lblks[self.lblk_ptr[k] + b];
            let first = (lb.crel + u.cols.start - lb.c0) as usize;
            RowDest::Above {
                q: self.targets[u.targets as usize + b] as usize,
                row,
                cols: &self.rel[first..first + u.cols.len()],
            }
        } else {
            let row = if t < u.t_below as usize {
                row
            } else {
                self.rel[u.row_rel as usize + t - u.t_below as usize] as usize
            };
            RowDest::Panel {
                row,
                cols: self.local_cols(u),
            }
        }
    }

    /// The **realised structure** of one pivot history, as one flag per
    /// entry of `bs.l_rows` and one per entry of `bs.u_cols` (`bs` is the
    /// structure this layout was built from; [`realised_structure`] turns
    /// the flags into lists): what can become nonzero when the input's
    /// entries are those at `slots` and every `Factor(K)` takes the
    /// interchanges `history` records (the global pivot row of every
    /// column). A boolean replay of the factorization at the granularity
    /// the storage has — a row of `R_K`, a column of `C_K` — visiting the
    /// updates as the left-looking order does, so that the flags of `R_K`
    /// and of `S_KJ` are final when `Update(K, J)` is replayed:
    ///
    /// 1. `K`'s interchanges with rows outside its own block row unite the
    ///    flags of `Ū(K, J)`'s columns with those of the partner row's
    ///    storage in column `J`, both ways;
    /// 2. every live row of `K` times every live column of `Ū(K, J)` marks
    ///    its destination.
    ///
    /// Step 2 marks a full cross product, so the lists nest as
    /// [`Layout::new`] needs them to. The first row of `R_K` and the first
    /// column of `C_K` are kept wherever `bs` has both — they are the edge
    /// of the block eforest, which the solves and the task graph of `bs`
    /// keep using — and are seeded as live, so the nesting holds for them
    /// too.
    pub(crate) fn realised_flags(
        &self,
        bs: &BlockStructure,
        slots: &[ValueSlot],
        history: &[usize],
    ) -> (Vec<bool>, Vec<bool>) {
        let nb = self.num_blocks();
        assert_eq!(bs.l_rows.col_ptr(), &self.row_ptr[..], "another structure");
        assert_eq!(history.len(), self.n, "one pivot row per column");
        let mut row_live = vec![false; self.lrow.len()];
        let mut col_live = vec![false; self.ucol.len()];
        for k in 0..nb {
            if self.rows_below(k) > 0 && self.col_ptr[k] < self.col_ptr[k + 1] {
                row_live[self.row_ptr[k]] = true;
                col_live[self.col_ptr[k]] = true;
            }
        }
        for s in slots {
            let j = s.jb as usize;
            if s.ublock == IN_PANEL {
                let w = self.width(j);
                let row = s.flat as usize % (w + self.rows_below(j));
                if row >= w {
                    row_live[self.row_ptr[j] + row - w] = true;
                }
            } else {
                let u = &self.updates(j)[s.ublock as usize];
                let k = u.src as usize;
                let x = s.flat as usize / self.width(k);
                col_live[self.col_ptr[k] + u.cols.start as usize + x] = true;
            }
        }

        let mut live_x: Vec<usize> = Vec::new();
        for j in 0..nb {
            let (w_j, into_j) = (self.width(j), self.updates(j));
            for u in into_j {
                let k = u.src as usize;
                let (ck, s_kj) = (self.col_ptr[k] + u.cols.start as usize, u.cols.len());
                let own = self.starts[k]..self.starts[k + 1];
                for &g in &history[own.clone()] {
                    if g < own.end {
                        // Inside the block row: whole columns stay whole.
                        continue;
                    }
                    let t = (bs.l_rows.col(k).binary_search(&g))
                        .expect("a recorded pivot row is a row of the panel");
                    match self.row_dest(u, t) {
                        RowDest::Above { q, cols, .. } => {
                            let ui = &into_j[q];
                            let ci = self.col_ptr[ui.src as usize] + ui.cols.start as usize;
                            for (x, &c) in cols.iter().enumerate() {
                                let both = col_live[ck + x] | col_live[ci + c as usize];
                                col_live[ck + x] = both;
                                col_live[ci + c as usize] = both;
                            }
                        }
                        // The diagonal block of `J` is stored whole.
                        RowDest::Panel { row, .. } if row < w_j => {
                            col_live[ck..ck + s_kj].fill(true);
                        }
                        RowDest::Panel { row, .. } => {
                            let at = self.row_ptr[j] + row - w_j;
                            if row_live[at] {
                                col_live[ck..ck + s_kj].fill(true);
                            } else {
                                row_live[at] = col_live[ck..ck + s_kj].contains(&true);
                            }
                        }
                    }
                }

                live_x.clear();
                live_x.extend((0..s_kj).filter(|&x| col_live[ck + x]));
                if live_x.is_empty() {
                    continue;
                }
                let rk = self.row_ptr[k];
                // Rows above block row J: one Ū(I, J) per L̄ block of K.
                let above = self.lblks[self.lblk_ptr[k]..self.lblk_ptr[k + 1]]
                    .iter()
                    .take_while(|lb| lb.rows.start < u.t_diag);
                for (b, lb) in above.enumerate() {
                    let rows = rk + lb.rows.start as usize..rk + lb.rows.end as usize;
                    if !row_live[rows].contains(&true) {
                        continue;
                    }
                    let ui = &into_j[self.targets[u.targets as usize + b] as usize];
                    let ci = self.col_ptr[ui.src as usize] + ui.cols.start as usize;
                    let cmap = &self.rel[(lb.crel + u.cols.start - lb.c0) as usize..];
                    for &x in &live_x {
                        col_live[ci + cmap[x] as usize] = true;
                    }
                }
                // Rows inside block row J land in its diagonal block, which
                // is stored whole; rows below it in the rows of R_J.
                let rel = &self.rel[u.row_rel as usize..];
                for t in u.t_below as usize..self.rows_below(k) {
                    if row_live[rk + t] {
                        let row = rel[t - u.t_below as usize] as usize;
                        row_live[self.row_ptr[j] + row - w_j] = true;
                    }
                }
            }
        }

        (row_live, col_live)
    }

    /// Calls `visit(e, slot)` for entry number `e` (in storage order) of
    /// every entry of `pattern`, whose rows `new_row` maps into
    /// factorization order and whose column `old_col(j)` is factorization
    /// column `j`. Linear in the entries plus the stored rows: each block
    /// column stamps where its rows live, then looks its entries up.
    fn locate_entries(
        &self,
        pattern: &SparsityPattern,
        new_row: impl Fn(usize) -> usize,
        old_col: impl Fn(usize) -> usize,
        mut visit: impl FnMut(usize, ValueSlot),
    ) {
        assert_eq!(pattern.ncols(), self.n, "matrix and structure disagree");
        // Per stored row of the current block column: (column stamp, ublock
        // or IN_PANEL, row inside that storage).
        let mut place = vec![(usize::MAX, 0u32, 0u32); self.n];
        let mut cursor: Vec<usize> = Vec::new();
        for j in 0..self.num_blocks() {
            let (start, w) = (self.starts[j], self.width(j));
            for r in 0..w {
                place[start + r] = (j, IN_PANEL, idx32(r));
            }
            for (t, r) in self.global_rows(j).enumerate() {
                place[r] = (j, IN_PANEL, idx32(w + t));
            }
            let into_j = self.updates(j);
            for u in into_j {
                let k = u.src as usize;
                for r in 0..self.width(k) {
                    place[self.starts[k] + r] = (j, u.q, idx32(r));
                }
            }
            cursor.clear();
            cursor.resize(into_j.len(), 0);
            let ld = w + self.rows_below(j);
            for lj in 0..w {
                let col = old_col(start + lj);
                let first = pattern.col_ptr()[col];
                for (e, &i) in pattern.col(col).iter().enumerate() {
                    let (stamp, ublock, row) = place[new_row(i)];
                    assert_eq!(stamp, j, "entry outside the filled block structure");
                    let flat = if ublock == IN_PANEL {
                        lj * ld + row as usize
                    } else {
                        // Columns are visited in ascending order, so the
                        // cursor into S_KJ only moves forward.
                        let u = &into_j[ublock as usize];
                        let cols = self.local_cols(u);
                        let x = &mut cursor[ublock as usize];
                        while *x < cols.len() && (cols[*x] as usize) < lj {
                            *x += 1;
                        }
                        assert!(
                            *x < cols.len() && cols[*x] as usize == lj,
                            "entry outside the filled block structure"
                        );
                        *x * self.width(u.src as usize) + row as usize
                    };
                    visit(
                        first + e,
                        ValueSlot {
                            jb: idx32(j),
                            ublock,
                            flat: idx32(flat),
                        },
                    );
                }
            }
        }
    }
}

/// The sub-structure of `bs` that keeps the rows of `R_K` and the columns of
/// `C_K` flagged in `row_live` / `col_live` (one flag per list entry, as
/// [`Layout::realised_flags`] returns them).
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
/// update; `S_KJ[x]` is column `cols[x]` there.
enum RowDest<'a> {
    /// In `ublocks[q]`, at `row`.
    Above {
        q: usize,
        row: usize,
        cols: &'a [u32],
    },
    /// In the panel, at `row`.
    Panel { row: usize, cols: &'a [u32] },
}

impl ColumnData {
    /// Replays one interchange of `Factor(K)` on this column (`J`, under the
    /// update `u = (K, J)`): row `c` of the diagonal block of `K` against
    /// panel position `p > c` of `K`, over the columns `S_KJ`.
    ///
    /// The partner row stores a superset of `S_KJ`; whatever it stores
    /// outside `S_KJ` is still exactly zero when `K` is eliminated (its
    /// structure at that step is inside `Ū_{K*}`), so nothing is lost —
    /// debug-asserted.
    pub(crate) fn swap_rows(&mut self, lay: &Layout, u: &UpdateMap, c: usize, p: usize) {
        let q = u.q as usize;
        let w_k = self.ublocks[q].nrows();
        if p < w_k {
            self.ublocks[q].swap_rows(c, p);
            return;
        }
        match lay.row_dest(u, p - w_k) {
            RowDest::Above { q: qi, row, cols } => {
                let (head, tail) = self.ublocks.split_at_mut(qi);
                swap_into(&mut head[q], c, &mut tail[0], row, cols);
            }
            RowDest::Panel { row, cols } => {
                swap_into(&mut self.ublocks[q], c, &mut self.panel, row, cols);
            }
        }
    }

    /// Adds rows `rows` (positions of `R_K`) of the scratch product
    /// `T = −L̄_below(K)·Ū(K, J)` into this column; `t` holds exactly those
    /// rows, one column per column of `S_KJ`.
    pub(crate) fn scatter_add(
        &mut self,
        lay: &Layout,
        u: &UpdateMap,
        t: MatRef<'_>,
        rows: Range<usize>,
    ) {
        let k = u.src as usize;
        let lrow = &lay.lrow[lay.row_ptr[k]..lay.row_ptr[k + 1]];
        let first = rows.start;
        let (t_diag, t_below) = (u.t_diag as usize, u.t_below as usize);
        // Rows above block row J: one Ū(I, J) block per L̄ block of K.
        let mut at = rows.start;
        while at < rows.end.min(t_diag) {
            let b = lay.owner[lay.row_ptr[k] + at] as usize;
            let lb = &lay.lblks[lay.lblk_ptr[k] + b];
            let seg = at..rows.end.min(lb.rows.end as usize);
            let dst = &mut self.ublocks[lay.targets[u.targets as usize + b] as usize];
            let cmap = &lay.rel[(lb.crel + u.cols.start - lb.c0) as usize..];
            add_rows(dst, cmap, &lrow[seg.clone()], t, seg.start - first);
            at = seg.end;
        }
        // Rows inside block row J land in the diagonal block at their local
        // rows, rows below it in the panel rows of R_J.
        let cols = lay.local_cols(u);
        let diag = rows.start.max(t_diag)..rows.end.min(t_below);
        if !diag.is_empty() {
            let rmap = &lrow[diag.clone()];
            add_rows(&mut self.panel, cols, rmap, t, diag.start - first);
        }
        let below = rows.start.max(t_below)..rows.end;
        if !below.is_empty() {
            let rel = &lay.rel[u.row_rel as usize..];
            let rmap = &rel[below.start - t_below..below.end - t_below];
            add_rows(&mut self.panel, cols, rmap, t, below.start - first);
        }
    }
}

/// `dst[rmap[i], cmap[x]] += t[t_first + i, x]` for every column `x` of
/// `t` and every `i`.
fn add_rows(dst: &mut DenseMat, cmap: &[u32], rmap: &[u32], t: MatRef<'_>, t_first: usize) {
    for x in 0..t.ncols() {
        let src = &t.col(x)[t_first..t_first + rmap.len()];
        let dcol = dst.col_mut(cmap[x] as usize);
        for (&r, &v) in rmap.iter().zip(src) {
            dcol[r as usize] += v;
        }
    }
}

/// Exchanges row `c` of `mine` (all its columns) with row `row` of `theirs`
/// at the (ascending) columns `cols`. Debug builds check that `theirs`
/// holds zeros in that row everywhere else.
fn swap_into(mine: &mut DenseMat, c: usize, theirs: &mut DenseMat, row: usize, cols: &[u32]) {
    if cfg!(debug_assertions) {
        let mut keep = cols.iter().peekable();
        for dc in 0..theirs.ncols() {
            if keep.next_if(|&&k| k as usize == dc).is_none() {
                assert_eq!(
                    theirs[(row, dc)],
                    0.0,
                    "pivot interchange would lose a nonzero at row {row}, column {dc}"
                );
            }
        }
    }
    for (x, &dc) in cols.iter().enumerate() {
        std::mem::swap(&mut mine[(c, x)], &mut theirs[(row, dc as usize)]);
    }
}

/// The block matrix: per-column values behind `RwLock`s (readers: updates
/// sourcing the column; writer: the column's own factor/update tasks),
/// over one shared `Layout` (the index maps).
pub struct BlockMatrix {
    layout: Arc<Layout>,
    columns: Vec<RwLock<ColumnData>>,
}

impl BlockMatrix {
    /// Allocates the compact storage of `Ā` under the given block
    /// structure, zero-filled and unfactored, and builds its index maps.
    pub fn zeros(bs: &BlockStructure) -> Self {
        Self::with_layout(Arc::new(Layout::new(bs)))
    }

    /// Fresh zeroed storage over an existing layout.
    fn with_layout(layout: Arc<Layout>) -> Self {
        let columns = (0..layout.num_blocks())
            .map(|j| {
                let w = layout.width(j);
                let ublocks = layout
                    .updates(j)
                    .iter()
                    .map(|u| DenseMat::zeros(layout.width(u.src as usize), u.cols.len()))
                    .collect();
                RwLock::new(ColumnData {
                    ublocks,
                    panel: DenseMat::zeros(w + layout.rows_below(j), w),
                    pivots: None,
                })
            })
            .collect();
        BlockMatrix { layout, columns }
    }

    /// Fresh zeroed storage with this matrix's structure, sharing its index
    /// maps. Consumes `self` first, so two copies of the values never
    /// coexist.
    pub(crate) fn into_zeros(self) -> Self {
        let layout = self.layout;
        drop(self.columns);
        Self::with_layout(layout)
    }

    /// Drops the values and hands back the index maps.
    pub(crate) fn into_layout(self) -> Arc<Layout> {
        self.layout
    }

    /// The pivot history of a completed factorization: the global
    /// (factorization-order) row every column's pivot came from, which is
    /// the column itself where no interchange was taken. Comparable across
    /// storages of one partition, whatever rows each stores.
    pub fn pivot_rows(&self) -> Vec<usize> {
        let mut history = Vec::new();
        self.swap_history(&mut history);
        history
    }

    /// The first difference between two factored storages of one
    /// partition, as a message — `None` when they hold the same factors:
    /// the same pivots as global rows and, bit for bit, the same word at
    /// every global position both store, with exact zeros wherever only
    /// one of them stores a word (a realised storage leaves out what its
    /// pivot history never fills). Diagnostics and tests.
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

    /// Writes the pivot history of the completed factorization these
    /// columns hold — the global row every column's pivot came from — into
    /// `history`, and returns whether `history` held exactly that already.
    pub(crate) fn swap_history(&self, history: &mut Vec<usize>) -> bool {
        let lay = &*self.layout;
        let mut same = history.len() == lay.n;
        history.resize(lay.n, 0);
        for (k, col) in self.columns.iter().enumerate() {
            let col = col.read();
            let swaps = (col.pivots.as_ref())
                .expect("a completed factorization")
                .swaps();
            for (&p, h) in swaps.iter().zip(&mut history[lay.starts[k]..]) {
                let row = lay.panel_row(k, p);
                same &= *h == row;
                *h = row;
            }
        }
        same
    }

    /// The first (global) column of block column `k`, factored in `col`,
    /// whose pivot came from another row than `history` records, if any.
    pub(crate) fn pivot_divergence(
        &self,
        k: usize,
        col: &ColumnData,
        history: &[usize],
    ) -> Option<usize> {
        let lay = &*self.layout;
        let swaps = col.pivots.as_ref().expect("Factor(k) ran").swaps();
        (swaps.iter().zip(&history[lay.starts[k]..]))
            .position(|(&p, &row)| lay.panel_row(k, p) != row)
            .map(|c| lay.starts[k] + c)
    }

    /// Assembles the block storage of `a` (already permuted into
    /// factorization order) under the given block structure: [`Self::zeros`]
    /// with the entries of `a` scattered into place.
    pub fn assemble(a: &CscMatrix, bs: &BlockStructure) -> Self {
        let mut bm = Self::zeros(bs);
        bm.scatter(a);
        bm
    }

    /// Stores every entry of `a` (in factorization order) at its place.
    fn scatter(&mut self, a: &CscMatrix) {
        let values = a.values();
        let columns = &mut self.columns;
        self.layout.locate_entries(
            a.pattern(),
            |i| i,
            |j| j,
            |e, slot| {
                *Self::slot_mut(columns, slot) = values[e];
            },
        );
    }

    fn slot_mut(columns: &mut [RwLock<ColumnData>], slot: ValueSlot) -> &mut f64 {
        let col = columns[slot.jb as usize].get_mut();
        let data = if slot.ublock == IN_PANEL {
            col.panel.data_mut()
        } else {
            col.ublocks[slot.ublock as usize].data_mut()
        };
        &mut data[slot.flat as usize]
    }

    /// The slot of every entry of `pattern` in storage order, whose rows
    /// `new_row` and whose columns `old_col` relate to factorization order
    /// as in [`Layout::locate_entries`].
    pub(crate) fn value_slots(
        &self,
        pattern: &SparsityPattern,
        new_row: impl Fn(usize) -> usize,
        old_col: impl Fn(usize) -> usize,
    ) -> Vec<ValueSlot> {
        let mut slots = vec![ValueSlot::default(); pattern.nnz()];
        self.layout
            .locate_entries(pattern, new_row, old_col, |e, slot| slots[e] = slot);
        slots
    }

    /// Stores `values[e]` at `slots[e]`: plain indexed stores, no
    /// allocation.
    pub(crate) fn store_values(&mut self, slots: &[ValueSlot], values: &[f64]) {
        debug_assert_eq!(slots.len(), values.len());
        for (&slot, &v) in slots.iter().zip(values) {
            *Self::slot_mut(&mut self.columns, slot) = v;
        }
    }

    /// Zeroes every stored value and empties the pivot sequences **in
    /// place** — every allocation (U blocks, panels, pivot swap vectors) is
    /// retained, so a rescatter + refactorization on top
    /// allocates nothing. After the reset, factored columns hold `Some`
    /// *empty* pivots rather than `None`; the factor task treats both as
    /// "not factored" and recycles the swap storage.
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
    }

    /// Resets the storage to hold the values of `a` again (zero everything,
    /// rescatter, forget pivots) — for repeated factorizations with the same
    /// structure without reallocating.
    pub fn reset_from(&mut self, a: &CscMatrix, bs: &BlockStructure) {
        assert_eq!(
            bs.partition.starts(),
            &self.layout.starts[..],
            "storage was built for another structure"
        );
        self.reset_values();
        self.scatter(a);
    }

    /// Matrix order (scalar).
    pub fn n(&self) -> usize {
        self.layout.n
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

    /// The sources of block column `j` in ascending order — `ublocks[q]` of
    /// the column is `Ū(K, j)` for the `q`-th pair `(K, S_Kj)` — each with
    /// the columns of `j` its block stores.
    pub fn sources(&self, j: usize) -> impl Iterator<Item = (usize, &[u32])> + '_ {
        let lay = &*self.layout;
        lay.updates(j)
            .iter()
            .map(move |u| (u.src as usize, lay.local_cols(u)))
    }

    /// The tasks this storage is factored by, in the **left-looking
    /// order**: for each block column `j` ascending, `Update(k, j)` for its
    /// stored sources `k` ascending, then `Factor(j)` — the order
    /// [`crate::factor_left_looking`] runs them, a topological order of
    /// both task graphs. A task's position here is its id in the reports,
    /// traces and panics of a numeric run. A realised storage holds fewer
    /// updates than the static structure's graph names: the blocks its
    /// pivot history never fills are no tasks.
    pub fn tasks(&self) -> impl Iterator<Item = Task> + '_ {
        let lay = &*self.layout;
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
        self.layout.starts[k]
    }

    /// Runs `f` on `len` words of the calling thread's scratch matrix for
    /// update products. The scratch belongs to the thread, not to the
    /// matrix — workers share nothing and take no lock for it — and is
    /// grown once to the largest product any update of this structure
    /// forms (`max |R_K| · |S_KJ|`), so later factorizations on the thread
    /// allocate nothing.
    pub(crate) fn with_scratch<R>(&self, len: usize, f: impl FnOnce(&mut [f64]) -> R) -> R {
        thread_local! {
            static SCRATCH: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
        }
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
        let lay = &*self.layout;
        for (j, col) in self.columns.iter().enumerate() {
            let col = col.read();
            let (start, w) = (lay.starts[j], lay.width(j));
            for (u, blk) in lay.updates(j).iter().zip(&col.ublocks) {
                let top = lay.starts[u.src as usize];
                for (x, &lc) in lay.local_cols(u).iter().enumerate() {
                    for (r, &v) in blk.col(x).iter().enumerate() {
                        visit(top + r, start + lc as usize, v);
                    }
                }
            }
            for lj in 0..w {
                let pcol = col.panel.col(lj);
                for (r, &v) in pcol[..w].iter().enumerate() {
                    visit(start + r, start + lj, v);
                }
                for (r, &v) in lay.global_rows(j).zip(&pcol[w..]) {
                    visit(r, start + lj, v);
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
        self.columns
            .iter()
            .map(|c| {
                let c = c.read();
                let u = c.ublocks.iter().fold(0.0f64, |m, b| m.max(b.max_abs()));
                u.max(c.panel.max_abs())
            })
            .fold(0.0f64, f64::max)
    }

    /// Total dense storage in f64 words: `Σ_K w_K · (w_K + |R_K| + |C_K|)`
    /// ([`BlockStructure::storage_words`]), explicit zeros of amalgamated
    /// supernodes included.
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

    /// Bytes of index maps behind the values, with the range plan kept
    /// for runs on several threads.
    pub(crate) fn map_bytes(&self) -> u64 {
        use std::mem::size_of;
        let lay = &*self.layout;
        let words = lay.lrow.len() + lay.owner.len() + lay.ucol.len() + lay.rel.len();
        let plan = lay.plan.lock().as_ref().map_or(0, |(_, _, p)| p.bytes());
        (words * size_of::<u32>()
            + lay.targets.len() * size_of::<u32>()
            + lay.lblks.len() * size_of::<LBlock>()
            + lay.upds.len() * size_of::<UpdateMap>()) as u64
            + plan
    }
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
                    let s_kj: Vec<usize> = lay
                        .local_cols(u)
                        .iter()
                        .map(|&c| start_j + c as usize)
                        .collect();
                    for (t, &r) in bs.l_rows.col(k).iter().enumerate() {
                        for (x, &c) in s_kj.iter().enumerate() {
                            let got = match lay.row_dest(u, t) {
                                RowDest::Above { q, row, cols } => {
                                    rows_checked[0] += 1;
                                    col.ublocks[q][(row, cols[x] as usize)]
                                }
                                RowDest::Panel { row, cols } => {
                                    rows_checked[1] += 1;
                                    col.panel[(row, cols[x] as usize)]
                                }
                            };
                            assert_eq!(got, (r * n + c + 1) as f64, "U({k},{j}) row {r} col {c}");
                        }
                    }
                }
            }
        }
        assert!(rows_checked.iter().all(|&c| c > 100), "{rows_checked:?}");
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
}
