//! The 4-D `BPMax` table: a triangle of triangles.
//!
//! `F[i1][j1][i2][j2]` is defined for `0 ≤ i1 ≤ j1 < M`, `0 ≤ i2 ≤ j2 < N`.
//! Storage is one *inner-triangle block* per outer cell `(i1, j1)`; the
//! outer cells are packed like a row-major triangle, the inner block layout
//! is selectable:
//!
//! * [`Layout::Packed`] (default) — `N(N+1)/2` elements per block, rows
//!   contiguous. Total = `T(M)·T(N)` cells ≈ ¼ of the `M²N²` bounding box
//!   ("we only need one-fourth of that memory", §IV.B.c).
//! * [`Layout::Identity`] — the paper's Fig 10 **option 1** map
//!   `(i2, j2) ↦ (i2, j2)` into an `N×N` box.
//! * [`Layout::Shifted`] — Fig 10 **option 2** `(i2, j2) ↦ (i2, j2 − i2)`.
//!
//! All kernels access blocks through the uniform row API (`row(i2)` covers
//! columns `i2..N` with `(i2, j2)` at `row[j2 − i2]`), so switching the map
//! changes only addressing — the `memlayout` bench reproduces the paper's
//! option-1 vs option-2 comparison by flipping this enum.
//!
//! Blocks are separate `Vec`s so a kernel can temporarily *take* a block
//! out ([`FTable::take_block`]), mutate it with shared read access to the
//! rest of the table (the wavefront guarantees disjointness), and put it
//! back — the safe-Rust shape of the paper's "threads work on distinct
//! inner triangles".

pub use tropical::triangular::Layout;

use crate::error::BpMaxError;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// Empty-cell initialiser: max-plus additive identity.
const NEG_INF: f32 = f32::NEG_INFINITY;

/// Strand lengths above this bound always refuse with
/// [`BpMaxError::SizeOverflow`] — the `Θ(M²N²)` table could not be
/// addressed anyway, and keeping the bound well under `2³²` lets the
/// internal index arithmetic (`n·(n+1)/2`, `i·(2n−i+1)/2`) stay overflow-
/// free on every platform.
const MAX_STRAND: usize = 1 << 30;

/// Allocation/reuse counters of a [`BlockPool`] — the observability hook
/// behind the batch engine's "zero steady-state allocation" claim.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Block acquisitions that had to touch the allocator (fresh buffer,
    /// or a spare grown beyond its capacity).
    pub allocated: u64,
    /// Block acquisitions served entirely from pooled spares.
    pub reused: u64,
    /// Blocks returned to the pool.
    pub recycled: u64,
    /// Buffers rejected at recycle time (wrong length after a failed or
    /// panicked solve) and dropped instead of re-entering the arena.
    pub quarantined: u64,
}

impl PoolStats {
    /// Allocator touches since `earlier` (counters are monotone).
    pub fn allocated_since(&self, earlier: &PoolStats) -> u64 {
        self.allocated - earlier.allocated
    }
}

/// A recycling arena for F-table blocks.
///
/// Solving a `BPMax` instance allocates one `Vec<f32>` per outer cell —
/// `M(M+1)/2` buffers of `Θ(N²)` bytes. In a batch workload that pattern
/// repeats per problem; the pool keeps released buffers (sorted by
/// capacity) and serves later acquisitions best-fit, so after a warm-up
/// wave the steady state performs **zero** block allocations
/// ([`PoolStats`] proves it). Thread-safe: the spare list is behind a
/// mutex, the counters are atomics — cheap next to the `Θ(M³N³)` solve
/// each block participates in.
#[derive(Debug, Default)]
pub struct BlockPool {
    /// Spare buffers, sorted by ascending capacity.
    spares: Mutex<Vec<Vec<f32>>>,
    allocated: AtomicU64,
    reused: AtomicU64,
    recycled: AtomicU64,
    quarantined: AtomicU64,
}

impl BlockPool {
    /// An empty pool.
    pub fn new() -> Self {
        BlockPool::default()
    }

    /// Acquire a buffer of exactly `len` cells, all `-∞`. Best-fit: the
    /// smallest spare with sufficient capacity; otherwise the largest
    /// spare is grown (counted as an allocation), or a fresh buffer is
    /// allocated.
    pub fn acquire(&self, len: usize) -> Vec<f32> {
        let mut buf = {
            let mut spares = self.lock_spares();
            let pos = spares.partition_point(|s| s.capacity() < len);
            if pos < spares.len() {
                spares.remove(pos)
            } else {
                spares.pop().unwrap_or_default()
            }
        };
        if buf.capacity() >= len {
            self.reused.fetch_add(1, Ordering::Relaxed); // ordering: monotone stats counter
        } else {
            self.allocated.fetch_add(1, Ordering::Relaxed); // ordering: monotone stats counter
        }
        buf.clear();
        buf.resize(len, NEG_INF);
        buf
    }

    /// Return a buffer to the pool for later reuse.
    pub fn release(&self, buf: Vec<f32>) {
        self.recycled.fetch_add(1, Ordering::Relaxed); // ordering: monotone stats counter
        let mut spares = self.lock_spares();
        let pos = spares.partition_point(|s| s.capacity() < buf.capacity());
        spares.insert(pos, buf);
    }

    /// Reject a buffer from a failed or aborted solve: count it and drop
    /// it on the floor. A quarantined buffer never re-enters the spare
    /// list, so a solve that died mid-flight (panic unwound with blocks
    /// taken out of the table) can never hand a short buffer to the next
    /// problem. Safe over-approximation: quarantining costs one fresh
    /// allocation later, recycling a bad buffer costs correctness.
    pub fn quarantine(&self, buf: Vec<f32>) {
        self.quarantined.fetch_add(1, Ordering::Relaxed); // ordering: monotone stats counter
        drop(buf);
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            allocated: self.allocated.load(Ordering::Relaxed), // ordering: monotone stats counter
            reused: self.reused.load(Ordering::Relaxed),       // ordering: monotone stats counter
            recycled: self.recycled.load(Ordering::Relaxed),   // ordering: monotone stats counter
            quarantined: self.quarantined.load(Ordering::Relaxed), // ordering: monotone stats counter
        }
    }

    /// Number of spare buffers currently pooled.
    pub fn spare_count(&self) -> usize {
        self.lock_spares().len()
    }

    /// The spare list, poison-tolerant: spares are bare `Vec<f32>`s that
    /// [`BlockPool::acquire`] fully resets, so a panic while the lock was
    /// held cannot leave an observable inconsistency worth propagating —
    /// and the batch engine must keep pooling after isolating a panicked
    /// problem.
    fn lock_spares(&self) -> std::sync::MutexGuard<'_, Vec<Vec<f32>>> {
        self.spares.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The packed 4-D `BPMax` table.
#[derive(Clone, Debug)]
pub struct FTable {
    m: usize,
    n: usize,
    layout: Layout,
    block_len: usize,
    blocks: Vec<Vec<f32>>,
}

impl FTable {
    /// Allocate for strand lengths `m × n`, all cells `-∞`.
    ///
    /// Panics on sizes the address arithmetic cannot represent; the
    /// fallible front door is [`FTable::try_new`].
    pub fn new(m: usize, n: usize, layout: Layout) -> Self {
        Self::try_new(m, n, layout).expect("F-table size overflow") // lint: allow(expect): documented panicking front door; try_new is fallible
    }

    /// Fallible allocation: checks the `Θ(M²N²)` footprint against the
    /// address space before touching the allocator, returning
    /// [`BpMaxError::SizeOverflow`] instead of panicking/aborting.
    pub fn try_new(m: usize, n: usize, layout: Layout) -> Result<Self, BpMaxError> {
        let (outer, block_len) = Self::checked_shape(m, n, layout)?;
        Ok(FTable {
            m,
            n,
            layout,
            block_len,
            blocks: (0..outer).map(|_| vec![NEG_INF; block_len]).collect(),
        })
    }

    /// Like [`FTable::try_new`], but every block buffer is acquired from
    /// `pool` — the batch engine's zero-steady-state-allocation path.
    /// Pair with [`FTable::recycle`].
    pub fn try_new_in(
        m: usize,
        n: usize,
        layout: Layout,
        pool: &BlockPool,
    ) -> Result<Self, BpMaxError> {
        let (outer, block_len) = Self::checked_shape(m, n, layout)?;
        Ok(FTable {
            m,
            n,
            layout,
            block_len,
            blocks: (0..outer).map(|_| pool.acquire(block_len)).collect(),
        })
    }

    /// Return every block buffer to `pool` and drop the table shell.
    ///
    /// Buffers are validated first: a block whose length is not the
    /// table's `block_len` (an empty `Vec` left behind when a panic
    /// unwound past a [`FTable::take_block`], or anything else mangled by
    /// an aborted solve) is [quarantined](BlockPool::quarantine) instead
    /// of re-entering the arena.
    pub fn recycle(self, pool: &BlockPool) {
        for block in self.blocks {
            if block.len() == self.block_len {
                pool.release(block);
            } else {
                pool.quarantine(block);
            }
        }
    }

    /// Bytes of cell storage a table of shape `m × n` would allocate,
    /// without allocating it — the [`crate::supervise::MemoryBudget`]
    /// admission check. Errs with [`BpMaxError::SizeOverflow`] on shapes
    /// [`FTable::try_new`] would refuse anyway.
    pub fn estimate_bytes(m: usize, n: usize, layout: Layout) -> Result<u64, BpMaxError> {
        let (outer, block_len) = Self::checked_shape(m, n, layout)?;
        // fits: checked_shape bounds the product by isize::MAX
        Ok((outer * block_len * std::mem::size_of::<f32>()) as u64)
    }

    /// Validate `(m, n)` and compute `(outer cells, block length)` without
    /// overflow. `MAX_STRAND` keeps the per-dimension triangle arithmetic
    /// in range; the total-byte check keeps the whole table addressable.
    fn checked_shape(m: usize, n: usize, layout: Layout) -> Result<(usize, usize), BpMaxError> {
        if m > MAX_STRAND || n > MAX_STRAND {
            return Err(BpMaxError::SizeOverflow { m, n });
        }
        let outer = m * (m + 1) / 2;
        let block_len = layout.storage_len(n);
        let total_bytes = outer as u128 * block_len as u128 * std::mem::size_of::<f32>() as u128;
        if total_bytes > isize::MAX as u128 {
            return Err(BpMaxError::SizeOverflow { m, n });
        }
        Ok((outer, block_len))
    }

    /// Strand-1 length `M`.
    #[inline(always)]
    pub fn m(&self) -> usize {
        self.m
    }

    /// Strand-2 length `N`.
    #[inline(always)]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Inner-block memory map.
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// Total bytes allocated for cell storage.
    pub fn storage_bytes(&self) -> usize {
        self.blocks.len() * self.block_len * std::mem::size_of::<f32>()
    }

    /// Outer index of cell `(i1, j1)` (packed row-major triangle).
    #[inline(always)]
    pub fn outer(&self, i1: usize, j1: usize) -> usize {
        debug_assert!(
            i1 <= j1 && j1 < self.m,
            "outer index ({i1},{j1}) m={}",
            self.m
        );
        i1 * (2 * self.m - i1 + 1) / 2 + (j1 - i1)
    }

    /// The inner-triangle block of `(i1, j1)`.
    #[inline(always)]
    pub fn block(&self, i1: usize, j1: usize) -> &[f32] {
        &self.blocks[self.outer(i1, j1)]
    }

    /// Mutable inner-triangle block of `(i1, j1)`.
    #[inline(always)]
    pub fn block_mut(&mut self, i1: usize, j1: usize) -> &mut [f32] {
        let o = self.outer(i1, j1);
        &mut self.blocks[o]
    }

    /// Move block `(i1, j1)` out of the table (replaced by an empty `Vec`).
    /// Pair with [`FTable::put_block`]. Lets a writer own its triangle
    /// while readers borrow the rest of the table.
    pub fn take_block(&mut self, i1: usize, j1: usize) -> Vec<f32> {
        let o = self.outer(i1, j1);
        std::mem::take(&mut self.blocks[o])
    }

    /// Return a block previously removed by [`FTable::take_block`].
    pub fn put_block(&mut self, i1: usize, j1: usize, block: Vec<f32>) {
        assert_eq!(block.len(), self.block_len, "block length mismatch");
        let o = self.outer(i1, j1);
        debug_assert!(self.blocks[o].is_empty(), "putting back a non-taken block");
        self.blocks[o] = block;
    }

    /// Offset of `(i2, j2)` inside a block.
    #[inline(always)]
    pub fn inner(&self, i2: usize, j2: usize) -> usize {
        self.layout.offset(self.n, i2, j2)
    }

    /// Start offset of inner row `i2` (columns `i2..n`) inside a block.
    #[inline(always)]
    pub fn inner_row_start(&self, i2: usize) -> usize {
        self.layout.row_start(self.n, i2)
    }

    /// Row `i2` of a block as a slice over columns `i2..n`
    /// (`(i2, j2)` at index `j2 − i2`).
    #[inline(always)]
    pub fn row_of<'a>(&self, block: &'a [f32], i2: usize) -> &'a [f32] {
        let s = self.inner_row_start(i2);
        &block[s..s + (self.n - i2)]
    }

    /// Mutable flavour of [`FTable::row_of`].
    #[inline(always)]
    pub fn row_of_mut<'a>(&self, block: &'a mut [f32], i2: usize) -> &'a mut [f32] {
        let s = self.inner_row_start(i2);
        &mut block[s..s + (self.n - i2)]
    }

    /// Read `F[i1, j1, i2, j2]`.
    #[inline(always)]
    pub fn get(&self, i1: usize, j1: usize, i2: usize, j2: usize) -> f32 {
        self.blocks[self.outer(i1, j1)][self.inner(i2, j2)]
    }

    /// Write `F[i1, j1, i2, j2]`.
    #[inline(always)]
    pub fn set(&mut self, i1: usize, j1: usize, i2: usize, j2: usize, v: f32) {
        let o = self.outer(i1, j1);
        let k = self.inner(i2, j2);
        self.blocks[o][k] = v;
    }

    /// Split a (taken) block into contiguous bands of `rows` inner rows
    /// each (the last band may be shorter), outer row first — the unit of
    /// fine-grain parallelism ("threads work on individual rows of an
    /// inner triangle"; a tiled order hands out whole `i2` tiles). Each
    /// item is the band's row range and its storage, which starts at the
    /// band's first row. Every layout stores its rows in ascending order,
    /// so the bands partition the block (a bounding-box layout's slack
    /// rides along inside them, never indexed).
    pub fn row_bands_mut<'a>(
        &self,
        block: &'a mut [f32],
        rows: usize,
    ) -> Vec<(Range<usize>, &'a mut [f32])> {
        let rows = rows.max(1);
        let mut out = Vec::with_capacity(self.n.div_ceil(rows));
        let mut rest = block;
        let mut lo = 0;
        while lo < self.n {
            let hi = (lo + rows).min(self.n);
            let len = if hi < self.n {
                self.inner_row_start(hi) - self.inner_row_start(lo)
            } else {
                rest.len()
            };
            let (band, tail) = std::mem::take(&mut rest).split_at_mut(len);
            out.push((lo..hi, band));
            rest = tail;
            lo = hi;
        }
        out
    }

    /// Number of outer blocks on diagonals `0..done` of an `m`-strand
    /// table (the unit of [`FTable::export_diagonals`]).
    pub fn diagonal_blocks(m: usize, done: usize) -> usize {
        let done = done.min(m);
        (0..done).map(|d1| m - d1).sum()
    }

    /// Copy the blocks of outer diagonals `0..done` out, diagonal-major
    /// (`d1` ascending, `i1` ascending within a diagonal) — the wavefront
    /// production order, so a prefix of completed diagonals serializes to
    /// a contiguous, order-stable cell stream for
    /// [`crate::checkpoint::TableSnapshot`].
    pub fn export_diagonals(&self, done: usize) -> Vec<f32> {
        let done = done.min(self.m);
        let mut out = Vec::with_capacity(Self::diagonal_blocks(self.m, done) * self.block_len);
        for d1 in 0..done {
            for i1 in 0..self.m - d1 {
                out.extend_from_slice(self.block(i1, i1 + d1));
            }
        }
        out
    }

    /// Overwrite the blocks of outer diagonals `0..done` from a cell
    /// stream produced by [`FTable::export_diagonals`] on a table of the
    /// same shape and layout. The remaining diagonals are untouched (a
    /// freshly acquired table holds `-∞` there, exactly the state the
    /// wavefront drivers expect when resuming from diagonal `done`).
    pub fn import_diagonals(&mut self, done: usize, cells: &[f32]) -> Result<(), BpMaxError> {
        let done = done.min(self.m);
        let expect = Self::diagonal_blocks(self.m, done) * self.block_len;
        if cells.len() != expect {
            return Err(BpMaxError::InvalidArgument {
                detail: format!(
                    "diagonal import: {} cells for {done} diagonals of a {}x{} table \
                     (expected {expect})",
                    cells.len(),
                    self.m,
                    self.n
                ),
            });
        }
        let mut offset = 0;
        for d1 in 0..done {
            for i1 in 0..self.m - d1 {
                let next = offset + self.block_len;
                self.block_mut(i1, i1 + d1)
                    .copy_from_slice(&cells[offset..next]);
                offset = next;
            }
        }
        Ok(())
    }

    /// Iterate all valid 4-index cells (slow; tests only).
    pub fn iter_cells(&self) -> impl Iterator<Item = (usize, usize, usize, usize)> + '_ {
        let (m, n) = (self.m, self.n);
        (0..m).flat_map(move |i1| {
            (i1..m).flat_map(move |j1| {
                (0..n).flat_map(move |i2| (i2..n).map(move |j2| (i1, j1, i2, j2)))
            })
        })
    }

    /// The top-level score `F[0, M−1, 0, N−1]` (`None` for an empty strand).
    pub fn final_score(&self) -> Option<f32> {
        if self.m == 0 || self.n == 0 {
            None
        } else {
            Some(self.get(0, self.m - 1, 0, self.n - 1))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outer_indexing_is_dense_and_unique() {
        let t = FTable::new(5, 3, Layout::Packed);
        let mut seen = std::collections::HashSet::new();
        for i1 in 0..5 {
            for j1 in i1..5 {
                assert!(seen.insert(t.outer(i1, j1)));
            }
        }
        assert_eq!(seen.len(), 15);
        assert_eq!(*seen.iter().max().unwrap(), 14);
    }

    #[test]
    fn get_set_round_trip_all_layouts() {
        for layout in [Layout::Packed, Layout::Identity, Layout::Shifted] {
            let mut t = FTable::new(4, 3, layout);
            let mut v = 0.0f32;
            for (i1, j1, i2, j2) in t.iter_cells().collect::<Vec<_>>() {
                t.set(i1, j1, i2, j2, v);
                v += 1.0;
            }
            let mut expect = 0.0f32;
            for (i1, j1, i2, j2) in t.iter_cells().collect::<Vec<_>>() {
                assert_eq!(t.get(i1, j1, i2, j2), expect, "{layout:?}");
                expect += 1.0;
            }
        }
    }

    #[test]
    fn storage_is_quarter_of_bbox_for_packed() {
        let t = FTable::new(32, 32, Layout::Packed);
        let bbox = 32usize * 32 * 32 * 32 * 4;
        let ratio = t.storage_bytes() as f64 / bbox as f64;
        assert!(ratio < 0.3, "ratio {ratio}");
    }

    #[test]
    fn row_api_matches_get() {
        for layout in [Layout::Packed, Layout::Identity, Layout::Shifted] {
            let mut t = FTable::new(2, 5, layout);
            for i2 in 0..5 {
                for j2 in i2..5 {
                    t.set(0, 1, i2, j2, (i2 * 10 + j2) as f32);
                }
            }
            let block = t.block(0, 1);
            for i2 in 0..5 {
                let row = t.row_of(block, i2);
                assert_eq!(row.len(), 5 - i2);
                for j2 in i2..5 {
                    assert_eq!(row[j2 - i2], (i2 * 10 + j2) as f32, "{layout:?}");
                }
            }
        }
    }

    #[test]
    fn take_put_block_round_trip() {
        let mut t = FTable::new(3, 3, Layout::Packed);
        t.set(0, 2, 1, 2, 42.0);
        let b = t.take_block(0, 2);
        assert_eq!(b[t.inner(1, 2)], 42.0);
        // other blocks still readable
        assert_eq!(t.get(0, 0, 0, 0), f32::NEG_INFINITY);
        t.put_block(0, 2, b);
        assert_eq!(t.get(0, 2, 1, 2), 42.0);
    }

    #[test]
    fn row_bands_mut_partitions_every_layout() {
        for layout in [Layout::Packed, Layout::Identity, Layout::Shifted] {
            for rows in [1usize, 2, 4, 6, 7] {
                let t = FTable::new(1, 6, layout);
                let mut block = vec![0.0f32; layout.storage_len(6)];
                let mut next = 0;
                for (range, band) in t.row_bands_mut(&mut block, rows) {
                    assert_eq!(range.start, next, "{layout:?} rows={rows}");
                    assert!(range.len() <= rows && !range.is_empty());
                    next = range.end;
                    let base = t.inner_row_start(range.start);
                    for i2 in range {
                        for j2 in i2..6 {
                            band[t.inner(i2, j2) - base] = (i2 * 100 + j2) as f32;
                        }
                    }
                }
                assert_eq!(next, 6, "{layout:?} rows={rows}");
                // verify through the scalar API
                for i2 in 0..6 {
                    for j2 in i2..6 {
                        assert_eq!(
                            block[t.inner(i2, j2)],
                            (i2 * 100 + j2) as f32,
                            "{layout:?} rows={rows} ({i2},{j2})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn final_score_edges() {
        let t = FTable::new(0, 4, Layout::Packed);
        assert_eq!(t.final_score(), None);
        let mut t = FTable::new(2, 2, Layout::Packed);
        t.set(0, 1, 0, 1, 7.0);
        assert_eq!(t.final_score(), Some(7.0));
    }

    #[test]
    #[should_panic(expected = "block length mismatch")]
    fn put_wrong_block_panics() {
        let mut t = FTable::new(2, 4, Layout::Packed);
        let _ = t.take_block(0, 0);
        t.put_block(0, 0, vec![0.0; 3]);
    }

    #[test]
    fn try_new_rejects_absurd_sizes() {
        assert_eq!(
            FTable::try_new(1 << 31, 4, Layout::Packed).unwrap_err(),
            BpMaxError::SizeOverflow { m: 1 << 31, n: 4 }
        );
        assert!(FTable::try_new(1 << 20, 1 << 20, Layout::Packed).is_err());
        assert!(FTable::try_new(8, 8, Layout::Packed).is_ok());
        assert!(FTable::try_new(0, 0, Layout::Packed).is_ok());
    }

    #[test]
    fn pool_acquire_release_round_trip_and_counters() {
        let pool = BlockPool::new();
        let a = pool.acquire(10);
        assert_eq!(a.len(), 10);
        assert!(a.iter().all(|&v| v == f32::NEG_INFINITY));
        pool.release(a);
        assert_eq!(pool.spare_count(), 1);
        // same-size reacquire: served from the spare, no allocation
        let b = pool.acquire(10);
        let s = pool.stats();
        assert_eq!((s.allocated, s.reused, s.recycled), (1, 1, 1));
        pool.release(b);
        // smaller request also reuses (capacity 10 >= 4)
        let c = pool.acquire(4);
        assert_eq!(c.len(), 4);
        assert_eq!(pool.stats().reused, 2);
        pool.release(c);
        // larger request grows the spare: counted as an allocation
        let d = pool.acquire(64);
        assert_eq!(d.len(), 64);
        assert_eq!(pool.stats().allocated, 2);
    }

    #[test]
    fn pool_best_fit_prefers_smallest_sufficient_spare() {
        let pool = BlockPool::new();
        pool.release(Vec::with_capacity(100));
        pool.release(Vec::with_capacity(20));
        pool.release(Vec::with_capacity(50));
        let b = pool.acquire(30);
        // 50 is the smallest capacity >= 30
        assert!(b.capacity() >= 50 && b.capacity() < 100, "{}", b.capacity());
        assert_eq!(pool.spare_count(), 2);
    }

    #[test]
    fn recycle_quarantines_taken_blocks() {
        let pool = BlockPool::new();
        let mut t = FTable::try_new_in(3, 3, Layout::Packed, &pool).unwrap();
        // simulate a solve that died with two blocks taken out: the empty
        // placeholder Vecs must not re-enter the arena
        let _abandoned = t.take_block(0, 1);
        let _abandoned = t.take_block(1, 2);
        t.recycle(&pool);
        let s = pool.stats();
        assert_eq!(s.quarantined, 2);
        assert_eq!(s.recycled, 4); // the other four blocks are fine
        assert_eq!(pool.spare_count(), 4);
    }

    #[test]
    fn quarantined_buffers_never_come_back() {
        let pool = BlockPool::new();
        pool.quarantine(vec![0.0; 7]);
        assert_eq!(pool.spare_count(), 0);
        assert_eq!(pool.stats().quarantined, 1);
        // the next acquire is a fresh allocation, not the dropped buffer
        let b = pool.acquire(7);
        assert_eq!(pool.stats().allocated, 1);
        assert!(b.iter().all(|&v| v == f32::NEG_INFINITY));
    }

    #[test]
    fn estimate_bytes_matches_real_allocation() {
        for layout in [Layout::Packed, Layout::Identity, Layout::Shifted] {
            let t = FTable::new(5, 7, layout);
            assert_eq!(
                FTable::estimate_bytes(5, 7, layout).unwrap(),
                t.storage_bytes() as u64,
                "{layout:?}"
            );
        }
        assert!(FTable::estimate_bytes(1 << 31, 4, Layout::Packed).is_err());
    }

    #[test]
    fn pooled_table_round_trips_and_stays_allocation_flat() {
        let pool = BlockPool::new();
        let mut t = FTable::try_new_in(4, 3, Layout::Packed, &pool).unwrap();
        t.set(0, 3, 1, 2, 5.0);
        assert_eq!(t.get(0, 3, 1, 2), 5.0);
        assert_eq!(t.get(0, 0, 0, 0), f32::NEG_INFINITY);
        let first_wave = pool.stats().allocated;
        assert_eq!(first_wave, 10); // one per outer cell
        t.recycle(&pool);
        // second wave of the same shape: zero fresh allocations, and the
        // recycled buffers come back fully reset to -inf
        let t2 = FTable::try_new_in(4, 3, Layout::Packed, &pool).unwrap();
        assert_eq!(pool.stats().allocated, first_wave);
        for (i1, j1, i2, j2) in t2.iter_cells().collect::<Vec<_>>() {
            assert_eq!(t2.get(i1, j1, i2, j2), f32::NEG_INFINITY);
        }
    }
}
