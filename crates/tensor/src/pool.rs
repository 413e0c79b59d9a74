//! A best-fit buffer pool for [`Matrix`] allocations.
//!
//! Training a GNN runs the same forward/backward graph thousands of
//! times (every sample × every epoch), so the set of matrix shapes the
//! tape allocates is small and perfectly repetitive. The pool keeps
//! retired backing `Vec<f32>`s ordered by capacity and hands out the
//! smallest one that holds a request — after the first forward pass
//! through a sample, a reused [`crate::Tape`] performs no heap
//! allocation for its values or adjoints, and a pass over a smaller
//! graph of the same model reuses the larger one's buffers instead of
//! parking a set of its own.
//!
//! The pool is purely a memory recycler: callers receive either a
//! zero-filled matrix ([`BufferPool::alloc`]), an exact copy
//! ([`BufferPool::copy_of`]), or an empty scratch vector
//! ([`BufferPool::scratch`]) — the arithmetic performed on them is
//! unchanged, so pooling cannot affect any computed bit.

use std::collections::BTreeMap;

use crate::matrix::Matrix;

/// Cap on floats parked in the pool (64 MiB of f32) — a backstop so a
/// one-off giant temporary cannot pin memory forever.
const MAX_POOLED_FLOATS: usize = 16 << 20;

/// Hit/miss counters for observability (surfaced by `bench_predictor`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Requests served from a recycled buffer.
    pub hits: u64,
    /// Requests that fell through to a fresh heap allocation.
    pub misses: u64,
}

impl PoolStats {
    /// Fraction of requests served from recycled buffers (0 when no
    /// requests have been made). The serve path asserts this stays
    /// positive in `bench_predictor` — a zero hit rate there means a
    /// tape op regressed to per-call allocation.
    pub fn hit_rate(&self) -> f64 {
        self.hits as f64 / (self.hits + self.misses).max(1) as f64
    }
}

/// Best-fit recycler of matrix backing buffers.
#[derive(Debug, Default)]
pub struct BufferPool {
    /// Retired buffers keyed by capacity (no empty buckets).
    buckets: BTreeMap<usize, Vec<Vec<f32>>>,
    /// Total capacity, in floats, currently parked across all buckets.
    parked: usize,
    stats: PoolStats,
}

impl BufferPool {
    /// Fresh, empty pool.
    pub fn new() -> BufferPool {
        BufferPool::default()
    }

    /// Pop the smallest retired buffer with capacity for `len` floats,
    /// cleared to length 0; `None` on a miss (and for `len == 0`, which
    /// needs no buffer). Counters updated either way.
    ///
    /// A miss drops the largest parked buffer, which is too small: the
    /// caller's fresh allocation takes its place, so a pass over a larger
    /// graph replaces the buffers of a smaller one instead of parking a
    /// second set next to them.
    fn take(&mut self, len: usize) -> Option<Vec<f32>> {
        if len == 0 {
            self.stats.misses += 1;
            return None;
        }
        let Some(cap) = self.buckets.range(len..).next().map(|(&cap, _)| cap) else {
            self.stats.misses += 1;
            if let Some(cap) = self.buckets.last_key_value().map(|(&cap, _)| cap) {
                self.pop(cap);
            }
            return None;
        };
        self.stats.hits += 1;
        let mut v = self.pop(cap);
        v.clear();
        Some(v)
    }

    /// Unpark one buffer of capacity `cap` (a key of `buckets`).
    fn pop(&mut self, cap: usize) -> Vec<f32> {
        let bucket = self.buckets.get_mut(&cap).expect("a parked capacity");
        let v = bucket.pop().expect("buckets are never empty");
        if bucket.is_empty() {
            self.buckets.remove(&cap);
        }
        self.parked -= cap;
        v
    }

    /// An empty `0 × 0` matrix whose backing buffer has capacity for
    /// `len` floats when the pool has one — the natural destination for
    /// the `*_into` kernels, which reshape it themselves.
    pub fn scratch(&mut self, len: usize) -> Matrix {
        let data = self.take(len).unwrap_or_else(|| Vec::with_capacity(len));
        Matrix::from_vec(0, 0, data)
    }

    /// A zero-filled `rows × cols` matrix, recycled when possible.
    pub fn alloc(&mut self, rows: usize, cols: usize) -> Matrix {
        let len = rows * cols;
        match self.take(len) {
            Some(mut v) => {
                v.resize(len, 0.0);
                Matrix::from_vec(rows, cols, v)
            }
            None => Matrix::zeros(rows, cols),
        }
    }

    /// An exact copy of `src`, recycled when possible.
    pub fn copy_of(&mut self, src: &Matrix) -> Matrix {
        let len = src.data().len();
        match self.take(len) {
            Some(mut v) => {
                v.extend_from_slice(src.data());
                Matrix::from_vec(src.rows(), src.cols(), v)
            }
            None => src.clone(),
        }
    }

    /// Return a matrix's backing buffer to the pool. Buffers beyond the
    /// `MAX_POOLED_FLOATS` budget (and zero-capacity ones) are simply
    /// dropped.
    pub fn recycle(&mut self, m: Matrix) {
        let data = m.into_data();
        let cap = data.capacity();
        if cap == 0 || self.parked + cap > MAX_POOLED_FLOATS {
            return;
        }
        self.parked += cap;
        self.buckets.entry(cap).or_default().push(data);
    }

    /// Lifetime hit/miss counters.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Capacity, in floats, currently parked across all buckets.
    pub fn parked_floats(&self) -> usize {
        self.parked
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recycles_same_size_buffers() {
        let mut pool = BufferPool::new();
        let a = pool.alloc(4, 8);
        assert_eq!(pool.stats(), PoolStats { hits: 0, misses: 1 });
        pool.recycle(a);
        assert_eq!(pool.parked_floats(), 32);
        let b = pool.alloc(4, 8);
        assert_eq!(pool.stats(), PoolStats { hits: 1, misses: 1 });
        assert_eq!(pool.parked_floats(), 0);
        assert!(b.data().iter().all(|&x| x == 0.0));
        // a different shape with the same element count also hits
        pool.recycle(b);
        let c = pool.alloc(8, 4);
        assert_eq!((c.rows(), c.cols()), (8, 4));
        assert_eq!(pool.stats().hits, 2);
    }

    #[test]
    fn takes_the_smallest_buffer_that_fits() {
        let mut pool = BufferPool::new();
        for len in [8, 32, 16] {
            pool.recycle(Matrix::zeros(1, len));
        }
        assert_eq!(pool.parked_floats(), 56);
        // 10 floats fit the 16-float buffer best
        let a = pool.alloc(2, 5);
        assert_eq!((a.rows(), a.cols()), (2, 5));
        assert!(a.data().iter().all(|&x| x == 0.0));
        assert_eq!(pool.parked_floats(), 40, "the 16-float buffer left");
        // recycling accounts the capacity, not the length
        pool.recycle(a);
        assert_eq!(pool.parked_floats(), 56);
        // an empty request takes nothing
        let _ = pool.scratch(0);
        assert_eq!(pool.parked_floats(), 56);
        // nothing parked holds 33 floats: a miss, and the largest parked
        // buffer makes way for the fresh one
        let big = pool.scratch(33);
        assert_eq!(pool.stats(), PoolStats { hits: 1, misses: 2 });
        assert_eq!(pool.parked_floats(), 24, "the 32-float buffer dropped");
        pool.recycle(big);
        assert_eq!(pool.parked_floats(), 57);
    }

    #[test]
    fn copy_of_matches_source() {
        let mut pool = BufferPool::new();
        let src = Matrix::from_vec(2, 3, vec![1.0, -2.0, 3.0, 4.0, -5.0, 6.0]);
        let warm = pool_scratch(&mut pool, 6);
        pool.recycle(warm);
        let copy = pool.copy_of(&src);
        assert_eq!(copy, src);
    }

    fn pool_scratch(pool: &mut BufferPool, len: usize) -> Matrix {
        let mut m = pool.scratch(len);
        m.reset(1, len);
        m
    }

    #[test]
    fn scratch_reuses_capacity() {
        let mut pool = BufferPool::new();
        let mut m = pool.scratch(12);
        m.reset(3, 4);
        pool.recycle(m);
        let again = pool.scratch(12);
        assert_eq!(pool.stats().hits, 1);
        assert_eq!((again.rows(), again.cols()), (0, 0));
    }

    #[test]
    fn oversized_recycle_is_dropped() {
        let mut pool = BufferPool::new();
        pool.recycle(Matrix::zeros(0, 0)); // zero-capacity: dropped
        let huge = Matrix::zeros(1, super::MAX_POOLED_FLOATS + 1);
        pool.recycle(huge);
        let m = pool.alloc(1, super::MAX_POOLED_FLOATS + 1);
        assert_eq!(pool.stats().hits, 0, "over-budget buffer was not parked");
        drop(m);
    }
}
