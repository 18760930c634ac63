//! Cross-step buffer recycling for the autograd tape.
//!
//! Every training step records a tape of operations, and every node on that
//! tape owns heap buffers: the forward value, gradient tensors, dropout
//! masks, saved softmax probabilities, and so on. Building a fresh
//! [`crate::Graph`] per step turns all of that into allocator churn.
//!
//! [`BufferPool`] is the arena that breaks the cycle: when a graph is
//! [`reset`](crate::Graph::reset), every buffer on the tape is returned
//! here instead of being freed, bucketed by capacity. The next step's ops
//! then *take* buffers back out — a `BTreeMap` smallest-fit lookup — so in
//! steady state a training loop performs almost no heap allocation at all.
//!
//! Buffers come back with unspecified contents. Callers choose between
//! [`BufferPool::take_f32`] (contents unspecified — for outputs every
//! element of which is overwritten) and [`BufferPool::take_f32_zeroed`]
//! (for accumulation targets). Getting that distinction right per op is
//! what keeps reuse bit-identical to fresh allocation; see the audit notes
//! on each backward rule in `ops.rs` and the tape-memory-model section of
//! `DESIGN.md`.
//!
//! A pool is as large as the tape of the biggest step it has served, and
//! only a thread holding a [`crate::pool::compute_permit`] runs steps. So
//! a graph whose task is over [`park`](crate::Graph::park)s its pool in
//! [`ParkedPools`], and the next graph to start a step with an empty pool
//! adopts it: the process keeps about one pool per compute permit, not one
//! per graph (DESIGN.md §3d).

use crate::shape::Shape;
use crate::tensor::Tensor;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Mutex;

/// Pops the smallest buffer with capacity at least `n` from a bucketed
/// free-list map, removing emptied buckets.
fn take_bucket<T>(map: &mut BTreeMap<usize, Vec<Vec<T>>>, n: usize) -> Option<Vec<T>> {
    let (&cap, bucket) = map.range_mut(n..).next()?;
    let v = bucket.pop().expect("pool buckets are never empty");
    if bucket.is_empty() {
        map.remove(&cap);
    }
    Some(v)
}

/// Returns a buffer to a bucketed free-list map, keyed by its capacity.
fn give_bucket<T>(map: &mut BTreeMap<usize, Vec<Vec<T>>>, v: Vec<T>) {
    if v.capacity() > 0 {
        map.entry(v.capacity()).or_default().push(v);
    }
}

/// Capacity-bucketed free lists of heap buffers, recycled across training
/// steps by [`crate::Graph::reset`].
///
/// Holds separate free lists for the three element types the tape stores:
/// `f32` (tensor values, gradients, dropout masks, softmax probabilities,
/// layer-norm statistics), `u32` (embedding ids) and `i32` (cross-entropy
/// targets).
#[derive(Debug, Default)]
pub(crate) struct BufferPool {
    f32s: BTreeMap<usize, Vec<Vec<f32>>>,
    u32s: BTreeMap<usize, Vec<Vec<u32>>>,
    i32s: BTreeMap<usize, Vec<Vec<i32>>>,
    hits: u64,
    misses: u64,
    /// Bytes currently parked in the free lists.
    held_bytes: u64,
    /// High-water mark of `held_bytes` over the pool's lifetime.
    peak_bytes: u64,
    /// Hit/miss values already pushed to the global obs registry, so
    /// [`BufferPool::publish_obs`] adds only the delta since last call.
    published: (u64, u64),
}

impl BufferPool {
    /// A length-`n` `f32` buffer with unspecified contents. Only use when
    /// every element will be written before being read.
    pub(crate) fn take_f32(&mut self, n: usize) -> Vec<f32> {
        if n == 0 {
            return Vec::new();
        }
        match take_bucket(&mut self.f32s, n) {
            Some(mut v) => {
                self.hits += 1;
                self.held_bytes -= (v.capacity() * std::mem::size_of::<f32>()) as u64;
                v.resize(n, 0.0);
                v
            }
            None => {
                self.misses += 1;
                vec![0.0; n]
            }
        }
    }

    /// A length-`n` `f32` buffer with every element zero.
    pub(crate) fn take_f32_zeroed(&mut self, n: usize) -> Vec<f32> {
        if n == 0 {
            return Vec::new();
        }
        match take_bucket(&mut self.f32s, n) {
            Some(mut v) => {
                self.hits += 1;
                self.held_bytes -= (v.capacity() * std::mem::size_of::<f32>()) as u64;
                v.clear();
                v.resize(n, 0.0);
                v
            }
            None => {
                self.misses += 1;
                vec![0.0; n]
            }
        }
    }

    /// Returns an `f32` buffer to the pool.
    pub(crate) fn give_f32(&mut self, v: Vec<f32>) {
        self.track_give(v.capacity() * std::mem::size_of::<f32>());
        give_bucket(&mut self.f32s, v);
    }

    /// A length-`n` `u32` buffer with unspecified contents.
    pub(crate) fn take_u32(&mut self, n: usize) -> Vec<u32> {
        if n == 0 {
            return Vec::new();
        }
        match take_bucket(&mut self.u32s, n) {
            Some(mut v) => {
                self.hits += 1;
                self.held_bytes -= (v.capacity() * std::mem::size_of::<u32>()) as u64;
                v.resize(n, 0);
                v
            }
            None => {
                self.misses += 1;
                vec![0; n]
            }
        }
    }

    /// Returns a `u32` buffer to the pool.
    pub(crate) fn give_u32(&mut self, v: Vec<u32>) {
        self.track_give(v.capacity() * std::mem::size_of::<u32>());
        give_bucket(&mut self.u32s, v);
    }

    /// A length-`n` `i32` buffer with unspecified contents.
    pub(crate) fn take_i32(&mut self, n: usize) -> Vec<i32> {
        if n == 0 {
            return Vec::new();
        }
        match take_bucket(&mut self.i32s, n) {
            Some(mut v) => {
                self.hits += 1;
                self.held_bytes -= (v.capacity() * std::mem::size_of::<i32>()) as u64;
                v.resize(n, 0);
                v
            }
            None => {
                self.misses += 1;
                vec![0; n]
            }
        }
    }

    /// Returns an `i32` buffer to the pool.
    pub(crate) fn give_i32(&mut self, v: Vec<i32>) {
        self.track_give(v.capacity() * std::mem::size_of::<i32>());
        give_bucket(&mut self.i32s, v);
    }

    // ------------------------------------------------------------------
    // Tensor-level helpers
    // ------------------------------------------------------------------

    /// A tensor of `shape` with unspecified contents. Only use when every
    /// element will be written before being read.
    pub(crate) fn tensor_uninit(&mut self, shape: Shape) -> Tensor {
        let data = self.take_f32(shape.numel());
        Tensor::from_raw(shape, data)
    }

    /// An all-zeros tensor of `shape`.
    pub(crate) fn tensor_zeroed(&mut self, shape: Shape) -> Tensor {
        let data = self.take_f32_zeroed(shape.numel());
        Tensor::from_raw(shape, data)
    }

    /// A tensor of `shape` filled with `v`.
    pub(crate) fn tensor_full(&mut self, shape: Shape, v: f32) -> Tensor {
        let mut t = self.tensor_uninit(shape);
        t.data_mut().fill(v);
        t
    }

    /// An element-wise copy of `src`.
    pub(crate) fn tensor_copy(&mut self, src: &Tensor) -> Tensor {
        let mut t = self.tensor_uninit(*src.shape());
        t.data_mut().copy_from_slice(src.data());
        t
    }

    /// Returns a tensor's backing buffer to the pool.
    pub(crate) fn recycle(&mut self, t: Tensor) {
        self.give_f32(t.into_data());
    }

    /// Buffer requests served from the free lists.
    #[cfg(test)]
    pub(crate) fn hits(&self) -> u64 {
        self.hits
    }

    /// Buffer requests that fell through to the system allocator.
    #[cfg(test)]
    pub(crate) fn misses(&self) -> u64 {
        self.misses
    }

    /// High-water mark of bytes parked in the free lists.
    #[cfg(test)]
    pub(crate) fn peak_bytes(&self) -> u64 {
        self.peak_bytes
    }

    /// True while the free lists hold no buffer.
    pub(crate) fn is_empty(&self) -> bool {
        self.held_bytes == 0
    }

    fn track_give(&mut self, bytes: usize) {
        self.held_bytes += bytes as u64;
        self.peak_bytes = self.peak_bytes.max(self.held_bytes);
    }

    /// Pushes the hit/miss deltas since the last call to the global obs
    /// counters `tensor.arena.hits` / `tensor.arena.misses` and raises
    /// the `tensor.arena.peak_pool_bytes` gauge. Called by
    /// [`crate::Graph::reset`] so steady-state training publishes once
    /// per step, not once per buffer.
    pub(crate) fn publish_obs(&mut self) {
        if !clinfl_obs::enabled() {
            return;
        }
        let (hits, misses) = (self.hits, self.misses);
        if hits > self.published.0 {
            clinfl_obs::counter("tensor.arena.hits").add(hits - self.published.0);
        }
        if misses > self.published.1 {
            clinfl_obs::counter("tensor.arena.misses").add(misses - self.published.1);
        }
        self.published = (hits, misses);
        clinfl_obs::gauge("tensor.arena.peak_pool_bytes").set_max(self.peak_bytes as i64);
    }
}

/// Pools waiting for their next graph, oldest first.
///
/// FIFO on purpose: the pool parked longest ago is the one no other core
/// wrote microseconds earlier, so its adopter does not start by pulling
/// another core's dirty cache lines (the prototype behind this design
/// measured LIFO at +8…15 % CPU per LSTM round, FIFO at none; DESIGN.md
/// §3d). Which pool a graph gets is never
/// observable in its results, because a buffer's contents are unspecified
/// after `take_*` and every op overwrites or zeroes what it reads.
#[derive(Debug, Default)]
pub(crate) struct ParkedPools {
    queue: Mutex<VecDeque<BufferPool>>,
}

/// The process-wide queue behind [`crate::Graph::park`].
pub(crate) static PARKED: ParkedPools = ParkedPools {
    queue: Mutex::new(VecDeque::new()),
};

impl ParkedPools {
    fn lock(&self) -> std::sync::MutexGuard<'_, VecDeque<BufferPool>> {
        // A push or pop leaves the queue valid at every step, so a
        // poisoned lock (a panicking site drops its guard mid-unwind) is
        // safe to recover.
        self.queue.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Parks `pool` at the back. At most `cap` pools stay parked; the
    /// oldest beyond that are freed. An empty pool is not worth a slot.
    pub(crate) fn park(&self, pool: BufferPool, cap: usize) {
        if pool.is_empty() {
            return;
        }
        let mut queue = self.lock();
        queue.push_back(pool);
        let excess = queue.len().saturating_sub(cap);
        let dropped: Vec<BufferPool> = queue.drain(..excess).collect();
        let parked = queue.len();
        drop(queue);
        if clinfl_obs::enabled() {
            clinfl_obs::gauge("tensor.arena.parked_pools").set(parked as i64);
            if !dropped.is_empty() {
                clinfl_obs::counter("tensor.arena.dropped_pools").add(dropped.len() as u64);
            }
        }
        // `dropped` frees its buffers here, outside the lock.
    }

    /// Takes the pool parked longest ago, if any.
    pub(crate) fn adopt(&self) -> Option<BufferPool> {
        let mut queue = self.lock();
        let pool = queue.pop_front()?;
        let parked = queue.len();
        drop(queue);
        if clinfl_obs::enabled() {
            clinfl_obs::gauge("tensor.arena.parked_pools").set(parked as i64);
            clinfl_obs::counter("tensor.arena.adoptions").incr();
        }
        Some(pool)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A pool holding one buffer of `n` floats, recognisable by its
    /// `peak_bytes`.
    fn pool_of(n: usize) -> BufferPool {
        let mut pool = BufferPool::default();
        pool.give_f32(vec![0.0; n]);
        pool
    }

    fn parked_len(parked: &ParkedPools) -> usize {
        parked.lock().len()
    }

    #[test]
    fn parked_pools_are_adopted_oldest_first() {
        let parked = ParkedPools::default();
        for n in [1, 2, 3] {
            parked.park(pool_of(n), 3);
        }
        let order: Vec<u64> = std::iter::from_fn(|| parked.adopt())
            .map(|p| p.peak_bytes() / 4)
            .collect();
        assert_eq!(order, [1, 2, 3]);
    }

    #[test]
    fn parked_count_never_exceeds_cap_and_oldest_go_first() {
        let parked = ParkedPools::default();
        for n in 1..=5 {
            parked.park(pool_of(n), 2);
            assert!(parked_len(&parked) <= 2);
        }
        assert_eq!(parked.adopt().unwrap().peak_bytes() / 4, 4);
        // A lowered budget trims what an earlier, larger one let in.
        parked.park(pool_of(6), 1);
        assert_eq!(parked_len(&parked), 1);
        assert_eq!(parked.adopt().unwrap().peak_bytes() / 4, 6);
        assert!(parked.adopt().is_none());
    }

    #[test]
    fn empty_pools_are_not_parked() {
        let parked = ParkedPools::default();
        parked.park(BufferPool::default(), 4);
        assert!(parked.adopt().is_none());
    }

    #[test]
    fn recycled_buffers_are_reused() {
        let mut pool = BufferPool::default();
        let a = pool.take_f32(16);
        assert_eq!(pool.misses(), 1);
        pool.give_f32(a);
        let b = pool.take_f32(10);
        assert_eq!(pool.hits(), 1);
        assert_eq!(b.len(), 10);
        assert!(b.capacity() >= 16);
    }

    #[test]
    fn zeroed_take_clears_stale_contents() {
        let mut pool = BufferPool::default();
        pool.give_f32(vec![7.0; 8]);
        let z = pool.take_f32_zeroed(8);
        assert!(z.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn smallest_fit_picks_tightest_bucket() {
        let mut pool = BufferPool::default();
        pool.give_f32(Vec::with_capacity(100));
        pool.give_f32(Vec::with_capacity(8));
        let v = pool.take_f32(5);
        assert!(v.capacity() < 100, "should pick the 8-capacity buffer");
    }

    #[test]
    fn tensor_helpers_shapes_and_values() {
        let mut pool = BufferPool::default();
        let z = pool.tensor_zeroed(Shape::new(&[2, 3]));
        assert_eq!(z.dims(), &[2, 3]);
        assert!(z.data().iter().all(|&v| v == 0.0));
        let f = pool.tensor_full(Shape::new(&[2]), 4.5);
        assert_eq!(f.data(), &[4.5, 4.5]);
        let c = pool.tensor_copy(&f);
        assert_eq!(c.data(), &[4.5, 4.5]);
        pool.recycle(z);
        pool.recycle(f);
        pool.recycle(c);
        assert!(pool.hits() + pool.misses() >= 3);
    }

    #[test]
    fn zero_length_requests_do_not_touch_buckets() {
        let mut pool = BufferPool::default();
        pool.give_f32(vec![1.0; 4]);
        let v = pool.take_f32(0);
        assert!(v.is_empty());
        assert_eq!(pool.hits(), 0);
        assert_eq!(pool.misses(), 0);
    }

    #[test]
    fn typed_buffers_round_trip() {
        let mut pool = BufferPool::default();
        pool.give_u32(vec![9; 6]);
        let u = pool.take_u32(4);
        assert_eq!(u.len(), 4);
        assert_eq!(pool.hits(), 1);
        pool.give_i32(vec![-3; 5]);
        let i = pool.take_i32(5);
        assert_eq!(i.len(), 5);
        assert_eq!(pool.hits(), 2);
    }
}
