//! # rtnn-parallel
//!
//! A small CPU parallel-execution substrate used by the host-side stages of
//! the reproduction (BVH construction, query sorting, dataset generation)
//! and by the GPU simulator to execute independent SM shards concurrently.
//!
//! The approved dependency set does not include `rayon`, so this crate
//! provides the handful of primitives the workspace needs on top of one
//! persistent, std-only worker pool (see [`pool`]):
//!
//! * [`par_for_chunks`] — dynamic (work-stealing-ish) scheduling of index
//!   ranges over the pool;
//! * [`par_map_collect`] — parallel indexed map over `0..n` for coarse
//!   work items, producing a `Vec<R>` (used by the concurrent
//!   structure-cache/shard builds);
//! * [`par_map_collect_mut`] — parallel mutable visit of a slice's elements
//!   that collects one result per element (used by `rtnn-serve` to fan one
//!   query tick out over its shard indexes, each run owning one shard
//!   exclusively, and by the simulator to run one SM shard per element);
//! * [`par_chunks_mut`] — disjoint mutable chunks of a slice (the LBVH
//!   builder's Morton keys and level passes);
//! * [`par_sort_by_key`] — parallel merge of per-chunk sorts (used for the
//!   Morton sorts in the LBVH builder and the query scheduler).
//!
//! Every helper runs a share of its work on the calling thread and lets
//! idle pool workers join in; a call made while every worker is busy (a
//! nested call from inside another helper) simply finishes on its caller.
//! When a call runs in parallel, each worker starts its run with a fresh
//! thread's thread-local state — no telemetry frame and no
//! [`with_thread_count`] override — exactly as a newly spawned thread
//! would, and the caller's own share starts from the same fresh state, so
//! what a run sees never depends on which thread claimed it. A call that
//! runs entirely on its caller (see below) keeps the caller's state. A
//! panic inside a helper's closure is re-raised on the caller with its
//! original payload.
//!
//! The crate also hosts the small sequential [`UnionFind`] used by the
//! analytics layer to merge DBSCAN neighborhoods — it lives here (rather
//! than in a geometry crate) because it is a generic id-space primitive
//! with the same "results never depend on execution order" contract as the
//! parallel helpers (see [`UnionFind::min_labels`]).
//!
//! Every primitive has a *deterministic-ordering guarantee*: output element
//! `i` is always `f(i, …)` regardless of the thread count or how chunks were
//! claimed — parallelism changes wall-clock time, never results.
//!
//! A helper runs entirely on its caller when one thread is configured or
//! when its input makes a single chunk: at most `min_chunk` items for
//! [`par_for_chunks`] and [`par_chunks_mut`] (so a `min_chunk` of 1 leaves
//! only `n ≤ 1` sequential), one element for [`par_map_collect_mut`], and
//! 2048 items for [`par_sort_by_key`].

pub mod pool;
pub mod union_find;

pub use pool::{current_num_threads, set_num_threads, with_thread_count};
pub use union_find::UnionFind;

use pool::POOL;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Inputs of at most this many items sort sequentially.
const SEQUENTIAL_CUTOFF: usize = 2048;

/// Run `f` over `0..n` in ranges of `chunk` items, claimed from a shared
/// counter by the caller and up to `threads − 1` pool workers.
fn run_claimed(n: usize, chunk: usize, threads: usize, f: &(dyn Fn(Range<usize>) + Sync)) {
    let next = AtomicUsize::new(0);
    // `Relaxed` suffices: the counter publishes no data. What each run
    // writes reaches the caller through the pool's lock, which a worker
    // takes to leave the task and the caller takes to see it gone.
    POOL.broadcast(threads, &|| loop {
        let start = next.fetch_add(chunk, Ordering::Relaxed);
        if start >= n {
            break;
        }
        f(start..(start + chunk).min(n));
    });
}

/// Split `0..n` into dynamically scheduled chunks of at least `min_chunk`
/// items and run `f` on each chunk, using the workspace thread pool.
///
/// `f` receives the index range of the chunk. Chunks are claimed from a
/// shared atomic counter, so imbalanced chunk costs still load-balance.
pub fn par_for_chunks<F>(n: usize, min_chunk: usize, f: F)
where
    F: Fn(Range<usize>) + Sync,
{
    let threads = current_num_threads();
    let min_chunk = min_chunk.max(1);
    if n == 0 {
        return;
    }
    if n <= min_chunk || threads <= 1 {
        f(0..n);
        return;
    }
    // Aim for ~4 chunks per thread for load balancing, but never below
    // min_chunk items per chunk.
    let chunk = (n / (threads * 4)).max(min_chunk);
    run_claimed(n, chunk, threads, &f);
}

/// Parallel indexed map over `0..n` with the same deterministic-ordering
/// guarantee as [`par_map_collect_mut`]: slot `i` of the result is always
/// `f(i)`, regardless of thread count or claim order.
///
/// The result type needs neither `Default` nor `Clone` (results are
/// written exactly once into uninitialised slots), and the scheduler claims
/// aggressively (chunks shrink to a single item), so it is the right
/// primitive for *coarse* work items — one acceleration structure, one
/// spatial shard, one BVH subtree per index.
pub fn par_map_collect<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    use std::mem::{ManuallyDrop, MaybeUninit};
    let mut out: Vec<MaybeUninit<R>> = Vec::with_capacity(n);
    // SAFETY: `MaybeUninit` slots require no initialisation.
    unsafe { out.set_len(n) };
    {
        let base = SendPtr(out.as_mut_ptr());
        par_for_chunks(n, 1, |range| {
            let ptr = base;
            for i in range {
                // SAFETY: each index is visited by exactly one chunk, so no
                // two threads write the same slot, and `out` outlives the
                // `par_for_chunks` call, which returns only after every run.
                unsafe { ptr.0.add(i).write(MaybeUninit::new(f(i))) };
            }
        });
    }
    // SAFETY: every slot in 0..n was written exactly once above, so the
    // buffer is fully initialised; transfer ownership without dropping the
    // `MaybeUninit` wrapper. (If a run panicked we never get here — the
    // elements leak, which is safe.)
    let mut out = ManuallyDrop::new(out);
    unsafe { Vec::from_raw_parts(out.as_mut_ptr() as *mut R, n, out.capacity()) }
}

/// Visit every element of `items` exactly once with `&mut` access, in
/// parallel, and collect one result per element: slot `i` of the returned
/// vector is `f(i, &mut items[i])`. Claims are single elements (the
/// intended work items — shards, structure builds — are coarse), so
/// expensive elements load-balance across the pool.
pub fn par_map_collect_mut<T, R, F>(items: &mut [T], f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    use std::mem::{ManuallyDrop, MaybeUninit};
    let n = items.len();
    let threads = current_num_threads().min(n);
    if n <= 1 || threads <= 1 {
        return items
            .iter_mut()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }
    let mut out: Vec<MaybeUninit<R>> = Vec::with_capacity(n);
    // SAFETY: `MaybeUninit` slots require no initialisation.
    unsafe { out.set_len(n) };
    {
        let base = SendPtr(items.as_mut_ptr());
        let out_base = SendPtr(out.as_mut_ptr());
        run_claimed(n, 1, threads, &|range| {
            let (ptr, out_ptr) = (base, out_base);
            for i in range {
                // SAFETY: each index is claimed by exactly one run, so
                // neither the element nor the output slot is aliased, and
                // both buffers outlive `run_claimed`, which returns only
                // after every run.
                let r = f(i, unsafe { &mut *ptr.0.add(i) });
                unsafe { out_ptr.0.add(i).write(MaybeUninit::new(r)) };
            }
        });
    }
    // SAFETY: every slot was written exactly once (see loop above).
    let mut out = ManuallyDrop::new(out);
    unsafe { Vec::from_raw_parts(out.as_mut_ptr() as *mut R, n, out.capacity()) }
}

/// Visit disjoint chunks of `items` (at least `min_chunk` elements each,
/// dynamically scheduled) with `&mut` access; `f` receives the chunk's
/// start index and the chunk slice.
pub fn par_chunks_mut<T, F>(items: &mut [T], min_chunk: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let base = SendPtr(items.as_mut_ptr());
    par_for_chunks(items.len(), min_chunk, |range| {
        let ptr = base;
        // SAFETY: chunk ranges are disjoint, so the chunk slices never
        // alias, and `items` outlives the `par_for_chunks` call, which
        // returns only after every run.
        let slice = unsafe { std::slice::from_raw_parts_mut(ptr.0.add(range.start), range.len()) };
        f(range.start, slice);
    });
}

/// Parallel stable sort of `items` by a key function: the slice is split
/// into per-thread chunks, each chunk is sorted, and the chunks are merged.
/// The sorted order is deterministic for unique keys regardless of thread
/// count.
pub fn par_sort_by_key<T, K, F>(items: &mut [T], key: F)
where
    T: Send + Clone,
    K: Ord,
    F: Fn(&T) -> K + Sync,
{
    let n = items.len();
    let threads = current_num_threads();
    if n <= SEQUENTIAL_CUTOFF || threads <= 1 {
        items.sort_by_key(|t| key(t));
        return;
    }
    let chunk = n.div_ceil(threads);
    // Sort each chunk in parallel.
    {
        let base = SendPtr(items.as_mut_ptr());
        par_for_chunks(threads, 1, |range| {
            // Capture the wrapper (not its raw-pointer field) so the closure
            // stays `Sync` under edition-2021 disjoint capture rules.
            let ptr = base;
            for t in range {
                let start = t * chunk;
                if start >= n {
                    continue;
                }
                let end = ((t + 1) * chunk).min(n);
                // SAFETY: chunks are disjoint.
                let slice =
                    unsafe { std::slice::from_raw_parts_mut(ptr.0.add(start), end - start) };
                slice.sort_by_key(|t| key(t));
            }
        });
    }
    // Iteratively merge neighbouring sorted runs. The merge passes are
    // sequential (there are only log2(threads) of them and they are
    // memory-bandwidth bound); each pass copies the current contents once.
    let mut run = chunk;
    while run < n {
        let src = items.to_vec();
        let mut start = 0;
        while start < n {
            let mid = (start + run).min(n);
            let end = (start + 2 * run).min(n);
            merge_by_key(
                &src[start..mid],
                &src[mid..end],
                &mut items[start..end],
                &key,
            );
            start = end;
        }
        run *= 2;
    }
}

fn merge_by_key<T: Clone, K: Ord, F: Fn(&T) -> K>(a: &[T], b: &[T], out: &mut [T], key: &F) {
    let (mut i, mut j, mut k) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        if key(&a[i]) <= key(&b[j]) {
            out[k] = a[i].clone();
            i += 1;
        } else {
            out[k] = b[j].clone();
            j += 1;
        }
        k += 1;
    }
    while i < a.len() {
        out[k] = a[i].clone();
        i += 1;
        k += 1;
    }
    while j < b.len() {
        out[k] = b[j].clone();
        j += 1;
        k += 1;
    }
}

/// A raw pointer wrapper that asserts Send/Sync so disjoint-index writes can
/// be shared with pool workers. All uses in this crate guarantee each
/// element is written by at most one thread.
struct SendPtr<T>(*mut T);
impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}
// SAFETY: the one field is a pointer into a buffer that outlives every run
// of the call that shares it, and each run writes or borrows only elements
// no other run touches, so moving it to (or sharing it with) a worker hands
// over at most exclusive access to `T`s, which `T: Send` allows.
unsafe impl<T: Send> Send for SendPtr<T> {}
// SAFETY: as for `Send`: shared copies are only used for disjoint elements.
unsafe impl<T: Send> Sync for SendPtr<T> {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn chunks_cover_every_index_once() {
        let n = 100_000;
        let hits = (0..n).map(|_| AtomicUsize::new(0)).collect::<Vec<_>>();
        par_for_chunks(n, 128, |range| {
            for i in range {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn empty_and_tiny_inputs() {
        par_for_chunks(0, 16, |_| panic!("no chunks expected"));
        let seen = AtomicUsize::new(0);
        par_for_chunks(1, 16, |r| {
            assert_eq!(r, 0..1);
            seen.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(seen.load(Ordering::Relaxed), 1);
        assert!(par_map_collect(0, |i| i).is_empty());
    }

    #[test]
    fn map_collect_matches_sequential_on_a_large_map() {
        let n = 50_000;
        let par = par_map_collect(n, |i| (i * i) as u64);
        let seq: Vec<u64> = (0..n).map(|i| (i * i) as u64).collect();
        assert_eq!(par, seq);
    }

    #[test]
    fn sort_by_key_sorts_large_inputs() {
        let n = 200_000;
        let mut data: Vec<u64> = (0..n)
            .map(|i| ((i as u64).wrapping_mul(0x9E3779B97F4A7C15)) >> 17)
            .collect();
        let mut expected = data.clone();
        expected.sort();
        par_sort_by_key(&mut data, |&x| x);
        assert_eq!(data, expected);
    }

    #[test]
    fn sort_by_key_is_correct_on_small_inputs() {
        let mut v = vec![5u32, 1, 4, 2, 3];
        par_sort_by_key(&mut v, |&x| x);
        assert_eq!(v, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn map_collect_matches_sequential_at_every_thread_count() {
        // The element type is neither Default nor Clone.
        struct Opaque(String);
        for threads in [1, 2, 5] {
            let out = with_thread_count(threads, || {
                par_map_collect(1000, |i| Opaque(format!("item-{i}")))
            });
            assert_eq!(out.len(), 1000);
            assert!(out
                .iter()
                .enumerate()
                .all(|(i, o)| o.0 == format!("item-{i}")));
        }
        assert!(par_map_collect(0, |i| i).is_empty());
        assert_eq!(par_map_collect(1, |i| i + 41), vec![41]);
    }

    #[test]
    fn map_collect_mut_visits_once_and_collects_in_order() {
        for threads in [1, 3] {
            let mut items: Vec<u64> = (0..300).collect();
            let out = with_thread_count(threads, || {
                par_map_collect_mut(&mut items, |i, item| {
                    assert_eq!(*item, i as u64);
                    *item += 1_000;
                    Box::new(i as u64) // non-Default, non-Clone result
                })
            });
            assert!(items
                .iter()
                .enumerate()
                .all(|(i, &v)| v == i as u64 + 1_000));
            assert!(out.iter().enumerate().all(|(i, b)| **b == i as u64));
        }
        let mut empty: Vec<u64> = Vec::new();
        let out = par_map_collect_mut(&mut empty, |_, _| 0u8);
        assert!(out.is_empty());
    }

    #[test]
    fn chunks_mut_covers_the_slice() {
        let n = 50_000;
        let mut items: Vec<u64> = vec![0; n];
        par_chunks_mut(&mut items, 64, |start, chunk| {
            for (off, item) in chunk.iter_mut().enumerate() {
                *item = (start + off) as u64 * 3;
            }
        });
        assert!(items.iter().enumerate().all(|(i, &v)| v == i as u64 * 3));
        let mut empty: Vec<u64> = Vec::new();
        par_chunks_mut(&mut empty, 16, |_, _| panic!("no chunks"));
    }

    #[test]
    fn sort_is_thread_count_invariant() {
        let make = |n: usize| -> Vec<(u64, u32)> {
            (0..n)
                .map(|i| {
                    (
                        ((i as u64).wrapping_mul(0x9E3779B97F4A7C15)) >> 40,
                        i as u32,
                    )
                })
                .collect()
        };
        // Keys collide heavily; the (key, id) compound key is unique, so the
        // permutation must not depend on the thread count.
        let mut reference = make(30_000);
        reference.sort_by_key(|&(k, id)| (k, id));
        for threads in [1, 2, 7] {
            let mut data = make(30_000);
            with_thread_count(threads, || par_sort_by_key(&mut data, |&(k, id)| (k, id)));
            assert_eq!(data, reference, "threads={threads}");
        }
    }

    #[test]
    fn reduce_runs_work_in_parallel_threads() {
        // Not a strict parallelism assertion (machine may have 1 CPU), just a
        // smoke test that the atomic accumulation path is exercised.
        let counter = AtomicU64::new(0);
        par_for_chunks(10_000, 64, |range| {
            counter.fetch_add(range.len() as u64, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 10_000);
    }
}
