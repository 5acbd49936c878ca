//! Minimal scoped-thread parallelism built on `std::thread::scope`.
//!
//! Filling an N×N ground-truth distance matrix with an O(L²) measure is the
//! single most expensive CPU step of every experiment, so it is chunked
//! across threads here. We intentionally avoid a full work-stealing pool:
//! a shared-cursor work queue ([`parallel_for_each`]) is within a few
//! percent of optimal for these workloads and keeps the dependency
//! surface to the allowed crates. For non-uniform workloads (triangular
//! pair sets, length-skewed rows) static chunking is *not* close to
//! optimal — [`parallel_for_each`] plus a [`DisjointSlice`] is the
//! dynamic-scheduling alternative the matrix builder uses.

use parking_lot::Mutex;
use std::marker::PhantomData;
#[cfg(debug_assertions)]
use std::sync::atomic::AtomicBool;

/// Number of worker threads to use: the available parallelism, capped so
/// tiny inputs don't pay spawn overhead.
pub fn default_threads(work_items: usize) -> usize {
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    hw.min(work_items.max(1)).max(1)
}

/// Applies `f` to every index in `0..n`, writing results into a `Vec` in
/// index order, using up to `threads` scoped threads.
pub fn parallel_map<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send + Default + Clone,
    F: Fn(usize) -> T + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    let threads = threads.clamp(1, n);
    if threads == 1 {
        return (0..n).map(f).collect();
    }
    let mut out = vec![T::default(); n];
    let chunk = n.div_ceil(threads);
    std::thread::scope(|scope| {
        for (ti, slot) in out.chunks_mut(chunk).enumerate() {
            let f = &f;
            scope.spawn(move || {
                let base = ti * chunk;
                for (j, s) in slot.iter_mut().enumerate() {
                    *s = f(base + j);
                }
            });
        }
    });
    out
}

/// Runs `f` on every index of `0..n`, handed out one at a time from a
/// shared cursor to up to `threads` scoped threads.
///
/// The caller sizes the work items: a thread that drew expensive items
/// simply claims fewer, so skewed workloads balance. With `threads == 1`
/// the indices are visited serially in order.
pub fn parallel_for_each<F>(n: usize, threads: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    let threads = threads.clamp(1, n.max(1));
    if threads == 1 {
        (0..n).for_each(f);
        return;
    }
    let next = Mutex::new(0usize);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let (next, f) = (&next, &f);
            scope.spawn(move || loop {
                let item = {
                    let mut g = next.lock();
                    *g += 1;
                    *g - 1
                };
                if item >= n {
                    return;
                }
                f(item);
            });
        }
    });
}

/// A borrowed view of a mutable slice that scoped worker threads can
/// write through concurrently, provided every index is written at most
/// once.
///
/// `parallel_map` returns per-task values and stitches them afterwards;
/// for large flat outputs (an N×N distance matrix) that doubles peak
/// memory and serializes the merge. `DisjointSlice` lets dynamically
/// scheduled workers write results straight into the final buffer: the
/// *scheduler* guarantees disjointness (each work item owns fixed output
/// indices), and [`DisjointSlice::write`] encodes the remaining contract
/// as an `unsafe` fn.
///
/// Debug builds check that contract: they keep one flag per slot and
/// panic on a second write to the same slot, whichever thread makes it.
/// Release builds keep neither the flags nor the check.
pub struct DisjointSlice<'a, T> {
    ptr: *mut T,
    len: usize,
    #[cfg(debug_assertions)]
    written: Vec<AtomicBool>,
    _marker: PhantomData<&'a mut [T]>,
}

// SAFETY: `ptr`/`len` are a view that hands out no references, only
// index-checked writes, and `write`'s contract forbids two threads
// touching the same index, so sharing the view across scoped threads is
// sound for Send payloads; the debug-only `written` flags are atomics.
unsafe impl<T: Send> Send for DisjointSlice<'_, T> {}
unsafe impl<T: Send> Sync for DisjointSlice<'_, T> {}

impl<'a, T> DisjointSlice<'a, T> {
    /// Wraps a mutable slice; the borrow keeps the underlying storage
    /// alive and exclusively reserved for the view's lifetime.
    pub fn new(slice: &'a mut [T]) -> Self {
        DisjointSlice {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            #[cfg(debug_assertions)]
            written: (0..slice.len()).map(|_| AtomicBool::new(false)).collect(),
            _marker: PhantomData,
        }
    }

    /// Length of the underlying slice.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the underlying slice is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Writes `value` at `index`.
    ///
    /// # Safety
    ///
    /// Each index is written at most once over the view's lifetime, and
    /// no other thread reads it meanwhile (disjoint writes only, e.g. each
    /// parallel work item owning distinct output cells). Out-of-bounds
    /// indices panic, and so does (in debug builds) a second write to the
    /// same index.
    pub unsafe fn write(&self, index: usize, value: T) {
        assert!(
            index < self.len,
            "index {index} out of bounds for DisjointSlice of len {}",
            self.len
        );
        // `swap` is one atomic read-modify-write, so of two writes to a
        // slot exactly one sees `false`; the flag publishes nothing else,
        // hence `Relaxed`.
        #[cfg(debug_assertions)]
        assert!(
            !self.written[index].swap(true, std::sync::atomic::Ordering::Relaxed),
            "DisjointSlice index {index} written twice"
        );
        // SAFETY: in-bounds by the assert; exclusivity by the caller.
        unsafe { self.ptr.add(index).write(value) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn map_matches_serial() {
        let serial: Vec<usize> = (0..1000).map(|i| i * i).collect();
        for threads in [1, 2, 3, 8] {
            let par = parallel_map(1000, threads, |i| i * i);
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn map_empty_and_tiny() {
        assert!(parallel_map(0, 4, |i| i).is_empty());
        assert_eq!(parallel_map(1, 4, |i| i + 1), vec![1]);
    }

    #[test]
    fn each_index_is_visited_once() {
        let n = 4973;
        for threads in [1, 2, 4, 8] {
            let counters: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            parallel_for_each(n, threads, |i| {
                counters[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                counters.iter().all(|c| c.load(Ordering::Relaxed) == 1),
                "threads={threads}"
            );
        }
        parallel_for_each(0, 4, |_| panic!("no work"));
    }

    #[test]
    fn disjoint_slice_parallel_writes_land() {
        let n = 2048;
        let mut out = vec![0usize; n];
        let view = DisjointSlice::new(&mut out);
        parallel_for_each(n, 4, |i| {
            // SAFETY: each index is handed out exactly once.
            unsafe { view.write(i, i * 3) };
        });
        assert!(out.iter().enumerate().all(|(i, &v)| v == i * 3));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn disjoint_slice_bounds_checked() {
        let mut out = [0u8; 4];
        let view = DisjointSlice::new(&mut out);
        assert_eq!(view.len(), 4);
        assert!(!view.is_empty());
        // SAFETY: single-threaded; the call must panic on bounds.
        unsafe { view.write(4, 1) };
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "written twice")]
    fn disjoint_slice_rejects_overlapping_writes_in_debug_builds() {
        let mut out = vec![0usize; 64];
        let view = DisjointSlice::new(&mut out);
        // Two work items that both claim index 31, the overlap a broken
        // scheduler would produce, run one after the other.
        for start in [0, 31] {
            for i in start..start + 33 {
                // SAFETY: one thread; the second write to 31 must panic.
                unsafe { view.write(i, i) };
            }
        }
    }

    #[test]
    fn default_threads_bounds() {
        assert_eq!(default_threads(0), 1);
        assert!(default_threads(1) >= 1);
        assert!(default_threads(10_000) >= 1);
    }
}
