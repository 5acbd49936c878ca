//! Minimal scoped-thread parallelism built on `std::thread::scope`.
//!
//! Filling an N×N ground-truth distance matrix with an O(L²) measure is the
//! single most expensive CPU step of every experiment, so it is chunked
//! across threads here. We intentionally avoid a full work-stealing pool:
//! a shared-cursor work queue ([`parallel_for_each`]) is within a few
//! percent of optimal for these workloads and keeps the dependency
//! surface to the allowed crates. For non-uniform workloads (triangular
//! pair sets, length-skewed rows) static chunking is *not* close to
//! optimal — [`parallel_for_each`] is the dynamic-scheduling alternative
//! the matrix builder uses. Its work items each compute into a buffer of
//! their own and store it under one lock, so no shared mutable view (and
//! no `unsafe`) is needed.

use std::sync::atomic::{AtomicUsize, Ordering};

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
    // Only the claim needs to be atomic: `f` publishes its own results,
    // and the scope's join orders them before the return.
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let (next, f) = (&next, &f);
            scope.spawn(move || loop {
                let item = next.fetch_add(1, Ordering::Relaxed);
                if item >= n {
                    return;
                }
                f(item);
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn default_threads_bounds() {
        assert_eq!(default_threads(0), 1);
        assert!(default_threads(1) >= 1);
        assert!(default_threads(10_000) >= 1);
    }
}
