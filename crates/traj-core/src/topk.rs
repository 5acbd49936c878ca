//! Bounded top-k selection with a total, deterministic order.
//!
//! Every retrieval surface in the workspace (`lh-core`'s embedding scans,
//! `traj-dist`'s ground-truth matrices) needs "the k smallest distances
//! with their indices". Sorting all n candidates is O(n log n) and was
//! duplicated per call site; [`TopK`] is the one shared selector: a bounded
//! max-heap that streams candidates in O(n log k) and never allocates more
//! than k + 1 entries.
//!
//! Ordering is [`f64::total_cmp`] on the distance with the candidate index
//! as tie-break, so results are deterministic even when distances collide
//! or are non-finite (NaNs sort after +∞ instead of poisoning the
//! comparator, as `partial_cmp(..).unwrap_or(Equal)` did).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One scored candidate: database index plus distance.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    distance: f64,
    index: usize,
}

impl Candidate {
    /// Total order: ascending distance, then ascending index.
    fn order(&self, other: &Candidate) -> Ordering {
        self.distance
            .total_cmp(&other.distance)
            .then(self.index.cmp(&other.index))
    }
}

impl PartialEq for Candidate {
    fn eq(&self, other: &Self) -> bool {
        self.order(other) == Ordering::Equal
    }
}

impl Eq for Candidate {}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        self.order(other)
    }
}

/// Streaming bounded selector for the `k` smallest `(index, distance)`
/// pairs.
///
/// Internally a max-heap of at most `k` candidates whose root is the
/// current worst survivor, so each [`TopK::offer`] is O(log k) and offers
/// that cannot make the cut are O(1).
#[derive(Debug, Clone)]
pub struct TopK {
    k: usize,
    heap: BinaryHeap<Candidate>,
}

impl TopK {
    /// Empty selector keeping at most `k` candidates.
    pub fn new(k: usize) -> Self {
        TopK {
            k,
            heap: BinaryHeap::with_capacity(k.min(1 << 20).saturating_add(1)),
        }
    }

    /// The bound `k` this selector was built with.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of candidates currently held (≤ k).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no candidate has been accepted yet.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Current worst surviving candidate, if the heap is full enough to
    /// have one. Callers can use it as a pruning threshold.
    pub fn worst(&self) -> Option<(usize, f64)> {
        self.heap.peek().map(|c| (c.index, c.distance))
    }

    /// Offers one candidate; keeps it iff it beats the current worst
    /// survivor (or the heap is not yet full).
    #[inline]
    pub fn offer(&mut self, index: usize, distance: f64) {
        if self.k == 0 {
            return;
        }
        let cand = Candidate { distance, index };
        if self.heap.len() < self.k {
            self.heap.push(cand);
            return;
        }
        // Heap is full: replace the root iff the newcomer is strictly
        // better; `peek_mut` re-sifts on drop.
        let mut worst = self.heap.peek_mut().expect("non-empty full heap");
        if cand.order(&worst) == Ordering::Less {
            *worst = cand;
        }
    }

    /// Consumes the selector, returning survivors sorted ascending by
    /// `(distance, index)`.
    pub fn into_sorted(self) -> Vec<(usize, f64)> {
        let mut v = self.heap.into_vec();
        v.sort_unstable_by(|a, b| a.order(b));
        v.into_iter().map(|c| (c.index, c.distance)).collect()
    }
}

/// Convenience: the `k` smallest entries of a distance slice, optionally
/// excluding one index (typically the query itself), as sorted indices.
pub fn topk_indices(distances: &[f64], k: usize, skip: Option<usize>) -> Vec<usize> {
    let mut top = TopK::new(k);
    for (i, &d) in distances.iter().enumerate() {
        if Some(i) != skip {
            top.offer(i, d);
        }
    }
    top.into_sorted().into_iter().map(|(i, _)| i).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute(distances: &[f64], k: usize) -> Vec<(usize, f64)> {
        let mut v: Vec<(usize, f64)> = distances.iter().copied().enumerate().collect();
        v.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        v.truncate(k);
        v
    }

    #[test]
    fn matches_full_sort() {
        let d: Vec<f64> = (0..200).map(|i| ((i * 37) % 101) as f64 * 0.5).collect();
        for k in [0, 1, 5, 50, 200, 500] {
            let mut top = TopK::new(k);
            for (i, &x) in d.iter().enumerate() {
                top.offer(i, x);
            }
            assert_eq!(top.into_sorted(), brute(&d, k), "k={k}");
        }
    }

    #[test]
    fn ties_break_by_index() {
        let d = [1.0, 0.5, 0.5, 0.5, 2.0];
        let mut top = TopK::new(2);
        for (i, &x) in d.iter().enumerate() {
            top.offer(i, x);
        }
        assert_eq!(top.into_sorted(), vec![(1, 0.5), (2, 0.5)]);
    }

    #[test]
    fn non_finite_is_deterministic() {
        let d = [f64::NAN, 1.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
        let mut top = TopK::new(5);
        for (i, &x) in d.iter().enumerate() {
            top.offer(i, x);
        }
        let order: Vec<usize> = top.into_sorted().into_iter().map(|(i, _)| i).collect();
        // -∞ < 1 < +∞ < NaN (total_cmp), NaN ties by index.
        assert_eq!(order, vec![3, 1, 2, 0, 4]);
    }

    /// The selection is a function of the offered set, not of the offer
    /// order: segments offered into one selector in any order — the later
    /// ones into an already full heap, ties at the cut included — select
    /// what a single ascending pass selects.
    #[test]
    fn selection_is_independent_of_offer_order() {
        let d: Vec<f64> = (0..100).map(|i| ((i * 13) % 47) as f64).collect();
        let mut whole = TopK::new(7);
        for (i, &x) in d.iter().enumerate() {
            whole.offer(i, x);
        }
        let mut shared = TopK::new(7);
        for segment in [80..100, 0..50, 50..80] {
            for i in segment.rev() {
                shared.offer(i, d[i]);
            }
        }
        assert_eq!(shared.into_sorted(), whole.into_sorted());
    }

    #[test]
    fn topk_indices_skips() {
        let d = [0.0, 3.0, 1.0, 2.0];
        assert_eq!(topk_indices(&d, 2, Some(0)), vec![2, 3]);
        assert_eq!(topk_indices(&d, 10, None), vec![0, 2, 3, 1]);
    }

    #[test]
    fn zero_k_accepts_nothing() {
        let mut top = TopK::new(0);
        top.offer(0, 1.0);
        assert!(top.is_empty());
        assert!(top.into_sorted().is_empty());
    }
}
