//! Tombstone bitsets: the rows of a segment that a scan must skip.
//!
//! A serving shard tombstones a row of its base or its delta each time an
//! id is removed or superseded, and every published snapshot must see
//! the set as it stood at publication. [`Tombstones`] keeps the bits in
//! fixed pages behind `Arc`s, so a snapshot shares the set by one pointer
//! and the writer updates it copy-on-write: setting a bit copies the page
//! vector's pointers and the one page it lands in, never the whole set.
//!
//! The scan core reads the bits through [`Mask`], a borrowed view that
//! can start at any row — a delta chunk is scanned as its own segment
//! against the bits of its rows — and reads a bit past the last page as
//! clear.

use std::sync::Arc;

/// Bits per page: 512 bytes, so a tombstone copies at most that much
/// besides one pointer per page.
const PAGE_BITS: usize = 4096;
const PAGE_WORDS: usize = PAGE_BITS / 64;

type Page = [u64; PAGE_WORDS];

/// A set of row ordinals, in copy-on-write pages. See the module docs.
#[derive(Debug, Clone, Default)]
pub(crate) struct Tombstones {
    pages: Vec<Arc<Page>>,
    len: usize,
}

impl Tombstones {
    /// Rows in the set.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Adds `row`; returns whether it was absent. Pages that do not exist
    /// yet are added as one shared zero page, copied only when written.
    pub(crate) fn insert(&mut self, row: usize) -> bool {
        let (page, word, bit) = (row / PAGE_BITS, row % PAGE_BITS / 64, row % 64);
        if self.pages.len() <= page {
            self.pages.resize(page + 1, Arc::new([0; PAGE_WORDS]));
        }
        let page = &mut self.pages[page];
        if page[word] >> bit & 1 == 1 {
            return false;
        }
        Arc::make_mut(page)[word] |= 1 << bit;
        self.len += 1;
        true
    }

    /// The rows in the set, ascending.
    pub(crate) fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        let words = self.pages.iter().flat_map(|page| page.iter());
        words.enumerate().flat_map(|(w, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    w * 64 + bit
                })
            })
        })
    }

    /// The view a scan takes, from row 0; `None` when the set is empty,
    /// so the common case tests nothing per row.
    pub(crate) fn mask(&self) -> Option<Mask<'_>> {
        (!self.is_empty()).then_some(Mask {
            pages: &self.pages,
            first: 0,
        })
    }
}

/// A borrowed view of a [`Tombstones`] set: row `r` of the view is row
/// `first + r` of the set.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Mask<'a> {
    pages: &'a [Arc<Page>],
    first: usize,
}

impl<'a> Mask<'a> {
    /// Whether row `row` of the view is in the set.
    #[inline]
    pub(crate) fn get(self, row: usize) -> bool {
        let bit = self.first + row;
        self.pages
            .get(bit / PAGE_BITS)
            .is_some_and(|page| page[bit % PAGE_BITS / 64] >> (bit % 64) & 1 == 1)
    }

    /// The view `rows` rows further on.
    pub(crate) fn skip(self, rows: usize) -> Mask<'a> {
        Mask {
            first: self.first + rows,
            ..self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_round_trip_across_words_and_pages() {
        let rows = [
            0,
            63,
            64,
            127,
            128,
            PAGE_BITS - 1,
            PAGE_BITS,
            3 * PAGE_BITS + 5,
        ];
        let mut set = Tombstones::default();
        assert!(set.mask().is_none(), "an empty set masks nothing");
        for &r in rows.iter().rev() {
            assert!(set.insert(r));
        }
        assert!(!set.insert(64), "idempotent");
        assert_eq!(set.len(), rows.len());
        assert_eq!(set.iter().collect::<Vec<_>>(), rows);
        let mask = set.mask().expect("non-empty");
        for r in 0..4 * PAGE_BITS + 100 {
            assert_eq!(mask.get(r), rows.contains(&r), "row {r}");
            assert_eq!(mask.skip(64).get(r), rows.contains(&(r + 64)), "row {r}");
        }
    }

    /// A clone shares every page; a write copies only the page it lands
    /// in and leaves the clone as it was.
    #[test]
    fn writes_copy_one_page_and_leave_clones_alone() {
        let mut set = Tombstones::default();
        set.insert(5);
        set.insert(3 * PAGE_BITS + 1);
        assert!(
            Arc::ptr_eq(&set.pages[1], &set.pages[2]),
            "gap pages share one zero page until written"
        );
        let pinned = set.clone();
        set.insert(7);
        assert!(!Arc::ptr_eq(&set.pages[0], &pinned.pages[0]));
        for p in 1..4 {
            assert!(Arc::ptr_eq(&set.pages[p], &pinned.pages[p]), "page {p}");
        }
        assert_eq!(pinned.iter().collect::<Vec<_>>(), [5, 3 * PAGE_BITS + 1]);
        assert_eq!(set.iter().collect::<Vec<_>>(), [5, 7, 3 * PAGE_BITS + 1]);
    }
}
