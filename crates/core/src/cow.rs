//! A chunked copy-on-write table: the storage behind every user-indexed
//! result table ([`crate::resolution::UserResolution`],
//! [`crate::skeptic::SkepticUserResolution`],
//! [`crate::exact::ExactUserResolution`]).
//!
//! Rows live in fixed [`CHUNK_ROWS`]-row chunks behind `Arc`, indexed by a
//! `Vec` spine. Cloning a table clones the spine — one pointer per chunk,
//! no row is touched — so a published [`crate::epoch::EpochView`] and the
//! session's live table share every chunk until the session writes again.
//! A write goes through `Arc::make_mut`: a chunk some clone still shares
//! is copied first (once — the copy is then private until the next
//! clone), an unshared chunk is written in place. Publishing a state
//! after an edit therefore costs the dirty users' chunks plus the spine,
//! not the table.
//!
//! The chunk size is a constant, not a setting: 256 rows keeps the spine
//! of a 10⁵-user table at 391 pointers while a dirty user drags at most
//! 255 clean neighbours into its chunk's copy.

use std::sync::Arc;

/// Rows per chunk. Every chunk but the last holds exactly this many.
pub const CHUNK_ROWS: usize = 256;

/// How much a table's writes had to copy because a clone still shared the
/// chunk written to (see [`CowTable::take_copies`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CowCopies {
    /// Chunks un-shared (each at most once per clone taken).
    pub chunks: u64,
    /// Rows those chunks held when they were copied.
    pub rows: u64,
}

/// A growable table of `T` rows with O(chunks) clones and copy-on-write
/// chunk updates (see the [module docs](self)).
#[derive(Debug)]
pub struct CowTable<T> {
    /// Every chunk but the last is full.
    spine: Vec<Arc<Vec<T>>>,
    len: usize,
    /// Copies made since the last [`CowTable::take_copies`].
    copies: CowCopies,
}

impl<T> Default for CowTable<T> {
    fn default() -> Self {
        CowTable {
            spine: Vec::new(),
            len: 0,
            copies: CowCopies::default(),
        }
    }
}

impl<T> Clone for CowTable<T> {
    /// Clones the spine: every chunk is shared with `self` until either
    /// side writes to it. The clone starts with zeroed copy counters.
    fn clone(&self) -> Self {
        CowTable {
            spine: self.spine.clone(),
            len: self.len,
            copies: CowCopies::default(),
        }
    }
}

impl<T> CowTable<T> {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of chunks (`ceil(len / CHUNK_ROWS)`) — what a clone copies.
    pub fn spine_len(&self) -> usize {
        self.spine.len()
    }

    /// All rows, in index order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.spine.iter().flat_map(|chunk| chunk.iter())
    }

    /// Returns and resets the copies made by writes since the last call.
    pub fn take_copies(&mut self) -> CowCopies {
        std::mem::take(&mut self.copies)
    }
}

impl<T: Clone> CowTable<T> {
    /// Chunk `c`, un-shared first if a clone still holds it.
    fn chunk_mut(&mut self, c: usize) -> &mut Vec<T> {
        let chunk = &mut self.spine[c];
        if Arc::get_mut(chunk).is_none() {
            self.copies.chunks += 1;
            self.copies.rows += chunk.len() as u64;
        }
        Arc::make_mut(chunk)
    }

    /// Overwrites row `index`. Panics past the end, like a slice.
    pub fn set(&mut self, index: usize, row: T) {
        assert!(index < self.len, "row {index} of {}", self.len);
        self.chunk_mut(index / CHUNK_ROWS)[index % CHUNK_ROWS] = row;
    }

    /// Appends a row.
    pub fn push(&mut self, row: T) {
        if self.len.is_multiple_of(CHUNK_ROWS) {
            self.spine.push(Arc::new(Vec::with_capacity(CHUNK_ROWS)));
        }
        let last = self.spine.len() - 1;
        self.chunk_mut(last).push(row);
        self.len += 1;
    }

    /// Appends clones of `row` until the table holds `len` rows (a table
    /// already that long is left alone — tables never shrink).
    pub fn grow(&mut self, len: usize, row: T) {
        while self.len < len {
            self.push(row.clone());
        }
    }
}

impl<T> std::ops::Index<usize> for CowTable<T> {
    type Output = T;

    fn index(&self, index: usize) -> &T {
        &self.spine[index / CHUNK_ROWS][index % CHUNK_ROWS]
    }
}

impl<T> FromIterator<T> for CowTable<T> {
    /// Collects chunk by chunk; nothing is shared yet, so nothing counts
    /// as copied.
    fn from_iter<I: IntoIterator<Item = T>>(rows: I) -> Self {
        let mut rows = rows.into_iter();
        let mut table = CowTable::default();
        loop {
            let chunk: Vec<T> = rows.by_ref().take(CHUNK_ROWS).collect();
            if chunk.is_empty() {
                return table;
            }
            table.len += chunk.len();
            table.spine.push(Arc::new(chunk));
        }
    }
}

impl<T: PartialEq> PartialEq for CowTable<T> {
    /// Row equality; chunks two tables still share compare by pointer.
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len
            && self
                .spine
                .iter()
                .zip(&other.spine)
                .all(|(a, b)| Arc::ptr_eq(a, b) || a == b)
    }
}

impl<T: Eq> Eq for CowTable<T> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(n: usize) -> CowTable<usize> {
        (0..n).collect()
    }

    #[test]
    fn chunk_boundaries_index_like_a_vec() {
        for n in [0, 1, 255, 256, 257, 512, 513] {
            let t = table(n);
            assert_eq!(t.len(), n);
            assert_eq!(t.is_empty(), n == 0);
            assert_eq!(t.spine_len(), n.div_ceil(CHUNK_ROWS));
            assert_eq!(
                t.iter().copied().collect::<Vec<_>>(),
                (0..n).collect::<Vec<_>>()
            );
            for i in [0, 254, 255, 256, 257, 511, 512] {
                if i < n {
                    assert_eq!(t[i], i, "row {i} of {n}");
                }
            }
        }
    }

    #[test]
    fn pushed_and_collected_tables_are_equal() {
        let mut pushed = CowTable::default();
        for i in 0..600 {
            pushed.push(i);
        }
        assert_eq!(pushed, table(600));
        assert_ne!(pushed, table(599));
        let mut other = table(600);
        other.set(256, 0);
        assert_ne!(pushed, other);
        other.set(256, 256);
        assert_eq!(pushed, other);
        assert_eq!(
            pushed.take_copies(),
            CowCopies::default(),
            "nothing was shared"
        );
    }

    #[test]
    fn set_copies_a_shared_chunk_once_and_an_unshared_one_never() {
        let mut t = table(600);
        t.set(300, 7);
        assert_eq!(t.take_copies(), CowCopies::default(), "no clone exists");

        let held = t.clone();
        t.set(255, 1);
        t.set(0, 2);
        assert_eq!(
            t.take_copies(),
            CowCopies {
                chunks: 1,
                rows: 256
            }
        );
        t.set(257, 3);
        t.set(599, 4);
        assert_eq!(
            t.take_copies(),
            CowCopies {
                chunks: 2,
                rows: 256 + 88
            },
            "the middle chunk and the short tail"
        );
        t.set(1, 5);
        t.set(598, 6);
        assert_eq!(t.take_copies(), CowCopies::default(), "all private now");

        // The clone kept every row it was taken with.
        let mut expected: Vec<usize> = (0..600).collect();
        expected[300] = 7;
        assert_eq!(held.iter().copied().collect::<Vec<_>>(), expected);
        assert_eq!(
            (t[0], t[1], t[255], t[257], t[598], t[599]),
            (2, 5, 1, 3, 6, 4)
        );

        // Dropping the clone leaves nothing to un-share.
        let again = t.clone();
        drop(again);
        t.set(0, 0);
        assert_eq!(t.take_copies(), CowCopies::default());
    }

    #[test]
    fn growth_across_a_boundary_leaves_a_held_clone_alone() {
        let mut t = table(255);
        let held = t.clone();
        t.push(255); // fills the shared chunk: copied first
        assert_eq!(
            t.take_copies(),
            CowCopies {
                chunks: 1,
                rows: 255
            }
        );
        t.push(256); // opens a fresh chunk: nothing to copy
        t.grow(300, 9);
        t.grow(10, 9);
        assert_eq!(t.take_copies(), CowCopies::default());
        assert_eq!((t.len(), t.spine_len()), (300, 2));
        assert_eq!((t[255], t[256], t[257], t[299]), (255, 256, 9, 9));
        assert_eq!((held.len(), held.spine_len()), (255, 1));
        assert_eq!(held, table(255));
    }

    #[test]
    #[should_panic(expected = "row 3 of 3")]
    fn set_past_the_end_panics() {
        table(3).set(3, 0);
    }
}
