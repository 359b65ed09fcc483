//! The one place a name is stored: an append-only interner from strings
//! to dense `u32` ids.
//!
//! A [`NameTable`] is three flat vectors — one `String` arena holding
//! every name back to back, the `u32` end offset of each name in it, and
//! an open-addressing table of ids (linear probing, at most half full) —
//! so a table of *n* names is three allocations, not 2·*n*, and cloning
//! one is three `memcpy`s. [`crate::TrustNetwork`] keeps its users in
//! one and [`crate::Domain`] its values in another, each behind an
//! `Arc`: binarized networks and published epochs share the handle, and
//! [`NameTable::intern_shared`] copies the table only when a *new* name
//! arrives while someone else still holds it.
//!
//! Names come from outside the program (files, and `BELIEVE` / `TRUST`
//! lines on the serving socket), so the id table is hashed with a
//! per-process random [`RandomState`] — the keyed SipHash of std's
//! `HashMap` — and a crafted set of names cannot aim at one probe run.

use std::hash::{BuildHasher, RandomState};
use std::sync::Arc;

/// Marks a free slot of the id table. Never a valid id: `u32::MAX`
/// distinct names would need far more than the arena's 4 GiB.
const EMPTY: u32 = u32::MAX;

#[cfg(test)]
thread_local! {
    /// Slots examined by this thread's lookups and insertions.
    static PROBES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// An append-only string interner with dense ids in first-seen order.
#[derive(Debug, Clone, Default)]
pub struct NameTable {
    /// Every name, concatenated in id order.
    arena: String,
    /// `ends[id]` = byte offset just past name `id` in `arena`.
    ends: Vec<u32>,
    /// Open-addressing id table; length zero or a power of two, and at
    /// least twice `ends.len()`.
    slots: Vec<u32>,
    /// Keyed per process; cloned with the table so ids stay findable.
    hasher: RandomState,
}

impl NameTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of names.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether no name was interned yet.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The name of `id`, or `None` past the end of the table.
    pub fn get_name(&self, id: u32) -> Option<&str> {
        let i = id as usize;
        let end = *self.ends.get(i)? as usize;
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        Some(&self.arena[start..end])
    }

    /// The name of `id`.
    ///
    /// # Panics
    /// Panics if `id` was not handed out by this table.
    pub fn name(&self, id: u32) -> &str {
        self.get_name(id).expect("id belongs to this name table")
    }

    /// The id of `name`, if it was interned.
    pub fn get(&self, name: &str) -> Option<u32> {
        self.find(name, self.hasher.hash_one(name)).ok()
    }

    /// Interns `name`, returning its id (the existing one if present).
    ///
    /// # Panics
    /// Panics if the names interned so far plus `name` exceed 4 GiB —
    /// arena offsets are `u32` and never wrap.
    pub fn intern(&mut self, name: &str) -> u32 {
        let hash = self.hasher.hash_one(name);
        match self.find(name, hash) {
            Ok(id) => id,
            Err(free) => self.push(name, free),
        }
    }

    /// [`NameTable::intern`] through a shared handle: a known name costs
    /// one lookup and leaves the table shared; a new one copies the
    /// table first only if another handle still points at it.
    pub fn intern_shared(table: &mut Arc<NameTable>, name: &str) -> u32 {
        let hash = table.hasher.hash_one(name);
        match table.find(name, hash) {
            Ok(id) => id,
            // The copy has the same slots, so `free` is still free in it.
            Err(free) => Arc::make_mut(table).push(name, free),
        }
    }

    /// Bytes the table's contents occupy: arena, offsets and id table.
    /// Computed from lengths, so it depends on the names alone (the two
    /// growing vectors may hold up to as much again in spare capacity).
    pub fn table_bytes(&self) -> usize {
        self.arena.len() + 4 * (self.ends.len() + self.slots.len())
    }

    /// The id stored for `name`, or the free slot where its probe run
    /// ends. `Err(0)` on a table that has no slots yet.
    fn find(&self, name: &str, hash: u64) -> Result<u32, usize> {
        if self.slots.is_empty() {
            return Err(0);
        }
        let mask = self.slots.len() - 1;
        let mut slot = hash as usize & mask;
        loop {
            #[cfg(test)]
            PROBES.with(|p| p.set(p.get() + 1));
            let id = self.slots[slot];
            if id == EMPTY {
                return Err(slot);
            }
            if self.name(id) == name {
                return Ok(id);
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Appends `name` (known to be absent) under the next id; `free` is
    /// the slot [`NameTable::find`] ended on.
    fn push(&mut self, name: &str, free: usize) -> u32 {
        let end = arena_end(self.arena.len(), name.len());
        let id = self.ends.len() as u32;
        self.arena.push_str(name);
        self.ends.push(end);
        if 2 * self.ends.len() > self.slots.len() {
            self.grow(); // re-places every id, the new one included
        } else {
            self.slots[free] = id;
        }
        id
    }

    /// Writes `id` into the first free slot of its probe run.
    fn place(&mut self, id: u32, hash: u64) {
        let mask = self.slots.len() - 1;
        let mut slot = hash as usize & mask;
        while self.slots[slot] != EMPTY {
            #[cfg(test)]
            PROBES.with(|p| p.set(p.get() + 1));
            slot = (slot + 1) & mask;
        }
        self.slots[slot] = id;
    }

    /// Doubles the id table and re-places every id.
    fn grow(&mut self) {
        let slots = (2 * self.slots.len()).max(8);
        self.slots = vec![EMPTY; slots];
        for id in 0..self.ends.len() as u32 {
            self.place(id, self.hasher.hash_one(self.name(id)));
        }
    }
}

/// The arena length after appending `add` bytes to `len`, as an offset.
fn arena_end(len: usize, add: usize) -> u32 {
    len.checked_add(add)
        .and_then(|end| u32::try_from(end).ok())
        .expect("name table arena exceeds 4 GiB of name bytes")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probes() -> u64 {
        PROBES.with(|p| p.get())
    }

    #[test]
    fn intern_get_and_name_are_inverse() {
        let mut t = NameTable::new();
        assert!(t.is_empty());
        assert_eq!(t.get("a"), None);
        assert_eq!(t.get_name(0), None);
        let a = t.intern("alice");
        let b = t.intern("bob");
        assert_eq!((a, b), (0, 1));
        assert_eq!(t.intern("alice"), a);
        assert_eq!(t.len(), 2);
        assert_eq!(t.get("bob"), Some(b));
        assert_eq!(t.get("bo"), None);
        assert_eq!(t.name(a), "alice");
        assert_eq!(t.get_name(b), Some("bob"));
        assert_eq!(t.get_name(2), None);
    }

    #[test]
    fn the_empty_name_is_a_name() {
        let mut t = NameTable::new();
        let x = t.intern("x");
        let empty = t.intern("");
        assert_ne!(x, empty);
        assert_eq!(t.intern(""), empty);
        assert_eq!(t.get(""), Some(empty));
        assert_eq!(t.name(empty), "");
        assert_eq!(t.name(x), "x");
        // A name after the empty one still starts where it should.
        let y = t.intern("y");
        assert_eq!(t.name(y), "y");
    }

    #[test]
    fn ids_survive_every_growth_of_the_id_table() {
        let mut t = NameTable::new();
        let mut resizes = 0;
        for i in 0..1000u32 {
            let slots = t.slots.len();
            assert_eq!(t.intern(&format!("n{i}")), i);
            if t.slots.len() != slots {
                // Right after a resize every earlier name is findable.
                resizes += 1;
                for j in 0..=i {
                    assert_eq!(t.get(&format!("n{j}")), Some(j), "after {i}");
                }
            }
            assert!(t.slots.len() >= 2 * t.len());
            assert!(t.slots.len().is_power_of_two());
        }
        assert_eq!(resizes, 9, "8, 16, … 2048 slots");
        for i in 0..1000u32 {
            assert_eq!(t.name(i), format!("n{i}"));
        }
    }

    #[test]
    fn clones_share_ids_and_then_diverge() {
        let mut t = NameTable::new();
        t.intern("a");
        t.intern("b");
        let mut copy = t.clone();
        assert_eq!(copy.get("b"), Some(1), "the clone hashes with the same key");
        assert_eq!(copy.intern("c"), 2);
        assert_eq!(t.get("c"), None);
        assert_eq!(t.intern("d"), 2);
        assert_eq!(copy.get("d"), None);
    }

    #[test]
    fn shared_handles_copy_only_for_new_names() {
        let mut mine = Arc::new(NameTable::new());
        assert_eq!(NameTable::intern_shared(&mut mine, "a"), 0);
        let theirs = Arc::clone(&mine);
        // A known name leaves the table shared.
        assert_eq!(NameTable::intern_shared(&mut mine, "a"), 0);
        assert!(Arc::ptr_eq(&mine, &theirs));
        // A new one copies; the other holder keeps the old table.
        assert_eq!(NameTable::intern_shared(&mut mine, "b"), 1);
        assert!(!Arc::ptr_eq(&mine, &theirs));
        assert_eq!(theirs.len(), 1);
        assert_eq!(theirs.get("b"), None);
        // Sole owner again: interning is in place.
        drop(theirs);
        let before = Arc::as_ptr(&mine);
        assert_eq!(NameTable::intern_shared(&mut mine, "c"), 2);
        assert_eq!(Arc::as_ptr(&mine), before);
    }

    /// A counter gate, not a timer: names built to share a 60-byte prefix
    /// (the worst case for a hash that looked at a prefix, or for one an
    /// attacker could predict) still probe like random keys.
    #[test]
    fn probing_stays_short_under_hostile_names() {
        const N: usize = 200_000;
        let prefix = "x".repeat(60);
        let names: Vec<String> = (0..N).map(|i| format!("{prefix}{i}")).collect();
        let mut t = NameTable::new();
        let before = probes();
        for (i, name) in names.iter().enumerate() {
            assert_eq!(t.intern(name), i as u32);
        }
        for (i, name) in names.iter().enumerate() {
            assert_eq!(t.get(name), Some(i as u32));
        }
        // Growth re-places ids too; those probes are counted as well.
        let mean = (probes() - before) as f64 / (2 * N) as f64;
        assert!(mean <= 2.0, "{mean:.3} probes per operation");
        // Three flat vectors, nothing per name: ≤ 66 name bytes, one
        // offset and at most four id slots each.
        assert!(t.table_bytes() <= N * (66 + 4 + 16));
    }

    #[test]
    fn offsets_are_checked_not_wrapped() {
        assert_eq!(arena_end(10, 5), 15);
        assert_eq!(arena_end(u32::MAX as usize - 1, 1), u32::MAX);
    }

    #[test]
    #[should_panic(expected = "exceeds 4 GiB")]
    fn the_first_byte_past_4_gib_panics() {
        arena_end(u32::MAX as usize, 1);
    }

    #[test]
    #[should_panic(expected = "exceeds 4 GiB")]
    fn a_length_that_overflows_usize_panics() {
        arena_end(usize::MAX, 2);
    }
}
