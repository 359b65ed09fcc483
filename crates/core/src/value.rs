//! Data values and the value domain.
//!
//! The paper models each object as a key with a single attribute whose value
//! ranges over a set `D` of data values (Section 2). Values are interned to
//! dense `u32` ids so that belief sets are small integer sets even on the
//! million-node networks of the experiments.

use crate::names::NameTable;
use std::fmt;
use std::sync::Arc;

/// An interned data value (index into a [`Domain`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Value(pub u32);

impl Value {
    /// The raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Interner mapping value names to dense [`Value`] ids.
///
/// The domain `D` of the paper; every network owns one.
///
/// Cloning a domain shares its [`NameTable`]; the table is copied only
/// when one of the clones interns a value the other has not seen.
#[derive(Debug, Clone, Default)]
pub struct Domain {
    names: Arc<NameTable>,
}

impl Domain {
    /// Creates an empty domain.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, returning the existing id if already present.
    pub fn intern(&mut self, name: &str) -> Value {
        Value(NameTable::intern_shared(&mut self.names, name))
    }

    /// Looks up a value by name without interning.
    pub fn get(&self, name: &str) -> Option<Value> {
        self.names.get(name).map(Value)
    }

    /// The name of `v`.
    ///
    /// # Panics
    /// Panics if `v` does not belong to this domain.
    pub fn name(&self, v: Value) -> &str {
        self.names.name(v.0)
    }

    /// The table holding every value name, for sharing with frozen views.
    pub(crate) fn names(&self) -> &Arc<NameTable> {
        &self.names
    }

    /// Number of distinct values.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the domain is empty.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// All values in the domain.
    pub fn values(&self) -> impl Iterator<Item = Value> {
        (0..self.names.len() as u32).map(Value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut d = Domain::new();
        let jar = d.intern("jar");
        let cow = d.intern("cow");
        assert_ne!(jar, cow);
        assert_eq!(d.intern("jar"), jar);
        assert_eq!(d.len(), 2);
        assert_eq!(d.name(jar), "jar");
        assert_eq!(d.get("cow"), Some(cow));
        assert_eq!(d.get("fish"), None);
    }

    #[test]
    fn values_iterates_all() {
        let mut d = Domain::new();
        d.intern("a");
        d.intern("b");
        let vs: Vec<Value> = d.values().collect();
        assert_eq!(vs, vec![Value(0), Value(1)]);
    }
}
