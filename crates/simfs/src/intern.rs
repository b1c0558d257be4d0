//! Path interning: split and hash each path once, then resolve by
//! integer symbols forever after.
//!
//! Path resolution used to be the most allocation-heavy step of every
//! metadata operation: each call split the path into a fresh
//! `Vec<&str>` and probed per-directory `HashMap<String, InodeNo>`
//! tables, SipHashing the component string at every level of the walk.
//! This module replaces that with two small types:
//!
//! * [`Symbol`] — an interned path *component* (`"f000001"`). Directory
//!   tables are keyed by `Symbol`, so a probe hashes four bytes instead
//!   of a string.
//! * [`PathSpec`] — a whole path pre-validated and pre-split into its
//!   component symbols. Building one costs what a single old-style
//!   resolution cost; every later use walks the tree with integer
//!   probes and zero allocation.
//!
//! [`PathId`] is a handle to a `PathSpec` cached by the storage stack
//! (see [`StorageStack::resolve_path`](crate::stack::StorageStack::resolve_path)),
//! which is how the workload engine and the replay driver pre-resolve
//! their working sets at build/load time.
//!
//! Interning is pure bookkeeping: symbols never reach any simulated
//! output, so hashes, timings and reports are byte-identical to the
//! string-resolution implementation it replaced.

use rb_simcore::fnv::{fnv1a, FnvHashMap, FNV_OFFSET};

/// An interned path component (directory-entry name).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

impl Symbol {
    /// The symbol's dense index (0-based intern order).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A component-string interner: `&str` → [`Symbol`] with O(1)
/// resolution back to the name and to the name's FNV-1a hash.
#[derive(Debug, Clone, Default)]
pub struct Interner {
    names: Vec<Box<str>>,
    /// `fnv1a(FNV_OFFSET, name)` of each name, by symbol.
    hashes: Vec<u64>,
    index: FnvHashMap<Box<str>, Symbol>,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct interned names.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Interns `name`, returning its stable symbol.
    pub fn intern(&mut self, name: &str) -> Symbol {
        if let Some(&sym) = self.index.get(name) {
            return sym;
        }
        let sym = Symbol(self.names.len() as u32);
        self.names.push(name.into());
        self.hashes.push(fnv1a(FNV_OFFSET, name.as_bytes()));
        self.index.insert(name.into(), sym);
        sym
    }

    /// The symbol for `name`, if it was ever interned.
    #[cfg(test)]
    pub fn lookup(&self, name: &str) -> Option<Symbol> {
        self.index.get(name).copied()
    }

    /// The name behind a symbol.
    ///
    /// # Panics
    ///
    /// Panics if `sym` came from a different interner (an index beyond
    /// this interner's table).
    pub fn resolve(&self, sym: Symbol) -> &str {
        &self.names[sym.index()]
    }

    /// The FNV-1a hash of the name behind a symbol, byte for byte
    /// `fnv1a(FNV_OFFSET, name)`, taken once when it was interned.
    ///
    /// # Panics
    ///
    /// As [`Interner::resolve`].
    pub(crate) fn hash(&self, sym: Symbol) -> u64 {
        self.hashes[sym.index()]
    }
}

/// A handle to a [`PathSpec`] cached by the storage stack. Stable for
/// the stack's lifetime; unaffected by creates and unlinks (it names a
/// *path*, not an inode).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PathId(u32);

impl PathId {
    /// Builds an id from a dense table index.
    pub fn from_index(index: usize) -> PathId {
        PathId(index as u32)
    }

    /// The id's dense table index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A path pre-validated and pre-split into interned components.
///
/// Construction (via
/// [`FileSystem::intern_path`](crate::vfs::FileSystem::intern_path))
/// is the only step that touches the string; resolution afterwards is
/// a walk of symbol-keyed directory tables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathSpec {
    path: Box<str>,
    comps: Vec<Symbol>,
}

impl PathSpec {
    /// Builds a spec from already-validated parts. Callers outside the
    /// crate go through `FileSystem::intern_path`, which validates.
    pub(crate) fn new(path: &str, comps: Vec<Symbol>) -> PathSpec {
        PathSpec {
            path: path.into(),
            comps,
        }
    }

    /// The full path string.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// The interned components, root-first.
    pub fn components(&self) -> &[Symbol] {
        &self.comps
    }

    /// Final component and the directory components leading to it;
    /// `None` for the root path.
    pub fn split_last(&self) -> Option<(Symbol, &[Symbol])> {
        self.comps.split_last().map(|(&leaf, dirs)| (leaf, dirs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_resolvable() {
        let mut i = Interner::new();
        let a = i.intern("alpha");
        let b = i.intern("beta");
        assert_ne!(a, b);
        assert_eq!(i.intern("alpha"), a);
        assert_eq!(i.resolve(a), "alpha");
        assert_eq!(i.resolve(b), "beta");
        assert_eq!(i.lookup("beta"), Some(b));
        assert_eq!(i.lookup("gamma"), None);
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn spec_exposes_parts() {
        let mut i = Interner::new();
        let d = i.intern("d");
        let f = i.intern("f");
        let spec = PathSpec::new("/d/f", vec![d, f]);
        assert_eq!(spec.path(), "/d/f");
        assert_eq!(spec.components(), &[d, f]);
        let (leaf, dirs) = spec.split_last().unwrap();
        assert_eq!(leaf, f);
        assert_eq!(dirs, &[d]);
        let root = PathSpec::new("/", vec![]);
        assert!(root.split_last().is_none());
    }

    #[test]
    fn path_id_round_trips_index() {
        let id = PathId::from_index(7);
        assert_eq!(id.index(), 7);
    }
}
