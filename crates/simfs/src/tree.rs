//! Shared namespace machinery: inodes, directories, path resolution,
//! and the run bookkeeping of every file.
//!
//! Every simulated file system layers its *placement policy* over this
//! common tree, so namespace semantics (POSIX-ish path rules, link
//! counting, empty-directory checks) and a file's run list (appending
//! and merging runs, cutting the tail, mapping a logical block) are
//! implemented — and tested — once. A file system decides only which
//! blocks a node gets and which metadata blocks an operation touches.
//!
//! A path resolves through a [`PathSpec`]: validated, split and
//! interned once by [`Tree::make_spec`], then walked through
//! [`Symbol`]-keyed directory tables with zero allocation. The tests
//! keep a `&str` resolution family as the reference the spec walk is
//! checked against.

use crate::alloc::Run;
use crate::intern::{Interner, PathSpec, Symbol};
use crate::slab::Slab;
use rb_simcore::error::{SimError, SimResult};
use rb_simcore::fnv::FnvHashMap;
use rb_simcore::inline::InlineVec;
use rb_simcore::units::{BlockNo, Bytes};

use crate::vfs::{Extent, FileAttr, InodeNo};

/// Inode chain recorded during a resolution, root first: inline up to
/// 8 levels deep — deeper than any testbed namespace — so the per-op
/// traversal record costs no allocation on the hot path.
pub type Traversed = InlineVec<InodeNo, 8>;

/// Bytes a directory entry consumes (fixed-size model).
pub const DIRENT_SIZE: u64 = 64;

/// An in-memory inode.
#[derive(Debug, Clone)]
pub struct Inode {
    /// Inode number.
    pub ino: InodeNo,
    /// Logical size.
    pub size: Bytes,
    /// Data runs in logical order (cumulative mapping).
    pub runs: Vec<Run>,
    /// Directory payload, if this is a directory: entry name symbol →
    /// child inode. Resolve symbols through [`Tree::name`].
    pub dir: Option<FnvHashMap<Symbol, InodeNo>>,
    /// Parent directory inode (self for the root).
    pub parent: InodeNo,
    /// The group the file system placed this inode in: its block group
    /// on ext2 and ext3, its allocation group on xfs. Zero until the
    /// file system sets it.
    pub group: u64,
    /// Indirect mapping blocks (ext2 and ext3), in the order the file
    /// grew them; empty elsewhere.
    pub indirect: Vec<BlockNo>,
}

impl Inode {
    /// Allocated data blocks.
    pub fn blocks(&self) -> u64 {
        self.runs.iter().map(|r| r.len).sum()
    }

    /// True for directories.
    pub fn is_dir(&self) -> bool {
        self.dir.is_some()
    }

    /// Maps a logical block to (physical block, contiguous run remainder).
    pub fn map_block(&self, logical: u64) -> Option<(u64, u64)> {
        let mut base = 0u64;
        for r in &self.runs {
            if logical < base + r.len {
                let off = logical - base;
                return Some((r.start + off, r.len - off));
            }
            base += r.len;
        }
        None
    }

    /// Number of mapping extents (fragmentation of this file).
    pub fn extent_count(&self) -> usize {
        self.runs.len()
    }

    /// The block just past the last run: where the file grows
    /// contiguously, if it has any blocks.
    pub fn end_block(&self) -> Option<BlockNo> {
        self.runs.last().map(|r| r.start + r.len)
    }

    /// Appends newly allocated runs in logical order, merging each into
    /// the last run when it continues it on the device.
    pub fn append_runs(&mut self, runs: &[Run]) {
        for &r in runs {
            match self.runs.last_mut() {
                Some(last) if last.start + last.len == r.start => last.len += r.len,
                _ => self.runs.push(r),
            }
        }
    }

    /// Cuts `blocks` blocks off the end of the file, returning the runs
    /// cut, last first, for the allocator to free.
    pub fn cut_tail(&mut self, mut blocks: u64) -> Vec<Run> {
        let mut cut = Vec::new();
        while blocks > 0 {
            let Some(last) = self.runs.last_mut() else {
                break;
            };
            if last.len <= blocks {
                blocks -= last.len;
                cut.push(*last);
                self.runs.pop();
            } else {
                last.len -= blocks;
                cut.push(Run {
                    start: last.start + last.len,
                    len: blocks,
                });
                blocks = 0;
            }
        }
        cut
    }
}

/// The namespace: an inode table plus path resolution.
///
/// The inode table is a slab indexed by inode number, in chunks of 64
/// numbers. Inode numbers come from a counter and are never reused, so
/// a lookup is an index rather than a hash, and a chunk is freed once
/// every inode in it is gone (the highest only once the counter has
/// moved past it). Each inode carries what its file system
/// keeps per inode (its group, its indirect blocks), so the file
/// systems need no side tables keyed by inode number.
#[derive(Debug, Clone)]
pub struct Tree {
    inodes: Slab<Inode>,
    interner: Interner,
    next_ino: InodeNo,
    root: InodeNo,
}

/// Root inode number (fixed, like ext2's inode 2).
pub const ROOT_INO: InodeNo = 2;

impl Default for Tree {
    fn default() -> Self {
        Self::new()
    }
}

impl Tree {
    /// Creates a namespace containing only `/`.
    pub fn new() -> Self {
        let mut inodes = Slab::default();
        inodes.insert(
            ROOT_INO,
            Inode {
                ino: ROOT_INO,
                size: Bytes::ZERO,
                runs: Vec::new(),
                dir: Some(FnvHashMap::default()),
                parent: ROOT_INO,
                group: 0,
                indirect: Vec::new(),
            },
        );
        Tree {
            inodes,
            interner: Interner::new(),
            next_ino: ROOT_INO + 1,
            root: ROOT_INO,
        }
    }

    /// Root inode.
    pub fn root(&self) -> InodeNo {
        self.root
    }

    /// Number of live inodes.
    pub fn len(&self) -> usize {
        self.inodes.len()
    }

    /// Returns true if only the root exists.
    pub fn is_empty(&self) -> bool {
        self.inodes.len() == 1
    }

    /// Immutable inode access.
    pub fn get(&self, ino: InodeNo) -> SimResult<&Inode> {
        self.inodes
            .get(ino)
            .ok_or_else(|| SimError::NotFound(format!("inode {ino}")))
    }

    /// Mutable inode access.
    pub fn get_mut(&mut self, ino: InodeNo) -> SimResult<&mut Inode> {
        self.inodes
            .get_mut(ino)
            .ok_or_else(|| SimError::NotFound(format!("inode {ino}")))
    }

    /// Iterates all inodes, in inode-number order.
    pub fn iter(&self) -> impl Iterator<Item = &Inode> {
        self.inodes.values()
    }

    /// Chunks the inode slab holds.
    #[cfg(test)]
    pub(crate) fn inode_chunks(&self) -> usize {
        self.inodes.chunks()
    }

    /// Fsck-style namespace walk: every inode must be reachable from
    /// the root, and each child's parent pointer must agree with the
    /// directory entry naming it. Returns the first violation found —
    /// shared by the file systems' consistency checks.
    pub fn check_reachable(&self) -> Result<(), String> {
        use std::collections::VecDeque;
        let mut seen = rb_simcore::fnv::FnvHashSet::default();
        let mut queue = VecDeque::from([self.root]);
        seen.insert(self.root);
        while let Some(ino) = queue.pop_front() {
            let node = self
                .inodes
                .get(ino)
                .ok_or_else(|| format!("directory entry points at missing inode {ino}"))?;
            if let Some(dir) = &node.dir {
                for (&name, &child) in dir {
                    let c = self.inodes.get(child).ok_or_else(|| {
                        format!(
                            "dirent {:?} in inode {ino} points at missing inode {child}",
                            self.name(name)
                        )
                    })?;
                    if c.parent != ino {
                        return Err(format!(
                            "inode {child} parent pointer {} disagrees with its dirent in {ino}",
                            c.parent
                        ));
                    }
                    if seen.insert(child) {
                        queue.push_back(child);
                    }
                }
            }
        }
        if seen.len() != self.inodes.len() {
            return Err(format!(
                "{} inodes exist but only {} are reachable from the root",
                self.inodes.len(),
                seen.len()
            ));
        }
        Ok(())
    }

    /// The name behind an interned component symbol.
    pub fn name(&self, sym: Symbol) -> &str {
        self.interner.resolve(sym)
    }

    /// The FNV-1a hash of an interned component's name (see
    /// [`Interner::hash`]).
    pub(crate) fn name_hash(&self, sym: Symbol) -> u64 {
        self.interner.hash(sym)
    }

    /// Interns a component name (see [`Interner::intern`]).
    pub fn intern(&mut self, name: &str) -> Symbol {
        self.interner.intern(name)
    }

    /// Validates a path shape: absolute, no `.`/`..` components.
    pub fn validate(path: &str) -> SimResult<()> {
        if !path.starts_with('/') {
            return Err(SimError::InvalidOperation(format!(
                "path must be absolute: {path}"
            )));
        }
        if path.split('/').any(|c| c == "." || c == "..") {
            return Err(SimError::InvalidOperation(format!(
                "path must be canonical: {path}"
            )));
        }
        Ok(())
    }

    /// Iterates a path's components without allocating, rejecting
    /// malformed input up front. This is the single splitting routine
    /// behind every resolution and interning entry point.
    pub fn components_iter(path: &str) -> SimResult<impl Iterator<Item = &str>> {
        Self::validate(path)?;
        Ok(path.split('/').filter(|c| !c.is_empty()))
    }

    /// Validates, splits and interns a path once, producing the spec
    /// the zero-allocation resolution API consumes.
    pub fn make_spec(&mut self, path: &str) -> SimResult<PathSpec> {
        let mut comps = Vec::new();
        for c in Self::components_iter(path)? {
            comps.push(self.interner.intern(c));
        }
        Ok(PathSpec::new(path, comps))
    }

    /// Resolves a pre-split path to an inode, also returning every
    /// directory inode traversed (for metadata charging).
    pub fn resolve_spec(&self, spec: &PathSpec) -> SimResult<(InodeNo, Traversed)> {
        let mut cur = self.root;
        let mut traversed = Traversed::new();
        traversed.push(self.root);
        for &sym in spec.components() {
            cur = self.step(cur, sym, spec.path())?;
            traversed.push(cur);
        }
        Ok((cur, traversed))
    }

    /// Resolves the parent directory of a pre-split path, returning
    /// `(parent_ino, final_component, traversed)`.
    pub fn resolve_parent_spec(&self, spec: &PathSpec) -> SimResult<(InodeNo, Symbol, Traversed)> {
        let Some((leaf, dirs)) = spec.split_last() else {
            return Err(SimError::InvalidOperation("path is the root".into()));
        };
        let mut cur = self.root;
        let mut traversed = Traversed::new();
        traversed.push(self.root);
        for &sym in dirs {
            cur = self.step(cur, sym, spec.path())?;
            traversed.push(cur);
        }
        if self.get(cur)?.dir.is_none() {
            return Err(SimError::InvalidOperation(format!(
                "{}: parent not a directory",
                spec.path()
            )));
        }
        Ok((cur, leaf, traversed))
    }

    /// Resolves where a new node at `spec` goes, as
    /// [`Tree::resolve_parent_spec`] does, refusing a name the parent
    /// already holds.
    pub fn resolve_new_spec(&self, spec: &PathSpec) -> SimResult<(InodeNo, Symbol, Traversed)> {
        let (parent, name, traversed) = self.resolve_parent_spec(spec)?;
        if self.has_child(parent, name) {
            return Err(SimError::AlreadyExists(spec.path().to_string()));
        }
        Ok((parent, name, traversed))
    }

    /// One resolution step: child of `cur` named `sym`.
    #[inline]
    fn step(&self, cur: InodeNo, sym: Symbol, path: &str) -> SimResult<InodeNo> {
        let node = self.get(cur)?;
        let dir = node.dir.as_ref().ok_or_else(|| {
            SimError::InvalidOperation(format!("{}: not a directory", self.name(sym)))
        })?;
        dir.get(&sym)
            .copied()
            .ok_or_else(|| SimError::NotFound(path.to_string()))
    }

    /// Returns true if directory `parent` has an entry named `name`.
    ///
    /// An O(1) existence probe for callers that already resolved the
    /// parent — equivalent to (but much cheaper than) re-resolving the
    /// full path and checking for success.
    pub fn has_child(&self, parent: InodeNo, name: Symbol) -> bool {
        self.inodes
            .get(parent)
            .and_then(|n| n.dir.as_ref())
            .is_some_and(|d| d.contains_key(&name))
    }

    /// Inserts a new inode under `parent` with the pre-interned name
    /// `name`.
    ///
    /// The caller has already verified the name is free.
    pub fn insert_child_sym(
        &mut self,
        parent: InodeNo,
        name: Symbol,
        is_dir: bool,
    ) -> SimResult<InodeNo> {
        let ino = self.next_ino;
        self.next_ino += 1;
        let node = Inode {
            ino,
            size: Bytes::ZERO,
            runs: Vec::new(),
            dir: if is_dir {
                Some(FnvHashMap::default())
            } else {
                None
            },
            parent,
            group: 0,
            indirect: Vec::new(),
        };
        self.inodes.insert(ino, node);
        let pdir = self
            .get_mut(parent)?
            .dir
            .as_mut()
            .ok_or_else(|| SimError::InvalidOperation("parent not a directory".into()))?;
        pdir.insert(name, ino);
        // Directory grows by one entry.
        let psize = self.get(parent)?.size + Bytes::new(DIRENT_SIZE);
        self.get_mut(parent)?.size = psize;
        Ok(ino)
    }

    /// Removes `name` from `parent` and deletes the inode, returning it:
    /// its runs, group and indirect blocks are the caller's to free.
    ///
    /// Directories must be empty.
    pub fn remove_child_sym(&mut self, parent: InodeNo, name: Symbol) -> SimResult<Inode> {
        let ino = {
            let pdir = self
                .get(parent)?
                .dir
                .as_ref()
                .ok_or_else(|| SimError::InvalidOperation("parent not a directory".into()))?;
            *pdir
                .get(&name)
                .ok_or_else(|| SimError::NotFound(self.name(name).to_string()))?
        };
        if let Some(d) = &self.get(ino)?.dir {
            if !d.is_empty() {
                return Err(SimError::NotEmpty(self.name(name).to_string()));
            }
        }
        let node = self
            .inodes
            .remove(ino)
            .ok_or_else(|| SimError::NotFound(format!("inode {ino}")))?;
        if let Some(pdir) = self.get_mut(parent)?.dir.as_mut() {
            pdir.remove(&name);
        }
        let psize = self
            .get(parent)?
            .size
            .saturating_sub(Bytes::new(DIRENT_SIZE));
        self.get_mut(parent)?.size = psize;
        Ok(node)
    }

    /// Sorted entry names of a directory (allocates; readdir's listing
    /// form, off the hot path).
    pub fn read_names(&self, ino: InodeNo) -> SimResult<Vec<String>> {
        let dir =
            self.get(ino)?.dir.as_ref().ok_or_else(|| {
                SimError::InvalidOperation(format!("inode {ino}: not a directory"))
            })?;
        let mut names: Vec<String> = dir.keys().map(|&s| self.name(s).to_string()).collect();
        names.sort_unstable();
        Ok(names)
    }

    /// Attributes of inode `ino`.
    pub fn attr(&self, ino: InodeNo) -> SimResult<FileAttr> {
        let node = self.get(ino)?;
        Ok(FileAttr {
            ino,
            size: node.size,
            blocks: node.blocks(),
            is_dir: node.is_dir(),
        })
    }

    /// Logical size of inode `ino`.
    pub fn size_of(&self, ino: InodeNo) -> SimResult<Bytes> {
        Ok(self.get(ino)?.size)
    }

    /// Maps logical block `logical` of `ino` to an extent of at most
    /// `max` blocks (at least one) starting there.
    pub fn map(&self, ino: InodeNo, logical: u64, max: u64) -> SimResult<Extent> {
        let node = self.get(ino)?;
        match node.map_block(logical) {
            Some((physical, rem)) => Ok(Extent {
                logical,
                physical,
                len: rem.min(max.max(1)),
            }),
            None => Err(SimError::OutOfBounds {
                offset: logical,
                size: node.blocks(),
            }),
        }
    }

    /// Mean extents per file MiB across regular files (layout metric).
    pub fn avg_file_extents(&self) -> f64 {
        let mut files = 0usize;
        let mut total_ext = 0usize;
        for i in self.iter() {
            if !i.is_dir() && !i.runs.is_empty() {
                files += 1;
                total_ext += i.extent_count();
            }
        }
        if files == 0 {
            return 0.0;
        }
        total_ext as f64 / files as f64
    }
}

/// The `&str` resolution family: the reference the spec walk is
/// checked against, and the API of the hash-map tree it replaced.
#[cfg(test)]
impl Tree {
    /// Splits a path into components, rejecting malformed input.
    ///
    /// Allocates the returned vector; resolution paths use
    /// [`Tree::components_iter`] or a pre-built [`PathSpec`] instead.
    pub fn components(path: &str) -> SimResult<Vec<&str>> {
        Ok(Self::components_iter(path)?.collect())
    }

    /// Resolves a path to an inode, also returning every directory inode
    /// traversed (for metadata charging).
    pub fn resolve(&self, path: &str) -> SimResult<(InodeNo, Vec<InodeNo>)> {
        let mut cur = self.root;
        let mut traversed = vec![self.root];
        for c in Self::components_iter(path)? {
            cur = self.step_named(cur, c, path)?;
            traversed.push(cur);
        }
        Ok((cur, traversed))
    }

    /// [`Tree::step`] for a component that may never have been interned
    /// (a name that was never created certainly is not in the tree).
    fn step_named(&self, cur: InodeNo, name: &str, path: &str) -> SimResult<InodeNo> {
        let node = self.get(cur)?;
        let dir = node
            .dir
            .as_ref()
            .ok_or_else(|| SimError::InvalidOperation(format!("{name}: not a directory")))?;
        self.interner
            .lookup(name)
            .and_then(|sym| dir.get(&sym).copied())
            .ok_or_else(|| SimError::NotFound(path.to_string()))
    }

    /// Resolves the parent directory of `path`, returning
    /// `(parent_ino, final_component, traversed)`.
    pub fn resolve_parent<'p>(&self, path: &'p str) -> SimResult<(InodeNo, &'p str, Vec<InodeNo>)> {
        let comps = Self::components(path)?;
        let Some((&name, dirs)) = comps.split_last() else {
            return Err(SimError::InvalidOperation("path is the root".into()));
        };
        let mut cur = self.root;
        let mut traversed = vec![self.root];
        for c in dirs {
            cur = self.step_named(cur, c, path)?;
            traversed.push(cur);
        }
        if self.get(cur)?.dir.is_none() {
            return Err(SimError::InvalidOperation(format!(
                "{path}: parent not a directory"
            )));
        }
        Ok((cur, name, traversed))
    }

    /// Inserts a new inode under `parent` with the given name.
    ///
    /// The caller has already verified the name is free.
    pub fn insert_child(
        &mut self,
        parent: InodeNo,
        name: &str,
        is_dir: bool,
    ) -> SimResult<InodeNo> {
        let sym = self.interner.intern(name);
        self.insert_child_sym(parent, sym, is_dir)
    }

    /// Removes `name` from `parent` and deletes the inode, returning its
    /// number and data runs for the allocator to free.
    ///
    /// Directories must be empty.
    pub fn remove_child(&mut self, parent: InodeNo, name: &str) -> SimResult<(InodeNo, Vec<Run>)> {
        let sym = self
            .interner
            .lookup(name)
            .ok_or_else(|| SimError::NotFound(name.to_string()))?;
        let node = self.remove_child_sym(parent, sym)?;
        Ok((node.ino, node.runs))
    }

    /// Number of entries in a directory (the counted readdir form).
    pub fn dir_len(&self, ino: InodeNo) -> SimResult<u64> {
        self.get(ino)?
            .dir
            .as_ref()
            .map(|d| d.len() as u64)
            .ok_or_else(|| SimError::InvalidOperation(format!("inode {ino}: not a directory")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_exists() {
        let t = Tree::new();
        assert!(t.get(ROOT_INO).unwrap().is_dir());
        assert!(t.is_empty());
        let (ino, traversed) = t.resolve("/").unwrap();
        assert_eq!(ino, ROOT_INO);
        assert_eq!(traversed, vec![ROOT_INO]);
    }

    #[test]
    fn create_and_resolve_nested() {
        let mut t = Tree::new();
        let d = t.insert_child(ROOT_INO, "dir", true).unwrap();
        let f = t.insert_child(d, "file", false).unwrap();
        let (ino, traversed) = t.resolve("/dir/file").unwrap();
        assert_eq!(ino, f);
        assert_eq!(traversed, vec![ROOT_INO, d, f]);
        assert!(!t.get(f).unwrap().is_dir());
    }

    #[test]
    fn spec_resolution_agrees_with_string_resolution() {
        let mut t = Tree::new();
        let d = t.insert_child(ROOT_INO, "dir", true).unwrap();
        let f = t.insert_child(d, "file", false).unwrap();
        for path in ["/", "/dir", "/dir/file", "/dir/missing", "/dir/file/deep"] {
            let spec = t.make_spec(path).unwrap();
            match (t.resolve(path), t.resolve_spec(&spec)) {
                (Ok((ia, ta)), Ok((ib, tb))) => {
                    assert_eq!((ia, ta.as_slice()), (ib, tb.as_slice()), "{path}")
                }
                (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "{path}"),
                (a, b) => panic!("{path}: string {a:?} vs spec {b:?}"),
            }
        }
        let spec = t.make_spec("/dir/file").unwrap();
        let (ino, _) = t.resolve_spec(&spec).unwrap();
        assert_eq!(ino, f);

        // Seeded cases: up to 5 directories and 5 files with 1-2 letter
        // names, probed by up to 23 paths: random ones (absolute with 1-3
        // components that may be `.`/`..`, relative, or `/`) and
        // existing ones, bare or with one more random component.
        // Interned and string resolution must agree on the inode, the
        // traversal and the error text, for the path and its parent. A
        // failure names its seed; `Rng::new(seed)` replays it.
        use rb_simcore::rng::Rng;
        let word = |rng: &mut Rng, letters: &[u8]| -> String {
            (0..1 + rng.below(2))
                .map(|_| letters[rng.below(letters.len() as u64) as usize] as char)
                .collect()
        };
        for seed in 0..128 {
            let mut rng = Rng::new(seed);
            let mut t = Tree::new();
            let mut dirs = vec![(ROOT_INO, String::new())];
            let mut known = Vec::new();
            for _ in 0..rng.below(6) {
                let name = word(&mut rng, b"abc");
                let (parent, prefix) = dirs[dirs.len() / 2].clone();
                if let Ok(ino) = t.insert_child(parent, &name, true) {
                    dirs.push((ino, format!("{prefix}/{name}")));
                    known.push(format!("{prefix}/{name}"));
                }
            }
            for _ in 0..rng.below(6) {
                let name = word(&mut rng, b"abcde");
                let (parent, prefix) = &dirs[dirs.len() - 1];
                if t.insert_child(*parent, &name, false).is_ok() {
                    known.push(format!("{prefix}/{name}"));
                }
            }
            for _ in 0..1 + rng.below(23) {
                let probe = match rng.below(5) {
                    0 => (0..1 + rng.below(3))
                        .map(|_| format!("/{}", word(&mut rng, b"abcde.")))
                        .collect(),
                    1 => word(&mut rng, b"abcde"),
                    2 => "/".to_string(),
                    _ if known.is_empty() => "/".to_string(),
                    k => {
                        let path = &known[rng.below(known.len() as u64) as usize];
                        if k == 3 {
                            path.clone()
                        } else {
                            format!("{path}/{}", word(&mut rng, b"abcde"))
                        }
                    }
                };
                let via_string = t.resolve(&probe);
                let via_spec = t.make_spec(&probe).and_then(|s| t.resolve_spec(&s));
                match (via_string, via_spec) {
                    (Ok((ia, ta)), Ok((ib, tb))) => {
                        assert_eq!(
                            (ia, ta.as_slice()),
                            (ib, tb.as_slice()),
                            "seed {seed}: {probe}"
                        )
                    }
                    (Err(a), Err(b)) => {
                        assert_eq!(a.to_string(), b.to_string(), "seed {seed}: {probe}")
                    }
                    (a, b) => panic!("seed {seed}: {probe}: string {a:?} vs spec {b:?}"),
                }
                let via_string = t
                    .resolve_parent(&probe)
                    .map(|(p, name, tr)| (p, name.to_string(), tr));
                let via_spec = t.make_spec(&probe).and_then(|s| {
                    t.resolve_parent_spec(&s)
                        .map(|(p, leaf, tr)| (p, t.name(leaf).to_string(), tr.to_vec()))
                });
                match (via_string, via_spec) {
                    (Ok(a), Ok(b)) => assert_eq!(a, b, "seed {seed}: parent of {probe}"),
                    (Err(a), Err(b)) => {
                        assert_eq!(
                            a.to_string(),
                            b.to_string(),
                            "seed {seed}: parent of {probe}"
                        )
                    }
                    (a, b) => panic!("seed {seed}: parent of {probe}: string {a:?} vs spec {b:?}"),
                }
            }
        }
    }

    #[test]
    fn resolve_parent_of_missing_leaf_ok() {
        let mut t = Tree::new();
        t.insert_child(ROOT_INO, "dir", true).unwrap();
        let (parent, name, _) = t.resolve_parent("/dir/new").unwrap();
        assert_eq!(name, "new");
        assert_eq!(parent, t.resolve("/dir").unwrap().0);
        // Same through the spec API.
        let spec = t.make_spec("/dir/new").unwrap();
        let (p2, leaf, _) = t.resolve_parent_spec(&spec).unwrap();
        assert_eq!(p2, parent);
        assert_eq!(t.name(leaf), "new");
    }

    #[test]
    fn malformed_paths_rejected() {
        let t = Tree::new();
        assert!(t.resolve("relative").is_err());
        assert!(t.resolve("/a/../b").is_err());
        assert!(Tree::components("/a/./b").is_err());
        assert!(t.resolve_parent("/").is_err());
        let mut t = Tree::new();
        assert!(t.make_spec("relative").is_err());
        assert!(t.make_spec("/a/../b").is_err());
        let root_spec = t.make_spec("/").unwrap();
        assert!(t.resolve_parent_spec(&root_spec).is_err());
    }

    #[test]
    fn components_iter_does_not_allocate_a_vec() {
        let mut it = Tree::components_iter("/a/b/c").unwrap();
        assert_eq!(it.next(), Some("a"));
        assert_eq!(it.next(), Some("b"));
        assert_eq!(it.next(), Some("c"));
        assert_eq!(it.next(), None);
        assert_eq!(Tree::components("/a//b").unwrap(), vec!["a", "b"]);
    }

    #[test]
    fn file_component_in_middle_fails() {
        let mut t = Tree::new();
        t.insert_child(ROOT_INO, "f", false).unwrap();
        assert!(t.resolve("/f/child").is_err());
        assert!(t.resolve_parent("/f/child").is_err());
        let spec = t.make_spec("/f/child").unwrap();
        assert!(t.resolve_spec(&spec).is_err());
        assert!(t.resolve_parent_spec(&spec).is_err());
    }

    #[test]
    fn remove_child_returns_runs() {
        let mut t = Tree::new();
        let f = t.insert_child(ROOT_INO, "f", false).unwrap();
        t.get_mut(f).unwrap().runs = vec![Run { start: 100, len: 5 }];
        let (ino, runs) = t.remove_child(ROOT_INO, "f").unwrap();
        assert_eq!(ino, f);
        assert_eq!(runs, vec![Run { start: 100, len: 5 }]);
        assert!(t.resolve("/f").is_err());
        // Removing a never-interned name is NotFound, not a panic.
        assert!(matches!(
            t.remove_child(ROOT_INO, "ghost"),
            Err(SimError::NotFound(_))
        ));
    }

    #[test]
    fn nonempty_dir_protected() {
        let mut t = Tree::new();
        let d = t.insert_child(ROOT_INO, "d", true).unwrap();
        t.insert_child(d, "f", false).unwrap();
        assert!(matches!(
            t.remove_child(ROOT_INO, "d"),
            Err(SimError::NotEmpty(_))
        ));
        t.remove_child(d, "f").unwrap();
        assert!(t.remove_child(ROOT_INO, "d").is_ok());
    }

    #[test]
    fn dir_size_tracks_entries() {
        let mut t = Tree::new();
        t.insert_child(ROOT_INO, "a", false).unwrap();
        t.insert_child(ROOT_INO, "b", false).unwrap();
        assert_eq!(t.get(ROOT_INO).unwrap().size, Bytes::new(2 * DIRENT_SIZE));
        t.remove_child(ROOT_INO, "a").unwrap();
        assert_eq!(t.get(ROOT_INO).unwrap().size, Bytes::new(DIRENT_SIZE));
    }

    #[test]
    fn read_names_sorted_and_dir_len_counts() {
        let mut t = Tree::new();
        t.insert_child(ROOT_INO, "b", false).unwrap();
        t.insert_child(ROOT_INO, "a", false).unwrap();
        assert_eq!(t.read_names(ROOT_INO).unwrap(), vec!["a", "b"]);
        assert_eq!(t.dir_len(ROOT_INO).unwrap(), 2);
        let f = t.resolve("/a").unwrap().0;
        assert!(t.read_names(f).is_err());
        assert!(t.dir_len(f).is_err());
    }

    /// An inode as plain values, its directory sorted by name symbol.
    type InodeView = (
        InodeNo,
        Bytes,
        Vec<Run>,
        Option<Vec<(Symbol, InodeNo)>>,
        InodeNo,
        u64,
        Vec<BlockNo>,
    );

    fn view(n: &Inode) -> InodeView {
        let dir = n.dir.as_ref().map(|d| {
            let mut entries: Vec<_> = d.iter().map(|(&s, &i)| (s, i)).collect();
            entries.sort_unstable();
            entries
        });
        let (runs, indirect) = (n.runs.clone(), n.indirect.clone());
        (n.ino, n.size, runs, dir, n.parent, n.group, indirect)
    }

    /// Seeded histories of up to 199 namespace ops, run on the slab
    /// tree and on the hash-map tree it replaced
    /// (`crate::oracle::HashTree`), compared return value for return
    /// value after every op: inserts of files and directories (under
    /// directories, files, dead and never-issued numbers, with fresh
    /// and taken names), removals by name and by symbol (present,
    /// missing, non-empty), inode reads and writes, resolutions by
    /// string and by spec of the path and its parent, existence probes,
    /// directory counts and listings, the live count, the reachability
    /// walk, the layout metric and the inodes themselves. A failure
    /// names its seed and step.
    #[test]
    fn matches_the_hash_map_oracle() {
        use crate::oracle::HashTree;
        use rb_simcore::rng::Rng;
        let word = |rng: &mut Rng| -> String {
            (0..1 + rng.below(2))
                .map(|_| b"abcd"[rng.below(4) as usize] as char)
                .collect()
        };
        for seed in 0..300 {
            let mut rng = Rng::new(seed);
            let (mut new, mut old) = (Tree::new(), HashTree::new());
            // Every number an insert has issued; each insert issues one.
            let mut issued = ROOT_INO;
            let mut known = vec![(ROOT_INO, String::new())];
            for step in 0..1 + rng.below(200) {
                let at = format!("seed {seed} step {step}");
                let name = word(&mut rng);
                let (parent, prefix) = if rng.below(4) == 0 {
                    (rng.below(issued + 3), String::from("/x"))
                } else {
                    known[rng.below(known.len() as u64) as usize].clone()
                };
                match rng.below(9) {
                    0..=2 => {
                        let is_dir = rng.below(2) == 0;
                        let a = new.insert_child(parent, &name, is_dir);
                        let b = old.insert_child(parent, &name, is_dir);
                        assert_eq!(a, b, "{at}: insert {name} under {parent}");
                        issued += 1;
                        if let Ok(ino) = a {
                            known.push((ino, format!("{prefix}/{name}")));
                        }
                    }
                    3 => {
                        let a = new.remove_child(parent, &name);
                        let b = old.remove_child(parent, &name);
                        assert_eq!(a, b, "{at}: remove {name} from {parent}");
                    }
                    4 => {
                        let (sa, sb) = (new.intern(&name), old.intern(&name));
                        assert_eq!(sa, sb, "{at}: intern {name}");
                        let a = new.remove_child_sym(parent, sa).map(|n| (n.ino, n.runs));
                        let b = old.remove_child_sym(parent, sb);
                        assert_eq!(a, b, "{at}: remove {name} from {parent} by symbol");
                    }
                    5 => {
                        let ino = rng.below(issued + 3);
                        let size = Bytes::new(rng.below(1 << 20));
                        let runs: Vec<Run> = (0..rng.below(4))
                            .map(|_| Run {
                                start: rng.below(10_000),
                                len: 1 + rng.below(50),
                            })
                            .collect();
                        let (group, indirect) = (rng.below(8), vec![rng.below(10_000)]);
                        let a = new.get_mut(ino).map(|n| {
                            (n.size, n.runs, n.group, n.indirect) =
                                (size, runs.clone(), group, indirect.clone());
                        });
                        let b = old.get_mut(ino).map(|n| {
                            (n.size, n.runs, n.group, n.indirect) = (size, runs, group, indirect);
                        });
                        assert_eq!(a, b, "{at}: write inode {ino}");
                    }
                    6 => {
                        let path = match rng.below(4) {
                            0 => format!("{prefix}/{name}"),
                            1 => prefix.clone(),
                            2 => format!("{prefix}/./{name}"),
                            _ => name.clone(),
                        };
                        let a = new.resolve(&path);
                        assert_eq!(a, old.resolve(&path), "{at}: resolve {path}");
                        let a = new.resolve_parent(&path);
                        assert_eq!(a, old.resolve_parent(&path), "{at}: parent of {path}");
                        let (sa, sb) = (new.make_spec(&path), old.make_spec(&path));
                        assert_eq!(sa.is_ok(), sb.is_ok(), "{at}: spec of {path}");
                        if let (Ok(sa), Ok(sb)) = (sa, sb) {
                            let a = new.resolve_spec(&sa).map(|(i, t)| (i, t.to_vec()));
                            let b = old.resolve_spec(&sb).map(|(i, t)| (i, t.to_vec()));
                            assert_eq!(a, b, "{at}: resolve spec {path}");
                            let a = new
                                .resolve_parent_spec(&sa)
                                .map(|(i, s, t)| (i, s, t.to_vec()));
                            let b = old
                                .resolve_parent_spec(&sb)
                                .map(|(i, s, t)| (i, s, t.to_vec()));
                            assert_eq!(a, b, "{at}: parent spec of {path}");
                        }
                    }
                    _ => {
                        let (sa, sb) = (new.intern(&name), old.intern(&name));
                        assert_eq!(
                            new.has_child(parent, sa),
                            old.has_child(parent, sb),
                            "{at}: has {name} in {parent}"
                        );
                        assert_eq!(new.dir_len(parent), old.dir_len(parent), "{at}: dir_len");
                        assert_eq!(
                            new.read_names(parent),
                            old.read_names(parent),
                            "{at}: names"
                        );
                    }
                }
                let ino = rng.below(issued + 3);
                assert_eq!(
                    new.get(ino).map(view),
                    old.get(ino).map(view),
                    "{at}: inode {ino}"
                );
                assert_eq!(
                    (new.len(), new.is_empty()),
                    (old.len(), old.is_empty()),
                    "{at}: len"
                );
                assert_eq!(new.check_reachable(), old.check_reachable(), "{at}: walk");
                assert_eq!(
                    new.avg_file_extents().to_bits(),
                    old.avg_file_extents().to_bits(),
                    "{at}: extents"
                );
                let mut all: Vec<InodeView> = old.iter().map(view).collect();
                all.sort_by_key(|v| v.0);
                assert!(new.iter().map(view).eq(all), "{at}: inodes");
            }
        }
    }

    /// Creating and unlinking 10,000 files leaves the inode slab no
    /// larger than it started, besides the empty chunk the inode counter
    /// is filling, on every file system.
    #[test]
    fn memory_follows_live_inodes() {
        use crate::ext2::{Ext2Config, Ext2Fs};
        use crate::vfs::FileSystem;
        use crate::xfs::{XfsConfig, XfsFs};
        fn churn<F: FileSystem>(mut fs: F, tree: impl Fn(&F) -> &Tree) {
            let name = fs.name();
            let before = tree(&fs).inode_chunks();
            let specs: Vec<PathSpec> = (0..10_000)
                .map(|i| fs.intern_path(&format!("/f{i}")).unwrap())
                .collect();
            for spec in &specs {
                fs.create_spec(spec).unwrap();
            }
            assert!(tree(&fs).inode_chunks() > before, "{name}: no chunk grew");
            for spec in &specs {
                fs.unlink_spec(spec).unwrap();
            }
            let after = tree(&fs).inode_chunks();
            assert!(
                after <= before + 1,
                "{name}: {after} chunks, {before} before"
            );
            assert_eq!(tree(&fs).len(), 1, "{name}: only the root is left");
        }
        churn(Ext2Fs::new(Ext2Config::for_blocks(262_144)), Ext2Fs::tree);
        churn(
            Ext2Fs::new(Ext2Config::ext3_for_blocks(262_144)),
            Ext2Fs::tree,
        );
        churn(XfsFs::new(XfsConfig::for_blocks(262_144)), XfsFs::tree);
    }

    #[test]
    fn map_block_walks_runs() {
        let mut t = Tree::new();
        let f = t.insert_child(ROOT_INO, "f", false).unwrap();
        let node = t.get_mut(f).unwrap();
        assert_eq!(node.end_block(), None);
        // A run that continues the last one merges into it.
        node.append_runs(&[Run { start: 100, len: 2 }, Run { start: 102, len: 1 }]);
        node.append_runs(&[Run { start: 500, len: 4 }]);
        assert_eq!(node.end_block(), Some(504));
        // Cutting the tail shortens the last run, then drops whole runs.
        assert_eq!(node.cut_tail(2), vec![Run { start: 502, len: 2 }]);
        let node = t.get(f).unwrap();
        assert_eq!(node.map_block(0), Some((100, 3)));
        assert_eq!(node.map_block(2), Some((102, 1)));
        assert_eq!(node.map_block(3), Some((500, 2)));
        assert_eq!(node.map_block(4), Some((501, 1)));
        assert_eq!(node.map_block(5), None);
        assert_eq!(node.blocks(), 5);
        assert_eq!(node.extent_count(), 2);
        let extent = |logical, max| t.map(f, logical, max).map(|e| (e.physical, e.len));
        assert_eq!(extent(1, 9), Ok((101, 2)));
        assert_eq!(extent(3, 0), Ok((500, 1)));
        assert!(matches!(
            extent(5, 1),
            Err(SimError::OutOfBounds { offset: 5, size: 5 })
        ));
        let attr = t.attr(f).unwrap();
        assert_eq!((attr.blocks, attr.is_dir), (5, false));
        let cut = t.get_mut(f).unwrap().cut_tail(9);
        assert_eq!(
            cut,
            vec![Run { start: 500, len: 2 }, Run { start: 100, len: 3 }]
        );
        assert_eq!(t.get(f).unwrap().blocks(), 0);
    }
}
