//! The inode table and block bitmap this crate had before its inode
//! slab and word bitmap, kept verbatim as the oracles the new ones must
//! match return value for return value (see `tree::tests` and
//! `alloc::tests`).
//!
//! Differences from the original text: the structs are renamed
//! `HashTree` and `ByteBitmap`, and the inodes they build set the two
//! fields `Inode` has gained, `group` and `indirect`, to their
//! defaults.

#![allow(dead_code)]

use crate::alloc::Run;
use crate::intern::{Interner, PathSpec, Symbol};
use crate::tree::{Inode, Traversed, DIRENT_SIZE, ROOT_INO};
use crate::vfs::InodeNo;
use rb_simcore::error::{SimError, SimResult};
use rb_simcore::fnv::FnvHashMap;
use rb_simcore::units::{BlockNo, Bytes};

/// The namespace before the inode slab: the inode table is a hash map.
#[derive(Debug, Clone)]
pub struct HashTree {
    inodes: FnvHashMap<InodeNo, Inode>,
    interner: Interner,
    next_ino: InodeNo,
    root: InodeNo,
}

impl HashTree {
    /// Creates a namespace containing only `/`.
    pub fn new() -> Self {
        let mut inodes = FnvHashMap::default();
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
        HashTree {
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
            .get(&ino)
            .ok_or_else(|| SimError::NotFound(format!("inode {ino}")))
    }

    /// Mutable inode access.
    pub fn get_mut(&mut self, ino: InodeNo) -> SimResult<&mut Inode> {
        self.inodes
            .get_mut(&ino)
            .ok_or_else(|| SimError::NotFound(format!("inode {ino}")))
    }

    /// Iterates all inodes.
    pub fn iter(&self) -> impl Iterator<Item = &Inode> {
        self.inodes.values()
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
                .get(&ino)
                .ok_or_else(|| format!("directory entry points at missing inode {ino}"))?;
            if let Some(dir) = &node.dir {
                for (&name, &child) in dir {
                    let c = self.inodes.get(&child).ok_or_else(|| {
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

    /// Splits a path into components, rejecting malformed input.
    ///
    /// Allocates the returned vector; resolution paths use
    /// [`Tree::components_iter`] or a pre-built [`PathSpec`] instead.
    pub fn components(path: &str) -> SimResult<Vec<&str>> {
        Ok(Self::components_iter(path)?.collect())
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
    /// directory inode traversed (for metadata charging). Behaviour and
    /// errors are identical to [`Tree::resolve`].
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
    /// `(parent_ino, final_component, traversed)`. Behaviour and errors
    /// are identical to [`Tree::resolve_parent`].
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

    /// One resolution step: child of `cur` named `sym`, with the same
    /// errors the string walk produced.
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
            .get(&parent)
            .and_then(|n| n.dir.as_ref())
            .is_some_and(|d| d.contains_key(&name))
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

    /// [`Tree::insert_child`] with a pre-interned name.
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

    /// Removes `name` from `parent` and deletes the inode, returning its
    /// data runs for the allocator to free.
    ///
    /// Directories must be empty.
    pub fn remove_child(&mut self, parent: InodeNo, name: &str) -> SimResult<(InodeNo, Vec<Run>)> {
        let sym = self
            .interner
            .lookup(name)
            .ok_or_else(|| SimError::NotFound(name.to_string()))?;
        self.remove_child_sym(parent, sym)
    }

    /// [`Tree::remove_child`] with a pre-interned name.
    pub fn remove_child_sym(
        &mut self,
        parent: InodeNo,
        name: Symbol,
    ) -> SimResult<(InodeNo, Vec<Run>)> {
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
        let runs = self.get(ino)?.runs.clone();
        self.inodes.remove(&ino);
        if let Some(pdir) = self.get_mut(parent)?.dir.as_mut() {
            pdir.remove(&name);
        }
        let psize = self
            .get(parent)?
            .size
            .saturating_sub(Bytes::new(DIRENT_SIZE));
        self.get_mut(parent)?.size = psize;
        Ok((ino, runs))
    }

    /// Number of entries in a directory (the counted readdir form).
    pub fn dir_len(&self, ino: InodeNo) -> SimResult<u64> {
        self.get(ino)?
            .dir
            .as_ref()
            .map(|d| d.len() as u64)
            .ok_or_else(|| SimError::InvalidOperation(format!("inode {ino}: not a directory")))
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

#[derive(Debug, Clone)]
pub struct ByteBitmap {
    bits: Vec<bool>,
    group_size: u64,
    free: u64,
    /// Per-group scan accelerator: every block of group `g` below
    /// `first_free_hint[g]` is allocated, so `alloc` may start its walk
    /// there instead of at the group boundary. The hint is a lower
    /// bound, never a promise that the hinted block is free; the runs
    /// found are identical to a full from-the-start scan.
    first_free_hint: Vec<u64>,
}

impl ByteBitmap {
    /// Creates an allocator of `total` blocks in groups of `group_size`.
    pub fn new(total: u64, group_size: u64) -> Self {
        let group_size = group_size.max(1);
        let groups = total.div_ceil(group_size) as usize;
        ByteBitmap {
            bits: vec![false; total as usize],
            group_size,
            free: total,
            first_free_hint: (0..groups as u64).map(|g| g * group_size).collect(),
        }
    }

    /// Total blocks managed.
    pub fn total(&self) -> u64 {
        self.bits.len() as u64
    }

    /// Free blocks remaining.
    pub fn free_blocks(&self) -> u64 {
        self.free
    }

    /// Number of block groups.
    pub fn groups(&self) -> u64 {
        self.total().div_ceil(self.group_size)
    }

    /// Returns true if `block` is allocated.
    pub fn is_allocated(&self, block: BlockNo) -> bool {
        self.bits.get(block as usize).copied().unwrap_or(false)
    }

    /// Marks a specific block allocated (used by mkfs for metadata areas).
    ///
    /// Returns an error if already allocated or out of range.
    pub fn reserve(&mut self, block: BlockNo) -> SimResult<()> {
        let i = block as usize;
        if i >= self.bits.len() {
            return Err(SimError::OutOfBounds {
                offset: block,
                size: self.total(),
            });
        }
        if self.bits[i] {
            return Err(SimError::AlreadyExists(format!("block {block}")));
        }
        self.bits[i] = true;
        self.free -= 1;
        Ok(())
    }

    /// Allocates `count` blocks near `goal`, returning the runs found.
    ///
    /// Greedy: take the longest contiguous runs available starting from
    /// the goal's group, then wrap through the remaining groups.
    pub fn alloc(&mut self, count: u64, goal: BlockNo) -> SimResult<Vec<Run>> {
        if count == 0 {
            return Ok(Vec::new());
        }
        if count > self.free {
            return Err(SimError::NoSpace);
        }
        let mut runs: Vec<Run> = Vec::new();
        let mut left = count;
        let goal_group = (goal.min(self.total() - 1)) / self.group_size;
        let groups = self.groups();
        for gi in 0..groups {
            let g = (goal_group + gi) % groups;
            let start = g * self.group_size;
            let end = (start + self.group_size).min(self.total());
            let mut b = start.max(self.first_free_hint[g as usize]);
            while b < end && left > 0 {
                if !self.bits[b as usize] {
                    // Extend the run as far as it goes.
                    let run_start = b;
                    while b < end && left > 0 && !self.bits[b as usize] {
                        self.bits[b as usize] = true;
                        self.free -= 1;
                        left -= 1;
                        b += 1;
                    }
                    let run = Run {
                        start: run_start,
                        len: b - run_start,
                    };
                    match runs.last_mut() {
                        Some(last) if last.start + last.len == run.start => {
                            last.len += run.len;
                        }
                        _ => runs.push(run),
                    }
                } else {
                    b += 1;
                }
            }
            // Everything below `b` in this group is now allocated: the
            // pre-hint prefix by the invariant, the scanned stretch
            // because the walk claims every free block it passes.
            self.first_free_hint[g as usize] = b;
            if left == 0 {
                break;
            }
        }
        debug_assert_eq!(left, 0, "free counter out of sync");
        Ok(runs)
    }

    /// Frees a run of blocks. Double frees are reported as errors.
    pub fn free(&mut self, run: Run) -> SimResult<()> {
        if run.start + run.len > self.total() {
            return Err(SimError::OutOfBounds {
                offset: run.start + run.len,
                size: self.total(),
            });
        }
        for b in run.start..run.start + run.len {
            if !self.bits[b as usize] {
                return Err(SimError::InvalidOperation(format!(
                    "double free of block {b}"
                )));
            }
            self.bits[b as usize] = false;
            self.free += 1;
            let g = (b / self.group_size) as usize;
            if self.first_free_hint[g] > b {
                self.first_free_hint[g] = b;
            }
        }
        Ok(())
    }

    /// Fraction of free space in runs shorter than `threshold` blocks —
    /// a simple external-fragmentation metric.
    pub fn fragmentation(&self, threshold: u64) -> f64 {
        let mut short = 0u64;
        let mut total_free = 0u64;
        let mut i = 0usize;
        while i < self.bits.len() {
            if !self.bits[i] {
                let start = i;
                while i < self.bits.len() && !self.bits[i] {
                    i += 1;
                }
                let len = (i - start) as u64;
                total_free += len;
                if len < threshold {
                    short += len;
                }
            } else {
                i += 1;
            }
        }
        if total_free == 0 {
            0.0
        } else {
            short as f64 / total_free as f64
        }
    }
}
