//! The file-system abstraction: layout engine plus metadata traffic.
//!
//! A simulated file system answers two questions: *where do a file's
//! bytes live on the device* (the mapping, which determines seeks and
//! contiguity) and *which metadata blocks does an operation touch* (the
//! [`MetaIo`], which the storage stack turns into cached or media reads
//! and writes). Data movement itself happens in the stack, through the
//! page cache, so every file system sees identical caching — isolating
//! the on-disk-layout dimension exactly as the paper asks.

use crate::intern::PathSpec;
use rb_faults::RecoveryPlan;
use rb_simcore::error::SimResult;
use rb_simcore::inline::InlineVec;
use rb_simcore::units::{BlockNo, Bytes};

/// Inode number.
pub type InodeNo = u64;

/// Block list inside a [`MetaIo`]: inline up to 8 blocks — which covers
/// the typical namespace operation — spilling to the heap only for the
/// rare wide op (a large readdir, a long truncate).
pub type MetaBlocks = InlineVec<BlockNo, 8>;

/// Metadata block traffic caused by an operation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetaIo {
    /// Metadata blocks read (directory blocks, inode table, bitmaps).
    pub reads: MetaBlocks,
    /// Metadata blocks written.
    pub writes: MetaBlocks,
    /// Journal blocks written (empty on non-journaling systems).
    pub journal_writes: MetaBlocks,
}

impl MetaIo {
    /// Merges another operation's traffic into this one.
    pub fn merge(&mut self, other: MetaIo) {
        self.reads.extend_from_slice(&other.reads);
        self.writes.extend_from_slice(&other.writes);
        self.journal_writes.extend_from_slice(&other.journal_writes);
    }

    /// Total metadata blocks touched.
    pub fn total_blocks(&self) -> usize {
        self.reads.len() + self.writes.len() + self.journal_writes.len()
    }
}

/// File attributes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileAttr {
    /// Inode number.
    pub ino: InodeNo,
    /// Logical size in bytes.
    pub size: Bytes,
    /// Allocated data blocks.
    pub blocks: u64,
    /// True for directories.
    pub is_dir: bool,
}

/// A contiguous piece of a file's mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Extent {
    /// First logical block covered.
    pub logical: u64,
    /// Corresponding physical (device) block.
    pub physical: BlockNo,
    /// Contiguous length in blocks.
    pub len: u64,
}

/// A simulated file system.
///
/// All paths are absolute, `/`-separated, with no `.`/`..` components.
///
/// Every namespace operation exists in two forms: the `*_spec` form
/// takes a [`PathSpec`] — a path validated, split and interned once via
/// [`FileSystem::intern_path`] — and resolves with zero allocation;
/// the `&str` form is a thin compatibility shim that builds the spec
/// on the spot. Hot paths (the storage stack's per-path cache, the
/// replay driver, the workload engine) pre-intern and call the spec
/// form; both forms produce identical metadata traffic and identical
/// errors.
pub trait FileSystem {
    /// Model name for reports (e.g. `"ext2"`).
    fn name(&self) -> &'static str;

    /// File-system block size (equals the device block size here).
    fn block_size(&self) -> Bytes;

    /// Miss granularity: how many *pages* the stack fetches per demand
    /// miss (modelling per-FS block clustering).
    fn cluster_pages(&self) -> u64;

    /// Validates and interns a path for repeated spec-based use.
    ///
    /// Pure bookkeeping: never touches the namespace, charges no
    /// metadata, and is valid for paths that do not (yet) exist.
    fn intern_path(&mut self, path: &str) -> SimResult<PathSpec>;

    /// Resolves a pre-interned path, charging directory/inode reads.
    fn lookup_spec(&mut self, spec: &PathSpec) -> SimResult<(InodeNo, MetaIo)>;

    /// Creates a regular file at a pre-interned path.
    fn create_spec(&mut self, spec: &PathSpec) -> SimResult<(InodeNo, MetaIo)>;

    /// Creates a directory at a pre-interned path.
    fn mkdir_spec(&mut self, spec: &PathSpec) -> SimResult<(InodeNo, MetaIo)>;

    /// Removes a regular file at a pre-interned path, freeing its
    /// blocks. Returns the removed inode so callers can invalidate
    /// cached pages without a second path walk.
    fn unlink_spec(&mut self, spec: &PathSpec) -> SimResult<(InodeNo, MetaIo)>;

    /// Removes an empty directory at a pre-interned path. The default is
    /// [`FileSystem::unlink_spec`], which the namespace already refuses
    /// for a directory that is not empty.
    fn rmdir_spec(&mut self, spec: &PathSpec) -> SimResult<(InodeNo, MetaIo)> {
        self.unlink_spec(spec)
    }

    /// Counts a directory's entries, charging the same metadata reads a
    /// full listing would (the counted readdir form — no name
    /// allocation on the hot path).
    fn readdir_spec(&mut self, spec: &PathSpec) -> SimResult<(u64, MetaIo)>;

    /// Resolves a path, charging directory/inode reads.
    fn lookup(&mut self, path: &str) -> SimResult<(InodeNo, MetaIo)> {
        let spec = self.intern_path(path)?;
        self.lookup_spec(&spec)
    }

    /// Creates a regular file.
    fn create(&mut self, path: &str) -> SimResult<(InodeNo, MetaIo)> {
        let spec = self.intern_path(path)?;
        self.create_spec(&spec)
    }

    /// Creates a directory.
    fn mkdir(&mut self, path: &str) -> SimResult<(InodeNo, MetaIo)> {
        let spec = self.intern_path(path)?;
        self.mkdir_spec(&spec)
    }

    /// Removes a regular file, freeing its blocks.
    fn unlink(&mut self, path: &str) -> SimResult<MetaIo> {
        let spec = self.intern_path(path)?;
        self.unlink_spec(&spec).map(|(_, meta)| meta)
    }

    /// Removes an empty directory.
    fn rmdir(&mut self, path: &str) -> SimResult<MetaIo> {
        let spec = self.intern_path(path)?;
        self.rmdir_spec(&spec).map(|(_, meta)| meta)
    }

    /// Counts a directory's entries (see [`FileSystem::readdir_spec`]).
    fn readdir(&mut self, path: &str) -> SimResult<(u64, MetaIo)> {
        let spec = self.intern_path(path)?;
        self.readdir_spec(&spec)
    }

    /// Lists a directory's entries as sorted names (allocates; the
    /// listing form, off the hot path).
    fn readdir_names(&mut self, path: &str) -> SimResult<(Vec<String>, MetaIo)>;

    /// Attributes by inode.
    fn attr(&self, ino: InodeNo) -> SimResult<FileAttr>;

    /// Logical size by inode: the read/write fast path. [`FileAttr`]
    /// carries the allocated-block count, which costs a walk of the
    /// inode's extent list — noticeable when every 8 KiB read of a
    /// multi-hundred-extent file pays it for a field the data path
    /// never looks at. Implementations with direct inode access should
    /// override this to return the size alone.
    fn size_of(&self, ino: InodeNo) -> SimResult<Bytes> {
        Ok(self.attr(ino)?.size)
    }

    /// Grows or shrinks a file, (de)allocating data blocks.
    fn set_size(&mut self, ino: InodeNo, size: Bytes) -> SimResult<MetaIo>;

    /// Maps logical block `logical` of `ino`, returning an extent
    /// covering at most `max` blocks starting there.
    fn map(&self, ino: InodeNo, logical: u64, max: u64) -> SimResult<Extent>;

    /// Average number of extents per file-megabyte — a layout-quality
    /// metric (1 run per MB is perfectly contiguous at 256 blocks/MB).
    fn avg_file_extents(&self) -> f64;

    /// Total device capacity.
    fn capacity(&self) -> Bytes;

    /// Bytes of user data currently allocated.
    fn used(&self) -> Bytes;

    /// What recovering from a crash costs on this file system.
    ///
    /// The default models a non-journaled fsck: a scan proportional to
    /// the device (1/16th of capacity, a coarse metadata estimate) with
    /// nothing to replay. Journaling file systems override this with a
    /// small log-region scan plus replay writes.
    fn crash_plan(&self) -> RecoveryPlan {
        RecoveryPlan {
            scan_start: 0,
            scan_blocks: (self.capacity().div_ceil(self.block_size()) / 16).max(1),
            replay_writes: 0,
            mechanism: "fsck-scan",
        }
    }

    /// Fsck-style invariant walk over the in-memory metadata, used as
    /// the post-crash-recovery verdict. Returns a description of the
    /// first inconsistency found; the default trusts the model.
    fn check_consistency(&self) -> Result<(), String> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metaio_merge_accumulates() {
        let mut a = MetaIo {
            reads: [1].into_iter().collect(),
            writes: [2].into_iter().collect(),
            journal_writes: MetaBlocks::new(),
        };
        let b = MetaIo {
            reads: [3, 4].into_iter().collect(),
            writes: MetaBlocks::new(),
            journal_writes: [9].into_iter().collect(),
        };
        a.merge(b);
        assert_eq!(a.reads, vec![1, 3, 4]);
        assert_eq!(a.writes, vec![2]);
        assert_eq!(a.journal_writes, vec![9]);
        assert_eq!(a.total_blocks(), 5);
    }

    /// Runs `CASES` seeded sequences of up to 59 random creates,
    /// unlinks, grows, shrinks and lookups over 20 names against a file
    /// system and a naive model (name -> blocks), checking that the
    /// namespace and every live file's block count agree after each op.
    /// A failure names its seed; `Rng::new(seed)` replays it.
    fn check_against_model(format: impl Fn() -> Box<dyn FileSystem>) {
        use rb_simcore::rng::Rng;
        use std::collections::hash_map::{Entry, HashMap};
        const CASES: u64 = 64;
        for seed in 0..CASES {
            let mut rng = Rng::new(seed);
            let mut fs = format();
            let mut model: HashMap<u64, u64> = HashMap::new();
            for _ in 0..1 + rng.below(59) {
                let f = rng.below(20);
                let path = format!("/p{f}");
                match rng.below(5) {
                    0 => {
                        let created = fs.create(&path);
                        match model.entry(f) {
                            Entry::Occupied(_) => {
                                assert!(created.is_err(), "seed {seed}: double create of {path}")
                            }
                            Entry::Vacant(v) => {
                                if created.is_ok() {
                                    v.insert(0);
                                }
                            }
                        }
                    }
                    1 => {
                        let removed = fs.unlink(&path);
                        let live = model.remove(&f).is_some();
                        assert_eq!(removed.is_ok(), live, "seed {seed}: unlink of {path}");
                    }
                    2 => {
                        let blocks = 1 + rng.below(511);
                        if let Entry::Occupied(mut e) = model.entry(f) {
                            let (ino, _) = fs.lookup(&path).unwrap();
                            if fs.set_size(ino, Bytes::kib(4) * blocks).is_ok() {
                                e.insert(blocks);
                            }
                        }
                    }
                    3 => {
                        let blocks = rng.below(512);
                        if let Some(&cur) = model.get(&f) {
                            let target = blocks.min(cur);
                            let (ino, _) = fs.lookup(&path).unwrap();
                            fs.set_size(ino, Bytes::kib(4) * target).unwrap();
                            model.insert(f, target);
                        }
                    }
                    _ => {
                        let found = fs.lookup(&path).is_ok();
                        assert_eq!(found, model.contains_key(&f), "seed {seed}: lookup {path}");
                    }
                }
                for (&f, &blocks) in &model {
                    let (ino, _) = fs.lookup(&format!("/p{f}")).unwrap();
                    let attr = fs.attr(ino).unwrap();
                    assert_eq!(attr.blocks, blocks, "seed {seed}: blocks of /p{f}");
                }
            }
        }
    }

    #[test]
    fn ext2_matches_model() {
        use crate::ext2::{Ext2Config, Ext2Fs};
        check_against_model(|| Box::new(Ext2Fs::new(Ext2Config::for_blocks(32_768))));
    }

    #[test]
    fn ext3_matches_model() {
        use crate::ext2::{Ext2Config, Ext2Fs};
        check_against_model(|| Box::new(Ext2Fs::new(Ext2Config::ext3_for_blocks(32_768))));
    }

    #[test]
    fn xfs_matches_model() {
        use crate::xfs::{XfsConfig, XfsFs};
        check_against_model(|| Box::new(XfsFs::new(XfsConfig::for_blocks(32_768))));
    }
}
