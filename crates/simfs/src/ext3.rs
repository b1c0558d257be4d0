//! Ext3-like file system: ext2 layout plus an ordered-mode journal.
//!
//! Every metadata mutation additionally writes a transaction to a
//! contiguous journal region (descriptor block + journaled metadata
//! copies + commit block), before the in-place metadata writes are
//! allowed out — the JBD write pattern. Reads are untouched, so in
//! read-only experiments ext3 differs from ext2 only through its larger
//! default miss-fetch clustering; under metadata-heavy workloads the
//! journal roughly doubles metadata write traffic but makes it
//! sequential.

use crate::ext2::{Ext2Config, Ext2Fs};
use crate::intern::PathSpec;
use crate::vfs::{Extent, FileAttr, FileSystem, InodeNo, MetaIo};
use rb_simcore::error::SimResult;
use rb_simcore::units::{BlockNo, Bytes};

/// Ext3 model configuration.
#[derive(Debug, Clone)]
pub struct Ext3Config {
    /// The underlying ext2 layout parameters.
    pub ext2: Ext2Config,
    /// Journal size in blocks (default 8192 = 32 MiB).
    pub journal_blocks: u64,
}

impl Ext3Config {
    /// Defaults for the given device size.
    pub fn for_blocks(total_blocks: u64) -> Self {
        let mut ext2 = Ext2Config::for_blocks(total_blocks);
        ext2.cluster_pages = 4;
        Ext3Config {
            ext2,
            journal_blocks: 8192.min(total_blocks / 8).max(64),
        }
    }
}

/// The ext3-like file system.
///
/// # Examples
///
/// ```
/// use rb_simfs::ext3::{Ext3Config, Ext3Fs};
/// use rb_simfs::vfs::FileSystem;
///
/// let mut fs = Ext3Fs::new(Ext3Config::for_blocks(65536));
/// let (_, meta) = fs.create("/f").unwrap();
/// // Creation is journaled: descriptor + copies + commit.
/// assert!(meta.journal_writes.len() >= 3);
/// ```
#[derive(Debug, Clone)]
pub struct Ext3Fs {
    inner: Ext2Fs,
    journal_start: BlockNo,
    journal_blocks: u64,
    journal_head: u64,
}

impl Ext3Fs {
    /// Formats a new file system with the journal in the middle of the
    /// device (where mkfs.ext3 tends to land it on a fresh disk).
    ///
    /// # Panics
    ///
    /// If `config.ext2.total_blocks` is 0, as [`Ext2Fs::new`] does.
    pub fn new(config: Ext3Config) -> Self {
        let mut inner = Ext2Fs::new(config.ext2.clone());
        let total = config.ext2.total_blocks;
        let jlen = config.journal_blocks.min(total / 2);
        // Reserve a contiguous journal region starting at mid-device,
        // skipping group metadata blocks: the first `jlen` free blocks
        // from there on.
        let first = inner.allocator().next_free(total / 2, total);
        let (mut start, mut reserved) = (first, 0);
        while reserved < jlen && start < total {
            let end = start + (jlen - reserved);
            reserved += inner.reserve_journal(start, end);
            start = end;
        }
        Ext3Fs {
            inner,
            journal_start: if reserved > 0 { first } else { total / 2 },
            journal_blocks: reserved.max(1),
            journal_head: 0,
        }
    }

    /// First block of the journal region.
    pub fn journal_start(&self) -> BlockNo {
        self.journal_start
    }

    /// Journal region length in blocks.
    pub fn journal_len(&self) -> u64 {
        self.journal_blocks
    }

    /// Shared namespace.
    #[cfg(test)]
    pub(crate) fn tree(&self) -> &crate::tree::Tree {
        self.inner.tree()
    }

    /// Wraps a mutation's metadata writes in a journal transaction.
    fn journal(&mut self, mut meta: MetaIo) -> MetaIo {
        if meta.writes.is_empty() {
            return meta;
        }
        // Descriptor + one copy per metadata block + commit record.
        let count = meta.writes.len() as u64 + 2;
        for i in 0..count {
            let pos = (self.journal_head + i) % self.journal_blocks;
            meta.journal_writes.push(self.journal_start + pos);
        }
        self.journal_head = (self.journal_head + count) % self.journal_blocks;
        meta
    }
}

impl FileSystem for Ext3Fs {
    fn name(&self) -> &'static str {
        "ext3"
    }

    fn block_size(&self) -> Bytes {
        self.inner.block_size()
    }

    fn cluster_pages(&self) -> u64 {
        self.inner.cluster_pages()
    }

    fn intern_path(&mut self, path: &str) -> SimResult<PathSpec> {
        self.inner.intern_path(path)
    }

    fn lookup_spec(&mut self, spec: &PathSpec) -> SimResult<(InodeNo, MetaIo)> {
        self.inner.lookup_spec(spec)
    }

    fn create_spec(&mut self, spec: &PathSpec) -> SimResult<(InodeNo, MetaIo)> {
        let (ino, meta) = self.inner.create_spec(spec)?;
        Ok((ino, self.journal(meta)))
    }

    fn mkdir_spec(&mut self, spec: &PathSpec) -> SimResult<(InodeNo, MetaIo)> {
        let (ino, meta) = self.inner.mkdir_spec(spec)?;
        Ok((ino, self.journal(meta)))
    }

    fn unlink_spec(&mut self, spec: &PathSpec) -> SimResult<(InodeNo, MetaIo)> {
        let (ino, meta) = self.inner.unlink_spec(spec)?;
        Ok((ino, self.journal(meta)))
    }

    fn rmdir_spec(&mut self, spec: &PathSpec) -> SimResult<(InodeNo, MetaIo)> {
        let (ino, meta) = self.inner.rmdir_spec(spec)?;
        Ok((ino, self.journal(meta)))
    }

    fn readdir_spec(&mut self, spec: &PathSpec) -> SimResult<(u64, MetaIo)> {
        self.inner.readdir_spec(spec)
    }

    fn readdir_names(&mut self, path: &str) -> SimResult<(Vec<String>, MetaIo)> {
        self.inner.readdir_names(path)
    }

    fn attr(&self, ino: InodeNo) -> SimResult<FileAttr> {
        self.inner.attr(ino)
    }

    fn size_of(&self, ino: InodeNo) -> SimResult<Bytes> {
        self.inner.size_of(ino)
    }

    fn set_size(&mut self, ino: InodeNo, size: Bytes) -> SimResult<MetaIo> {
        let meta = self.inner.set_size(ino, size)?;
        Ok(self.journal(meta))
    }

    fn map(&self, ino: InodeNo, logical: u64, max: u64) -> SimResult<Extent> {
        self.inner.map(ino, logical, max)
    }

    fn avg_file_extents(&self) -> f64 {
        self.inner.avg_file_extents()
    }

    fn capacity(&self) -> Bytes {
        self.inner.capacity()
    }

    fn used(&self) -> Bytes {
        self.inner.used()
    }

    fn crash_plan(&self) -> rb_faults::RecoveryPlan {
        // JBD recovery: scan the journal region, then rewrite the
        // journaled metadata copies in place. Roughly one descriptor
        // and one commit block per transaction frame the copies, so
        // about half the scanned blocks replay.
        rb_faults::RecoveryPlan {
            scan_start: self.journal_start,
            scan_blocks: self.journal_blocks,
            replay_writes: self.journal_blocks / 2,
            mechanism: "journal-replay",
        }
    }

    fn check_consistency(&self) -> Result<(), String> {
        // The ext2 walk, with the journal region accounted as reserved.
        self.inner.fsck(self.journal_blocks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fs() -> Ext3Fs {
        Ext3Fs::new(Ext3Config::for_blocks(65536))
    }

    #[test]
    fn journal_region_reserved_contiguously() {
        let f = fs();
        assert!(f.journal_len() >= 64);
        // Region sits near mid-device.
        assert!(f.journal_start() >= 65536 / 2);
        assert!(f.journal_start() < 65536 / 2 + 16384);
    }

    #[test]
    fn mutations_are_journaled() {
        let mut f = fs();
        let (ino, meta) = f.create("/f").unwrap();
        assert_eq!(meta.journal_writes.len(), meta.writes.len() + 2);
        let m2 = f.set_size(ino, Bytes::mib(1)).unwrap();
        assert!(!m2.journal_writes.is_empty());
        // Journal writes land inside the journal region.
        for b in &m2.journal_writes {
            assert!(
                (f.journal_start()..f.journal_start() + f.journal_len()).contains(b),
                "journal write {b} outside region"
            );
        }
    }

    #[test]
    fn reads_are_not_journaled() {
        let mut f = fs();
        f.create("/f").unwrap();
        let (_, meta) = f.lookup("/f").unwrap();
        assert!(meta.journal_writes.is_empty());
        let (_, meta) = f.readdir("/").unwrap();
        assert!(meta.journal_writes.is_empty());
    }

    #[test]
    fn journal_wraps_around() {
        let mut f = fs();
        let per_txn = 6; // create: ~4 writes + 2
        let txns = f.journal_len() / per_txn + 10;
        for i in 0..txns {
            f.create(&format!("/f{i}")).unwrap();
        }
        // Head stayed within the region (no panic, wrapped).
        let (_, meta) = f.create("/last").unwrap();
        for b in &meta.journal_writes {
            assert!((f.journal_start()..f.journal_start() + f.journal_len()).contains(b));
        }
    }

    #[test]
    fn consistency_accounts_for_journal() {
        let mut f = fs();
        for i in 0..16 {
            let (ino, _) = f.create(&format!("/f{i}")).unwrap();
            f.set_size(ino, Bytes::mib(1)).unwrap();
        }
        f.unlink("/f0").unwrap();
        f.check_consistency().expect("consistent after churn");
        let plan = f.crash_plan();
        assert_eq!(plan.mechanism, "journal-replay");
        assert_eq!(plan.scan_start, f.journal_start());
        assert_eq!(plan.scan_blocks, f.journal_len());
    }

    #[test]
    fn data_layout_matches_ext2_policy() {
        let mut f = fs();
        let (ino, _) = f.create("/big").unwrap();
        f.set_size(ino, Bytes::mib(4)).unwrap();
        let e = f.map(ino, 0, 1024).unwrap();
        assert!(e.len >= 256, "ext3 data extents fragmented: {}", e.len);
        assert_eq!(f.name(), "ext3");
        assert_eq!(f.cluster_pages(), 4);
    }

    /// The journal is the first `journal_blocks` free blocks from
    /// mid-device on, as reserving them block by block finds them, on
    /// devices from one block to 1 GiB, whole groups and partial ones.
    #[test]
    fn journal_is_the_first_free_blocks_from_mid_device() {
        for total in [
            1, 2, 130, 1_000, 8_192, 8_259, 16_384, 16_450, 65_536, 70_001, 262_144,
        ] {
            let config = Ext3Config::for_blocks(total);
            let f = Ext3Fs::new(config.clone());
            let mut bitmap = Ext2Fs::new(config.ext2.clone()).allocator().clone();
            let jlen = config.journal_blocks.min(total / 2);
            let (mut start, mut reserved, mut first) = (total / 2, 0, None);
            while reserved < jlen && start < total {
                if !bitmap.is_allocated(start) {
                    bitmap.reserve(start).unwrap();
                    first.get_or_insert(start);
                    reserved += 1;
                }
                start += 1;
            }
            assert_eq!(
                f.journal_start(),
                first.unwrap_or(total / 2),
                "{total} blocks"
            );
            assert_eq!(f.journal_len(), reserved.max(1), "{total} blocks");
            assert_eq!(
                f.used(),
                Bytes::kib(4) * (total - bitmap.free_blocks()),
                "{total} blocks"
            );
            for b in 0..total {
                assert_eq!(
                    f.inner.allocator().is_allocated(b),
                    bitmap.is_allocated(b),
                    "{total} blocks: block {b}"
                );
            }
            f.check_consistency().expect("consistent");
        }
    }

    /// Seeded sequences of up to 39 creates, unlinks and resizes over 20
    /// names: every journal write of every transaction lands inside the
    /// journal region. The journal is the smallest the config allows (64
    /// blocks), so most sequences wrap it. A failure names its seed.
    #[test]
    fn ext3_journal_containment() {
        use rb_simcore::rng::Rng;
        for seed in 0..64 {
            let mut rng = Rng::new(seed);
            let mut f = Ext3Fs::new(Ext3Config {
                journal_blocks: 64,
                ..Ext3Config::for_blocks(32_768)
            });
            let journal = f.journal_start()..f.journal_start() + f.journal_len();
            let mut live = std::collections::HashSet::new();
            for _ in 0..1 + rng.below(39) {
                let n = rng.below(20);
                let path = format!("/p{n}");
                let meta = match rng.below(3) {
                    0 if live.insert(n) => f.create(&path).ok().map(|(_, m)| m),
                    1 if live.remove(&n) => f.unlink(&path).ok(),
                    2 if live.contains(&n) => {
                        let (ino, _) = f.lookup(&path).unwrap();
                        f.set_size(ino, Bytes::kib(4) * rng.below(256)).ok()
                    }
                    _ => None,
                };
                for b in meta.iter().flat_map(|m| m.journal_writes.iter()) {
                    assert!(
                        journal.contains(b),
                        "seed {seed}: journal write {b} outside {journal:?}"
                    );
                }
            }
        }
    }
}
