//! XFS-like file system: allocation groups, extents and a log.
//!
//! Placement policy: the device is divided into independent allocation
//! groups (AGs); directories rotate across AGs (spreading parallelism),
//! files allocate extents inside their directory's AG with best-fit from
//! a free-extent tree. Compared with the ext2 model, files are mapped by
//! a handful of large extents rather than block runs grown 1-at-a-time,
//! and the demand-miss clustering is much larger (64 KiB), which is what
//! differentiates its cache warm-up curve in the paper's Figure 2.

use crate::alloc::{ExtentAllocator, Run};
use crate::intern::PathSpec;
use crate::journal::Journal;
use crate::tree::Tree;
use crate::vfs::{Extent, FileAttr, FileSystem, InodeNo, MetaIo};
use rb_simcore::error::{SimError, SimResult};
use rb_simcore::units::{BlockNo, Bytes};

/// XFS model configuration.
#[derive(Debug, Clone)]
pub struct XfsConfig {
    /// Device size in blocks.
    pub total_blocks: u64,
    /// Number of allocation groups (xfs default: 4 for small volumes).
    pub allocation_groups: u64,
    /// Log (journal) size in blocks.
    pub log_blocks: u64,
    /// Demand-miss fetch granularity in pages.
    pub cluster_pages: u64,
}

impl XfsConfig {
    /// The smallest device, in blocks, that [`XfsConfig::for_blocks`]
    /// formats (5.4 MiB). Allocation group 0, a quarter of the device,
    /// must hold 260 header and inode-chunk blocks and the log: at
    /// 1,384 blocks it has 346, exactly 260 plus a log of 1,384 / 16 =
    /// 86 blocks; at 1,383 it has 345, one short. Above it the group
    /// grows four times as fast as the log, so every larger device
    /// formats too.
    pub const MIN_BLOCKS: u64 = 1384;

    /// Defaults for the given device size.
    pub fn for_blocks(total_blocks: u64) -> Self {
        XfsConfig {
            total_blocks,
            allocation_groups: 4,
            log_blocks: 4096.min(total_blocks / 16).max(64),
            cluster_pages: 16,
        }
    }
}

/// Per-AG block bookkeeping.
#[derive(Debug, Clone)]
struct AllocGroup {
    start: BlockNo,
    alloc: ExtentAllocator,
}

/// The xfs-like file system.
///
/// Each inode's allocation group lives on the inode itself
/// ([`Inode::group`](crate::tree::Inode::group)), in the namespace's
/// inode slab.
///
/// # Examples
///
/// ```
/// use rb_simfs::xfs::{XfsConfig, XfsFs};
/// use rb_simfs::vfs::FileSystem;
/// use rb_simcore::units::Bytes;
///
/// let mut fs = XfsFs::new(XfsConfig::for_blocks(65536));
/// let (ino, _) = fs.create("/data").unwrap();
/// fs.set_size(ino, Bytes::mib(16)).unwrap();
/// // A 16 MiB fresh file maps as one extent.
/// let e = fs.map(ino, 0, 4096).unwrap();
/// assert_eq!(e.len, 4096);
/// ```
#[derive(Debug, Clone)]
pub struct XfsFs {
    config: XfsConfig,
    tree: Tree,
    ags: Vec<AllocGroup>,
    /// Round-robin cursor for directory placement.
    next_dir_ag: u64,
    /// The log, in AG 0 right after its headers.
    log: Journal,
}

/// Blocks reserved per AG for headers (superblock, free-space btree
/// roots, inode btree root).
const AG_HEADER_BLOCKS: u64 = 4;
/// On-disk inodes per block (256-byte inodes).
const INODES_PER_BLOCK: u64 = 16;
/// Inode chunk reserved per AG for the inode btree (simplified fixed
/// region).
const AG_INODE_BLOCKS: u64 = 256;

impl XfsFs {
    /// Formats a new file system.
    ///
    /// # Panics
    ///
    /// If allocation group 0, `total_blocks / allocation_groups` blocks
    /// long, cannot hold the 260 group-header and inode-chunk blocks
    /// plus the log (`log_blocks`, capped at half the group). A
    /// [`XfsConfig::for_blocks`] configuration formats from
    /// [`XfsConfig::MIN_BLOCKS`] blocks up.
    pub fn new(config: XfsConfig) -> Self {
        let ag_count = config.allocation_groups.max(1);
        let ag_size = config.total_blocks / ag_count;
        let mut ags = Vec::with_capacity(ag_count as usize);
        for g in 0..ag_count {
            let start = g * ag_size;
            let len = if g == ag_count - 1 {
                config.total_blocks - start
            } else {
                ag_size
            };
            let mut alloc = ExtentAllocator::new(len);
            // The first reservation on a fresh allocator of `len` blocks,
            // and no longer than `len`: it fails only when `len` is 0,
            // which makes group 0 too small to format (see `# Panics`).
            alloc
                .reserve(0, (AG_HEADER_BLOCKS + AG_INODE_BLOCKS).min(len))
                .expect("mkfs reservation");
            ags.push(AllocGroup { start, alloc });
        }
        // Log lives in AG 0 right after the headers.
        let log_blocks = config.log_blocks.min(ag_size / 2).max(1);
        let log_start = AG_HEADER_BLOCKS + AG_INODE_BLOCKS;
        // Everything in group 0 from `log_start` on is still free, so
        // this fails only when the group ends before the log does: the
        // configuration does not format (see `# Panics`).
        ags[0]
            .alloc
            .reserve(log_start, log_blocks)
            .expect("log reservation");
        // The root sits in AG 0, where a fresh inode starts.
        XfsFs {
            config,
            tree: Tree::new(),
            ags,
            next_dir_ag: 1,
            // A commit record frames each transaction.
            log: Journal::new(log_start, log_blocks, 1),
        }
    }

    /// Number of allocation groups.
    pub fn ag_count(&self) -> u64 {
        self.ags.len() as u64
    }

    /// Shared namespace.
    #[cfg(test)]
    pub(crate) fn tree(&self) -> &Tree {
        &self.tree
    }

    fn ag_of_block(&self, b: BlockNo) -> u64 {
        let ag_size = self.config.total_blocks / self.ag_count();
        (b / ag_size.max(1)).min(self.ag_count() - 1)
    }

    /// AG of a live inode (0 for any other number).
    fn ag_of(&self, ino: InodeNo) -> u64 {
        self.tree.get(ino).map_or(0, |node| node.group)
    }

    fn inode_table_block(&self, ino: InodeNo) -> BlockNo {
        self.inode_table_block_in(self.ag_of(ino), ino)
    }

    /// Inode-table block of inode `ino` in AG `ag`.
    fn inode_table_block_in(&self, ag: u64, ino: InodeNo) -> BlockNo {
        let slot = ino % (AG_INODE_BLOCKS * INODES_PER_BLOCK);
        self.ags[ag as usize].start + AG_HEADER_BLOCKS + slot / INODES_PER_BLOCK
    }

    fn freespace_root_block(&self, ag: u64) -> BlockNo {
        self.ags[ag as usize].start + 1
    }

    fn pick_ag(&mut self, parent: InodeNo, is_dir: bool) -> u64 {
        if is_dir {
            let ag = self.next_dir_ag % self.ag_count();
            self.next_dir_ag += 1;
            ag
        } else {
            self.ag_of(parent)
        }
    }

    /// Allocates `count` blocks in/near the given AG, returning
    /// device-absolute runs.
    fn alloc_blocks(&mut self, ag: u64, count: u64, goal: BlockNo) -> SimResult<Vec<Run>> {
        let agc = self.ag_count();
        let mut left = count;
        let mut out = Vec::new();
        for i in 0..agc {
            let g = ((ag + i) % agc) as usize;
            let base = self.ags[g].start;
            let local_goal = goal.saturating_sub(base);
            let avail = self.ags[g].alloc.free_blocks();
            if avail == 0 {
                continue;
            }
            let take = left.min(avail);
            let runs = self.ags[g].alloc.alloc(take, local_goal)?;
            for r in runs {
                out.push(Run {
                    start: base + r.start,
                    len: r.len,
                });
            }
            left -= take;
            if left == 0 {
                break;
            }
        }
        if left > 0 {
            // Roll back partial allocation. Each run came from group
            // `g`, so it lies in `[g * ag_size, g * ag_size + len)`,
            // which `ag_of_block` maps back to `g`, and it was
            // allocated in this call: the free cannot fail.
            self.free_blocks_runs(&out).expect("rollback");
            return Err(SimError::NoSpace);
        }
        Ok(out)
    }

    /// Returns device-absolute runs to their AGs' allocators.
    fn free_blocks_runs(&mut self, runs: &[Run]) -> SimResult<()> {
        for r in runs {
            let g = self.ag_of_block(r.start) as usize;
            let base = self.ags[g].start;
            self.ags[g].alloc.free(Run {
                start: r.start - base,
                len: r.len,
            })?;
        }
        Ok(())
    }

    /// Charges the free-space btree root of each run's AG, in run order.
    fn charge_freespace(&self, runs: &[Run], meta: &mut MetaIo) {
        for r in runs {
            meta.writes
                .push(self.freespace_root_block(self.ag_of_block(r.start)));
        }
    }

    fn charge_lookup(&self, traversed: &[InodeNo], meta: &mut MetaIo) {
        for ino in traversed {
            meta.reads.push(self.inode_table_block(*ino));
        }
    }

    /// Creates a file or a directory at `spec`, in the AG
    /// [`XfsFs::pick_ag`] chooses, as one log transaction.
    fn make_node(&mut self, spec: &PathSpec, is_dir: bool) -> SimResult<(InodeNo, MetaIo)> {
        let (parent, name, traversed) = self.tree.resolve_new_spec(spec)?;
        let mut meta = MetaIo::default();
        self.charge_lookup(&traversed, &mut meta);
        let ag = self.pick_ag(parent, is_dir);
        let ino = self.tree.insert_child_sym(parent, name, is_dir)?;
        self.tree.get_mut(ino)?.group = ag;
        meta.writes.push(self.inode_table_block(ino));
        meta.writes.push(self.inode_table_block(parent));
        self.log.commit(&mut meta);
        Ok((ino, meta))
    }

    /// Blocks mkfs reserved inside AG `g` (headers, inode chunk, and for
    /// AG 0 the log region) — the clamping mirrors [`XfsFs::new`].
    fn ag_reserved_blocks(&self, g: u64) -> u64 {
        let len = self.ags[g as usize].alloc.total();
        let mut reserved = (AG_HEADER_BLOCKS + AG_INODE_BLOCKS).min(len);
        if g == 0 {
            reserved += self.log.blocks;
        }
        reserved
    }

    /// Fsck-style invariant walk: namespace reachability, extent bounds,
    /// single ownership of every data block, and the per-AG free-space
    /// identity `free = total − reserved − owned-data`.
    pub fn fsck(&self) -> Result<(), String> {
        self.tree.check_reachable()?;
        let total = self.config.total_blocks;
        let mut owned = rb_simcore::fnv::FnvHashSet::default();
        let mut ag_data = vec![0u64; self.ags.len()];
        for node in self.tree.iter() {
            for run in &node.runs {
                if run.start + run.len > total {
                    return Err(format!(
                        "inode {}: run {}+{} points beyond the device ({total} blocks)",
                        node.ino, run.start, run.len
                    ));
                }
                let g = self.ag_of_block(run.start);
                if self.ag_of_block(run.start + run.len - 1) != g {
                    return Err(format!(
                        "inode {}: run {}+{} straddles an AG boundary",
                        node.ino, run.start, run.len
                    ));
                }
                for b in run.start..run.start + run.len {
                    if !owned.insert(b) {
                        return Err(format!(
                            "block {b} has two owners (second: inode {})",
                            node.ino
                        ));
                    }
                }
                ag_data[g as usize] += run.len;
            }
        }
        for (g, ag) in self.ags.iter().enumerate() {
            let expected_free = ag
                .alloc
                .total()
                .saturating_sub(self.ag_reserved_blocks(g as u64))
                .saturating_sub(ag_data[g]);
            if ag.alloc.free_blocks() != expected_free {
                return Err(format!(
                    "AG {g}: free-block count {} disagrees with the walk (expected {expected_free})",
                    ag.alloc.free_blocks()
                ));
            }
        }
        Ok(())
    }
}

impl FileSystem for XfsFs {
    fn name(&self) -> &'static str {
        "xfs"
    }

    fn block_size(&self) -> Bytes {
        Bytes::kib(4)
    }

    fn cluster_pages(&self) -> u64 {
        self.config.cluster_pages
    }

    fn intern_path(&mut self, path: &str) -> SimResult<PathSpec> {
        self.tree.make_spec(path)
    }

    fn lookup_spec(&mut self, spec: &PathSpec) -> SimResult<(InodeNo, MetaIo)> {
        let (ino, traversed) = self.tree.resolve_spec(spec)?;
        let mut meta = MetaIo::default();
        self.charge_lookup(&traversed, &mut meta);
        Ok((ino, meta))
    }

    fn create_spec(&mut self, spec: &PathSpec) -> SimResult<(InodeNo, MetaIo)> {
        self.make_node(spec, false)
    }

    fn mkdir_spec(&mut self, spec: &PathSpec) -> SimResult<(InodeNo, MetaIo)> {
        self.make_node(spec, true)
    }

    fn unlink_spec(&mut self, spec: &PathSpec) -> SimResult<(InodeNo, MetaIo)> {
        let (parent, name, traversed) = self.tree.resolve_parent_spec(spec)?;
        let mut meta = MetaIo::default();
        self.charge_lookup(&traversed, &mut meta);
        let node = self.tree.remove_child_sym(parent, name)?;
        self.free_blocks_runs(&node.runs)?;
        self.charge_freespace(&node.runs, &mut meta);
        meta.writes.push(self.inode_table_block(parent));
        meta.writes
            .push(self.inode_table_block_in(node.group, node.ino));
        self.log.commit(&mut meta);
        Ok((node.ino, meta))
    }

    fn readdir_spec(&mut self, spec: &PathSpec) -> SimResult<(u64, MetaIo)> {
        let (ino, traversed) = self.tree.resolve_spec(spec)?;
        let mut meta = MetaIo::default();
        self.charge_lookup(&traversed, &mut meta);
        let dir = self.tree.get(ino)?.dir.as_ref().ok_or_else(|| {
            SimError::InvalidOperation(format!("{}: not a directory", spec.path()))
        })?;
        Ok((dir.len() as u64, meta))
    }

    fn readdir_names(&mut self, path: &str) -> SimResult<(Vec<String>, MetaIo)> {
        let spec = self.tree.make_spec(path)?;
        let (_, meta) = self.readdir_spec(&spec)?;
        let (ino, _) = self.tree.resolve_spec(&spec)?;
        Ok((self.tree.read_names(ino)?, meta))
    }

    fn attr(&self, ino: InodeNo) -> SimResult<FileAttr> {
        self.tree.attr(ino)
    }

    fn size_of(&self, ino: InodeNo) -> SimResult<Bytes> {
        self.tree.size_of(ino)
    }

    fn set_size(&mut self, ino: InodeNo, size: Bytes) -> SimResult<MetaIo> {
        let node = self.tree.get(ino)?;
        if node.is_dir() {
            return Err(SimError::InvalidOperation("set_size on directory".into()));
        }
        let have = node.blocks();
        let need = size.div_ceil(self.block_size());
        let mut meta = MetaIo::default();
        meta.writes.push(self.inode_table_block(ino));
        if need > have {
            let (ag, goal) = (node.group, node.end_block().unwrap_or(0));
            // Delayed allocation: the whole growth lands in one request,
            // so best-fit can find a single extent.
            let runs = self.alloc_blocks(ag, need - have, goal)?;
            self.charge_freespace(&runs, &mut meta);
            self.tree.get_mut(ino)?.append_runs(&runs);
        } else if need < have {
            let freed = self.tree.get_mut(ino)?.cut_tail(have - need);
            self.free_blocks_runs(&freed)?;
            self.charge_freespace(&freed, &mut meta);
        }
        self.tree.get_mut(ino)?.size = size;
        self.log.commit(&mut meta);
        Ok(meta)
    }

    fn map(&self, ino: InodeNo, logical: u64, max: u64) -> SimResult<Extent> {
        self.tree.map(ino, logical, max)
    }

    fn avg_file_extents(&self) -> f64 {
        self.tree.avg_file_extents()
    }

    fn capacity(&self) -> Bytes {
        self.block_size() * self.config.total_blocks
    }

    fn used(&self) -> Bytes {
        let free: u64 = self.ags.iter().map(|a| a.alloc.free_blocks()).sum();
        self.block_size() * (self.config.total_blocks - free)
    }

    fn crash_plan(&self) -> rb_faults::RecoveryPlan {
        self.log.recovery_plan()
    }

    fn check_consistency(&self) -> Result<(), String> {
        self.fsck()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fs() -> XfsFs {
        XfsFs::new(XfsConfig::for_blocks(65536))
    }

    #[test]
    fn fresh_file_is_one_extent() {
        let mut f = fs();
        let (ino, _) = f.create("/a").unwrap();
        f.set_size(ino, Bytes::mib(32)).unwrap();
        let e = f.map(ino, 0, u64::MAX).unwrap();
        assert_eq!(e.len, 32 * 256, "not a single extent: {}", e.len);
    }

    #[test]
    fn directories_rotate_ags() {
        let mut f = fs();
        let mut ags = Vec::new();
        for i in 0..4 {
            let (ino, _) = f.mkdir(&format!("/d{i}")).unwrap();
            ags.push(f.tree.get(ino).unwrap().group);
        }
        let distinct: std::collections::HashSet<u64> = ags.iter().copied().collect();
        assert_eq!(distinct.len(), 4, "dirs not spread: {ags:?}");
    }

    #[test]
    fn files_follow_their_directory() {
        let mut f = fs();
        let (d, _) = f.mkdir("/d").unwrap();
        let (a, _) = f.create("/d/a").unwrap();
        let (b, _) = f.create("/d/b").unwrap();
        assert_eq!(f.tree.get(a).unwrap().group, f.tree.get(d).unwrap().group);
        assert_eq!(f.tree.get(b).unwrap().group, f.tree.get(d).unwrap().group);
        // Their data lands inside the AG.
        f.set_size(a, Bytes::mib(1)).unwrap();
        let e = f.map(a, 0, 1).unwrap();
        assert_eq!(f.ag_of_block(e.physical), f.tree.get(a).unwrap().group);
    }

    #[test]
    fn ag_spill_when_full() {
        let mut f = XfsFs::new(XfsConfig {
            total_blocks: 4096,
            allocation_groups: 4,
            log_blocks: 64,
            cluster_pages: 16,
        });
        let (ino, _) = f.create("/big").unwrap();
        // Bigger than one AG (1024 blocks): must spill.
        f.set_size(ino, Bytes::kib(4) * 2000).unwrap();
        assert_eq!(f.attr(ino).unwrap().blocks, 2000);
        // Over-filling everything reports NoSpace and rolls back.
        let (i2, _) = f.create("/more").unwrap();
        let free: u64 = f.ags.iter().map(|a| a.alloc.free_blocks()).sum();
        assert!(matches!(
            f.set_size(i2, Bytes::kib(4) * (free + 1)),
            Err(SimError::NoSpace)
        ));
        let free_after: u64 = f.ags.iter().map(|a| a.alloc.free_blocks()).sum();
        assert_eq!(free, free_after, "failed alloc must not leak");
    }

    #[test]
    fn log_transactions_stay_in_region() {
        let mut f = fs();
        for i in 0..100 {
            let (_, meta) = f.create(&format!("/f{i}")).unwrap();
            for b in &meta.journal_writes {
                assert!(
                    (f.log.start..f.log.start + f.config.log_blocks).contains(b),
                    "log write {b} escaped"
                );
            }
        }
    }

    /// A log asked for beyond half of AG 0 is clamped at format, and the
    /// ring covers the blocks reserved: 512 of the 1,024 asked, 260-771.
    /// 400 creates write 1,200 log blocks, so the ring wraps, and none
    /// lands in AG 0's free space or AG 1's headers past it.
    #[test]
    fn clamped_log_wraps_inside_its_reservation() {
        let mut f = XfsFs::new(XfsConfig {
            total_blocks: 8_192,
            allocation_groups: 8,
            log_blocks: 1_024,
            cluster_pages: 16,
        });
        let log = 260..772;
        for i in 0..400 {
            let (_, meta) = f.create(&format!("/f{i}")).unwrap();
            for b in &meta.journal_writes {
                assert!(log.contains(b), "create {i}: log write {b} outside {log:?}");
            }
        }
        let plan = f.crash_plan();
        assert_eq!((plan.scan_start, plan.scan_blocks), (260, 512));
        f.fsck().expect("consistent");
    }

    #[test]
    fn unlink_frees_extents() {
        let mut f = fs();
        let before: u64 = f.ags.iter().map(|a| a.alloc.free_blocks()).sum();
        let (ino, _) = f.create("/x").unwrap();
        f.set_size(ino, Bytes::mib(8)).unwrap();
        f.unlink("/x").unwrap();
        let after: u64 = f.ags.iter().map(|a| a.alloc.free_blocks()).sum();
        assert_eq!(before, after);
    }

    #[test]
    fn fsck_passes_after_churn() {
        let mut f = fs();
        for i in 0..8 {
            f.mkdir(&format!("/d{i}")).unwrap();
            let (ino, _) = f.create(&format!("/d{i}/f")).unwrap();
            f.set_size(ino, Bytes::mib(1 + i)).unwrap();
        }
        for i in 0..4 {
            f.unlink(&format!("/d{i}/f")).unwrap();
        }
        f.fsck().expect("consistent after churn");
        assert_eq!(f.crash_plan().mechanism, "journal-replay");
        assert!(f.crash_plan().scan_blocks >= 1);
    }

    #[test]
    fn truncate_shrinks_extents() {
        let mut f = fs();
        let (ino, _) = f.create("/t").unwrap();
        f.set_size(ino, Bytes::mib(4)).unwrap();
        f.set_size(ino, Bytes::mib(1)).unwrap();
        assert_eq!(f.attr(ino).unwrap().blocks, 256);
        let e = f.map(ino, 255, 10).unwrap();
        assert_eq!(e.len, 1);
        assert!(f.map(ino, 256, 1).is_err());
    }

    /// The smallest default-configured device formats, as do the next
    /// 4,096 sizes and a few far larger, and the one block below it
    /// panics.
    #[test]
    fn smallest_device_formats_and_one_block_less_panics() {
        let min = XfsConfig::MIN_BLOCKS;
        for t in (min..min + 4096).chain([65_536, 1 << 20, 1 << 24]) {
            XfsFs::new(XfsConfig::for_blocks(t));
        }
        let mut f = XfsFs::new(XfsConfig::for_blocks(min));
        let (ino, _) = f.create("/f").unwrap();
        f.set_size(ino, Bytes::kib(4) * 16).unwrap();
        f.fsck().expect("consistent");
        let below = std::panic::catch_unwind(|| XfsFs::new(XfsConfig::for_blocks(min - 1)));
        assert!(below.is_err(), "{} blocks formatted", min - 1);
    }

    /// Seeded sequences of up to 19 resizes (0-1999 blocks) of one file:
    /// after each, its extents stay on the device and cover exactly its
    /// block count, and nothing maps past the end. A failure names its
    /// seed.
    #[test]
    fn mapping_covers_exact_size() {
        use rb_simcore::rng::Rng;
        for seed in 0..64 {
            let mut rng = Rng::new(seed);
            let mut f = XfsFs::new(XfsConfig::for_blocks(32_768));
            let (ino, _) = f.create("/f").unwrap();
            for _ in 0..1 + rng.below(19) {
                let blocks = rng.below(2000);
                if f.set_size(ino, Bytes::kib(4) * blocks).is_err() {
                    continue; // out of space is fine
                }
                let mut covered = 0;
                while covered < blocks {
                    let e = f.map(ino, covered, u64::MAX).unwrap();
                    assert!(e.len >= 1, "seed {seed}: empty extent");
                    assert!(e.physical + e.len <= 32_768, "seed {seed}: off the device");
                    covered += e.len;
                }
                assert_eq!(covered, blocks, "seed {seed}");
                assert!(
                    f.map(ino, blocks, 1).is_err() || blocks == 0,
                    "seed {seed}: maps past the end"
                );
            }
        }
    }
}
