//! Ext2-like file system: block groups, bitmaps, inode tables, indirect
//! blocks; formatted with a journal, ext3.
//!
//! The paper's case-study system. Placement policy: inodes go to their
//! parent directory's block group (directories to the emptiest group),
//! and data blocks are allocated first-fit starting from the inode's
//! group — the classic BSD FFS/ext2 clustering heuristic that keeps
//! related data together until fragmentation sets in.
//!
//! ext3 is this layout plus an ordered-mode journal
//! ([`Ext2Config::ext3_for_blocks`]). Every metadata mutation also
//! writes a transaction to a contiguous journal region (descriptor
//! block + journaled metadata copies + commit block) before the in-place
//! metadata writes are allowed out — the JBD write pattern. Reads are
//! untouched, so in read-only experiments ext3 differs from ext2 only
//! through its larger default miss-fetch clustering; under
//! metadata-heavy workloads the journal roughly doubles metadata write
//! traffic but makes it sequential.

use crate::alloc::{BitmapAllocator, Run};
use crate::intern::{PathSpec, Symbol};
use crate::journal::Journal;
use crate::tree::{Tree, DIRENT_SIZE};
use crate::vfs::{Extent, FileAttr, FileSystem, InodeNo, MetaIo};
use rb_simcore::error::{SimError, SimResult};
use rb_simcore::units::{BlockNo, Bytes};

/// Ext2 model configuration.
#[derive(Debug, Clone)]
pub struct Ext2Config {
    /// Device size in file-system blocks.
    pub total_blocks: u64,
    /// Blocks per block group (ext2 default: 8192 × 4 KiB = 32 MiB).
    pub blocks_per_group: u64,
    /// Inodes per group.
    pub inodes_per_group: u64,
    /// Demand-miss fetch granularity in pages.
    pub cluster_pages: u64,
    /// Journal size in blocks: 0 formats ext2, anything else ext3.
    pub journal_blocks: u64,
}

impl Ext2Config {
    /// Defaults matching a 4 KiB-block ext2 on the given device size.
    pub fn for_blocks(total_blocks: u64) -> Self {
        Ext2Config {
            total_blocks,
            blocks_per_group: 8192,
            inodes_per_group: 2048,
            cluster_pages: 2,
            journal_blocks: 0,
        }
    }

    /// Defaults matching an ext3 on the given device size: the ext2
    /// layout with 4-page miss clustering and a journal of up to 8,192
    /// blocks (32 MiB).
    ///
    /// # Examples
    ///
    /// ```
    /// use rb_simfs::ext2::{Ext2Config, Ext2Fs};
    /// use rb_simfs::vfs::FileSystem;
    ///
    /// let mut fs = Ext2Fs::new(Ext2Config::ext3_for_blocks(65536));
    /// assert_eq!(fs.name(), "ext3");
    /// let (_, meta) = fs.create("/f").unwrap();
    /// // Creation is journaled: descriptor + copies + commit.
    /// assert!(meta.journal_writes.len() >= 3);
    /// ```
    pub fn ext3_for_blocks(total_blocks: u64) -> Self {
        Ext2Config {
            cluster_pages: 4,
            journal_blocks: 8192.min(total_blocks / 8).max(64),
            ..Ext2Config::for_blocks(total_blocks)
        }
    }
}

/// 128-byte on-disk inodes: 32 per 4 KiB block.
const INODES_PER_BLOCK: u64 = 32;
/// Direct block pointers in the inode.
const DIRECT_BLOCKS: u64 = 12;
/// Block pointers per 4 KiB indirect block.
const PTRS_PER_BLOCK: u64 = 1024;
/// Directory entries per 4 KiB directory block.
const DIRENTS_PER_BLOCK: u64 = 64;

/// The ext2-like file system.
///
/// Each inode's block group and indirect blocks live on the inode
/// itself ([`Inode::group`](crate::tree::Inode::group),
/// [`Inode::indirect`](crate::tree::Inode::indirect)), in the
/// namespace's inode slab.
///
/// # Examples
///
/// ```
/// use rb_simfs::ext2::{Ext2Config, Ext2Fs};
/// use rb_simfs::vfs::FileSystem;
/// use rb_simcore::units::Bytes;
///
/// let mut fs = Ext2Fs::new(Ext2Config::for_blocks(65536)); // 256 MiB
/// let (ino, _) = fs.create("/data").unwrap();
/// fs.set_size(ino, Bytes::mib(1)).unwrap();
/// let ext = fs.map(ino, 0, 256).unwrap();
/// assert!(ext.len >= 1);
/// ```
#[derive(Debug, Clone)]
pub struct Ext2Fs {
    config: Ext2Config,
    tree: Tree,
    alloc: BitmapAllocator,
    /// Free data blocks per group (Orlov-lite bookkeeping).
    group_free: Vec<u64>,
    /// Inodes allocated per group.
    group_inodes: Vec<u64>,
    /// The journal, when formatted as ext3.
    journal: Option<Journal>,
}

impl Ext2Fs {
    /// Formats a new file system ("mkfs"), with its journal in the
    /// middle of the device when `config.journal_blocks` is not 0.
    ///
    /// # Panics
    ///
    /// If `config.total_blocks` is 0: the root inode needs a group.
    pub fn new(config: Ext2Config) -> Self {
        let groups = config.total_blocks.div_ceil(config.blocks_per_group);
        let mut alloc = BitmapAllocator::new(config.total_blocks, config.blocks_per_group);
        let meta_per_group = Self::meta_blocks_per_group(&config);
        let mut group_free = vec![0u64; groups as usize];
        for g in 0..groups {
            let start = g * config.blocks_per_group;
            let end = ((g + 1) * config.blocks_per_group).min(config.total_blocks);
            alloc.reserve_free(start, (start + meta_per_group).min(end));
            group_free[g as usize] = end.saturating_sub(start + meta_per_group);
        }
        let mut fs = Ext2Fs {
            config,
            tree: Tree::new(),
            alloc,
            group_free,
            group_inodes: vec![0; groups as usize],
            journal: None,
        };
        // The root sits in group 0, where a fresh inode starts.
        fs.group_inodes[0] = 1;
        if fs.config.journal_blocks > 0 {
            fs.journal = Some(fs.reserve_journal());
        }
        fs
    }

    /// Superblock + group descriptor + two bitmaps + inode table.
    fn meta_blocks_per_group(config: &Ext2Config) -> u64 {
        3 + config.inodes_per_group.div_ceil(INODES_PER_BLOCK)
    }

    /// Number of block groups.
    pub fn groups(&self) -> u64 {
        self.group_free.len() as u64
    }

    /// Reserves the journal where mkfs.ext3 tends to land it on a fresh
    /// disk: the first `journal_blocks` free blocks from mid-device on
    /// (at most half the device), skipping the group metadata in their
    /// way.
    ///
    /// The ring runs contiguously from the first of them, so when they
    /// skip a group's metadata, the ring's last positions land on that
    /// metadata and the blocks reserved past it are never written.
    fn reserve_journal(&mut self) -> Journal {
        let total = self.config.total_blocks;
        let jlen = self.config.journal_blocks.min(total / 2);
        let first = self.alloc.next_free(total / 2, total);
        let (mut b, mut reserved) = (first, 0);
        while reserved < jlen && b < total {
            let g = self.group_of_block(b);
            let end = ((g + 1) * self.config.blocks_per_group)
                .min(b + (jlen - reserved))
                .min(total);
            let n = self.alloc.reserve_free(b, end);
            self.group_free[g as usize] = self.group_free[g as usize].saturating_sub(n);
            reserved += n;
            b = end;
        }
        let start = if reserved > 0 { first } else { total / 2 };
        // A descriptor and a commit block frame each transaction.
        Journal::new(start, reserved, 2)
    }

    /// Underlying allocator (test and aging access).
    pub fn allocator(&self) -> &BitmapAllocator {
        &self.alloc
    }

    /// Shared namespace (test access).
    pub fn tree(&self) -> &Tree {
        &self.tree
    }

    /// Blocks mkfs reserved for group metadata, summed over all groups
    /// (clamped on a short last group, exactly as formatting did).
    fn meta_reserved_blocks(&self) -> u64 {
        let per_group = Self::meta_blocks_per_group(&self.config);
        let total = self.config.total_blocks;
        (0..self.groups())
            .map(|g| {
                let start = g * self.config.blocks_per_group;
                let end = ((g + 1) * self.config.blocks_per_group).min(total);
                (start + per_group).min(end).saturating_sub(start)
            })
            .sum()
    }

    /// Fsck-style invariant walk over the in-memory metadata.
    ///
    /// Checks, in order: namespace reachability and parent-pointer
    /// agreement, block-pointer bounds, bitmap agreement (every owned
    /// block marked allocated), double ownership, and the free-count
    /// identity `free = total − mkfs metadata − journal − data`. Returns
    /// the first violation found.
    pub fn fsck(&self) -> Result<(), String> {
        self.tree.check_reachable()?;
        let total = self.config.total_blocks;
        let mut owned = rb_simcore::fnv::FnvHashSet::default();
        let mut data_blocks = 0u64;
        let mut check_run = |start: BlockNo, len: u64, ino: InodeNo| -> Result<(), String> {
            if start + len > total {
                return Err(format!(
                    "inode {ino}: run {start}+{len} points beyond the device ({total} blocks)"
                ));
            }
            for b in start..start + len {
                if !self.alloc.is_allocated(b) {
                    return Err(format!(
                        "inode {ino}: block {b} is owned but not marked allocated"
                    ));
                }
                if !owned.insert(b) {
                    return Err(format!("block {b} has two owners (second: inode {ino})"));
                }
            }
            Ok(())
        };
        for node in self.tree.iter() {
            for run in &node.runs {
                check_run(run.start, run.len, node.ino)?;
                data_blocks += run.len;
            }
            for &b in &node.indirect {
                check_run(b, 1, node.ino)?;
                data_blocks += 1;
            }
        }
        let expected_free = total
            .saturating_sub(self.meta_reserved_blocks())
            .saturating_sub(self.journal.as_ref().map_or(0, |j| j.blocks))
            .saturating_sub(data_blocks);
        if self.alloc.free_blocks() != expected_free {
            return Err(format!(
                "free-block count {} disagrees with the walk (expected {expected_free})",
                self.alloc.free_blocks()
            ));
        }
        Ok(())
    }

    fn group_of_block(&self, b: BlockNo) -> u64 {
        b / self.config.blocks_per_group
    }

    fn block_bitmap_block(&self, group: u64) -> BlockNo {
        group * self.config.blocks_per_group + 1
    }

    fn inode_bitmap_block(&self, group: u64) -> BlockNo {
        group * self.config.blocks_per_group + 2
    }

    /// Block group of a live inode (0 for any other number).
    fn group_of(&self, ino: InodeNo) -> u64 {
        self.tree.get(ino).map_or(0, |node| node.group)
    }

    fn inode_table_block(&self, ino: InodeNo) -> BlockNo {
        let group = self.group_of(ino);
        let slot = ino % self.config.inodes_per_group;
        group * self.config.blocks_per_group + 3 + slot / INODES_PER_BLOCK
    }

    fn data_goal(&self, group: u64) -> BlockNo {
        group * self.config.blocks_per_group + Self::meta_blocks_per_group(&self.config)
    }

    /// Picks a group for a new inode: directories go to the group with
    /// the most free blocks; files go to the parent's group, spilling
    /// forward when its inode quota is exhausted.
    fn pick_group(&self, parent: InodeNo, is_dir: bool) -> u64 {
        let groups = self.groups();
        if is_dir {
            (0..groups)
                .max_by_key(|&g| self.group_free[g as usize])
                .unwrap_or(0)
        } else {
            let start = self.group_of(parent);
            (0..groups)
                .map(|i| (start + i) % groups)
                .find(|&g| self.group_inodes[g as usize] < self.config.inodes_per_group)
                .unwrap_or(start)
        }
    }

    /// Charges the block bitmap of every group `runs` touch, in run
    /// order, and moves each group's free count by its overlap: up when
    /// the runs were `freed`, down when they were allocated.
    fn charge_groups(&mut self, runs: &[Run], freed: bool, meta: &mut MetaIo) {
        for r in runs {
            let g0 = self.group_of_block(r.start);
            let g1 = self.group_of_block(r.start + r.len - 1);
            for g in g0..=g1 {
                let gs = g * self.config.blocks_per_group;
                let ge = gs + self.config.blocks_per_group;
                let overlap = (r.start + r.len).min(ge) - r.start.max(gs);
                let free = &mut self.group_free[g as usize];
                *free = if freed {
                    *free + overlap
                } else {
                    free.saturating_sub(overlap)
                };
                meta.writes.push(self.block_bitmap_block(g));
            }
        }
    }

    /// Returns `runs` to the bitmap, then charges their groups.
    fn free_runs(&mut self, runs: &[Run], meta: &mut MetaIo) -> SimResult<()> {
        for r in runs {
            self.alloc.free(*r)?;
        }
        self.charge_groups(runs, true, meta);
        Ok(())
    }

    /// [`Ext2Fs::free_runs`] for indirect blocks, one run each.
    fn free_indirect(&mut self, blocks: &[BlockNo], meta: &mut MetaIo) -> SimResult<()> {
        let runs: Vec<Run> = blocks.iter().map(|&b| Run { start: b, len: 1 }).collect();
        self.free_runs(&runs, meta)
    }

    /// Directory data block holding the entry for `name`: the block the
    /// name's FNV-1a hash picks among the directory's blocks.
    fn dirent_block(&self, dir: InodeNo, name: Symbol) -> Option<BlockNo> {
        let node = self.tree.get(dir).ok()?;
        let nblocks = node.blocks();
        if nblocks == 0 {
            return None;
        }
        let (phys, _) = node.map_block(self.tree.name_hash(name) % nblocks)?;
        Some(phys)
    }

    /// Grows a directory to the data blocks its entries need once one
    /// more is added.
    fn grow_dir_for_entry(&mut self, dir: InodeNo, meta: &mut MetaIo) -> SimResult<()> {
        let node = self.tree.get(dir)?;
        // 64 B per entry, 64 entries per 4 KiB block.
        let needed = (node.size.as_u64() + DIRENT_SIZE).div_ceil(DIRENTS_PER_BLOCK * DIRENT_SIZE);
        let have = node.blocks();
        if needed > have {
            let goal = node
                .end_block()
                .unwrap_or_else(|| self.data_goal(node.group));
            let runs = self.alloc.alloc(needed - have, goal)?;
            self.charge_groups(&runs, false, meta);
            self.tree.get_mut(dir)?.append_runs(&runs);
        }
        Ok(())
    }

    /// Indirect blocks a file of `blocks` data blocks needs.
    fn indirect_needed(blocks: u64) -> u64 {
        blocks
            .saturating_sub(DIRECT_BLOCKS)
            .div_ceil(PTRS_PER_BLOCK)
    }

    /// Charges inode-table reads for a resolution chain plus one dirent
    /// block probe per directory step.
    fn charge_lookup(&self, traversed: &[InodeNo], comps: &[Symbol], meta: &mut MetaIo) {
        for ino in traversed {
            meta.reads.push(self.inode_table_block(*ino));
        }
        // traversed = [root, d1, ..., target]; component i is looked up in
        // traversed[i].
        for (i, &name) in comps.iter().enumerate() {
            if let Some(b) = self.dirent_block(traversed[i], name) {
                meta.reads.push(b);
            }
        }
    }

    /// Charges the walk to the parent directory of `spec`, which
    /// resolved through `traversed`.
    fn charge_parent_lookup(&self, traversed: &[InodeNo], spec: &PathSpec, meta: &mut MetaIo) {
        let comps = spec.components();
        self.charge_lookup(traversed, &comps[..comps.len() - 1], meta);
    }

    /// Ends a mutation: logs its metadata writes when formatted as ext3.
    fn commit(&mut self, meta: &mut MetaIo) {
        if let Some(journal) = &mut self.journal {
            journal.commit(meta);
        }
    }

    /// Creates a file or a directory at `spec`: the node goes to the
    /// group [`Ext2Fs::pick_group`] chooses, and the parent directory
    /// first grows a block when its entries need one, so a device too
    /// full for that block changes nothing.
    fn make_node(&mut self, spec: &PathSpec, is_dir: bool) -> SimResult<(InodeNo, MetaIo)> {
        let (parent, name, traversed) = self.tree.resolve_new_spec(spec)?;
        let mut meta = MetaIo::default();
        self.charge_parent_lookup(&traversed, spec, &mut meta);
        // Before the growth: a directory goes to the group with the
        // most free blocks, and the growth can change which that is.
        let group = self.pick_group(parent, is_dir);
        self.grow_dir_for_entry(parent, &mut meta)?;
        let ino = self.tree.insert_child_sym(parent, name, is_dir)?;
        self.tree.get_mut(ino)?.group = group;
        self.group_inodes[group as usize] += 1;
        meta.writes.push(self.inode_bitmap_block(group));
        meta.writes.push(self.inode_table_block(ino));
        meta.writes.push(self.inode_table_block(parent));
        if let Some(b) = self.dirent_block(parent, name) {
            meta.writes.push(b);
        }
        self.commit(&mut meta);
        Ok((ino, meta))
    }
}

impl FileSystem for Ext2Fs {
    fn name(&self) -> &'static str {
        if self.journal.is_some() {
            "ext3"
        } else {
            "ext2"
        }
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
        self.charge_lookup(&traversed, spec.components(), &mut meta);
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
        self.charge_parent_lookup(&traversed, spec, &mut meta);
        let node = self.tree.remove_child_sym(parent, name)?;
        self.free_runs(&node.runs, &mut meta)?;
        self.free_indirect(&node.indirect, &mut meta)?;
        let (ino, group) = (node.ino, node.group);
        self.group_inodes[group as usize] = self.group_inodes[group as usize].saturating_sub(1);
        meta.writes.push(self.inode_bitmap_block(group));
        meta.writes.push(self.inode_table_block(parent));
        if let Some(b) = self.dirent_block(parent, name) {
            meta.writes.push(b);
        }
        self.commit(&mut meta);
        Ok((ino, meta))
    }

    fn readdir_spec(&mut self, spec: &PathSpec) -> SimResult<(u64, MetaIo)> {
        let (ino, traversed) = self.tree.resolve_spec(spec)?;
        let mut meta = MetaIo::default();
        self.charge_lookup(&traversed, spec.components(), &mut meta);
        let node = self.tree.get(ino)?;
        let dir = node.dir.as_ref().ok_or_else(|| {
            SimError::InvalidOperation(format!("{}: not a directory", spec.path()))
        })?;
        let entries = dir.len() as u64;
        // Reading every entry touches every directory data block.
        for r in &node.runs {
            for b in r.start..r.start + r.len {
                meta.reads.push(b);
            }
        }
        Ok((entries, meta))
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
            let goal = node
                .end_block()
                .unwrap_or_else(|| self.data_goal(node.group));
            let have_ind = node.indirect.len() as u64;
            let runs = self.alloc.alloc(need - have, goal)?;
            // Indirect mapping blocks — allocated before the data runs are
            // committed so a failure can roll everything back.
            let want_ind = Self::indirect_needed(need);
            let ind_runs = if want_ind > have_ind {
                match self.alloc.alloc(want_ind - have_ind, goal) {
                    Ok(r) => r,
                    Err(e) => {
                        // `runs` came from the bitmap a moment ago: in
                        // range, disjoint and still allocated, so
                        // freeing them cannot fail.
                        for r in &runs {
                            self.alloc.free(*r).expect("rollback of fresh alloc");
                        }
                        return Err(e);
                    }
                }
            } else {
                Vec::new()
            };
            self.charge_groups(&runs, false, &mut meta);
            self.charge_groups(&ind_runs, false, &mut meta);
            let node = self.tree.get_mut(ino)?;
            node.append_runs(&runs);
            for r in ind_runs {
                for b in r.start..r.start + r.len {
                    node.indirect.push(b);
                    meta.writes.push(b);
                }
            }
        } else if need < have {
            // Truncate: free tail blocks, then the surplus indirect ones.
            let freed = self.tree.get_mut(ino)?.cut_tail(have - need);
            self.free_runs(&freed, &mut meta)?;
            let want_ind = Self::indirect_needed(need) as usize;
            let ind = &mut self.tree.get_mut(ino)?.indirect;
            let surplus = ind.split_off(want_ind.min(ind.len()));
            self.free_indirect(&surplus, &mut meta)?;
        }
        self.tree.get_mut(ino)?.size = size;
        self.commit(&mut meta);
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
        self.block_size() * (self.config.total_blocks - self.alloc.free_blocks())
    }

    fn crash_plan(&self) -> rb_faults::RecoveryPlan {
        // ext3 replays its journal. Without one, recovery is an fsck
        // pass over every group's metadata (bitmaps + inode tables):
        // capacity-proportional, where journal replay is log-proportional.
        match &self.journal {
            Some(journal) => journal.recovery_plan(),
            None => rb_faults::RecoveryPlan {
                scan_start: 0,
                scan_blocks: self.meta_reserved_blocks().max(1),
                replay_writes: 0,
                mechanism: "fsck-scan",
            },
        }
    }

    fn check_consistency(&self) -> Result<(), String> {
        self.fsck()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fs() -> Ext2Fs {
        Ext2Fs::new(Ext2Config::for_blocks(65536)) // 256 MiB
    }

    #[test]
    fn mkfs_reserves_metadata() {
        let f = fs();
        assert!(f.allocator().is_allocated(0));
        assert!(f.allocator().is_allocated(1));
        assert!(f.allocator().is_allocated(8192)); // group 1 superblock
        assert!(f.used() > Bytes::ZERO);
    }

    #[test]
    fn fsck_passes_after_churn() {
        let mut f = fs();
        f.mkdir("/d").unwrap();
        for i in 0..12 {
            let (ino, _) = f.create(&format!("/d/f{i}")).unwrap();
            f.set_size(ino, Bytes::mib(2)).unwrap();
        }
        for i in 0..6 {
            f.unlink(&format!("/d/f{i}")).unwrap();
        }
        f.fsck().expect("consistent after churn");
        use crate::vfs::FileSystem as _;
        let plan = f.crash_plan();
        assert_eq!(plan.mechanism, "fsck-scan");
        assert_eq!(plan.scan_blocks, f.meta_reserved_blocks().max(1));
    }

    #[test]
    fn create_write_map_roundtrip() {
        let mut f = fs();
        let (ino, meta) = f.create("/a").unwrap();
        assert!(!meta.writes.is_empty());
        f.set_size(ino, Bytes::mib(2)).unwrap();
        let attr = f.attr(ino).unwrap();
        assert_eq!(attr.size, Bytes::mib(2));
        assert_eq!(attr.blocks, 512);
        // Mapping covers every block exactly once, contiguously or not.
        let mut covered = 0;
        let mut logical = 0;
        while logical < 512 {
            let e = f.map(ino, logical, 512).unwrap();
            assert!(e.len >= 1);
            covered += e.len;
            logical += e.len;
        }
        assert_eq!(covered, 512);
        assert!(f.map(ino, 512, 1).is_err());
    }

    #[test]
    fn fresh_files_are_mostly_contiguous() {
        let mut f = fs();
        let (ino, _) = f.create("/big").unwrap();
        f.set_size(ino, Bytes::mib(16)).unwrap();
        let e = f.map(ino, 0, 4096).unwrap();
        // A fresh ext2 should deliver long runs.
        assert!(e.len >= 1024, "first extent only {} blocks", e.len);
    }

    #[test]
    fn lookup_charges_metadata_reads() {
        let mut f = fs();
        f.mkdir("/d").unwrap();
        f.create("/d/f").unwrap();
        let (_, meta) = f.lookup("/d/f").unwrap();
        // Inode table reads for /, /d, /d/f plus dirent probes.
        assert!(meta.reads.len() >= 3, "only {} reads", meta.reads.len());
        assert!(meta.writes.is_empty());
    }

    #[test]
    fn unlink_returns_space() {
        let mut f = fs();
        let (ino, _) = f.create("/x").unwrap();
        // Directory blocks allocated by create stay with the directory.
        let free_after_create = f.allocator().free_blocks();
        f.set_size(ino, Bytes::mib(8)).unwrap();
        assert!(f.allocator().free_blocks() < free_after_create);
        let meta = f.unlink("/x").unwrap();
        assert!(
            meta.writes.iter().any(|&b| b % 8192 == 1),
            "block bitmap write"
        );
        assert_eq!(f.allocator().free_blocks(), free_after_create);
        assert!(f.lookup("/x").is_err());
    }

    #[test]
    fn large_file_gets_indirect_blocks() {
        let mut f = fs();
        let (ino, _) = f.create("/big").unwrap();
        // 12 direct + more: 5000 blocks needs ceil(4988/1024) = 5 indirect.
        let meta = f.set_size(ino, Bytes::kib(4) * 5000).unwrap();
        assert_eq!(f.tree.get(ino).map(|n| n.indirect.len()).ok(), Some(5));
        assert!(meta.writes.len() >= 5);
        // Shrinking under the direct limit frees them.
        f.set_size(ino, Bytes::kib(4) * 10).unwrap();
        assert_eq!(f.tree.get(ino).map(|n| n.indirect.len()).unwrap_or(0), 0);
        assert_eq!(f.attr(ino).unwrap().blocks, 10);
    }

    #[test]
    fn directories_spread_files_cluster() {
        let mut f = fs();
        f.mkdir("/d1").unwrap();
        f.mkdir("/d2").unwrap();
        let (fa, _) = f.create("/d1/a").unwrap();
        let (fb, _) = f.create("/d1/b").unwrap();
        // Files in the same directory share a group.
        assert_eq!(f.tree.get(fa).unwrap().group, f.tree.get(fb).unwrap().group);
    }

    #[test]
    fn readdir_lists_sorted() {
        let mut f = fs();
        f.create("/b").unwrap();
        f.create("/a").unwrap();
        f.mkdir("/c").unwrap();
        let (names, meta) = f.readdir_names("/").unwrap();
        assert_eq!(names, vec!["a", "b", "c"]);
        assert!(!meta.reads.is_empty());
        // The counted form charges the same metadata without the names.
        let (count, meta2) = f.readdir("/").unwrap();
        assert_eq!(count, 3);
        assert_eq!(meta, meta2);
        assert!(f.readdir("/a").is_err());
        assert!(f.readdir_names("/a").is_err());
    }

    #[test]
    fn double_create_fails() {
        let mut f = fs();
        f.create("/x").unwrap();
        assert!(matches!(f.create("/x"), Err(SimError::AlreadyExists(_))));
    }

    #[test]
    fn no_space_when_full() {
        let mut f = Ext2Fs::new(Ext2Config::for_blocks(1024)); // 4 MiB
        let (ino, _) = f.create("/fill").unwrap();
        let free = f.allocator().free_blocks();
        // Leave room for the file's own indirect mapping block.
        f.set_size(ino, Bytes::kib(4) * (free - 1)).unwrap();
        let (i2, _) = f.create("/more").unwrap();
        let before = f.allocator().free_blocks();
        assert!(matches!(
            f.set_size(i2, Bytes::mib(1)),
            Err(SimError::NoSpace)
        ));
        // A failed grow must not leak blocks.
        assert_eq!(f.allocator().free_blocks(), before);
    }

    #[test]
    fn truncate_to_zero() {
        let mut f = fs();
        let (ino, _) = f.create("/t").unwrap();
        f.set_size(ino, Bytes::mib(1)).unwrap();
        f.set_size(ino, Bytes::ZERO).unwrap();
        assert_eq!(f.attr(ino).unwrap().blocks, 0);
        assert!(f.map(ino, 0, 1).is_err());
    }

    /// Seeded sets of 1-11 files of 1-199 blocks: every logical block
    /// of every file maps to its own physical block, shared with no
    /// other block of any file. A failure names its seed.
    #[test]
    fn ext2_mapping_is_injective() {
        use rb_simcore::rng::Rng;
        for seed in 0..64 {
            let mut rng = Rng::new(seed);
            let mut f = Ext2Fs::new(Ext2Config::for_blocks(16_384));
            let mut seen = std::collections::HashSet::new();
            for i in 0..1 + rng.below(11) {
                let blocks = 1 + rng.below(199);
                let (ino, _) = f.create(&format!("/f{i}")).unwrap();
                f.set_size(ino, Bytes::kib(4) * blocks).unwrap();
                let mut l = 0;
                while l < blocks {
                    let e = f.map(ino, l, u64::MAX).unwrap();
                    for b in e.physical..e.physical + e.len {
                        assert!(seen.insert(b), "seed {seed}: block {b} mapped twice");
                    }
                    l += e.len;
                }
            }
        }
    }

    /// A create whose parent directory needs a block the full device
    /// lacks fails with `NoSpace` and changes nothing: the namespace, the
    /// groups' inode counts and fsck's walk stay as they were, so its
    /// retry fails the same way. On ext2 and on ext3.
    #[test]
    fn create_without_room_for_a_directory_block_changes_nothing() {
        for config in [
            Ext2Config::for_blocks(1024),
            Ext2Config::ext3_for_blocks(1024),
        ] {
            let mut f = Ext2Fs::new(config);
            let name = f.name();
            f.mkdir("/d").unwrap();
            let (ino, _) = f.create("/fill").unwrap();
            // The rest of the device, less the file's indirect block.
            let free = f.allocator().free_blocks();
            f.set_size(ino, Bytes::kib(4) * (free - 1)).unwrap();
            assert_eq!(f.allocator().free_blocks(), 0, "{name}");
            let (nodes, inodes) = (f.tree.len(), f.group_inodes.clone());
            for attempt in 0..2 {
                let created = f.create("/d/x0");
                assert!(
                    matches!(created, Err(SimError::NoSpace)),
                    "{name}, attempt {attempt}: {created:?}"
                );
                assert!(f.lookup("/d/x0").is_err(), "{name}: /d/x0 resolves");
                assert_eq!(f.readdir("/d").unwrap().0, 0, "{name}");
                assert_eq!(f.tree.len(), nodes, "{name}");
                assert_eq!(f.group_inodes, inodes, "{name}");
                f.fsck().expect(name);
            }
        }
    }

    fn ext3() -> Ext2Fs {
        Ext2Fs::new(Ext2Config::ext3_for_blocks(65536))
    }

    /// The journal's ring as a block range.
    fn journal_region(f: &Ext2Fs) -> std::ops::Range<BlockNo> {
        let j = f.journal.as_ref().expect("formatted with a journal");
        j.start..j.start + j.blocks
    }

    #[test]
    fn journal_region_reserved_contiguously() {
        let journal = journal_region(&ext3());
        assert!(journal.end - journal.start >= 64);
        // Region sits near mid-device.
        assert!(journal.start >= 65536 / 2);
        assert!(journal.start < 65536 / 2 + 16384);
    }

    #[test]
    fn mutations_are_journaled() {
        let mut f = ext3();
        let (ino, meta) = f.create("/f").unwrap();
        assert_eq!(meta.journal_writes.len(), meta.writes.len() + 2);
        let m2 = f.set_size(ino, Bytes::mib(1)).unwrap();
        assert!(!m2.journal_writes.is_empty());
        // Journal writes land inside the journal region.
        let journal = journal_region(&f);
        for b in &m2.journal_writes {
            assert!(journal.contains(b), "journal write {b} outside region");
        }
    }

    #[test]
    fn reads_are_not_journaled() {
        let mut f = ext3();
        f.create("/f").unwrap();
        let (_, meta) = f.lookup("/f").unwrap();
        assert!(meta.journal_writes.is_empty());
        let (_, meta) = f.readdir("/").unwrap();
        assert!(meta.journal_writes.is_empty());
    }

    #[test]
    fn journal_wraps_around() {
        let mut f = ext3();
        let journal = journal_region(&f);
        let per_txn = 6; // create: ~4 writes + 2
        let txns = (journal.end - journal.start) / per_txn + 10;
        for i in 0..txns {
            f.create(&format!("/f{i}")).unwrap();
        }
        // Head stayed within the region (no panic, wrapped).
        let (_, meta) = f.create("/last").unwrap();
        for b in &meta.journal_writes {
            assert!(journal.contains(b));
        }
    }

    #[test]
    fn consistency_accounts_for_journal() {
        let mut f = ext3();
        for i in 0..16 {
            let (ino, _) = f.create(&format!("/f{i}")).unwrap();
            f.set_size(ino, Bytes::mib(1)).unwrap();
        }
        f.unlink("/f0").unwrap();
        f.check_consistency().expect("consistent after churn");
        let plan = f.crash_plan();
        let journal = journal_region(&f);
        assert_eq!(plan.mechanism, "journal-replay");
        assert_eq!(plan.scan_start, journal.start);
        assert_eq!(plan.scan_blocks, journal.end - journal.start);
    }

    #[test]
    fn data_layout_matches_ext2_policy() {
        let mut f = ext3();
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
            let config = Ext2Config::ext3_for_blocks(total);
            let f = Ext2Fs::new(config.clone());
            let mut bitmap = Ext2Fs::new(Ext2Config {
                journal_blocks: 0,
                ..config.clone()
            })
            .allocator()
            .clone();
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
            let journal = journal_region(&f);
            assert_eq!(journal.start, first.unwrap_or(total / 2), "{total} blocks");
            assert_eq!(
                journal.end - journal.start,
                reserved.max(1),
                "{total} blocks"
            );
            assert_eq!(
                f.used(),
                Bytes::kib(4) * (total - bitmap.free_blocks()),
                "{total} blocks"
            );
            for b in 0..total {
                assert_eq!(
                    f.allocator().is_allocated(b),
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
            let mut f = Ext2Fs::new(Ext2Config {
                journal_blocks: 64,
                ..Ext2Config::ext3_for_blocks(32_768)
            });
            let journal = journal_region(&f);
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

    #[test]
    fn stored_name_hashes_are_the_byte_hashes() {
        use rb_simcore::fnv::{fnv1a, FNV_OFFSET};
        let mut f = fs();
        f.mkdir("/d").unwrap();
        // 300 entries of 64 B fill five directory blocks.
        let mut names = Vec::new();
        for i in 0..300 {
            let spec = f.intern_path(&format!("/d/entry-{i}")).unwrap();
            f.create_spec(&spec).unwrap();
            names.push(spec.split_last().unwrap().0);
        }
        let mut syms = names.clone();
        syms.push(f.tree.intern("d"));
        syms.push(f.tree.intern("never-created"));
        for &sym in &syms {
            let name = f.tree.name(sym);
            assert_eq!(
                f.tree.name_hash(sym),
                fnv1a(FNV_OFFSET, name.as_bytes()),
                "{name}"
            );
        }
        let (dir, _) = f.lookup("/d").unwrap();
        let node = f.tree.get(dir).unwrap();
        assert_eq!(node.blocks(), 5);
        let mut blocks = std::collections::BTreeSet::new();
        for &sym in &names {
            let h = fnv1a(FNV_OFFSET, f.tree.name(sym).as_bytes());
            let by_bytes = node.map_block(h % node.blocks()).unwrap().0;
            assert_eq!(
                f.dirent_block(dir, sym),
                Some(by_bytes),
                "{}",
                f.tree.name(sym)
            );
            blocks.insert(by_bytes);
        }
        assert_eq!(blocks.len(), 5, "the names spread over every block");
    }
}
