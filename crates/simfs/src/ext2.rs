//! Ext2-like file system: block groups, bitmaps, inode tables, indirect
//! blocks.
//!
//! The paper's case-study system. Placement policy: inodes go to their
//! parent directory's block group (directories to the emptiest group),
//! and data blocks are allocated first-fit starting from the inode's
//! group — the classic BSD FFS/ext2 clustering heuristic that keeps
//! related data together until fragmentation sets in.

use crate::alloc::{BitmapAllocator, Run};
use crate::intern::{PathSpec, Symbol};
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
}

impl Ext2Config {
    /// Defaults matching a 4 KiB-block ext2 on the given device size.
    pub fn for_blocks(total_blocks: u64) -> Self {
        Ext2Config {
            total_blocks,
            blocks_per_group: 8192,
            inodes_per_group: 2048,
            cluster_pages: 2,
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
}

impl Ext2Fs {
    /// Formats a new file system ("mkfs").
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
        };
        // The root sits in group 0, where a fresh inode starts.
        fs.group_inodes[0] = 1;
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

    /// Reserves the free blocks of `start..end` for an embedded journal
    /// (ext3 mkfs support), returning how many it took.
    pub(crate) fn reserve_journal(&mut self, start: BlockNo, end: BlockNo) -> u64 {
        let mut taken = 0;
        let mut b = start;
        while b < end.min(self.config.total_blocks) {
            let g = self.group_of_block(b);
            let group_end = ((g + 1) * self.config.blocks_per_group).min(end);
            let n = self.alloc.reserve_free(b, group_end);
            self.group_free[g as usize] = self.group_free[g as usize].saturating_sub(n);
            taken += n;
            b = group_end;
        }
        taken
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
    /// identity `free = total − mkfs metadata − extra_reserved − data`.
    /// `extra_reserved` is blocks reserved outside mkfs metadata and
    /// file data — ext3 passes its journal region. Returns the first
    /// violation found.
    pub fn fsck(&self, extra_reserved: u64) -> Result<(), String> {
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
            .saturating_sub(extra_reserved)
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

    /// Directory data block holding the entry for `name` (hash-probed).
    fn dirent_block(&self, dir: InodeNo, name: &str) -> Option<BlockNo> {
        let node = self.tree.get(dir).ok()?;
        let nblocks = node.blocks();
        if nblocks == 0 {
            return None;
        }
        let h = rb_simcore::fnv::fnv1a(rb_simcore::fnv::FNV_OFFSET, name.as_bytes());
        let (phys, _) = node.map_block(h % nblocks)?;
        Some(phys)
    }

    /// Ensures the directory has enough data blocks for its entries.
    fn ensure_dir_blocks(&mut self, dir: InodeNo, meta: &mut MetaIo) -> SimResult<()> {
        let node = self.tree.get(dir)?;
        // 64 B per entry, 64 entries per 4 KiB block.
        let needed = node.size.as_u64().div_ceil(DIRENTS_PER_BLOCK * DIRENT_SIZE);
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

    /// [`Ext2Fs::dirent_block`] for an interned component.
    fn dirent_block_sym(&self, dir: InodeNo, name: Symbol) -> Option<BlockNo> {
        self.dirent_block(dir, self.tree.name(name))
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
            if let Some(b) = self.dirent_block_sym(traversed[i], name) {
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

    /// Creates a file or a directory at `spec`: the node goes to the
    /// group [`Ext2Fs::pick_group`] chooses, and the parent directory
    /// grows a block when its entries need one.
    fn make_node(&mut self, spec: &PathSpec, is_dir: bool) -> SimResult<(InodeNo, MetaIo)> {
        let (parent, name, traversed) = self.tree.resolve_new_spec(spec)?;
        let mut meta = MetaIo::default();
        self.charge_parent_lookup(&traversed, spec, &mut meta);
        let group = self.pick_group(parent, is_dir);
        let ino = self.tree.insert_child_sym(parent, name, is_dir)?;
        self.tree.get_mut(ino)?.group = group;
        self.group_inodes[group as usize] += 1;
        self.ensure_dir_blocks(parent, &mut meta)?;
        meta.writes.push(self.inode_bitmap_block(group));
        meta.writes.push(self.inode_table_block(ino));
        meta.writes.push(self.inode_table_block(parent));
        if let Some(b) = self.dirent_block_sym(parent, name) {
            meta.writes.push(b);
        }
        Ok((ino, meta))
    }
}

impl FileSystem for Ext2Fs {
    fn name(&self) -> &'static str {
        "ext2"
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
        if let Some(b) = self.dirent_block_sym(parent, name) {
            meta.writes.push(b);
        }
        Ok((ino, meta))
    }

    fn rmdir_spec(&mut self, spec: &PathSpec) -> SimResult<(InodeNo, MetaIo)> {
        // Same machinery; remove_child enforces emptiness.
        self.unlink_spec(spec)
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
        // No journal: recovery is an fsck pass over every group's
        // metadata (bitmaps + inode tables) — capacity-proportional,
        // where journal replay below is log-proportional.
        rb_faults::RecoveryPlan {
            scan_start: 0,
            scan_blocks: self.meta_reserved_blocks().max(1),
            replay_writes: 0,
            mechanism: "fsck-scan",
        }
    }

    fn check_consistency(&self) -> Result<(), String> {
        self.fsck(0)
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
        f.fsck(0).expect("consistent after churn");
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
}
