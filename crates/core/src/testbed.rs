//! Pre-wired simulated testbeds matching the paper's experimental setup.
//!
//! Section 3: "We used an Intel Xeon 2.8 GHz machine with a single SATA
//! Maxtor 7L250S0 disk drive as a testbed. We artificially decreased the
//! RAM to 512 MB." These constructors reproduce that machine over the
//! simulation stack: a Maxtor-class HDD, a 410 MiB LRU page cache
//! (512 MiB minus the OS), and one of the three file systems, formatted
//! to a device large enough for the experiment.

use crate::target::SimTarget;
use rb_simcache::cache::CacheConfig;
use rb_simcache::policy::PolicyKind;
use rb_simcache::readahead::ReadaheadConfig;
use rb_simcache::writeback::WritebackConfig;
use rb_simcore::units::{Bytes, PAGE_SIZE};
use rb_simdisk::hdd::{Hdd, HddConfig};
use rb_simfs::ext2::{Ext2Config, Ext2Fs};
use rb_simfs::stack::{StackConfig, StorageStack};
use rb_simfs::vfs::FileSystem;
use rb_simfs::xfs::{XfsConfig, XfsFs};

/// The paper's page-cache budget: 512 MiB RAM minus the OS, i.e. the
/// 410 MB that Section 3.1 reports as "the largest file that fits in the
/// page cache".
pub const PAPER_CACHE: Bytes = Bytes::mib(410);

/// Supported simulated file systems.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FsKind {
    /// Ext2-like (no journal).
    Ext2,
    /// Ext3-like (ordered journal).
    Ext3,
    /// XFS-like (extents, allocation groups).
    Xfs,
}

impl FsKind {
    /// All kinds, in the paper's Figure 2 order.
    pub const ALL: [FsKind; 3] = [FsKind::Ext2, FsKind::Ext3, FsKind::Xfs];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            FsKind::Ext2 => "ext2",
            FsKind::Ext3 => "ext3",
            FsKind::Xfs => "xfs",
        }
    }

    /// The smallest device this kind formats: one block for ext2 and
    /// ext3, [`XfsConfig::MIN_BLOCKS`] (5.4 MiB) for xfs.
    pub fn min_device(self) -> Bytes {
        match self {
            FsKind::Ext2 | FsKind::Ext3 => PAGE_SIZE,
            FsKind::Xfs => PAGE_SIZE * XfsConfig::MIN_BLOCKS,
        }
    }

    /// Formats a file system of this kind over `device_blocks` blocks.
    ///
    /// # Panics
    ///
    /// If `device_blocks` is below [`FsKind::min_device`], in blocks.
    pub fn format(self, device_blocks: u64) -> Box<dyn FileSystem> {
        match self {
            FsKind::Ext2 => Box::new(Ext2Fs::new(Ext2Config::for_blocks(device_blocks))),
            FsKind::Ext3 => Box::new(Ext2Fs::new(Ext2Config::ext3_for_blocks(device_blocks))),
            FsKind::Xfs => Box::new(XfsFs::new(XfsConfig::for_blocks(device_blocks))),
        }
    }
}

/// Full testbed description.
#[derive(Debug, Clone)]
pub struct Testbed {
    /// File system under test.
    pub fs: FsKind,
    /// Formatted device size (must exceed the working set comfortably).
    pub device: Bytes,
    /// Page-cache capacity.
    pub cache: Bytes,
    /// Replacement policy.
    pub policy: PolicyKind,
    /// Readahead configuration.
    pub readahead: ReadaheadConfig,
    /// Seed differentiating runs (feeds the disk's mechanical jitter).
    pub seed: u64,
}

impl Testbed {
    /// The paper's machine with the given file system and device size.
    pub fn paper(fs: FsKind, device: Bytes, seed: u64) -> Self {
        Testbed {
            fs,
            device,
            cache: PAPER_CACHE,
            policy: PolicyKind::Lru,
            readahead: ReadaheadConfig::default(),
            seed,
        }
    }

    /// Builds the simulated machine.
    pub fn build(&self) -> SimTarget {
        let device_blocks = self.device.div_ceil(PAGE_SIZE);
        let fs = self.fs.format(device_blocks);
        let mut hdd = HddConfig::maxtor_7l250s0_like();
        hdd.seed = hdd.seed.wrapping_add(self.seed);
        // Trim the disk model to the formatted size, keeping zone shape.
        let cache = CacheConfig {
            capacity_pages: self.cache.div_ceil(PAGE_SIZE),
            policy: self.policy,
            readahead: self.readahead,
            writeback: WritebackConfig::default(),
        };
        let stack_cfg = StackConfig {
            seed: self.seed,
            ..Default::default()
        };
        let stack = StorageStack::new(fs, cache, Box::new(Hdd::new(hdd)), stack_cfg);
        SimTarget::new(stack)
    }
}

/// The paper testbed with ext2 and default seed handling.
pub fn paper_ext2(device: Bytes, seed: u64) -> SimTarget {
    Testbed::paper(FsKind::Ext2, device, seed).build()
}

/// The paper testbed with an arbitrary file system.
pub fn paper_fs(fs: FsKind, device: Bytes, seed: u64) -> SimTarget {
    Testbed::paper(fs, device, seed).build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::target::Target;

    #[test]
    fn builds_all_kinds() {
        for kind in FsKind::ALL {
            let t = paper_fs(kind, Bytes::gib(1), 0);
            assert_eq!(t.name(), format!("sim:{}", kind.name()));
        }
    }

    #[test]
    fn cache_capacity_matches_paper() {
        let t = paper_ext2(Bytes::gib(1), 0);
        assert_eq!(t.stack().cache().capacity_pages(), 410 * 256);
    }

    #[test]
    fn seeds_differentiate_disk_jitter() {
        let run = |seed| {
            let mut t = paper_ext2(Bytes::gib(1), seed);
            t.create("/f").unwrap();
            let fd = t.open("/f").unwrap();
            t.set_size(fd, Bytes::mib(64)).unwrap();
            let mut total = rb_simcore::time::Nanos::ZERO;
            let mut rng = rb_simcore::rng::Rng::new(1);
            for _ in 0..50 {
                let page = rng.below(16_000);
                total += t.read(fd, Bytes::kib(4) * page, Bytes::kib(8)).unwrap();
            }
            total
        };
        // Identical logical workload, different mechanical jitter.
        assert_ne!(run(1), run(2));
        // And the same seed reproduces exactly.
        assert_eq!(run(3), run(3));
    }
}
