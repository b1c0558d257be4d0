//! The storage stack: file system + page cache + block device + clock.
//!
//! The paper's framing is that a file system is "middleware" whose
//! measured behaviour is the interaction of the layers above and below
//! it. [`StorageStack`] composes those layers explicitly: a data read
//! consults the cache, cluster-expands demand misses to the file system's
//! fetch granularity, maps logical blocks to physical extents, services
//! them on the device, and charges a memory-copy cost — each step a
//! separately configurable, separately measurable contribution.

use crate::intern::{PathId, PathSpec};
use crate::vfs::{FileSystem, InodeNo, MetaIo};
use rb_faults::{CrashReport, FaultSpec, FaultState, FaultStats};
use rb_simcache::cache::{CacheConfig, PageCache};
use rb_simcache::page::{FileId, PageKey};
use rb_simcore::error::{SimError, SimResult};
use rb_simcore::fnv::FnvHashMap;
use rb_simcore::rng::Rng;
use rb_simcore::time::{Nanos, VirtualClock};
use rb_simcore::units::{page_span, Bytes, PageNo};
use rb_simdisk::device::{BlockDevice, IoRequest};

/// File id under which metadata blocks are cached.
pub const META_FILE: FileId = u64::MAX;

/// An open file handle.
pub type Fd = u64;

/// Stack-level tunables.
#[derive(Debug, Clone)]
pub struct StackConfig {
    /// Cost to copy one page between the cache and the user buffer
    /// (~2 µs per 4 KiB at DRAM speeds: yields the paper's ~4 µs hit
    /// latency for the default 8 KiB reads).
    pub mem_copy_per_page: Nanos,
    /// Fixed CPU cost of entering the file system for any operation.
    pub syscall_overhead: Nanos,
    /// Log-normal sigma applied to the memory-copy cost per operation
    /// (TLB/cache effects, interrupts). Gives the in-memory latency peak
    /// its realistic spread over 2-3 log2 buckets; zero disables.
    pub mem_jitter_sigma: f64,
    /// Seed for the stack's own jitter stream.
    pub seed: u64,
}

impl Default for StackConfig {
    fn default() -> Self {
        StackConfig {
            mem_copy_per_page: Nanos::from_micros(2),
            syscall_overhead: Nanos::from_nanos(300),
            mem_jitter_sigma: 0.18,
            seed: 0,
        }
    }
}

/// One operation's simulated cost, decomposed into the two contention
/// domains of the discrete-event scheduler.
///
/// Returned by the time-parameterized `*_at` operations: `cpu` is work
/// a core performs (syscall entry, memory copies), `device` is media
/// service time (demand fetches, writeback, journal commits). A serial
/// caller charges `total()` to its clock; a multi-process scheduler
/// queues `cpu` on a core token and `device` on the shared device.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCost {
    /// Core-side cost: syscall overhead plus user-buffer copies.
    pub cpu: Nanos,
    /// Device-side cost: total media service time.
    pub device: Nanos,
}

impl OpCost {
    /// A cost with no device component.
    pub fn cpu_only(cpu: Nanos) -> OpCost {
        OpCost {
            cpu,
            device: Nanos::ZERO,
        }
    }

    /// The serialized latency: CPU then device, no queueing.
    pub fn total(&self) -> Nanos {
        self.cpu + self.device
    }
}

impl std::ops::AddAssign for OpCost {
    /// Accumulates a multi-step operation's cost, component by component.
    fn add_assign(&mut self, other: OpCost) {
        self.cpu += other.cpu;
        self.device += other.device;
    }
}

/// Cumulative stack-level counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StackStats {
    /// Data read operations served.
    pub reads: u64,
    /// Data write operations served.
    pub writes: u64,
    /// Metadata operations (create/unlink/mkdir/stat/lookup...).
    pub meta_ops: u64,
    /// fsync calls.
    pub fsyncs: u64,
    /// Block allocations (file grows via `set_size` or extending write).
    pub allocations: u64,
    /// Journal transaction commits (metadata ops that wrote journal
    /// blocks; zero on non-journaling file systems).
    pub journal_commits: u64,
}

/// A complete simulated storage stack.
///
/// # Examples
///
/// ```
/// use rb_simfs::ext2::{Ext2Config, Ext2Fs};
/// use rb_simfs::stack::{StackConfig, StorageStack};
/// use rb_simcache::cache::CacheConfig;
/// use rb_simdisk::hdd::{Hdd, HddConfig};
/// use rb_simcore::units::Bytes;
///
/// let mut stack = StorageStack::new(
///     Box::new(Ext2Fs::new(Ext2Config::for_blocks(65536))),
///     CacheConfig::paper_testbed(),
///     Box::new(Hdd::new(HddConfig::maxtor_7l250s0_like())),
///     StackConfig::default(),
/// );
/// stack.create("/f").unwrap();
/// let fd = stack.open("/f").unwrap();
/// stack.set_size_fd(fd, Bytes::mib(1)).unwrap();
/// let cold = stack.read(fd, Bytes::ZERO, Bytes::kib(8)).unwrap();
/// let warm = stack.read(fd, Bytes::ZERO, Bytes::kib(8)).unwrap();
/// assert!(warm < cold, "cache hit must be faster than the miss");
/// ```
pub struct StorageStack {
    fs: Box<dyn FileSystem>,
    cache: PageCache,
    disk: Box<dyn BlockDevice>,
    clock: VirtualClock,
    config: StackConfig,
    open: FnvHashMap<Fd, InodeNo>,
    paths: PathTable,
    next_fd: Fd,
    stats: StackStats,
    rng: Rng,
    faults: Option<FaultState>,
    media_floor: Nanos,
}

/// The stack's per-path resolution cache: full path string →
/// [`PathId`] → pre-interned [`PathSpec`].
///
/// The first operation on a path pays one validation + split + intern;
/// every later operation on it — by string (one FNV probe) or by id
/// (one vector index) — resolves through symbol tables with zero
/// allocation. Entries name *paths*, not inodes, so they stay valid
/// across creates and unlinks — which also means they are never
/// reclaimed: the table grows with the number of distinct paths ever
/// touched (tens of bytes per entry), including paths long since
/// unlinked. That is the deliberate trade for id stability; a
/// create-heavy month-long run would want an eviction story here.
#[derive(Debug, Default)]
struct PathTable {
    ids: FnvHashMap<Box<str>, PathId>,
    specs: Vec<PathSpec>,
}

impl StorageStack {
    /// Assembles a stack from its layers.
    pub fn new(
        fs: Box<dyn FileSystem>,
        cache: CacheConfig,
        disk: Box<dyn BlockDevice>,
        config: StackConfig,
    ) -> Self {
        let rng = Rng::new(config.seed).fork("stack-mem-jitter");
        StorageStack {
            fs,
            cache: PageCache::new(cache),
            disk,
            clock: VirtualClock::new(),
            config,
            open: Default::default(),
            paths: PathTable::default(),
            next_fd: 3,
            stats: StackStats::default(),
            rng,
            faults: None,
            media_floor: Nanos::ZERO,
        }
    }

    /// Installs a fault plan on the stack, forking its injection RNG
    /// stream from `seed`. Every later media request runs through the
    /// plan's error/latency decisions; allocations run through its
    /// ENOSPC gate. Installing replaces any previous plan.
    pub fn install_faults(&mut self, spec: FaultSpec, seed: u64) {
        self.faults = Some(FaultState::new(spec, seed));
    }

    /// Injection counters of the installed fault plan, if any.
    pub fn fault_stats(&self) -> Option<&FaultStats> {
        self.faults.as_ref().map(|f| f.stats())
    }

    /// Sets the device-availability floor for subsequent media
    /// requests: a discrete-event scheduler that knows the shared
    /// device is busy until `floor` passes it in before dispatching an
    /// op, so mechanical state (seek distance, rotation) is evaluated
    /// at the *actual* service start rather than the op's issue instant
    /// — deep queues stay honest. Serial callers never set it.
    pub fn set_media_floor(&mut self, floor: Nanos) {
        self.media_floor = floor;
    }

    /// Services one media request at `at` (clamped to the media floor),
    /// running fault error-injection and latency degradation. The
    /// propagating form: injected errors surface to the caller.
    fn media_at(&mut self, req: IoRequest, at: Nanos) -> SimResult<Nanos> {
        let at = at.max(self.media_floor);
        match &mut self.faults {
            Some(f) => {
                f.check(&req)?;
                let base = self.disk.service(&req, at);
                Ok(f.degrade(at, base))
            }
            None => Ok(self.disk.service(&req, at)),
        }
    }

    /// Like [`StorageStack::media_at`] for background paths
    /// (writeback, recovery I/O): injected errors are counted and
    /// absorbed — real kernels swallow async-writeback errors too —
    /// but the attempt still occupies the device and still degrades.
    fn media_absorb_at(&mut self, req: IoRequest, at: Nanos) -> Nanos {
        let at = at.max(self.media_floor);
        match &mut self.faults {
            Some(f) => {
                f.check_absorbing(&req);
                let base = self.disk.service(&req, at);
                f.degrade(at, base)
            }
            None => self.disk.service(&req, at),
        }
    }

    /// ENOSPC gate for an allocation growing the file system by
    /// `growth` bytes; a no-op without an installed `enospc` clause.
    fn enospc_gate(&mut self, growth: Bytes) -> SimResult<()> {
        if let Some(f) = &mut self.faults {
            let used = self.fs.used().as_u64();
            let capacity = self.fs.capacity().as_u64();
            f.enospc_gate(used, capacity, growth.as_u64())?;
        }
        Ok(())
    }

    /// Memory-copy cost for `pages` pages, with per-operation jitter.
    fn copy_cost(&mut self, pages: u64) -> Nanos {
        let base = self.config.mem_copy_per_page * pages;
        if self.config.mem_jitter_sigma > 0.0 && !base.is_zero() {
            let f = self
                .rng
                .lognormal(1.0, self.config.mem_jitter_sigma)
                .clamp(0.4, 3.0);
            base.mul_f64(f)
        } else {
            base
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> Nanos {
        self.clock.now()
    }

    /// Advances virtual time (think time between operations).
    pub fn advance(&mut self, d: Nanos) {
        self.clock.advance(d);
    }

    /// The file-system layer.
    pub fn fs(&self) -> &dyn FileSystem {
        self.fs.as_ref()
    }

    /// The cache layer.
    pub fn cache(&self) -> &PageCache {
        &self.cache
    }

    /// Device statistics.
    pub fn disk_stats(&self) -> &rb_simdisk::device::DeviceStats {
        self.disk.stats()
    }

    /// Stack statistics.
    pub fn stats(&self) -> StackStats {
        self.stats
    }

    /// Resizes the page cache (memory-pressure jitter). Evicted dirty
    /// pages are written back synchronously.
    pub fn set_cache_capacity_pages(&mut self, pages: u64) {
        let dirty = self.cache.set_capacity_pages(pages);
        let lat = self.write_pages_to_media_at(&dirty, self.clock.now());
        self.clock.advance(lat);
    }

    /// Drops every cached page (`echo 3 > drop_caches`).
    pub fn drop_caches(&mut self) {
        self.cache.invalidate_all();
    }

    fn page_size(&self) -> Bytes {
        self.fs.block_size()
    }

    /// Executes metadata traffic through cache and media at instant
    /// `issue`, returning the media time consumed.
    ///
    /// Metadata reads go through the page cache (metadata is cached like
    /// data); metadata writes dirty cache pages; journal writes are
    /// synchronous sequential media writes, as in ordered-mode JBD.
    fn run_meta_at(&mut self, meta: &MetaIo, issue: Nanos) -> SimResult<Nanos> {
        let mut lat = Nanos::ZERO;
        for &block in &meta.reads {
            let out = self.cache.read(META_FILE, block, 1, u64::MAX, issue);
            for _ in &out.miss_pages {
                lat += self.media_at(IoRequest::read(block, 1), issue + lat)?;
            }
            lat += self.write_pages_to_media_at(&out.writeback_pages, issue);
        }
        for &block in &meta.writes {
            let out = self.cache.write(META_FILE, block, 1, issue);
            lat += self.write_pages_to_media_at(&out.writeback_pages, issue);
        }
        for &block in &meta.journal_writes {
            lat += self.media_at(IoRequest::write(block, 1), issue + lat)?;
        }
        if !meta.journal_writes.is_empty() {
            self.stats.journal_commits += 1;
        }
        Ok(lat)
    }

    /// Writes evicted/flushed pages to media starting at instant `base`,
    /// mapping data pages through the file system. Pages of deleted
    /// files are silently dropped.
    fn write_pages_to_media_at(&mut self, pages: &[PageKey], base: Nanos) -> Nanos {
        let mut lat = Nanos::ZERO;
        for key in pages {
            let block = if key.file == META_FILE {
                Some(key.page)
            } else {
                self.fs.map(key.file, key.page, 1).ok().map(|e| e.physical)
            };
            if let Some(b) = block {
                lat += self.media_absorb_at(IoRequest::write(b, 1), base + lat);
            }
        }
        lat
    }

    /// [`StorageStack::write_pages_to_media_at`] with error
    /// propagation, for the synchronous durability paths (fsync):
    /// there the caller asked for the write, so an injected error is
    /// its to handle.
    fn write_pages_to_media_checked_at(
        &mut self,
        pages: &[PageKey],
        base: Nanos,
    ) -> SimResult<Nanos> {
        let mut lat = Nanos::ZERO;
        for key in pages {
            let block = if key.file == META_FILE {
                Some(key.page)
            } else {
                self.fs.map(key.file, key.page, 1).ok().map(|e| e.physical)
            };
            if let Some(b) = block {
                lat += self.media_at(IoRequest::write(b, 1), base + lat)?;
            }
        }
        Ok(lat)
    }

    /// Reads a set of data pages from media starting at instant `base`,
    /// coalescing physically contiguous pages into single requests.
    fn read_pages_from_media_at(
        &mut self,
        ino: InodeNo,
        pages: &[PageNo],
        base: Nanos,
    ) -> SimResult<Nanos> {
        let mut lat = Nanos::ZERO;
        let mut i = 0;
        while i < pages.len() {
            let logical = pages[i];
            // How many of the following requested pages are logically
            // consecutive?
            let mut run = 1;
            while i + run < pages.len() && pages[i + run] == logical + run as u64 {
                run += 1;
            }
            // Map as much of the run as the extent allows.
            match self.fs.map(ino, logical, run as u64) {
                Ok(ext) => {
                    lat += self.media_at(IoRequest::read(ext.physical, ext.len), base + lat)?;
                    i += ext.len as usize;
                }
                Err(_) => {
                    // Unmapped page (sparse region): no media read.
                    i += 1;
                }
            }
        }
        Ok(lat)
    }

    /// Evicts pages a failed read syscall had optimistically inserted
    /// (demand fetch cluster plus the readahead window).
    fn drop_unfilled(&mut self, ino: InodeNo, fetch: &[PageNo], prefetch: &[PageNo]) {
        for &p in fetch.iter().chain(prefetch) {
            self.cache.invalidate_page(ino, p);
        }
    }

    /// Resolves a path to a stable [`PathId`], interning it on first
    /// sight (see the stack's `PathTable`). Pure bookkeeping: no
    /// metadata is charged and the namespace is untouched, so
    /// pre-resolving a working set at build time is free of simulation
    /// side effects.
    pub fn resolve_path(&mut self, path: &str) -> SimResult<PathId> {
        if let Some(&id) = self.paths.ids.get(path) {
            return Ok(id);
        }
        let spec = self.fs.intern_path(path)?;
        let id = PathId::from_index(self.paths.specs.len());
        self.paths.ids.insert(path.into(), id);
        self.paths.specs.push(spec);
        Ok(id)
    }

    /// The pre-interned spec behind a [`PathId`].
    pub fn path_spec(&self, id: PathId) -> &PathSpec {
        &self.paths.specs[id.index()]
    }

    /// Creates a regular file.
    pub fn create(&mut self, path: &str) -> SimResult<Nanos> {
        let id = self.resolve_path(path)?;
        self.create_id(id)
    }

    /// [`StorageStack::create`] for a pre-resolved path.
    pub fn create_id(&mut self, id: PathId) -> SimResult<Nanos> {
        let cost = self.create_id_at(id, self.clock.now())?;
        self.clock.advance(cost.total());
        Ok(cost.total())
    }

    /// [`StorageStack::create`] at instant `issue`, without advancing
    /// the stack clock (the discrete-event form; see [`OpCost`]).
    pub fn create_id_at(&mut self, id: PathId, issue: Nanos) -> SimResult<OpCost> {
        let (_, meta) = self.fs.create_spec(&self.paths.specs[id.index()])?;
        let device = self.run_meta_at(&meta, issue)?;
        self.stats.meta_ops += 1;
        Ok(OpCost {
            cpu: self.config.syscall_overhead,
            device,
        })
    }

    /// Creates a directory.
    pub fn mkdir(&mut self, path: &str) -> SimResult<Nanos> {
        let id = self.resolve_path(path)?;
        self.mkdir_id(id)
    }

    /// [`StorageStack::mkdir`] for a pre-resolved path.
    pub fn mkdir_id(&mut self, id: PathId) -> SimResult<Nanos> {
        let cost = self.mkdir_id_at(id, self.clock.now())?;
        self.clock.advance(cost.total());
        Ok(cost.total())
    }

    /// [`StorageStack::mkdir`] at instant `issue` (discrete-event form).
    pub fn mkdir_id_at(&mut self, id: PathId, issue: Nanos) -> SimResult<OpCost> {
        let (_, meta) = self.fs.mkdir_spec(&self.paths.specs[id.index()])?;
        let device = self.run_meta_at(&meta, issue)?;
        self.stats.meta_ops += 1;
        Ok(OpCost {
            cpu: self.config.syscall_overhead,
            device,
        })
    }

    /// Removes a file and drops its cached pages.
    pub fn unlink(&mut self, path: &str) -> SimResult<Nanos> {
        let id = self.resolve_path(path)?;
        self.unlink_id(id)
    }

    /// [`StorageStack::unlink`] for a pre-resolved path.
    pub fn unlink_id(&mut self, id: PathId) -> SimResult<Nanos> {
        let cost = self.unlink_id_at(id, self.clock.now())?;
        self.clock.advance(cost.total());
        Ok(cost.total())
    }

    /// [`StorageStack::unlink`] at instant `issue` (discrete-event form).
    pub fn unlink_id_at(&mut self, id: PathId, issue: Nanos) -> SimResult<OpCost> {
        let (ino, meta) = self.fs.unlink_spec(&self.paths.specs[id.index()])?;
        self.cache.invalidate_file(ino);
        let device = self.run_meta_at(&meta, issue)?;
        self.stats.meta_ops += 1;
        Ok(OpCost {
            cpu: self.config.syscall_overhead,
            device,
        })
    }

    /// Stats a path.
    pub fn stat(&mut self, path: &str) -> SimResult<Nanos> {
        let id = self.resolve_path(path)?;
        self.stat_id(id)
    }

    /// [`StorageStack::stat`] for a pre-resolved path.
    pub fn stat_id(&mut self, id: PathId) -> SimResult<Nanos> {
        let cost = self.stat_id_at(id, self.clock.now())?;
        self.clock.advance(cost.total());
        Ok(cost.total())
    }

    /// [`StorageStack::stat`] at instant `issue` (discrete-event form).
    pub fn stat_id_at(&mut self, id: PathId, issue: Nanos) -> SimResult<OpCost> {
        let (_, meta) = self.fs.lookup_spec(&self.paths.specs[id.index()])?;
        let device = self.run_meta_at(&meta, issue)?;
        self.stats.meta_ops += 1;
        Ok(OpCost {
            cpu: self.config.syscall_overhead,
            device,
        })
    }

    /// Counts a directory's entries, charging the full listing's
    /// metadata traffic (the hot, allocation-free readdir form).
    pub fn readdir(&mut self, path: &str) -> SimResult<(u64, Nanos)> {
        let id = self.resolve_path(path)?;
        let (entries, meta) = self.fs.readdir_spec(&self.paths.specs[id.index()])?;
        let lat = self.config.syscall_overhead + self.run_meta_at(&meta, self.clock.now())?;
        self.clock.advance(lat);
        self.stats.meta_ops += 1;
        Ok((entries, lat))
    }

    /// Lists a directory's sorted entry names (allocates; same charge
    /// as [`StorageStack::readdir`]).
    pub fn readdir_names(&mut self, path: &str) -> SimResult<(Vec<String>, Nanos)> {
        let (names, meta) = self.fs.readdir_names(path)?;
        let lat = self.config.syscall_overhead + self.run_meta_at(&meta, self.clock.now())?;
        self.clock.advance(lat);
        self.stats.meta_ops += 1;
        Ok((names, lat))
    }

    /// Opens a file, resolving and charging the path walk.
    pub fn open(&mut self, path: &str) -> SimResult<Fd> {
        let id = self.resolve_path(path)?;
        self.open_id(id)
    }

    /// [`StorageStack::open`] for a pre-resolved path.
    pub fn open_id(&mut self, id: PathId) -> SimResult<Fd> {
        let (fd, cost) = self.open_id_at(id, self.clock.now())?;
        self.clock.advance(cost.total());
        Ok(fd)
    }

    /// [`StorageStack::open`] at instant `issue` (discrete-event form).
    pub fn open_id_at(&mut self, id: PathId, issue: Nanos) -> SimResult<(Fd, OpCost)> {
        let (ino, meta) = self.fs.lookup_spec(&self.paths.specs[id.index()])?;
        let device = self.run_meta_at(&meta, issue)?;
        self.stats.meta_ops += 1;
        let fd = self.next_fd;
        self.next_fd += 1;
        self.open.insert(fd, ino);
        Ok((
            fd,
            OpCost {
                cpu: self.config.syscall_overhead,
                device,
            },
        ))
    }

    /// Closes a handle.
    pub fn close(&mut self, fd: Fd) -> SimResult<()> {
        self.open
            .remove(&fd)
            .map(|_| ())
            .ok_or_else(|| SimError::InvalidOperation(format!("bad fd {fd}")))
    }

    fn ino_of(&self, fd: Fd) -> SimResult<InodeNo> {
        self.open
            .get(&fd)
            .copied()
            .ok_or_else(|| SimError::InvalidOperation(format!("bad fd {fd}")))
    }

    /// Grows/truncates an open file (allocation + metadata, journaled on
    /// journaling systems).
    pub fn set_size_fd(&mut self, fd: Fd, size: Bytes) -> SimResult<Nanos> {
        let cost = self.set_size_fd_at(fd, size, self.clock.now())?;
        self.clock.advance(cost.total());
        Ok(cost.total())
    }

    /// [`StorageStack::set_size_fd`] at instant `issue` (discrete-event
    /// form).
    pub fn set_size_fd_at(&mut self, fd: Fd, size: Bytes, issue: Nanos) -> SimResult<OpCost> {
        let ino = self.ino_of(fd)?;
        let attr = self.fs.attr(ino)?;
        if size > attr.size {
            self.enospc_gate(size - attr.size)?;
        }
        let meta = self.fs.set_size(ino, size)?;
        let device = self.run_meta_at(&meta, issue)?;
        self.stats.meta_ops += 1;
        self.stats.allocations += 1;
        Ok(OpCost {
            cpu: self.config.syscall_overhead,
            device,
        })
    }

    /// Reads `len` bytes at `offset`, returning the operation latency.
    ///
    /// Reads past end of file are clamped (POSIX short read); a read at
    /// or past EOF costs only the syscall overhead.
    pub fn read(&mut self, fd: Fd, offset: Bytes, len: Bytes) -> SimResult<Nanos> {
        let cost = self.read_at(fd, offset, len, self.clock.now())?;
        self.clock.advance(cost.total());
        Ok(cost.total())
    }

    /// [`StorageStack::read`] at instant `issue` (discrete-event form):
    /// the cache outcome is decided at `issue`, media requests are
    /// serviced from `issue` onward, and the clock is left untouched.
    pub fn read_at(
        &mut self,
        fd: Fd,
        offset: Bytes,
        len: Bytes,
        issue: Nanos,
    ) -> SimResult<OpCost> {
        let ino = self.ino_of(fd)?;
        let size = self.fs.size_of(ino)?;
        let mut cpu = self.config.syscall_overhead;
        let len = if offset >= size {
            Bytes::ZERO
        } else {
            len.min(size - offset)
        };
        if len.is_zero() {
            self.stats.reads += 1;
            return Ok(OpCost::cpu_only(cpu));
        }
        let page_size = self.page_size();
        let file_pages = size.div_ceil(page_size);
        let (first, last) = page_span(offset, len, page_size);
        let count = last - first;
        let mut out = self.cache.read(ino, first, count, file_pages, issue);

        // Cluster-expand demand misses to the FS fetch granularity.
        let cluster = self.fs.cluster_pages().max(1);
        let mut writebacks = std::mem::take(&mut out.writeback_pages);
        let mut fetch: Vec<PageNo> = Vec::with_capacity(out.miss_pages.len() * 2);
        for &p in &out.miss_pages {
            let cstart = p - p % cluster;
            let cend = (cstart + cluster).min(file_pages);
            for q in cstart..cend {
                if q == p {
                    fetch.push(q);
                } else if !self.cache.is_resident(ino, q) {
                    writebacks.extend(self.cache.insert_clean(ino, q));
                    fetch.push(q);
                }
            }
        }
        fetch.sort_unstable();
        fetch.dedup();
        // On a failed media read, every page this syscall inserted must
        // leave the cache again: the data never arrived, and a page left
        // resident would turn later reads (and any retry) into phantom
        // hits that mask the injected fault.
        let mut device = match self.read_pages_from_media_at(ino, &fetch, issue) {
            Ok(d) => d,
            Err(e) => {
                self.drop_unfilled(ino, &fetch, &out.prefetch_pages);
                return Err(e);
            }
        };

        // Sequential readahead I/O (window already inserted by the cache).
        device += match self.read_pages_from_media_at(ino, &out.prefetch_pages, issue) {
            Ok(d) => d,
            Err(e) => {
                self.drop_unfilled(ino, &fetch, &out.prefetch_pages);
                return Err(e);
            }
        };

        // Dirty evictions caused by the insertions.
        device += self.write_pages_to_media_at(&writebacks, issue);

        // Copy to the user buffer.
        cpu += self.copy_cost(count);
        self.stats.reads += 1;
        Ok(OpCost { cpu, device })
    }

    /// Writes `len` bytes at `offset`, extending the file if needed.
    pub fn write(&mut self, fd: Fd, offset: Bytes, len: Bytes) -> SimResult<Nanos> {
        let cost = self.write_at(fd, offset, len, self.clock.now())?;
        self.clock.advance(cost.total());
        Ok(cost.total())
    }

    /// [`StorageStack::write`] at instant `issue` (discrete-event form).
    pub fn write_at(
        &mut self,
        fd: Fd,
        offset: Bytes,
        len: Bytes,
        issue: Nanos,
    ) -> SimResult<OpCost> {
        let ino = self.ino_of(fd)?;
        let size = self.fs.size_of(ino)?;
        let mut cpu = self.config.syscall_overhead;
        if len.is_zero() {
            self.stats.writes += 1;
            return Ok(OpCost::cpu_only(cpu));
        }
        let mut device = Nanos::ZERO;
        let end = offset + len;
        if end > size {
            self.enospc_gate(end - size)?;
            let meta = self.fs.set_size(ino, end)?;
            device += self.run_meta_at(&meta, issue)?;
            self.stats.allocations += 1;
        }
        let page_size = self.page_size();
        let (first, last) = page_span(offset, len, page_size);
        let count = last - first;
        let out = self.cache.write(ino, first, count, issue);
        device += self.write_pages_to_media_at(&out.writeback_pages, issue);
        cpu += self.copy_cost(count);
        self.stats.writes += 1;
        Ok(OpCost { cpu, device })
    }

    /// Flushes an open file's dirty pages and metadata to media.
    pub fn fsync(&mut self, fd: Fd) -> SimResult<Nanos> {
        let cost = self.fsync_at(fd, self.clock.now())?;
        self.clock.advance(cost.total());
        Ok(cost.total())
    }

    /// [`StorageStack::fsync`] at instant `issue` (discrete-event form).
    pub fn fsync_at(&mut self, fd: Fd, issue: Nanos) -> SimResult<OpCost> {
        let ino = self.ino_of(fd)?;
        let dirty = self.cache.fsync(ino);
        let device = self.write_pages_to_media_checked_at(&dirty, issue)?;
        self.stats.fsyncs += 1;
        Ok(OpCost {
            cpu: self.config.syscall_overhead,
            device,
        })
    }

    /// Background writeback tick: flushes until the writeback policy's
    /// goals are met (under the dirty ratio, no expired pages), as the
    /// kernel flusher thread does. Returns the media time spent, which
    /// is charged to the timeline — writeback interference is real.
    pub fn writeback_tick(&mut self) -> Nanos {
        let total = self.writeback_tick_at(self.clock.now());
        self.clock.advance(total);
        total
    }

    /// [`StorageStack::writeback_tick`] at instant `issue`: the flusher
    /// pass starts at `issue`, each flushed batch pushes the expiry
    /// horizon forward by its own media time, and the clock is left to
    /// the caller (discrete-event form).
    pub fn writeback_tick_at(&mut self, issue: Nanos) -> Nanos {
        let mut total = Nanos::ZERO;
        loop {
            let due = self.cache.take_writeback_due(issue + total);
            if due.is_empty() {
                break;
            }
            total += self.write_pages_to_media_at(&due, issue + total);
        }
        total
    }

    /// Simulates a crash at instant `issue` followed by recovery.
    ///
    /// The crash discards the entire page cache — dirty pages are the
    /// writes the power loss lost. Recovery then runs the file system's
    /// [`crash plan`](FileSystem::crash_plan): journaling systems scan
    /// their log region and replay it (fast, bounded by the log size);
    /// non-journaled systems pay a metadata-proportional fsck scan.
    /// Recovery I/O runs on the degraded device but never fails — a
    /// recovery that itself errored would be a different experiment.
    /// The report's `consistent` verdict is the post-recovery
    /// [`FileSystem::check_consistency`] walk.
    pub fn crash_recover_at(&mut self, issue: Nanos) -> SimResult<CrashReport> {
        let lost_dirty_pages = self.cache.dirty_pages();
        self.cache.invalidate_all();
        let plan = self.fs.crash_plan();
        let mut lat = Nanos::ZERO;
        // Scan the plan's region in large sequential requests.
        let mut block = plan.scan_start;
        let mut remaining = plan.scan_blocks;
        while remaining > 0 {
            let n = remaining.min(256);
            lat += self.media_absorb_at(IoRequest::read(block, n), issue + lat);
            block += n;
            remaining -= n;
        }
        // Replay rewrites into the same region it scanned.
        let mut block = plan.scan_start;
        let mut remaining = plan.replay_writes;
        while remaining > 0 {
            let n = remaining.min(256);
            lat += self.media_absorb_at(IoRequest::write(block, n), issue + lat);
            block += n;
            remaining -= n;
        }
        let consistent = self.fs.check_consistency().is_ok();
        Ok(CrashReport {
            at: issue,
            mechanism: plan.mechanism,
            recovery: lat,
            lost_dirty_pages,
            consistent,
        })
    }
}

impl std::fmt::Debug for StorageStack {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StorageStack")
            .field("fs", &self.fs.name())
            .field("now", &self.clock.now())
            .field("resident_pages", &self.cache.resident_pages())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ext2::{Ext2Config, Ext2Fs};
    use crate::ext3::{Ext3Config, Ext3Fs};
    use crate::xfs::{XfsConfig, XfsFs};
    use rb_simdisk::hdd::{Hdd, HddConfig};

    fn stack_with(fs: Box<dyn FileSystem>) -> StorageStack {
        StorageStack::new(
            fs,
            CacheConfig::paper_testbed(),
            Box::new(Hdd::new(HddConfig::maxtor_7l250s0_like())),
            StackConfig::default(),
        )
    }

    fn ext2_stack() -> StorageStack {
        stack_with(Box::new(Ext2Fs::new(Ext2Config::for_blocks(262_144)))) // 1 GiB
    }

    #[test]
    fn hit_vs_miss_latency_gap() {
        let mut s = ext2_stack();
        s.create("/f").unwrap();
        let fd = s.open("/f").unwrap();
        s.set_size_fd(fd, Bytes::mib(10)).unwrap();
        let miss = s.read(fd, Bytes::mib(5), Bytes::kib(8)).unwrap();
        let hit = s.read(fd, Bytes::mib(5), Bytes::kib(8)).unwrap();
        assert!(miss.as_millis() >= 1, "miss {miss} should touch the disk");
        assert!(hit.as_micros() < 100, "hit {hit} should be memory-speed");
        // The paper's three-orders-of-magnitude gap.
        assert!(miss.as_nanos() / hit.as_nanos() > 100);
    }

    #[test]
    fn eof_semantics() {
        let mut s = ext2_stack();
        s.create("/f").unwrap();
        let fd = s.open("/f").unwrap();
        s.set_size_fd(fd, Bytes::kib(8)).unwrap();
        // Read at EOF: cheap, no disk.
        let lat = s.read(fd, Bytes::kib(8), Bytes::kib(8)).unwrap();
        assert!(lat.as_micros() < 10);
        // Read straddling EOF: clamped to one page.
        let reads0 = s.disk_stats().reads;
        s.read(fd, Bytes::kib(4), Bytes::kib(8)).unwrap();
        assert!(s.disk_stats().reads > reads0);
    }

    #[test]
    fn writes_are_cached_then_fsync_hits_disk() {
        let mut s = ext2_stack();
        s.create("/f").unwrap();
        let fd = s.open("/f").unwrap();
        s.set_size_fd(fd, Bytes::mib(1)).unwrap();
        let writes0 = s.disk_stats().writes;
        let wlat = s.write(fd, Bytes::ZERO, Bytes::kib(64)).unwrap();
        assert!(wlat.as_micros() < 500, "buffered write {wlat} too slow");
        assert_eq!(s.disk_stats().writes, writes0, "write went to media early");
        let flat = s.fsync(fd).unwrap();
        assert!(s.disk_stats().writes > writes0, "fsync reached media");
        assert!(flat > wlat);
    }

    #[test]
    fn unlink_drops_cache() {
        let mut s = ext2_stack();
        s.create("/f").unwrap();
        let fd = s.open("/f").unwrap();
        s.set_size_fd(fd, Bytes::mib(1)).unwrap();
        s.read(fd, Bytes::ZERO, Bytes::kib(64)).unwrap();
        assert!(s.cache().resident_pages() > 0);
        s.close(fd).unwrap();
        s.unlink("/f").unwrap();
        // Only metadata pages may remain.
        assert!(s.cache().resident_pages() <= 8);
    }

    #[test]
    fn cluster_fetch_warms_neighbours() {
        let mut s = ext2_stack(); // ext2: cluster_pages = 2
        s.create("/f").unwrap();
        let fd = s.open("/f").unwrap();
        s.set_size_fd(fd, Bytes::mib(1)).unwrap();
        // Read page 5 only (4 KiB); cluster 2 pulls page 4 too.
        s.read(fd, Bytes::kib(20), Bytes::kib(4)).unwrap();
        let ino = 3; // first created inode after root in a fresh tree
        assert!(s.cache().is_resident(ino, 5));
        assert!(
            s.cache().is_resident(ino, 4),
            "cluster neighbour not fetched"
        );
    }

    #[test]
    fn xfs_cluster_is_larger() {
        let mut s = stack_with(Box::new(XfsFs::new(XfsConfig::for_blocks(262_144))));
        s.create("/f").unwrap();
        let fd = s.open("/f").unwrap();
        s.set_size_fd(fd, Bytes::mib(1)).unwrap();
        let r0 = s.cache().stats();
        s.read(fd, Bytes::kib(68), Bytes::kib(4)).unwrap();
        let r1 = s.cache().stats();
        // One demand miss, but a 16-page cluster inserted.
        assert_eq!(r1.misses - r0.misses, 1);
        assert!(s.cache().resident_pages() >= 16);
    }

    #[test]
    fn journaled_create_writes_sequential_journal() {
        let mut s = stack_with(Box::new(Ext3Fs::new(Ext3Config::for_blocks(262_144))));
        let w0 = s.disk_stats().writes;
        s.create("/f").unwrap();
        // Journal writes are synchronous media writes.
        assert!(s.disk_stats().writes > w0);
    }

    #[test]
    fn sequential_read_faster_than_random_per_byte() {
        let mut s = ext2_stack();
        s.create("/seq").unwrap();
        let fd = s.open("/seq").unwrap();
        s.set_size_fd(fd, Bytes::mib(64)).unwrap();
        // Sequential pass.
        let t0 = s.now();
        let io = Bytes::kib(64);
        let mut off = Bytes::ZERO;
        while off < Bytes::mib(16) {
            s.read(fd, off, io).unwrap();
            off += io;
        }
        let seq_time = s.now() - t0;
        // Random pass over a fresh, uncached region of equal volume.
        s.drop_caches();
        use rb_simcore::rng::Rng;
        let mut rng = Rng::new(3);
        let t1 = s.now();
        for _ in 0..256 {
            let page = 4096 + rng.below(4096); // within 16..32 MiB region
            s.read(fd, Bytes::kib(4) * page, io).unwrap();
        }
        let rnd_time = s.now() - t1;
        assert!(
            seq_time.as_nanos() * 3 < rnd_time.as_nanos(),
            "sequential {seq_time} not ≫ faster than random {rnd_time}"
        );
    }

    #[test]
    fn stats_count_ops() {
        let mut s = ext2_stack();
        s.create("/f").unwrap();
        let fd = s.open("/f").unwrap();
        s.set_size_fd(fd, Bytes::kib(64)).unwrap();
        s.read(fd, Bytes::ZERO, Bytes::kib(8)).unwrap();
        s.write(fd, Bytes::ZERO, Bytes::kib(8)).unwrap();
        s.fsync(fd).unwrap();
        s.stat("/f").unwrap();
        let st = s.stats();
        assert_eq!(st.reads, 1);
        assert_eq!(st.writes, 1);
        assert_eq!(st.fsyncs, 1);
        assert!(st.meta_ops >= 4);
    }

    #[test]
    fn bad_fd_is_reported() {
        let mut s = ext2_stack();
        assert!(s.read(99, Bytes::ZERO, Bytes::kib(4)).is_err());
        assert!(s.close(99).is_err());
    }

    #[test]
    fn virtual_time_advances_with_work() {
        let mut s = ext2_stack();
        let t0 = s.now();
        s.create("/f").unwrap();
        assert!(s.now() > t0);
    }
}
