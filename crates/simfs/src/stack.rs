//! The storage stack: file system + page cache + block device.
//!
//! The paper's framing is that a file system is "middleware" whose
//! measured behaviour is the interaction of the layers above and below
//! it. [`StorageStack`] composes those layers explicitly: a data read
//! consults the cache, cluster-expands demand misses to the file system's
//! fetch granularity, maps logical blocks to physical extents, services
//! them on the device, and charges a memory-copy cost — each step a
//! separately configurable, separately measurable contribution.
//!
//! Every operation runs at an instant its caller passes in and returns
//! what it cost; the stack keeps no clock. Time lives in the driver: a
//! serial caller issues the next op when the last one finished, a
//! discrete-event scheduler at instants of its own.

use crate::intern::{PathId, PathSpec};
use crate::slab::Slab;
use crate::vfs::{FileSystem, InodeNo, MetaIo};
use rb_faults::{CrashReport, FaultSpec, FaultState, FaultStats};
use rb_simcache::cache::{CacheConfig, PageCache};
use rb_simcache::page::{FileId, PageKey};
use rb_simcore::error::{SimError, SimResult};
use rb_simcore::fnv::FnvHashMap;
use rb_simcore::rng::Rng;
use rb_simcore::time::Nanos;
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
/// Returned by every `*_at` operation: `cpu` is work a core performs
/// (syscall entry, memory copies), `device` is media service time
/// (demand fetches, writeback, journal commits). A serial caller charges
/// `total()` to its clock; a multi-process scheduler queues `cpu` on a
/// core token and `device` on the shared device.
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
/// A serial caller issues each operation when the previous one
/// finished:
///
/// ```
/// use rb_simfs::ext2::{Ext2Config, Ext2Fs};
/// use rb_simfs::stack::{StackConfig, StorageStack};
/// use rb_simcache::cache::CacheConfig;
/// use rb_simdisk::hdd::{Hdd, HddConfig};
/// use rb_simcore::time::Nanos;
/// use rb_simcore::units::Bytes;
///
/// let mut stack = StorageStack::new(
///     Box::new(Ext2Fs::new(Ext2Config::for_blocks(65536))),
///     CacheConfig::paper_testbed(),
///     Box::new(Hdd::new(HddConfig::maxtor_7l250s0_like())),
///     StackConfig::default(),
/// );
/// let f = stack.resolve_path("/f").unwrap();
/// let mut now = stack.create_id_at(f, Nanos::ZERO).unwrap().total();
/// let (fd, cost) = stack.open_id_at(f, now).unwrap();
/// now += cost.total();
/// now += stack.set_size_fd_at(fd, Bytes::mib(1), now).unwrap().total();
/// let cold = stack.read_at(fd, Bytes::ZERO, Bytes::kib(8), now).unwrap().total();
/// let warm = stack.read_at(fd, Bytes::ZERO, Bytes::kib(8), now + cold).unwrap().total();
/// assert!(warm < cold, "cache hit must be faster than the miss");
/// ```
pub struct StorageStack {
    fs: Box<dyn FileSystem>,
    cache: PageCache,
    disk: Box<dyn BlockDevice>,
    config: StackConfig,
    /// Open handles: the inode behind each fd. Fds come from a counter
    /// and are never reused, so the table is a slab indexed by fd.
    open: Slab<InodeNo>,
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

    /// Resizes the page cache at instant `issue` (memory-pressure
    /// jitter). Evicted dirty pages are written back synchronously;
    /// returns the media time that took, for the caller to charge.
    pub fn set_cache_capacity_pages_at(&mut self, pages: u64, issue: Nanos) -> Nanos {
        let dirty = self.cache.set_capacity_pages(pages);
        self.write_pages_to_media_at(&dirty, issue)
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
                match self.media_at(IoRequest::read(block, 1), issue + lat) {
                    Ok(d) => lat += d,
                    Err(e) => {
                        // The dirty pages the insertion evicted are no
                        // longer cached: they still go to media.
                        self.write_pages_to_media_at(&out.writeback_pages, issue);
                        return Err(e);
                    }
                }
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

    /// The tail every metadata op shares: runs the op's traffic at
    /// `issue`, counts the op and charges the syscall's CPU.
    fn meta_cost(&mut self, meta: &MetaIo, issue: Nanos) -> SimResult<OpCost> {
        let device = self.run_meta_at(meta, issue)?;
        self.stats.meta_ops += 1;
        Ok(OpCost {
            cpu: self.config.syscall_overhead,
            device,
        })
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

    /// Creates a regular file at the resolved path `id`, at instant
    /// `issue` (see [`OpCost`]).
    pub fn create_id_at(&mut self, id: PathId, issue: Nanos) -> SimResult<OpCost> {
        let (_, meta) = self.fs.create_spec(&self.paths.specs[id.index()])?;
        self.meta_cost(&meta, issue)
    }

    /// Creates a directory at the resolved path `id`, at instant `issue`.
    pub fn mkdir_id_at(&mut self, id: PathId, issue: Nanos) -> SimResult<OpCost> {
        let (_, meta) = self.fs.mkdir_spec(&self.paths.specs[id.index()])?;
        self.meta_cost(&meta, issue)
    }

    /// Removes the file at the resolved path `id` and drops its cached
    /// pages, at instant `issue`.
    pub fn unlink_id_at(&mut self, id: PathId, issue: Nanos) -> SimResult<OpCost> {
        let (ino, meta) = self.fs.unlink_spec(&self.paths.specs[id.index()])?;
        self.cache.invalidate_file(ino);
        self.meta_cost(&meta, issue)
    }

    /// Stats the resolved path `id` at instant `issue`, charging the
    /// path walk.
    pub fn stat_id_at(&mut self, id: PathId, issue: Nanos) -> SimResult<OpCost> {
        let (_, meta) = self.fs.lookup_spec(&self.paths.specs[id.index()])?;
        self.meta_cost(&meta, issue)
    }

    /// Opens the file at the resolved path `id` at instant `issue`,
    /// charging the path walk; returns the new handle with the cost.
    pub fn open_id_at(&mut self, id: PathId, issue: Nanos) -> SimResult<(Fd, OpCost)> {
        let (ino, meta) = self.fs.lookup_spec(&self.paths.specs[id.index()])?;
        let cost = self.meta_cost(&meta, issue)?;
        let fd = self.next_fd;
        self.next_fd += 1;
        self.open.insert(fd, ino);
        Ok((fd, cost))
    }

    /// Closes a handle.
    pub fn close(&mut self, fd: Fd) -> SimResult<()> {
        self.open
            .remove(fd)
            .map(|_| ())
            .ok_or_else(|| SimError::InvalidOperation(format!("bad fd {fd}")))
    }

    fn ino_of(&self, fd: Fd) -> SimResult<InodeNo> {
        self.open
            .get(fd)
            .copied()
            .ok_or_else(|| SimError::InvalidOperation(format!("bad fd {fd}")))
    }

    /// Grows or truncates an open file at instant `issue` (allocation
    /// plus metadata, journaled on journaling systems).
    pub fn set_size_fd_at(&mut self, fd: Fd, size: Bytes, issue: Nanos) -> SimResult<OpCost> {
        let ino = self.ino_of(fd)?;
        let attr = self.fs.attr(ino)?;
        if size > attr.size {
            self.enospc_gate(size - attr.size)?;
        }
        let meta = self.fs.set_size(ino, size)?;
        let cost = self.meta_cost(&meta, issue)?;
        self.stats.allocations += 1;
        Ok(cost)
    }

    /// Reads `len` bytes at `offset` at instant `issue`: the cache
    /// outcome is decided at `issue` and media requests are serviced
    /// from `issue` onward.
    ///
    /// Reads past end of file are clamped (POSIX short read); a read at
    /// or past EOF costs only the syscall overhead.
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
        // The demand fetch, then the sequential readahead I/O (window
        // already inserted by the cache). On a failed media read, every
        // page this syscall inserted must leave the cache again: the
        // data never arrived, and a page left resident would turn later
        // reads (and any retry) into phantom hits that mask the injected
        // fault. The dirty pages those insertions evicted are no longer
        // cached, so they still go to media.
        let fetched = self
            .read_pages_from_media_at(ino, &fetch, issue)
            .and_then(|d| {
                let ahead = self.read_pages_from_media_at(ino, &out.prefetch_pages, issue)?;
                Ok(d + ahead)
            });
        let mut device = match fetched {
            Ok(d) => d,
            Err(e) => {
                self.drop_unfilled(ino, &fetch, &out.prefetch_pages);
                self.write_pages_to_media_at(&writebacks, issue);
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

    /// Writes `len` bytes at `offset` at instant `issue`, extending the
    /// file if needed. The data lands in the page cache; the dirty pages
    /// its insertion evicts are written back.
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

    /// Flushes an open file's dirty pages and metadata to media at
    /// instant `issue`; an injected media error reaches the caller.
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

    /// Background writeback pass at instant `issue`: flushes until the
    /// writeback policy's goals are met (under the dirty ratio, no
    /// expired pages), as the kernel flusher thread does. Each flushed
    /// batch pushes the expiry horizon forward by its own media time.
    /// Returns the media time spent, for the caller to charge to its
    /// timeline: writeback interference is real.
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
            .field("resident_pages", &self.cache.resident_pages())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ext2::{Ext2Config, Ext2Fs};
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

    /// A 64-page LRU cache with readahead off, over a 1 GiB ext2.
    fn tiny_cache_stack() -> StorageStack {
        use rb_simcache::policy::PolicyKind;
        use rb_simcache::readahead::ReadaheadConfig;
        use rb_simcache::writeback::WritebackConfig;
        StorageStack::new(
            Box::new(Ext2Fs::new(Ext2Config::for_blocks(262_144))),
            CacheConfig {
                capacity_pages: 64,
                policy: PolicyKind::Lru,
                readahead: ReadaheadConfig::disabled(),
                writeback: WritebackConfig::default(),
            },
            Box::new(Hdd::new(HddConfig::maxtor_7l250s0_like())),
            StackConfig::default(),
        )
    }

    /// Creates, opens and sizes `path` back to back from instant
    /// `issue`, as a serial caller does; returns the handle and the
    /// instant the last op finished.
    fn sized_file(s: &mut StorageStack, path: &str, size: Bytes, issue: Nanos) -> (Fd, Nanos) {
        let id = s.resolve_path(path).unwrap();
        let mut now = issue + s.create_id_at(id, issue).unwrap().total();
        let (fd, cost) = s.open_id_at(id, now).unwrap();
        now += cost.total();
        now += s.set_size_fd_at(fd, size, now).unwrap().total();
        (fd, now)
    }

    #[test]
    fn hit_vs_miss_latency_gap() {
        let mut s = ext2_stack();
        let (fd, now) = sized_file(&mut s, "/f", Bytes::mib(10), Nanos::ZERO);
        let miss = s
            .read_at(fd, Bytes::mib(5), Bytes::kib(8), now)
            .unwrap()
            .total();
        let hit = s
            .read_at(fd, Bytes::mib(5), Bytes::kib(8), now + miss)
            .unwrap()
            .total();
        assert!(miss.as_millis() >= 1, "miss {miss} should touch the disk");
        assert!(hit.as_micros() < 100, "hit {hit} should be memory-speed");
        // The paper's three-orders-of-magnitude gap.
        assert!(miss.as_nanos() / hit.as_nanos() > 100);
    }

    #[test]
    fn eof_semantics() {
        let mut s = ext2_stack();
        let (fd, now) = sized_file(&mut s, "/f", Bytes::kib(8), Nanos::ZERO);
        // Read at EOF: cheap, no disk.
        let lat = s
            .read_at(fd, Bytes::kib(8), Bytes::kib(8), now)
            .unwrap()
            .total();
        assert!(lat.as_micros() < 10);
        // Read straddling EOF: clamped to one page.
        let reads0 = s.disk_stats().reads;
        s.read_at(fd, Bytes::kib(4), Bytes::kib(8), now + lat)
            .unwrap();
        assert!(s.disk_stats().reads > reads0);
    }

    #[test]
    fn writes_are_cached_then_fsync_hits_disk() {
        let mut s = ext2_stack();
        let (fd, now) = sized_file(&mut s, "/f", Bytes::mib(1), Nanos::ZERO);
        let writes0 = s.disk_stats().writes;
        let wlat = s
            .write_at(fd, Bytes::ZERO, Bytes::kib(64), now)
            .unwrap()
            .total();
        assert!(wlat.as_micros() < 500, "buffered write {wlat} too slow");
        assert_eq!(s.disk_stats().writes, writes0, "write went to media early");
        let flat = s.fsync_at(fd, now + wlat).unwrap().total();
        assert!(s.disk_stats().writes > writes0, "fsync reached media");
        assert!(flat > wlat);
    }

    #[test]
    fn unlink_drops_cache() {
        let mut s = ext2_stack();
        let (fd, now) = sized_file(&mut s, "/f", Bytes::mib(1), Nanos::ZERO);
        let lat = s
            .read_at(fd, Bytes::ZERO, Bytes::kib(64), now)
            .unwrap()
            .total();
        assert!(s.cache().resident_pages() > 0);
        s.close(fd).unwrap();
        let id = s.resolve_path("/f").unwrap();
        s.unlink_id_at(id, now + lat).unwrap();
        // Only metadata pages may remain.
        assert!(s.cache().resident_pages() <= 8);
    }

    #[test]
    fn cluster_fetch_warms_neighbours() {
        let mut s = ext2_stack(); // ext2: cluster_pages = 2
        let (fd, now) = sized_file(&mut s, "/f", Bytes::mib(1), Nanos::ZERO);
        // Read page 5 only (4 KiB); cluster 2 pulls page 4 too.
        s.read_at(fd, Bytes::kib(20), Bytes::kib(4), now).unwrap();
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
        let (fd, now) = sized_file(&mut s, "/f", Bytes::mib(1), Nanos::ZERO);
        let r0 = s.cache().stats();
        s.read_at(fd, Bytes::kib(68), Bytes::kib(4), now).unwrap();
        let r1 = s.cache().stats();
        // One demand miss, but a 16-page cluster inserted.
        assert_eq!(r1.misses - r0.misses, 1);
        assert!(s.cache().resident_pages() >= 16);
    }

    #[test]
    fn journaled_create_writes_sequential_journal() {
        let mut s = stack_with(Box::new(Ext2Fs::new(Ext2Config::ext3_for_blocks(262_144))));
        let w0 = s.disk_stats().writes;
        let id = s.resolve_path("/f").unwrap();
        s.create_id_at(id, Nanos::ZERO).unwrap();
        // Journal writes are synchronous media writes.
        assert!(s.disk_stats().writes > w0);
    }

    #[test]
    fn sequential_read_faster_than_random_per_byte() {
        let mut s = ext2_stack();
        let (fd, mut now) = sized_file(&mut s, "/seq", Bytes::mib(64), Nanos::ZERO);
        // Sequential pass.
        let t0 = now;
        let io = Bytes::kib(64);
        let mut off = Bytes::ZERO;
        while off < Bytes::mib(16) {
            now += s.read_at(fd, off, io, now).unwrap().total();
            off += io;
        }
        let seq_time = now - t0;
        // Random pass over a fresh, uncached region of equal volume.
        s.drop_caches();
        let mut rng = Rng::new(3);
        let t1 = now;
        for _ in 0..256 {
            let page = 4096 + rng.below(4096); // within 16..32 MiB region
            now += s
                .read_at(fd, Bytes::kib(4) * page, io, now)
                .unwrap()
                .total();
        }
        let rnd_time = now - t1;
        assert!(
            seq_time.as_nanos() * 3 < rnd_time.as_nanos(),
            "sequential {seq_time} not ≫ faster than random {rnd_time}"
        );
    }

    #[test]
    fn stats_count_ops() {
        let mut s = ext2_stack();
        let (fd, mut now) = sized_file(&mut s, "/f", Bytes::kib(64), Nanos::ZERO);
        now += s
            .read_at(fd, Bytes::ZERO, Bytes::kib(8), now)
            .unwrap()
            .total();
        now += s
            .write_at(fd, Bytes::ZERO, Bytes::kib(8), now)
            .unwrap()
            .total();
        now += s.fsync_at(fd, now).unwrap().total();
        let id = s.resolve_path("/f").unwrap();
        s.stat_id_at(id, now).unwrap();
        let st = s.stats();
        assert_eq!(st.reads, 1);
        assert_eq!(st.writes, 1);
        assert_eq!(st.fsyncs, 1);
        assert!(st.meta_ops >= 4);
    }

    #[test]
    fn failed_read_still_writes_back_the_dirty_pages_it_evicted() {
        let mut s = tiny_cache_stack();
        let (fd, now) = sized_file(&mut s, "/f", Bytes::mib(1), Nanos::ZERO);
        // 64 dirty data pages fill the cache.
        let lat = s
            .write_at(fd, Bytes::ZERO, Bytes::kib(256), now)
            .unwrap()
            .total();
        assert_eq!(s.cache().dirty_pages(), 64);
        s.install_faults(FaultSpec::parse("eio:1").unwrap(), 7);
        let (evicted0, writes0) = (s.cache().stats().evicted_dirty, s.disk_stats().writes);
        // A two-page miss evicts two dirty pages, then its media read fails.
        assert!(s
            .read_at(fd, Bytes::kib(512), Bytes::kib(8), now + lat)
            .is_err());
        assert_eq!(s.cache().stats().evicted_dirty - evicted0, 2);
        assert_eq!(
            s.disk_stats().writes - writes0,
            2,
            "the evicted dirty pages never reached media"
        );
        assert_eq!(s.cache().dirty_pages(), 62);
    }

    #[test]
    fn failed_metadata_read_still_writes_back_the_dirty_pages_it_evicted() {
        let mut s = tiny_cache_stack();
        let d = s.resolve_path("/d").unwrap();
        let now = s.mkdir_id_at(d, Nanos::ZERO).unwrap().total();
        let (fd, now) = sized_file(&mut s, "/d/f", Bytes::mib(1), now);
        // 64 dirty data pages push every metadata block out.
        let lat = s
            .write_at(fd, Bytes::ZERO, Bytes::kib(256), now)
            .unwrap()
            .total();
        assert_eq!(s.cache().dirty_pages(), 64);
        s.install_faults(FaultSpec::parse("eio:1").unwrap(), 7);
        let (evicted0, writes0) = (s.cache().stats().evicted_dirty, s.disk_stats().writes);
        // The path walk's first block misses, evicts a dirty page, and
        // its media read fails.
        let f = s.resolve_path("/d/f").unwrap();
        assert!(s.stat_id_at(f, now + lat).is_err());
        assert_eq!(s.cache().stats().evicted_dirty - evicted0, 1);
        assert_eq!(
            s.disk_stats().writes - writes0,
            1,
            "the evicted dirty page never reached media"
        );
        assert_eq!(s.cache().dirty_pages(), 63);
    }

    #[test]
    fn bad_fd_is_reported() {
        let mut s = ext2_stack();
        assert!(s
            .read_at(99, Bytes::ZERO, Bytes::kib(4), Nanos::ZERO)
            .is_err());
        assert!(s.close(99).is_err());
    }

    /// Opening and closing 10,000 fds leaves the fd slab no larger than
    /// it started, besides the empty chunk the fd counter is filling,
    /// whether the handles are held together or one at a time.
    #[test]
    fn memory_follows_live_fds() {
        let mut s = ext2_stack();
        let id = s.resolve_path("/f").unwrap();
        s.create_id_at(id, Nanos::ZERO).unwrap();
        let before = s.open.chunks();
        let fds: Vec<Fd> = (0..10_000)
            .map(|_| s.open_id_at(id, Nanos::ZERO).unwrap().0)
            .collect();
        assert!(s.open.chunks() > before, "no chunk grew");
        for fd in fds {
            s.close(fd).unwrap();
        }
        assert!(s.open.chunks() <= before + 1, "chunks left behind");
        for _ in 0..10_000 {
            let (fd, _) = s.open_id_at(id, Nanos::ZERO).unwrap();
            s.close(fd).unwrap();
        }
        assert!(s.open.chunks() <= before + 1, "chunks left behind");
    }

    /// Work costs time: a caller's clock moves past a create.
    #[test]
    fn virtual_time_advances_with_work() {
        let mut s = ext2_stack();
        let id = s.resolve_path("/f").unwrap();
        let t0 = Nanos::ZERO;
        let now = t0 + s.create_id_at(id, t0).unwrap().total();
        assert!(now > t0);
    }
}
