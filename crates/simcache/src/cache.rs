//! The unified page cache: residency, replacement, readahead, writeback.
//!
//! This is the layer whose capacity — and whose few-megabyte run-to-run
//! wobble — produces the paper's Figure 1 cliff and 35 % RSD transition
//! spike. The cache is a pure bookkeeping machine: it answers which pages
//! hit, which must be read from media, which should be prefetched, and
//! which dirty pages an eviction pushes out. The storage stack translates
//! those page lists into device I/O and latency.

use crate::page::{CacheStats, FileId, PageKey, SlotId, Slots, NIL};
use crate::policy::{EvictionPolicy, PolicyKind};
use crate::readahead::{Readahead, ReadaheadConfig};
use crate::writeback::{Writeback, WritebackConfig};
use rb_simcore::fnv::FnvHashMap;
use rb_simcore::time::Nanos;
use rb_simcore::units::PageNo;

/// Page cache configuration.
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Capacity in pages.
    pub capacity_pages: u64,
    /// Replacement policy.
    pub policy: PolicyKind,
    /// Readahead settings (applied per file).
    pub readahead: ReadaheadConfig,
    /// Writeback settings.
    pub writeback: WritebackConfig,
}

impl CacheConfig {
    /// The paper's testbed: 410 MiB of page cache (512 MiB RAM minus OS),
    /// LRU, default readahead and writeback.
    pub fn paper_testbed() -> Self {
        CacheConfig {
            capacity_pages: 410 * 256, // 410 MiB of 4 KiB pages
            policy: PolicyKind::Lru,
            readahead: ReadaheadConfig::default(),
            writeback: WritebackConfig::default(),
        }
    }
}

/// Result of a read access.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReadOutcome {
    /// Pages satisfied from the cache.
    pub hit_pages: u64,
    /// Demand pages that must be read from media.
    pub miss_pages: Vec<PageNo>,
    /// Readahead pages to fetch alongside (already inserted as resident).
    pub prefetch_pages: Vec<PageNo>,
    /// Dirty pages pushed out by the insertions; the caller must write
    /// them to media.
    pub writeback_pages: Vec<PageKey>,
}

impl ReadOutcome {
    /// True if every requested page hit.
    pub fn all_hit(&self) -> bool {
        self.miss_pages.is_empty()
    }
}

/// Result of a write access.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WriteOutcome {
    /// Dirty pages pushed out by the insertions (write them to media).
    pub writeback_pages: Vec<PageKey>,
}

/// Pages per chunk of a file's page index.
const CHUNK_PAGES: u64 = 64;

/// One aligned 64-page stretch of a file: the slot of each of its
/// resident pages. The slot array covers only an aligned power-of-two
/// window of the stretch, doubled as pages outside it arrive, so the
/// scattered single blocks of metadata cost one slot each, not 64.
#[derive(Debug, Clone)]
struct Chunk {
    /// Offset in the stretch of `slots[0]`, a multiple of its length.
    base: u32,
    slots: Box<[SlotId]>,
    resident: u32,
}

/// One file's resident pages, by page, and its readahead state.
#[derive(Debug)]
struct FileIndex {
    chunks: FnvHashMap<u64, Chunk>,
    readahead: Readahead,
}

/// Splits a page number into its chunk number and offset in the chunk.
fn chunk_of(page: PageNo) -> (u64, u32) {
    (page / CHUNK_PAGES, (page % CHUNK_PAGES) as u32)
}

impl FileIndex {
    fn new(readahead: ReadaheadConfig) -> Self {
        FileIndex {
            chunks: FnvHashMap::default(),
            readahead: Readahead::new(readahead),
        }
    }

    /// The slot of `page`, if resident.
    fn slot(&self, page: PageNo) -> Option<SlotId> {
        let (c, i) = chunk_of(page);
        let chunk = self.chunks.get(&c)?;
        let slot = *chunk.slots.get(i.wrapping_sub(chunk.base) as usize)?;
        (slot != NIL).then_some(slot)
    }

    /// Records that the absent `page` now lives in `slot`.
    fn set(&mut self, page: PageNo, slot: SlotId) {
        let (c, i) = chunk_of(page);
        let chunk = self.chunks.entry(c).or_insert_with(|| Chunk {
            base: i,
            slots: Box::new([NIL]),
            resident: 0,
        });
        let len = chunk.slots.len() as u32;
        if i.wrapping_sub(chunk.base) >= len {
            // The smallest aligned window holding the old one and `i`:
            // the first power of two above the highest differing bit.
            let size = ((chunk.base ^ i) + 1).next_power_of_two();
            let base = i & !(size - 1);
            let mut grown = vec![NIL; size as usize];
            let at = (chunk.base - base) as usize;
            grown[at..at + len as usize].copy_from_slice(&chunk.slots);
            chunk.base = base;
            chunk.slots = grown.into_boxed_slice();
        }
        chunk.slots[(i - chunk.base) as usize] = slot;
        chunk.resident += 1;
    }

    /// Drops `page` from the index, returning its slot if it was
    /// resident.
    fn unset(&mut self, page: PageNo) -> Option<SlotId> {
        let (c, i) = chunk_of(page);
        let chunk = self.chunks.get_mut(&c)?;
        let entry = chunk.slots.get_mut(i.wrapping_sub(chunk.base) as usize)?;
        let slot = std::mem::replace(entry, NIL);
        if slot == NIL {
            return None;
        }
        chunk.resident -= 1;
        if chunk.resident == 0 {
            self.chunks.remove(&c);
            // A file with readahead history outlives its pages; its
            // empty table need not.
            if self.chunks.is_empty() {
                self.chunks.shrink_to_fit();
            }
        }
        Some(slot)
    }

    /// Resident pages and their slots, in page order.
    fn resident(&self) -> impl Iterator<Item = (PageNo, SlotId)> + '_ {
        let mut chunks: Vec<(u64, &Chunk)> = self.chunks.iter().map(|(&c, k)| (c, k)).collect();
        chunks.sort_unstable_by_key(|&(c, _)| c);
        chunks.into_iter().flat_map(|(c, chunk)| {
            (u64::from(chunk.base)..)
                .zip(chunk.slots.iter().copied())
                .filter(|&(_, slot)| slot != NIL)
                .map(move |(i, slot)| (c * CHUNK_PAGES + i, slot))
        })
    }
}

/// Makes the absent `key` resident: a fresh slot, an index entry, and
/// the policy's notice.
fn admit(
    index: &mut FileIndex,
    slots: &mut Slots,
    policy: &mut dyn EvictionPolicy,
    stats: &mut CacheStats,
    key: PageKey,
    prefetched: bool,
) -> SlotId {
    let slot = slots.alloc(key, prefetched);
    index.set(key.page, slot);
    policy.insert(slots, slot);
    stats.insertions += 1;
    if prefetched {
        stats.prefetched += 1;
    }
    slot
}

/// The simulated page cache.
///
/// Every resident page has one slot in a slab, holding its key and its
/// dirty instant, plus a prefetched bit in a bitset beside the slab and
/// (under LRU) a link record in the policy's own table; each file has
/// one index from page to slot, in 64-page chunks, beside its readahead
/// state. A hit costs one probe for the file per call and one chunk
/// probe per page, then reads only the page's prefetched bit and
/// whatever the policy keeps: it never opens the slot itself.
///
/// # Examples
///
/// ```
/// use rb_simcache::cache::{CacheConfig, PageCache};
/// use rb_simcore::time::Nanos;
///
/// let mut cache = PageCache::new(CacheConfig::paper_testbed());
/// let cold = cache.read(1, 0, 2, 1024, Nanos::ZERO);
/// assert_eq!(cold.miss_pages, vec![0, 1]);
/// let warm = cache.read(1, 0, 2, 1024, Nanos::ZERO);
/// assert!(warm.all_hit());
/// ```
#[derive(Debug)]
pub struct PageCache {
    config: CacheConfig,
    policy: Box<dyn EvictionPolicy>,
    slots: Slots,
    // FNV-keyed (see `rb_simcore::fnv`): one 8-byte key hash per probe.
    // A file's entry lives while it has resident pages or readahead
    // history.
    files: FnvHashMap<FileId, FileIndex>,
    writeback: Writeback,
    stats: CacheStats,
}

impl PageCache {
    /// Creates an empty cache.
    pub fn new(config: CacheConfig) -> Self {
        let policy = config.policy.build(config.capacity_pages);
        let writeback = Writeback::new(config.writeback);
        PageCache {
            config,
            policy,
            slots: Slots::default(),
            files: FnvHashMap::default(),
            writeback,
            stats: CacheStats::default(),
        }
    }

    /// Capacity in pages.
    pub fn capacity_pages(&self) -> u64 {
        self.config.capacity_pages
    }

    /// Currently resident pages.
    pub fn resident_pages(&self) -> u64 {
        self.slots.live() as u64
    }

    /// Number of dirty pages awaiting writeback.
    pub fn dirty_pages(&self) -> u64 {
        self.writeback.dirty_count() as u64
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Name of the active eviction policy (for attribution in reports).
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// Returns true if the page is resident.
    pub fn is_resident(&self, file: FileId, page: PageNo) -> bool {
        self.files
            .get(&file)
            .is_some_and(|index| index.slot(page).is_some())
    }

    /// Resizes the cache (models OS memory pressure / per-run jitter).
    ///
    /// Returns dirty pages evicted by a shrink; the caller must write
    /// them back.
    pub fn set_capacity_pages(&mut self, pages: u64) -> Vec<PageKey> {
        self.config.capacity_pages = pages;
        self.evict_to_capacity()
    }

    /// Drops a page from its file's index (not from the policy),
    /// returning its slot if it was resident. A file left with neither
    /// resident pages nor readahead history loses its entry.
    fn unindex(&mut self, key: PageKey) -> Option<SlotId> {
        let index = self.files.get_mut(&key.file)?;
        let slot = index.unset(key.page)?;
        if index.chunks.is_empty() && index.readahead.is_fresh() {
            self.files.remove(&key.file);
        }
        Some(slot)
    }

    fn evict_to_capacity(&mut self) -> Vec<PageKey> {
        let mut dirty = Vec::new();
        while self.slots.live() as u64 > self.config.capacity_pages {
            let Some(victim) = self.policy.evict(&mut self.slots) else {
                break;
            };
            // The policy tracks exactly the indexed pages: `admit`
            // indexes a page as it hands it over, and every path that
            // unindexes one (this loop, `drop_slot`'s callers,
            // `invalidate_all`) also takes it from the policy.
            let slot = self
                .unindex(victim)
                .expect("the policy evicts resident pages");
            if self.writeback.clear(&mut self.slots, slot) {
                self.stats.evicted_dirty += 1;
                dirty.push(victim);
            } else {
                self.stats.evicted_clean += 1;
            }
            self.slots.release(slot);
        }
        dirty
    }

    /// Drops the resident page in `slot` without evicting it.
    fn drop_slot(&mut self, slot: SlotId) {
        self.policy.remove(&mut self.slots, slot);
        self.writeback.clear(&mut self.slots, slot);
        self.slots.release(slot);
    }

    /// Performs a read of `count` pages of `file` starting at `first`.
    ///
    /// `file_pages` bounds readahead at end of file. The returned outcome
    /// lists demand misses and prefetch pages; both are inserted as
    /// resident (the caller is expected to fetch them from media before
    /// virtual time advances past the access).
    pub fn read(
        &mut self,
        file: FileId,
        first: PageNo,
        count: u64,
        file_pages: u64,
        _now: Nanos,
    ) -> ReadOutcome {
        let mut out = ReadOutcome::default();
        let index = self
            .files
            .entry(file)
            .or_insert_with(|| FileIndex::new(self.config.readahead));
        let policy = self.policy.as_mut();
        for page in first..first + count {
            match index.slot(page) {
                Some(slot) => {
                    self.stats.hits += 1;
                    out.hit_pages += 1;
                    if self.slots.take_prefetched(slot) {
                        self.stats.prefetch_hits += 1;
                    }
                    policy.touch(&mut self.slots, slot);
                }
                None => {
                    self.stats.misses += 1;
                    out.miss_pages.push(page);
                    let key = PageKey::new(file, page);
                    admit(index, &mut self.slots, policy, &mut self.stats, key, false);
                }
            }
        }
        // Readahead beyond the request.
        let window = index.readahead.on_read(first, count);
        let ra_start = first + count;
        let ra_end = (ra_start + window).min(file_pages);
        for page in ra_start..ra_end {
            if index.slot(page).is_none() {
                out.prefetch_pages.push(page);
                let key = PageKey::new(file, page);
                admit(index, &mut self.slots, policy, &mut self.stats, key, true);
            }
        }
        out.writeback_pages = self.evict_to_capacity();
        out
    }

    /// Inserts a single clean page (file-system cluster fetch), returning
    /// any dirty pages evicted to make room.
    pub fn insert_clean(&mut self, file: FileId, page: PageNo) -> Vec<PageKey> {
        let index = self
            .files
            .entry(file)
            .or_insert_with(|| FileIndex::new(self.config.readahead));
        if index.slot(page).is_none() {
            let key = PageKey::new(file, page);
            admit(
                index,
                &mut self.slots,
                self.policy.as_mut(),
                &mut self.stats,
                key,
                false,
            );
        }
        self.evict_to_capacity()
    }

    /// Performs a write of `count` pages of `file` starting at `first`.
    ///
    /// Pages are dirtied in place (no read-modify-write is modelled for
    /// partial pages; the stack issues whole-page writes).
    pub fn write(&mut self, file: FileId, first: PageNo, count: u64, now: Nanos) -> WriteOutcome {
        let index = self
            .files
            .entry(file)
            .or_insert_with(|| FileIndex::new(self.config.readahead));
        let policy = self.policy.as_mut();
        for page in first..first + count {
            let slot = match index.slot(page) {
                Some(slot) => {
                    policy.touch(&mut self.slots, slot);
                    slot
                }
                None => {
                    let key = PageKey::new(file, page);
                    admit(index, &mut self.slots, policy, &mut self.stats, key, false)
                }
            };
            self.writeback.mark_dirty(&mut self.slots, slot, now);
        }
        WriteOutcome {
            writeback_pages: self.evict_to_capacity(),
        }
    }

    /// Collects dirty pages due for background writeback at `now`.
    ///
    /// The pages remain resident (clean) after this call; the caller
    /// performs the media writes.
    pub fn take_writeback_due(&mut self, now: Nanos) -> Vec<PageKey> {
        let due = self
            .writeback
            .take_due(&mut self.slots, now, self.config.capacity_pages);
        self.stats.writeback_flushed += due.len() as u64;
        due
    }

    /// Flushes every dirty page of `file` (fsync), in page order. Pages
    /// stay resident.
    pub fn fsync(&mut self, file: FileId) -> Vec<PageKey> {
        let Some(index) = self.files.get(&file) else {
            return Vec::new();
        };
        let mut flushed = Vec::new();
        for (page, slot) in index.resident() {
            if self.writeback.clear(&mut self.slots, slot) {
                flushed.push(PageKey::new(file, page));
            }
        }
        self.stats.writeback_flushed += flushed.len() as u64;
        flushed
    }

    /// Flushes every dirty page in the cache (sync / unmount).
    pub fn sync_all(&mut self) -> Vec<PageKey> {
        self.writeback.drain_all(&mut self.slots)
    }

    /// Drops one page of `file` (a media read that never delivered its
    /// data — the inserted page must not masquerade as a future hit).
    pub fn invalidate_page(&mut self, file: FileId, page: PageNo) {
        let key = PageKey::new(file, page);
        match self.unindex(key) {
            Some(slot) => self.drop_slot(slot),
            None => self.policy.forget(key),
        }
    }

    /// Drops every page of `file` (unlink / truncate), in page order.
    /// Dirty pages are discarded, as POSIX unlink discards un-synced
    /// data.
    pub fn invalidate_file(&mut self, file: FileId) {
        if let Some(index) = self.files.remove(&file) {
            for (_, slot) in index.resident() {
                self.drop_slot(slot);
            }
        }
    }

    /// Drops every page in the cache (drop_caches), in `(file, page)`
    /// order.
    pub fn invalidate_all(&mut self) {
        let mut files: Vec<(FileId, FileIndex)> = self.files.drain().collect();
        files.sort_unstable_by_key(|&(file, _)| file);
        for (_, index) in &files {
            for (_, slot) in index.resident() {
                self.policy.remove(&mut self.slots, slot);
            }
        }
        self.slots.clear();
        self.writeback.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rb_simcore::rng::Rng;

    fn cache(pages: u64) -> PageCache {
        PageCache::new(CacheConfig {
            capacity_pages: pages,
            policy: PolicyKind::Lru,
            readahead: ReadaheadConfig::disabled(),
            writeback: WritebackConfig::default(),
        })
    }

    #[test]
    fn cold_then_warm() {
        let mut c = cache(100);
        let cold = c.read(1, 0, 4, 1000, Nanos::ZERO);
        assert_eq!(cold.miss_pages, vec![0, 1, 2, 3]);
        assert_eq!(cold.hit_pages, 0);
        let warm = c.read(1, 0, 4, 1000, Nanos::ZERO);
        assert!(warm.all_hit());
        assert_eq!(warm.hit_pages, 4);
        assert!((c.stats().hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn capacity_is_enforced() {
        let mut c = cache(10);
        for p in 0..50 {
            c.read(1, p, 1, 1000, Nanos::ZERO);
            assert!(c.resident_pages() <= 10, "over capacity at page {p}");
        }
        assert_eq!(c.stats().evicted_clean, 40);
    }

    #[test]
    fn lru_steady_state_hit_ratio_matches_theory() {
        // Uniform random over N pages with C-page LRU: hit ratio -> C/N.
        use rb_simcore::rng::Rng;
        let (cap, n) = (200u64, 800u64);
        let mut c = cache(cap);
        let mut rng = Rng::new(99);
        // Warm up.
        for _ in 0..20_000 {
            c.read(1, rng.below(n), 1, n, Nanos::ZERO);
        }
        let before = c.stats();
        for _ in 0..50_000 {
            c.read(1, rng.below(n), 1, n, Nanos::ZERO);
        }
        let after = c.stats();
        let hits = (after.hits - before.hits) as f64;
        let total = hits + (after.misses - before.misses) as f64;
        let ratio = hits / total;
        let expect = cap as f64 / n as f64;
        assert!(
            (ratio - expect).abs() < 0.02,
            "hit ratio {ratio:.3} vs theory {expect:.3}"
        );
    }

    #[test]
    fn readahead_inserts_and_counts_hits() {
        let mut c = PageCache::new(CacheConfig {
            capacity_pages: 100,
            policy: PolicyKind::Lru,
            readahead: ReadaheadConfig::default(),
            writeback: WritebackConfig::default(),
        });
        // Build a sequential stream.
        c.read(1, 0, 2, 1000, Nanos::ZERO);
        let second = c.read(1, 2, 2, 1000, Nanos::ZERO);
        assert_eq!(second.prefetch_pages, vec![4, 5, 6, 7]);
        // The prefetched pages now hit, and accuracy is recorded.
        let third = c.read(1, 4, 2, 1000, Nanos::ZERO);
        assert!(third.all_hit());
        assert_eq!(c.stats().prefetch_hits, 2);
        assert!(c.stats().prefetch_accuracy() > 0.0);
    }

    #[test]
    fn readahead_respects_eof() {
        let mut c = PageCache::new(CacheConfig {
            capacity_pages: 100,
            policy: PolicyKind::Lru,
            readahead: ReadaheadConfig::default(),
            writeback: WritebackConfig::default(),
        });
        c.read(1, 0, 2, 5, Nanos::ZERO);
        let out = c.read(1, 2, 2, 5, Nanos::ZERO);
        // Only page 4 exists past the request.
        assert_eq!(out.prefetch_pages, vec![4]);
    }

    #[test]
    fn writes_dirty_and_fsync_cleans() {
        let mut c = cache(100);
        c.write(3, 0, 4, Nanos::from_secs(1));
        assert_eq!(c.dirty_pages(), 4);
        let flushed = c.fsync(3);
        assert_eq!(flushed.len(), 4);
        assert_eq!(c.dirty_pages(), 0);
        // Pages remain resident after fsync.
        assert!(c.is_resident(3, 0));
        // Second fsync flushes nothing.
        assert!(c.fsync(3).is_empty());
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = cache(4);
        c.write(1, 0, 4, Nanos::ZERO);
        // Reading 4 new pages evicts the dirty ones.
        let out = c.read(1, 100, 4, 1000, Nanos::ZERO);
        assert_eq!(out.writeback_pages.len(), 4);
        assert_eq!(c.stats().evicted_dirty, 4);
        assert_eq!(c.dirty_pages(), 0);
    }

    #[test]
    fn invalidate_file_is_selective() {
        let mut c = cache(100);
        c.read(1, 0, 4, 1000, Nanos::ZERO);
        c.read(2, 0, 4, 1000, Nanos::ZERO);
        c.write(1, 10, 1, Nanos::ZERO);
        c.invalidate_file(1);
        assert!(!c.is_resident(1, 0));
        assert!(c.is_resident(2, 0));
        assert_eq!(c.dirty_pages(), 0);
        assert_eq!(c.resident_pages(), 4);
    }

    #[test]
    fn shrink_capacity_evicts() {
        let mut c = cache(100);
        for p in 0..50 {
            c.write(1, p, 1, Nanos::ZERO);
        }
        let dirty = c.set_capacity_pages(20);
        assert_eq!(c.resident_pages(), 20);
        assert_eq!(dirty.len(), 30, "all evicted pages were dirty");
    }

    #[test]
    fn background_writeback_under_pressure() {
        let mut c = PageCache::new(CacheConfig {
            capacity_pages: 100,
            policy: PolicyKind::Lru,
            readahead: ReadaheadConfig::disabled(),
            writeback: WritebackConfig {
                dirty_ratio: 0.1,
                ..Default::default()
            },
        });
        for p in 0..30 {
            c.write(1, p, 1, Nanos::from_secs(1));
        }
        // 30 dirty > 10 % of 100: flusher kicks in.
        let due = c.take_writeback_due(Nanos::from_secs(2));
        assert!(!due.is_empty());
        assert!(c.dirty_pages() < 30);
    }

    #[test]
    fn invalidate_all_resets() {
        let mut c = cache(100);
        c.read(1, 0, 10, 1000, Nanos::ZERO);
        c.write(2, 0, 5, Nanos::ZERO);
        c.invalidate_all();
        assert_eq!(c.resident_pages(), 0);
        assert_eq!(c.dirty_pages(), 0);
    }

    #[test]
    fn invalidation_runs_in_page_order_under_clock() {
        // CLOCK's ring compacts partway through a batch of removals and
        // re-aims its hand, so the order pages leave in decides the
        // next victim.
        let mut c = PageCache::new(CacheConfig {
            capacity_pages: 100,
            policy: PolicyKind::Clock,
            readahead: ReadaheadConfig::disabled(),
            writeback: WritebackConfig::default(),
        });
        let (x, y) = (PageKey::new(2, 0), PageKey::new(2, 1));
        // Ring: x, 1:0, 1:1, 3:0, 3:1, 1:2, y.
        c.write(x.file, x.page, 1, Nanos::ZERO);
        for (file, page) in [(1, 0), (1, 1), (3, 0), (3, 1), (1, 2)] {
            c.insert_clean(file, page);
        }
        c.write(y.file, y.page, 1, Nanos::ZERO);
        // The hand passes x, 1:0 and 1:1 (clearing their reference
        // bits), takes file 3's pages and stops on 1:2.
        for (file, page) in [(2, 0), (1, 0), (1, 1)] {
            assert!(c.read(file, page, 1, 100, Nanos::ZERO).all_hit());
        }
        assert!(c.set_capacity_pages(5).is_empty());
        assert!(!c.is_resident(3, 0) && !c.is_resident(3, 1));
        // Removing 1:0 and 1:1 compacts the ring with the hand still on
        // 1:2, so the next sweep resumes past it and takes y. Removing
        // 1:2 first would re-aim the hand at the ring's start, at x.
        c.invalidate_file(1);
        assert_eq!(c.set_capacity_pages(1), vec![y]);
        assert!(c.is_resident(x.file, x.page));
    }

    #[test]
    fn works_with_every_policy() {
        for kind in PolicyKind::ALL {
            let mut c = PageCache::new(CacheConfig {
                capacity_pages: 16,
                policy: kind,
                readahead: ReadaheadConfig::disabled(),
                writeback: WritebackConfig::default(),
            });
            use rb_simcore::rng::Rng;
            let mut rng = Rng::new(5);
            for _ in 0..2000 {
                c.read(1, rng.below(64), 2, 64, Nanos::ZERO);
                assert!(
                    c.resident_pages() <= 16,
                    "{} overflowed capacity",
                    kind.name()
                );
            }
            assert!(c.stats().hit_ratio() > 0.05, "{} never hits", kind.name());
        }
    }

    /// A page in one of the two regions histories touch: the first
    /// ~five chunks of a file, or a stretch far out (a sparse chunk).
    fn any_page(rng: &mut Rng) -> PageNo {
        if rng.below(8) == 0 {
            FAR + rng.below(64)
        } else {
            rng.below(300)
        }
    }

    const FAR: PageNo = 1 << 40;
    const FILES: [FileId; 4] = [1, 2, 7, u64::MAX];

    /// Counts of what the oracle histories exercised, to check they
    /// reach every path they are meant to.
    #[derive(Debug, Default)]
    struct Coverage {
        ops: [u64; 11],
        dirty_evictions: u64,
        prefetch_hits: u64,
        flushed: u64,
        multi_page_invalidations: u64,
    }

    /// One seeded history against the new cache and the oracle: every
    /// public op under policy `case % 4`, comparing every return value,
    /// the stats and the counts after each op. CLOCK histories skip
    /// invalidations that would drop more than one page, since the new
    /// cache drops pages in `(file, page)` order and the oracle in hash
    /// order, and CLOCK depends on that order.
    fn oracle_case(case: u64, cov: &mut Coverage) {
        use crate::oracle;
        let mut rng = Rng::new(0x0AC1E ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let kind = PolicyKind::ALL[(case % 4) as usize];
        let config = CacheConfig {
            capacity_pages: 4 + rng.below(120),
            policy: kind,
            readahead: if rng.below(3) == 0 {
                ReadaheadConfig::disabled()
            } else {
                ReadaheadConfig {
                    initial_window: 1 + rng.below(4),
                    max_window: 4 + rng.below(40),
                    enabled: true,
                }
            },
            writeback: WritebackConfig {
                dirty_ratio: [0.0, 0.05, 0.2, 0.5][rng.below(4) as usize],
                max_age: Nanos::from_millis(rng.below(20_000)),
                batch: 1 + rng.below(16) as usize,
            },
        };
        let mut new = PageCache::new(config.clone());
        let mut old = oracle::PageCache::new(config);
        let mut now = Nanos::ZERO;
        let mut next = [0u64; FILES.len()];
        let steps = 200 + rng.below(200);
        for step in 0..steps {
            let ctx = || format!("case {case} ({}) step {step}", kind.name());
            // A quarter of the ops share the previous op's instant.
            if rng.below(4) != 0 {
                now += Nanos::from_millis(rng.below(500));
            }
            let f = rng.below(FILES.len() as u64) as usize;
            let file = FILES[f];
            let file_pages = if file == u64::MAX { u64::MAX } else { 320 };
            let op = match rng.below(100) {
                0..=39 => 0,
                40..=44 => 1,
                45..=64 => 2,
                65..=71 => 3,
                72..=75 => 4,
                76 => 5,
                77..=83 => 6,
                84..=86 => 7,
                87 => 8,
                88..=89 => 9,
                _ => 10,
            };
            cov.ops[op] += 1;
            match op {
                0 => {
                    // Half the reads continue the file's last one, so
                    // readahead windows open.
                    let first = if rng.below(2) == 0 {
                        next[f]
                    } else {
                        any_page(&mut rng)
                    };
                    let count = 1 + rng.below(8);
                    next[f] = first + count;
                    let got = new.read(file, first, count, file_pages, now);
                    let want = old.read(file, first, count, file_pages, now);
                    assert_eq!(got, want, "{}: read", ctx());
                }
                1 => {
                    let page = any_page(&mut rng);
                    let got = new.insert_clean(file, page);
                    assert_eq!(got, old.insert_clean(file, page), "{}: insert_clean", ctx());
                }
                2 => {
                    let (first, count) = (any_page(&mut rng), 1 + rng.below(4));
                    let got = new.write(file, first, count, now);
                    assert_eq!(got, old.write(file, first, count, now), "{}: write", ctx());
                }
                3 => {
                    let got = new.take_writeback_due(now);
                    let want = old.take_writeback_due(now);
                    assert_eq!(got, want, "{}: take_writeback_due", ctx());
                }
                4 => assert_eq!(new.fsync(file), old.fsync(file), "{}: fsync", ctx()),
                5 => assert_eq!(new.sync_all(), old.sync_all(), "{}: sync_all", ctx()),
                6 => {
                    let page = any_page(&mut rng);
                    new.invalidate_page(file, page);
                    old.invalidate_page(file, page);
                }
                7 => {
                    let pages = new.files.get(&file).map_or(0, |i| i.resident().count());
                    if kind == PolicyKind::Clock && pages > 1 {
                        continue;
                    }
                    cov.multi_page_invalidations += u64::from(pages > 1);
                    new.invalidate_file(file);
                    old.invalidate_file(file);
                    next[f] = 0;
                }
                8 => {
                    if kind == PolicyKind::Clock && new.resident_pages() > 1 {
                        continue;
                    }
                    cov.multi_page_invalidations += u64::from(new.resident_pages() > 1);
                    new.invalidate_all();
                    old.invalidate_all();
                    next = [0; FILES.len()];
                }
                9 => {
                    let pages = 2 + rng.below(120);
                    let got = new.set_capacity_pages(pages);
                    assert_eq!(
                        got,
                        old.set_capacity_pages(pages),
                        "{}: set_capacity",
                        ctx()
                    );
                }
                _ => {
                    let page = any_page(&mut rng);
                    let got = new.is_resident(file, page);
                    assert_eq!(got, old.is_resident(file, page), "{}: is_resident", ctx());
                }
            }
            assert_eq!(new.stats(), old.stats(), "{}: stats", ctx());
            assert_eq!(new.resident_pages(), old.resident_pages(), "{}", ctx());
            assert_eq!(new.dirty_pages(), old.dirty_pages(), "{}", ctx());
            assert_eq!(new.capacity_pages(), old.capacity_pages(), "{}", ctx());
            assert_eq!(new.policy_name(), old.policy_name(), "{}", ctx());
        }
        let stats = new.stats();
        cov.dirty_evictions += stats.evicted_dirty;
        cov.prefetch_hits += stats.prefetch_hits;
        cov.flushed += stats.writeback_flushed;
    }

    /// The slot-and-index cache matches the cache it replaced (kept in
    /// `crate::oracle`) on a fixed budget of seeded histories. A failure
    /// names the case and step to replay.
    #[test]
    fn matches_the_oracle_on_seeded_histories() {
        let mut cov = Coverage::default();
        for case in 0..300 {
            oracle_case(case, &mut cov);
        }
        assert!(cov.ops.iter().all(|&n| n > 0), "an op never ran: {cov:?}");
        assert!(cov.dirty_evictions > 0 && cov.prefetch_hits > 0 && cov.flushed > 0);
        assert!(cov.multi_page_invalidations > 0, "{cov:?}");
    }
}
