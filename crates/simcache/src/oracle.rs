//! The page cache and policies this crate had before its slot slab
//! and per-file index, kept verbatim as the oracle the new cache must
//! match return value for return value (see `cache::tests`).
//!
//! Differences from the original text: `PolicyKind::build` is the free
//! function [`build`], and the shared types (`CacheConfig`,
//! `ReadOutcome`, `WriteOutcome`, `Readahead`, `OrderedSet`) come from
//! the crate, where they behave as they did.

#![allow(dead_code)]

use crate::cache::{CacheConfig, ReadOutcome, WriteOutcome};
use crate::olist::OrderedSet;
use crate::page::{CacheStats, FileId, PageKey};
use crate::policy::PolicyKind;
use crate::readahead::Readahead;
use crate::writeback::WritebackConfig;
use rb_simcore::fnv::FnvHashMap;
use rb_simcore::time::Nanos;
use rb_simcore::units::PageNo;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The original `PolicyKind::build`.
pub fn build(kind: PolicyKind, capacity_pages: u64) -> Box<dyn EvictionPolicy> {
    match kind {
        PolicyKind::Lru => Box::new(Lru::new()),
        PolicyKind::Clock => Box::new(Clock::new()),
        PolicyKind::TwoQ => Box::new(TwoQ::new(capacity_pages)),
        PolicyKind::Arc => Box::new(ArcPolicy::new(capacity_pages)),
    }
}

/// A page replacement policy.
///
/// The policy tracks page identities only; residency bookkeeping (which
/// pages exist, dirty state) lives in the cache itself. Implementations
/// must uphold two invariants, checked by the shared conformance tests:
///
/// 1. `evict` returns a page previously inserted and not yet evicted or
///    removed (no phantom evictions).
/// 2. After `insert(k)`, `contains(k)` holds until `k` is evicted or
///    removed.
pub trait EvictionPolicy: std::fmt::Debug {
    /// Notes that `key` was inserted (it was not resident).
    fn insert(&mut self, key: PageKey);

    /// Notes that a resident `key` was accessed.
    fn touch(&mut self, key: PageKey);

    /// Chooses a victim and removes it from the policy's tracking.
    ///
    /// Returns `None` when no page is tracked.
    fn evict(&mut self) -> Option<PageKey>;

    /// Removes `key` without treating it as an eviction (invalidation).
    fn remove(&mut self, key: PageKey);

    /// Returns true if the policy currently tracks `key`.
    fn contains(&self, key: PageKey) -> bool;

    /// Number of tracked pages.
    fn len(&self) -> usize;

    /// Returns true if no pages are tracked.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Policy name for reports.
    fn name(&self) -> &'static str;
}

#[derive(Debug, Clone, Copy, Default)]
struct Meta {
    prefetched: bool,
}

/// The simulated page cache.
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
    // Residency and readahead sit on the per-page hot path: FNV-keyed
    // maps (see `rb_simcore::fnv`) — a 16-byte key hash per probe
    // instead of SipHash.
    resident: FnvHashMap<PageKey, Meta>,
    // Per-file page index so fsync and invalidate_file touch only the
    // file's own pages instead of scanning the whole resident map
    // (fsync/unlink-heavy workloads spent most of their time in that
    // scan). Sets are unordered; every consumer either sorts
    // (`fsync`) or is order-insensitive (`invalidate_file`).
    by_file: FnvHashMap<FileId, rb_simcore::fnv::FnvHashSet<PageNo>>,
    readahead: FnvHashMap<FileId, Readahead>,
    writeback: Writeback,
    stats: CacheStats,
}

impl PageCache {
    /// Creates an empty cache.
    pub fn new(config: CacheConfig) -> Self {
        let policy = build(config.policy, config.capacity_pages);
        let writeback = Writeback::new(config.writeback);
        PageCache {
            config,
            policy,
            resident: FnvHashMap::default(),
            by_file: FnvHashMap::default(),
            readahead: FnvHashMap::default(),
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
        self.resident.len() as u64
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
        self.resident.contains_key(&PageKey::new(file, page))
    }

    /// Resizes the cache (models OS memory pressure / per-run jitter).
    ///
    /// Returns dirty pages evicted by a shrink; the caller must write
    /// them back.
    pub fn set_capacity_pages(&mut self, pages: u64) -> Vec<PageKey> {
        self.config.capacity_pages = pages;
        self.evict_to_capacity()
    }

    /// Drops a page from the residency maps (not the policy).
    fn forget_page(&mut self, key: PageKey) {
        self.resident.remove(&key);
        if let Some(pages) = self.by_file.get_mut(&key.file) {
            pages.remove(&key.page);
            if pages.is_empty() {
                self.by_file.remove(&key.file);
            }
        }
    }

    fn evict_to_capacity(&mut self) -> Vec<PageKey> {
        let mut dirty = Vec::new();
        while self.resident.len() as u64 > self.config.capacity_pages {
            match self.policy.evict() {
                Some(victim) => {
                    self.forget_page(victim);
                    // One probe: clearing reports whether it was dirty.
                    if self.writeback.take(victim) {
                        self.stats.evicted_dirty += 1;
                        dirty.push(victim);
                    } else {
                        self.stats.evicted_clean += 1;
                    }
                }
                None => break,
            }
        }
        dirty
    }

    fn insert_page(&mut self, key: PageKey, prefetched: bool) {
        if self.resident.contains_key(&key) {
            return;
        }
        self.insert_page_absent(key, prefetched);
    }

    /// [`PageCache::insert_page`] when the caller has already proven the
    /// page is not resident (saves the duplicate residency probe on the
    /// miss-insert hot path).
    fn insert_page_absent(&mut self, key: PageKey, prefetched: bool) {
        debug_assert!(!self.resident.contains_key(&key));
        self.resident.insert(key, Meta { prefetched });
        self.by_file.entry(key.file).or_default().insert(key.page);
        self.policy.insert(key);
        self.stats.insertions += 1;
        if prefetched {
            self.stats.prefetched += 1;
        }
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
        for page in first..first + count {
            let key = PageKey::new(file, page);
            if let Some(meta) = self.resident.get_mut(&key) {
                self.stats.hits += 1;
                out.hit_pages += 1;
                if meta.prefetched {
                    meta.prefetched = false;
                    self.stats.prefetch_hits += 1;
                }
                self.policy.touch(key);
            } else {
                self.stats.misses += 1;
                out.miss_pages.push(page);
                self.insert_page_absent(key, false);
            }
        }
        // Readahead beyond the request.
        let window = self
            .readahead
            .entry(file)
            .or_insert_with(|| Readahead::new(self.config.readahead))
            .on_read(first, count);
        let ra_start = first + count;
        let ra_end = (ra_start + window).min(file_pages);
        for page in ra_start..ra_end {
            let key = PageKey::new(file, page);
            if !self.resident.contains_key(&key) {
                out.prefetch_pages.push(page);
                self.insert_page_absent(key, true);
            }
        }
        out.writeback_pages = self.evict_to_capacity();
        out
    }

    /// Inserts a single clean page (file-system cluster fetch), returning
    /// any dirty pages evicted to make room.
    pub fn insert_clean(&mut self, file: FileId, page: PageNo) -> Vec<PageKey> {
        self.insert_page(PageKey::new(file, page), false);
        self.evict_to_capacity()
    }

    /// Performs a write of `count` pages of `file` starting at `first`.
    ///
    /// Pages are dirtied in place (no read-modify-write is modelled for
    /// partial pages; the stack issues whole-page writes).
    pub fn write(&mut self, file: FileId, first: PageNo, count: u64, now: Nanos) -> WriteOutcome {
        for page in first..first + count {
            let key = PageKey::new(file, page);
            if self.resident.contains_key(&key) {
                self.policy.touch(key);
            } else {
                self.insert_page_absent(key, false);
            }
            self.writeback.mark_dirty(key, now);
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
        let due = self.writeback.take_due(now, self.config.capacity_pages);
        self.stats.writeback_flushed += due.len() as u64;
        due
    }

    /// Flushes every dirty page of `file` (fsync). Pages stay resident.
    pub fn fsync(&mut self, file: FileId) -> Vec<PageKey> {
        let mine: Vec<PageKey> = match self.by_file.get(&file) {
            Some(pages) => pages
                .iter()
                .map(|&p| PageKey::new(file, p))
                .filter(|k| self.writeback.is_dirty(*k))
                .collect(),
            None => Vec::new(),
        };
        for k in &mine {
            self.writeback.clear(*k);
        }
        self.stats.writeback_flushed += mine.len() as u64;
        let mut sorted = mine;
        sorted.sort_unstable();
        sorted
    }

    /// Flushes every dirty page in the cache (sync / unmount).
    pub fn sync_all(&mut self) -> Vec<PageKey> {
        self.writeback.drain_all()
    }

    /// Drops one page of `file` (a media read that never delivered its
    /// data — the inserted page must not masquerade as a future hit).
    pub fn invalidate_page(&mut self, file: FileId, page: PageNo) {
        let k = PageKey::new(file, page);
        self.forget_page(k);
        self.policy.remove(k);
        self.writeback.clear(k);
    }

    /// Drops every page of `file` (unlink / truncate). Dirty pages are
    /// discarded, as POSIX unlink discards un-synced data.
    pub fn invalidate_file(&mut self, file: FileId) {
        if let Some(pages) = self.by_file.remove(&file) {
            for p in pages {
                let k = PageKey::new(file, p);
                self.resident.remove(&k);
                self.policy.remove(k);
                self.writeback.clear(k);
            }
        }
        self.readahead.remove(&file);
    }

    /// Drops every page in the cache (drop_caches).
    pub fn invalidate_all(&mut self) {
        let keys: Vec<PageKey> = self.resident.keys().copied().collect();
        for k in keys {
            self.resident.remove(&k);
            self.policy.remove(k);
            self.writeback.clear(k);
        }
        self.by_file.clear();
        self.readahead.clear();
    }
}

/// Sentinel for "no slot".
const NIL: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Node {
    key: PageKey,
    prev: u32,
    next: u32,
}

/// Exact LRU as an intrusive doubly-linked list over a slab.
///
/// Every operation — insert, touch, evict, remove — is O(1): one FNV
/// map probe plus pointer surgery. This replaced a stamp + ordered-map
/// implementation whose per-touch tree rebalancing dominated the cache
/// hot path; the recency order (and therefore every eviction decision)
/// is identical.
#[derive(Debug)]
pub struct Lru {
    slots: Vec<Node>,
    free: Vec<u32>,
    index: FnvHashMap<PageKey, u32>,
    /// Least recently used end (eviction side); `NIL` when empty.
    head: u32,
    /// Most recently used end.
    tail: u32,
}

impl Default for Lru {
    fn default() -> Self {
        Self::new()
    }
}

impl Lru {
    /// Creates an empty LRU tracker.
    pub fn new() -> Self {
        Lru {
            slots: Vec::new(),
            free: Vec::new(),
            index: FnvHashMap::default(),
            head: NIL,
            tail: NIL,
        }
    }

    /// Unlinks a slot from the list (leaves it allocated).
    fn unlink(&mut self, i: u32) {
        let Node { prev, next, .. } = self.slots[i as usize];
        match prev {
            NIL => self.head = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n as usize].prev = prev,
        }
    }

    /// Links a slot at the MRU end.
    fn push_tail(&mut self, i: u32) {
        self.slots[i as usize].prev = self.tail;
        self.slots[i as usize].next = NIL;
        match self.tail {
            NIL => self.head = i,
            t => self.slots[t as usize].next = i,
        }
        self.tail = i;
    }

    fn bump(&mut self, key: PageKey) {
        use std::collections::hash_map::Entry;
        // Single index probe for both the refresh and the insert case.
        let slots = &mut self.slots;
        let free = &mut self.free;
        let (i, refresh) = match self.index.entry(key) {
            Entry::Occupied(e) => (*e.get(), true),
            Entry::Vacant(e) => {
                let i = match free.pop() {
                    Some(i) => {
                        slots[i as usize].key = key;
                        i
                    }
                    None => {
                        slots.push(Node {
                            key,
                            prev: NIL,
                            next: NIL,
                        });
                        (slots.len() - 1) as u32
                    }
                };
                e.insert(i);
                (i, false)
            }
        };
        if refresh {
            self.unlink(i);
        }
        self.push_tail(i);
    }
}

impl EvictionPolicy for Lru {
    fn insert(&mut self, key: PageKey) {
        self.bump(key);
    }

    fn touch(&mut self, key: PageKey) {
        // Single index probe: a hit moves the slot to the MRU end, a
        // miss is a no-op (never inserts, unlike `bump`).
        if let Some(&i) = self.index.get(&key) {
            self.unlink(i);
            self.push_tail(i);
        }
    }

    fn evict(&mut self) -> Option<PageKey> {
        let i = self.head;
        if i == NIL {
            return None;
        }
        let key = self.slots[i as usize].key;
        self.unlink(i);
        self.index.remove(&key);
        self.free.push(i);
        Some(key)
    }

    fn remove(&mut self, key: PageKey) {
        if let Some(i) = self.index.remove(&key) {
            self.unlink(i);
            self.free.push(i);
        }
    }

    fn contains(&self, key: PageKey) -> bool {
        self.index.contains_key(&key)
    }

    fn len(&self) -> usize {
        self.index.len()
    }

    fn name(&self) -> &'static str {
        "lru"
    }
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    key: PageKey,
    referenced: bool,
    live: bool,
}

/// CLOCK replacement over a growable ring.
///
/// Dead slots (from `remove`) are skipped by the hand and compacted when
/// they exceed half the ring, keeping amortized costs O(1).
#[derive(Debug, Default)]
pub struct Clock {
    ring: Vec<Slot>,
    index: FnvHashMap<PageKey, usize>,
    hand: usize,
    dead: usize,
}

impl Clock {
    /// Creates an empty CLOCK tracker.
    pub fn new() -> Self {
        Clock::default()
    }

    fn compact(&mut self) {
        if self.dead * 2 <= self.ring.len() || self.ring.is_empty() {
            return;
        }
        let hand_key = self.ring.get(self.hand).map(|s| s.key);
        let live: Vec<Slot> = self.ring.iter().copied().filter(|s| s.live).collect();
        self.ring = live;
        self.dead = 0;
        self.index.clear();
        for (i, s) in self.ring.iter().enumerate() {
            self.index.insert(s.key, i);
        }
        // Re-aim the hand near where it was.
        self.hand = hand_key
            .and_then(|k| self.index.get(&k).copied())
            .unwrap_or(0);
        if self.ring.is_empty() {
            self.hand = 0;
        }
    }
}

impl EvictionPolicy for Clock {
    fn insert(&mut self, key: PageKey) {
        if let Some(&i) = self.index.get(&key) {
            self.ring[i].referenced = true;
            return;
        }
        self.index.insert(key, self.ring.len());
        self.ring.push(Slot {
            key,
            referenced: false,
            live: true,
        });
    }

    fn touch(&mut self, key: PageKey) {
        if let Some(&i) = self.index.get(&key) {
            self.ring[i].referenced = true;
        }
    }

    fn evict(&mut self) -> Option<PageKey> {
        if self.index.is_empty() {
            return None;
        }
        loop {
            if self.ring.is_empty() {
                return None;
            }
            let i = self.hand % self.ring.len();
            self.hand = (i + 1) % self.ring.len();
            let slot = &mut self.ring[i];
            if !slot.live {
                continue;
            }
            if slot.referenced {
                slot.referenced = false;
            } else {
                slot.live = false;
                self.dead += 1;
                let key = slot.key;
                self.index.remove(&key);
                self.compact();
                return Some(key);
            }
        }
    }

    fn remove(&mut self, key: PageKey) {
        if let Some(i) = self.index.remove(&key) {
            self.ring[i].live = false;
            self.dead += 1;
            self.compact();
        }
    }

    fn contains(&self, key: PageKey) -> bool {
        self.index.contains_key(&key)
    }

    fn len(&self) -> usize {
        self.index.len()
    }

    fn name(&self) -> &'static str {
        "clock"
    }
}

/// The 2Q policy.
#[derive(Debug)]
pub struct TwoQ {
    a1in: OrderedSet,
    a1out: OrderedSet,
    am: OrderedSet,
    /// Probation queue target size (Kin), in pages.
    kin: u64,
    /// Ghost queue size bound (Kout), in pages.
    kout: u64,
}

impl TwoQ {
    /// Creates a 2Q policy tuned for a cache of `capacity_pages`, using
    /// the authors' recommended Kin = 25 % and Kout = 50 % of capacity.
    pub fn new(capacity_pages: u64) -> Self {
        let capacity = capacity_pages.max(4);
        TwoQ {
            a1in: OrderedSet::new(),
            a1out: OrderedSet::new(),
            am: OrderedSet::new(),
            kin: (capacity / 4).max(1),
            kout: (capacity / 2).max(1),
        }
    }

    fn trim_ghost(&mut self) {
        while self.a1out.len() as u64 > self.kout {
            self.a1out.pop_front();
        }
    }

    /// Number of pages in the probation queue (test visibility).
    pub fn probation_len(&self) -> usize {
        self.a1in.len()
    }

    /// Number of pages in the protected queue (test visibility).
    pub fn protected_len(&self) -> usize {
        self.am.len()
    }
}

impl EvictionPolicy for TwoQ {
    fn insert(&mut self, key: PageKey) {
        if self.am.contains(key) {
            self.am.push_back(key);
        } else if self.a1in.contains(key) {
            // Still on probation; FIFO order unchanged.
        } else if self.a1out.remove(key) {
            // Re-reference after probation: promote.
            self.am.push_back(key);
        } else {
            self.a1in.push_back(key);
        }
    }

    fn touch(&mut self, key: PageKey) {
        if self.am.contains(key) {
            self.am.push_back(key);
        }
        // Hits in A1in deliberately do not reorder (2Q rule).
    }

    fn evict(&mut self) -> Option<PageKey> {
        let victim = if self.a1in.len() as u64 > self.kin || self.am.is_empty() {
            let v = self.a1in.pop_front();
            if let Some(k) = v {
                self.a1out.push_back(k);
                self.trim_ghost();
            }
            v
        } else {
            self.am.pop_front()
        };
        victim.or_else(|| self.a1in.pop_front())
    }

    fn remove(&mut self, key: PageKey) {
        let _ = self.a1in.remove(key) || self.am.remove(key);
        self.a1out.remove(key);
    }

    fn contains(&self, key: PageKey) -> bool {
        self.a1in.contains(key) || self.am.contains(key)
    }

    fn len(&self) -> usize {
        self.a1in.len() + self.am.len()
    }

    fn name(&self) -> &'static str {
        "2q"
    }
}

/// The ARC policy.
///
/// Named `ArcPolicy` to avoid colliding with [`std::sync::Arc`] in user
/// imports.
#[derive(Debug)]
pub struct ArcPolicy {
    t1: OrderedSet,
    t2: OrderedSet,
    b1: OrderedSet,
    b2: OrderedSet,
    /// Cache capacity `c` the ghosts are scaled to.
    capacity: u64,
    /// Adaptive target for |T1|.
    p: u64,
}

impl ArcPolicy {
    /// Creates an ARC policy for a cache of `capacity_pages`.
    pub fn new(capacity_pages: u64) -> Self {
        ArcPolicy {
            t1: OrderedSet::new(),
            t2: OrderedSet::new(),
            b1: OrderedSet::new(),
            b2: OrderedSet::new(),
            capacity: capacity_pages.max(2),
            p: 0,
        }
    }

    /// Current adaptation target for the recency list (test visibility).
    pub fn target_p(&self) -> u64 {
        self.p
    }

    /// Sizes of (T1, T2, B1, B2) for diagnostics.
    pub fn list_sizes(&self) -> (usize, usize, usize, usize) {
        (self.t1.len(), self.t2.len(), self.b1.len(), self.b2.len())
    }

    fn trim_ghosts(&mut self) {
        // |T1| + |B1| <= c and total directory <= 2c.
        while self.t1.len() + self.b1.len() > self.capacity as usize {
            if self.b1.pop_front().is_none() {
                break;
            }
        }
        while self.t1.len() + self.t2.len() + self.b1.len() + self.b2.len()
            > 2 * self.capacity as usize
        {
            if self.b2.pop_front().is_none() {
                break;
            }
        }
    }
}

impl EvictionPolicy for ArcPolicy {
    fn insert(&mut self, key: PageKey) {
        if self.t1.contains(key) || self.t2.contains(key) {
            // Treat as a hit.
            self.touch(key);
            return;
        }
        if self.b1.remove(key) {
            // Ghost hit in B1: favour recency.
            let delta = (self.b2.len().max(1) / self.b1.len().max(1)).max(1) as u64;
            self.p = (self.p + delta).min(self.capacity);
            self.t2.push_back(key);
        } else if self.b2.remove(key) {
            // Ghost hit in B2: favour frequency.
            let delta = (self.b1.len().max(1) / self.b2.len().max(1)).max(1) as u64;
            self.p = self.p.saturating_sub(delta);
            self.t2.push_back(key);
        } else {
            self.t1.push_back(key);
        }
        self.trim_ghosts();
    }

    fn touch(&mut self, key: PageKey) {
        if self.t1.remove(key) || self.t2.contains(key) {
            self.t2.push_back(key);
        }
    }

    fn evict(&mut self) -> Option<PageKey> {
        // REPLACE: evict from T1 if it exceeds the target, else from T2.
        let from_t1 =
            !self.t1.is_empty() && (self.t1.len() as u64 > self.p.max(1) || self.t2.is_empty());
        let victim = if from_t1 {
            let v = self.t1.pop_front();
            if let Some(k) = v {
                self.b1.push_back(k);
            }
            v
        } else {
            let v = self.t2.pop_front();
            if let Some(k) = v {
                self.b2.push_back(k);
            }
            v
        };
        let victim = victim
            .or_else(|| self.t1.pop_front())
            .or_else(|| self.t2.pop_front());
        self.trim_ghosts();
        victim
    }

    fn remove(&mut self, key: PageKey) {
        let _ = self.t1.remove(key) || self.t2.remove(key);
        self.b1.remove(key);
        self.b2.remove(key);
    }

    fn contains(&self, key: PageKey) -> bool {
        self.t1.contains(key) || self.t2.contains(key)
    }

    fn len(&self) -> usize {
        self.t1.len() + self.t2.len()
    }

    fn name(&self) -> &'static str {
        "arc"
    }
}

/// Tracks dirty pages and decides what to flush when.
#[derive(Debug, Clone)]
pub struct Writeback {
    config: WritebackConfig,
    /// Dirty pages ordered by the instant they were first dirtied: a
    /// min-heap with lazy deletion. `age_of` is the ground truth; a
    /// heap entry whose `(instant, key)` no longer matches `age_of` is
    /// stale (cleared or re-dirtied) and skipped on pop. Flush order is
    /// identical to an ordered-map walk — ascending `(instant, key)` —
    /// without paying a tree rebalance on every `mark_dirty`/`clear`.
    by_age: BinaryHeap<Reverse<(Nanos, PageKey)>>,
    /// Dirty-state probe map (`is_dirty` runs on every eviction).
    age_of: FnvHashMap<PageKey, Nanos>,
}

impl Writeback {
    /// Creates an empty tracker.
    pub fn new(config: WritebackConfig) -> Self {
        Writeback {
            config,
            by_age: BinaryHeap::new(),
            age_of: Default::default(),
        }
    }

    /// Drops stale heap entries once they outnumber the live ones, so
    /// the heap stays proportional to the dirty set.
    fn maybe_compact(&mut self) {
        if self.by_age.len() > 2 * self.age_of.len() + 64 {
            self.by_age = self.age_of.iter().map(|(&k, &t)| Reverse((t, k))).collect();
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &WritebackConfig {
        &self.config
    }

    /// Number of dirty pages.
    pub fn dirty_count(&self) -> usize {
        self.age_of.len()
    }

    /// Returns true if `key` is dirty.
    pub fn is_dirty(&self, key: PageKey) -> bool {
        self.age_of.contains_key(&key)
    }

    /// Marks a page dirty at `now` (keeps the original dirty time on
    /// repeated writes, as Linux does for expiry purposes).
    pub fn mark_dirty(&mut self, key: PageKey, now: Nanos) {
        if let std::collections::hash_map::Entry::Vacant(e) = self.age_of.entry(key) {
            e.insert(now);
            self.by_age.push(Reverse((now, key)));
        }
    }

    /// Clears the dirty state (page written back or invalidated). The
    /// heap entry is left behind and skipped lazily.
    pub fn clear(&mut self, key: PageKey) {
        self.age_of.remove(&key);
    }

    /// [`Writeback::clear`] that reports whether the page was dirty, so
    /// eviction decides dirty-vs-clean with a single probe.
    pub fn take(&mut self, key: PageKey) -> bool {
        self.age_of.remove(&key).is_some()
    }

    /// Returns true if dirty pressure exceeds the ratio for a cache of
    /// `capacity_pages`.
    pub fn over_ratio(&self, capacity_pages: u64) -> bool {
        self.dirty_count() as f64 > self.config.dirty_ratio * capacity_pages.max(1) as f64
    }

    /// Collects up to one batch of pages due for writeback at `now`:
    /// expired pages always, plus oldest-first overflow while over the
    /// dirty ratio. Returned pages are cleared from the tracker (the
    /// caller performs the media writes).
    pub fn take_due(&mut self, now: Nanos, capacity_pages: u64) -> Vec<PageKey> {
        let mut out = Vec::new();
        while out.len() < self.config.batch {
            let Some(&Reverse((dirtied, key))) = self.by_age.peek() else {
                break;
            };
            // Stale entry: the page was cleared (or re-dirtied at a
            // different instant) after this entry was pushed.
            if self.age_of.get(&key) != Some(&dirtied) {
                self.by_age.pop();
                continue;
            }
            let expired = now.saturating_sub(dirtied) >= self.config.max_age;
            let pressured = self.over_ratio(capacity_pages);
            if !(expired || pressured) {
                break;
            }
            self.by_age.pop();
            self.age_of.remove(&key);
            out.push(key);
        }
        self.maybe_compact();
        out
    }

    /// Drains every dirty page oldest-first (fsync / unmount semantics).
    pub fn drain_all(&mut self) -> Vec<PageKey> {
        let mut live: Vec<(Nanos, PageKey)> = self.age_of.iter().map(|(&k, &t)| (t, k)).collect();
        live.sort_unstable();
        self.by_age.clear();
        self.age_of.clear();
        live.into_iter().map(|(_, k)| k).collect()
    }
}
