//! Page identity, the slab of resident pages, and cache statistics.

use rb_simcore::time::Nanos;
use rb_simcore::units::PageNo;

/// Identifier of a cached object (file or metadata stream).
pub type FileId = u64;

/// A page's identity: which file, which page-sized chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageKey {
    /// Owning file.
    pub file: FileId,
    /// Page index within the file.
    pub page: PageNo,
}

impl PageKey {
    /// Creates a page key.
    pub fn new(file: FileId, page: PageNo) -> Self {
        PageKey { file, page }
    }
}

/// Index of a resident page's slot in [`Slots`].
pub type SlotId = u32;

/// The null slot: ends the LRU list.
pub(crate) const NIL: SlotId = SlotId::MAX;

/// One resident page's cold state: what eviction, writeback, fsync and
/// invalidation read, and a hit never does.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Slot {
    pub(crate) key: PageKey,
    /// When the page was first dirtied; `None` while clean.
    pub(crate) dirtied: Option<Nanos>,
}

/// The page cache's slab: one slot per resident page, which the page
/// keeps from insertion until eviction or invalidation. Freed slots are
/// reused, so the slab grows with the peak resident set, never with the
/// configured capacity.
///
/// Per-page state is split by how often a hit reads it. The cold
/// slots (key and dirty instant) live here, beside one prefetched bit
/// per slot; the LRU links live in [`Lru`](crate::lru::Lru), indexed
/// by the same slot ids.
#[derive(Debug, Default)]
pub struct Slots {
    slots: Vec<Slot>,
    /// Brought in by readahead and not yet read: bit `s % 64` of word
    /// `s / 64` for slot `s`.
    prefetched: Vec<u64>,
    free: Vec<SlotId>,
}

/// The word of [`Slots::prefetched`] holding slot `s`'s bit, and the
/// bit's mask.
fn bit_of(s: SlotId) -> (usize, u64) {
    ((s / 64) as usize, 1 << (s % 64))
}

impl Slots {
    /// Hands out a slot for a newly resident, clean page.
    pub(crate) fn alloc(&mut self, key: PageKey, prefetched: bool) -> SlotId {
        let slot = Slot { key, dirtied: None };
        let s = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = slot;
                s
            }
            None => {
                // Unreachable in practice: the slab grows only past its
                // peak of resident pages, and 2^32 - 1 of them need a
                // cache above 16 TiB holding 128 GiB of 32-byte slots.
                let s = SlotId::try_from(self.slots.len())
                    .ok()
                    .filter(|&s| s != NIL)
                    .expect("fewer than 2^32 - 1 resident pages");
                self.slots.push(slot);
                if s % 64 == 0 {
                    self.prefetched.push(0);
                }
                s
            }
        };
        let (word, mask) = bit_of(s);
        if prefetched {
            self.prefetched[word] |= mask;
        } else {
            self.prefetched[word] &= !mask;
        }
        s
    }

    /// Returns a slot whose page left the cache.
    pub(crate) fn release(&mut self, s: SlotId) {
        self.free.push(s);
    }

    /// Number of slots in use (resident pages).
    pub(crate) fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Drops every slot.
    pub(crate) fn clear(&mut self) {
        self.slots.clear();
        self.prefetched.clear();
        self.free.clear();
    }

    pub(crate) fn get(&self, s: SlotId) -> &Slot {
        &self.slots[s as usize]
    }

    pub(crate) fn get_mut(&mut self, s: SlotId) -> &mut Slot {
        &mut self.slots[s as usize]
    }

    /// The key of the page in slot `s`.
    pub(crate) fn key(&self, s: SlotId) -> PageKey {
        self.get(s).key
    }

    /// Clears slot `s`'s prefetched bit, reporting whether it was set:
    /// the first read of a prefetched page.
    pub(crate) fn take_prefetched(&mut self, s: SlotId) -> bool {
        let (word, mask) = bit_of(s);
        let bits = &mut self.prefetched[word];
        let was = *bits & mask != 0;
        *bits &= !mask;
        was
    }
}

/// Cumulative page-cache accounting.
///
/// `hits / (hits + misses)` is the cache hit ratio that, combined with the
/// memory/disk latency gap, determines every throughput figure in the
/// paper's case study.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups satisfied from the cache.
    pub hits: u64,
    /// Lookups that required a media read.
    pub misses: u64,
    /// Pages inserted.
    pub insertions: u64,
    /// Clean pages evicted.
    pub evicted_clean: u64,
    /// Dirty pages evicted (these cost a writeback).
    pub evicted_dirty: u64,
    /// Pages brought in by readahead rather than demand.
    pub prefetched: u64,
    /// Prefetched pages that were later actually read (readahead wins).
    pub prefetch_hits: u64,
    /// Dirty pages flushed by the writeback path (deadline expiry or
    /// fsync), as opposed to eviction-forced writebacks.
    pub writeback_flushed: u64,
}

impl CacheStats {
    /// Hit ratio in `[0, 1]`; 0 when no lookups occurred.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Fraction of prefetched pages that proved useful.
    pub fn prefetch_accuracy(&self) -> f64 {
        if self.prefetched == 0 {
            0.0
        } else {
            self.prefetch_hits as f64 / self.prefetched as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_ordering_groups_by_file() {
        let a = PageKey::new(1, 99);
        let b = PageKey::new(2, 0);
        assert!(a < b);
        assert_eq!(PageKey::new(1, 5), PageKey::new(1, 5));
    }

    #[test]
    fn hit_ratio_math() {
        let mut s = CacheStats::default();
        assert_eq!(s.hit_ratio(), 0.0);
        s.hits = 3;
        s.misses = 1;
        assert!((s.hit_ratio() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn prefetch_accuracy_math() {
        let s = CacheStats {
            prefetched: 10,
            prefetch_hits: 4,
            ..Default::default()
        };
        assert!((s.prefetch_accuracy() - 0.4).abs() < 1e-12);
        assert_eq!(CacheStats::default().prefetch_accuracy(), 0.0);
    }
}
