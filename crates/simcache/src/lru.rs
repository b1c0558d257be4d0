//! Least-recently-used replacement.
//!
//! The reference policy: Linux's page cache approximates LRU (via the
//! two-list active/inactive scheme), and the paper's Figure 1 analysis —
//! steady-state hit ratio = capacity / file size under uniform random
//! access — holds exactly for LRU.

use crate::page::{PageKey, SlotId, Slots, NIL};
use crate::policy::EvictionPolicy;

/// One slot's place in the LRU list.
#[derive(Debug, Clone, Copy)]
struct Link {
    /// Towards the least recently used end; `NIL` at the head.
    prev: SlotId,
    /// Towards the most recently used end; `NIL` at the tail.
    next: SlotId,
}

impl Link {
    const UNLINKED: Link = Link {
        prev: NIL,
        next: NIL,
    };
}

/// Exact LRU as a doubly-linked list through the cache's slot ids.
///
/// The links are a dense table of 8-byte records indexed by slot,
/// apart from the slots' cold state: a hit relinks three records and
/// reads nothing else. Every operation — insert, touch, evict, remove —
/// is O(1) pointer surgery with no lookup of its own, since the cache
/// has already found the slot. The table grows with the highest slot
/// id the cache hands out, so with the slab, never with the capacity.
/// The recency order (and therefore every eviction decision) is the one
/// an ordered map of access stamps would give.
#[derive(Debug)]
pub struct Lru {
    links: Vec<Link>,
    /// Least recently used end (eviction side); `NIL` when empty.
    head: SlotId,
    /// Most recently used end.
    tail: SlotId,
    len: usize,
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
            links: Vec::new(),
            head: NIL,
            tail: NIL,
            len: 0,
        }
    }

    /// Unlinks a slot from the list.
    fn unlink(&mut self, i: SlotId) {
        let Link { prev, next } = self.links[i as usize];
        match prev {
            NIL => self.head = next,
            p => self.links[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.links[n as usize].prev = prev,
        }
    }

    /// Links a slot at the MRU end.
    fn push_tail(&mut self, i: SlotId) {
        self.links[i as usize] = Link {
            prev: self.tail,
            next: NIL,
        };
        match self.tail {
            NIL => self.head = i,
            t => self.links[t as usize].next = i,
        }
        self.tail = i;
    }
}

impl EvictionPolicy for Lru {
    fn insert(&mut self, _slots: &mut Slots, slot: SlotId) {
        let at = slot as usize;
        if at >= self.links.len() {
            self.links.resize(at + 1, Link::UNLINKED);
        }
        self.push_tail(slot);
        self.len += 1;
    }

    fn touch(&mut self, _slots: &mut Slots, slot: SlotId) {
        self.unlink(slot);
        self.push_tail(slot);
    }

    fn evict(&mut self, slots: &mut Slots) -> Option<PageKey> {
        let i = self.head;
        if i == NIL {
            return None;
        }
        self.unlink(i);
        self.len -= 1;
        Some(slots.key(i))
    }

    fn remove(&mut self, _slots: &mut Slots, slot: SlotId) {
        self.unlink(slot);
        self.len -= 1;
    }

    fn len(&self) -> usize {
        self.len
    }

    fn name(&self) -> &'static str {
        "lru"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::conformance::Harness;

    fn key(i: u64) -> PageKey {
        PageKey::new(0, i)
    }

    fn lru() -> Harness<Lru> {
        Harness::new(Box::new(Lru::new()))
    }

    #[test]
    fn evicts_least_recent() {
        let mut l = lru();
        for i in 0..5 {
            l.insert(key(i));
        }
        // Touch 0 so 1 becomes the oldest.
        l.touch(key(0));
        assert_eq!(l.evict(), Some(key(1)));
        assert_eq!(l.evict(), Some(key(2)));
    }

    #[test]
    fn touching_the_newest_keeps_the_order() {
        let mut l = lru();
        l.insert(key(1));
        l.insert(key(2));
        l.touch(key(2));
        assert_eq!(l.len(), 2);
        assert_eq!(l.evict(), Some(key(1)));
        assert_eq!(l.evict(), Some(key(2)));
        assert_eq!(l.evict(), None);
    }

    #[test]
    fn remove_then_reuse_slots() {
        let mut l = lru();
        for i in 0..8 {
            l.insert(key(i));
        }
        l.remove(key(3));
        l.remove(key(0));
        assert_eq!(l.len(), 6);
        // Freed slots are reused without disturbing recency order.
        l.insert(key(100));
        l.insert(key(101));
        assert_eq!(l.evict(), Some(key(1)));
        assert_eq!(l.evict(), Some(key(2)));
        assert_eq!(l.evict(), Some(key(4)));
    }

    #[test]
    fn sequential_scan_evicts_in_order() {
        let mut l = lru();
        for i in 0..100 {
            l.insert(key(i));
        }
        for i in 0..100 {
            assert_eq!(l.evict(), Some(key(i)));
        }
    }

    /// Evicts every page, returning their page numbers in eviction
    /// order.
    fn drain(l: &mut Lru, slots: &mut Slots) -> Vec<u64> {
        std::iter::from_fn(|| l.evict(slots))
            .map(|k| k.page)
            .collect()
    }

    #[test]
    fn links_grow_to_slot_ids_past_the_table() {
        // The policy may hear of a high slot id before any lower one.
        let mut slots = Slots::default();
        for i in 0..10 {
            slots.alloc(key(i), false);
        }
        let mut l = Lru::new();
        for s in [9, 2, 5, 0] {
            l.insert(&mut slots, s);
        }
        assert_eq!(l.links.len(), 10, "the table grows to the highest id");
        l.touch(&mut slots, 9);
        assert_eq!(drain(&mut l, &mut slots), [2, 5, 0, 9]);
        assert!(l.is_empty());
    }

    #[test]
    fn reused_slots_are_relinked_last_freed_first() {
        let mut slots = Slots::default();
        let mut l = Lru::new();
        for i in 0..8 {
            let s = slots.alloc(key(i), false);
            l.insert(&mut slots, s);
        }
        // Free a slot mid-list and the tail: both keep stale links.
        for s in [3, 7] {
            l.remove(&mut slots, s);
            slots.release(s);
        }
        assert_eq!(slots.alloc(key(100), false), 7);
        l.insert(&mut slots, 7);
        assert_eq!(slots.alloc(key(101), false), 3);
        l.insert(&mut slots, 3);
        l.touch(&mut slots, 0);
        assert_eq!(l.links.len(), 8, "reuse never grows the table");
        assert_eq!(drain(&mut l, &mut slots), [1, 2, 4, 5, 6, 100, 101, 0]);
    }

    #[test]
    fn slots_reused_after_invalidate_all_keep_recency_order() {
        use crate::cache::{CacheConfig, PageCache};
        use crate::readahead::ReadaheadConfig;
        use crate::writeback::WritebackConfig;
        use rb_simcore::time::Nanos;
        let mut c = PageCache::new(CacheConfig {
            capacity_pages: 16,
            policy: crate::policy::PolicyKind::Lru,
            readahead: ReadaheadConfig::disabled(),
            writeback: WritebackConfig::default(),
        });
        c.read(1, 0, 12, 100, Nanos::ZERO);
        // The slab starts again at slot 0; the link table keeps its 12
        // records, every one stale.
        c.invalidate_all();
        for page in [5, 3, 9, 5] {
            c.read(2, page, 1, 100, Nanos::ZERO);
        }
        assert_eq!(c.resident_pages(), 3);
        assert!(c.set_capacity_pages(2).is_empty());
        assert!(!c.is_resident(2, 3), "the least recent page goes first");
        assert!(c.set_capacity_pages(1).is_empty());
        assert!(!c.is_resident(2, 9) && c.is_resident(2, 5));
        assert_eq!(c.stats().evicted_clean, 2);
    }
}
