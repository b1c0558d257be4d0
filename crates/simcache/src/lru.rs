//! Least-recently-used replacement.
//!
//! The reference policy: Linux's page cache approximates LRU (via the
//! two-list active/inactive scheme), and the paper's Figure 1 analysis —
//! steady-state hit ratio = capacity / file size under uniform random
//! access — holds exactly for LRU.

use crate::page::{PageKey, SlotId, Slots, NIL};
use crate::policy::EvictionPolicy;

/// Exact LRU as an intrusive doubly-linked list through the cache's
/// slots.
///
/// Every operation — insert, touch, evict, remove — is O(1) pointer
/// surgery on the page's own slot, with no lookup of its own: the
/// cache has already found the slot, and the links live in it. The
/// recency order (and therefore every eviction decision) is the one an
/// ordered map of access stamps would give.
#[derive(Debug)]
pub struct Lru {
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
            head: NIL,
            tail: NIL,
            len: 0,
        }
    }

    /// Unlinks a slot from the list.
    fn unlink(&mut self, slots: &mut Slots, i: SlotId) {
        let s = slots.get(i);
        let (prev, next) = (s.prev, s.next);
        match prev {
            NIL => self.head = next,
            p => slots.get_mut(p).next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => slots.get_mut(n).prev = prev,
        }
    }

    /// Links a slot at the MRU end.
    fn push_tail(&mut self, slots: &mut Slots, i: SlotId) {
        let s = slots.get_mut(i);
        s.prev = self.tail;
        s.next = NIL;
        match self.tail {
            NIL => self.head = i,
            t => slots.get_mut(t).next = i,
        }
        self.tail = i;
    }
}

impl EvictionPolicy for Lru {
    fn insert(&mut self, slots: &mut Slots, slot: SlotId) {
        self.push_tail(slots, slot);
        self.len += 1;
    }

    fn touch(&mut self, slots: &mut Slots, slot: SlotId) {
        self.unlink(slots, slot);
        self.push_tail(slots, slot);
    }

    fn evict(&mut self, slots: &mut Slots) -> Option<PageKey> {
        let i = self.head;
        if i == NIL {
            return None;
        }
        self.unlink(slots, i);
        self.len -= 1;
        Some(slots.key(i))
    }

    fn remove(&mut self, slots: &mut Slots, slot: SlotId) {
        self.unlink(slots, slot);
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
}
