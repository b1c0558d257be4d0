//! 2Q replacement (Johnson & Shasha, VLDB '94).
//!
//! Pages enter a FIFO probation queue (A1in); only pages re-referenced
//! *after* falling out of probation — their identity remembered in the
//! A1out ghost queue — are promoted to the protected LRU main queue (Am).
//! This makes 2Q scan-resistant: a one-pass sequential read cannot flush
//! the hot set, unlike pure LRU.

use crate::olist::OrderedSet;
use crate::page::{PageKey, SlotId, Slots};
use crate::policy::EvictionPolicy;

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

    /// Drops `key` from every queue, ghost included.
    fn drop_key(&mut self, key: PageKey) {
        let _ = self.a1in.remove(key) || self.am.remove(key);
        self.a1out.remove(key);
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
    fn insert(&mut self, slots: &mut Slots, slot: SlotId) {
        let key = slots.key(slot);
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

    fn touch(&mut self, slots: &mut Slots, slot: SlotId) {
        let key = slots.key(slot);
        if self.am.contains(key) {
            self.am.push_back(key);
        }
        // Hits in A1in deliberately do not reorder (2Q rule).
    }

    fn evict(&mut self, _slots: &mut Slots) -> Option<PageKey> {
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

    fn remove(&mut self, slots: &mut Slots, slot: SlotId) {
        self.drop_key(slots.key(slot));
    }

    fn forget(&mut self, key: PageKey) {
        self.drop_key(key);
    }

    fn len(&self) -> usize {
        self.a1in.len() + self.am.len()
    }

    fn name(&self) -> &'static str {
        "2q"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::conformance::Harness;

    fn key(i: u64) -> PageKey {
        PageKey::new(0, i)
    }

    #[test]
    fn fresh_pages_go_to_probation() {
        let mut q = Harness::new(Box::new(TwoQ::new(16)));
        q.insert(key(1));
        assert_eq!(q.policy.probation_len(), 1);
        assert_eq!(q.policy.protected_len(), 0);
    }

    #[test]
    fn ghost_hit_promotes() {
        let mut q = Harness::new(Box::new(TwoQ::new(16))); // kin = 4
        for i in 0..6 {
            q.insert(key(i));
        }
        // Probation over-full: evictions drain A1in into the ghost list.
        let v1 = q.evict().unwrap();
        assert_eq!(v1, key(0));
        // Key 0 is now a ghost; re-inserting it goes straight to Am.
        q.insert(key(0));
        assert_eq!(q.policy.protected_len(), 1);
        assert!(q.contains(key(0)));
    }

    #[test]
    fn scan_resistance() {
        let mut q = Harness::new(Box::new(TwoQ::new(16)));
        // Build a hot set in Am via ghost promotion.
        for i in 0..8 {
            q.insert(key(i));
        }
        for _ in 0..8 {
            q.evict();
        }
        for i in 0..4 {
            q.insert(key(i)); // promoted from ghost to Am
        }
        assert_eq!(q.policy.protected_len(), 4);
        // A long one-touch scan floods probation only.
        for i in 100..130 {
            q.insert(key(i));
            if q.len() > 16 {
                q.evict();
            }
        }
        // The hot set survived the scan.
        for i in 0..4 {
            assert!(q.contains(key(i)), "hot page {i} flushed by scan");
        }
    }

    #[test]
    fn evict_prefers_overfull_probation() {
        let mut q = Harness::new(Box::new(TwoQ::new(8))); // kin = 2
        q.insert(key(10));
        q.evict(); // 10 -> ghost
        q.insert(key(10)); // promote to Am
        for i in 0..3 {
            q.insert(key(i)); // probation now above kin
        }
        let v = q.evict().unwrap();
        assert_eq!(v, key(0), "should drain probation before touching Am");
        assert!(q.contains(key(10)));
    }
}
