//! Second-chance (CLOCK) replacement.
//!
//! The classic low-overhead LRU approximation: pages sit on a circular
//! list with a reference bit; the hand sweeps, clearing bits, and evicts
//! the first unreferenced page it meets.

use crate::page::{PageKey, SlotId, Slots};
use crate::policy::EvictionPolicy;
use rb_simcore::fnv::FnvHashMap;

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
    fn insert(&mut self, slots: &mut Slots, slot: SlotId) {
        let key = slots.key(slot);
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

    fn touch(&mut self, slots: &mut Slots, slot: SlotId) {
        if let Some(&i) = self.index.get(&slots.key(slot)) {
            self.ring[i].referenced = true;
        }
    }

    fn evict(&mut self, _slots: &mut Slots) -> Option<PageKey> {
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

    fn remove(&mut self, slots: &mut Slots, slot: SlotId) {
        if let Some(i) = self.index.remove(&slots.key(slot)) {
            self.ring[i].live = false;
            self.dead += 1;
            self.compact();
        }
    }

    fn len(&self) -> usize {
        self.index.len()
    }

    fn name(&self) -> &'static str {
        "clock"
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
    fn unreferenced_evicted_first() {
        let mut c = Harness::new(Box::new(Clock::new()));
        for i in 0..4 {
            c.insert(key(i));
        }
        // Reference 0 and 1; the hand should pass them once and evict 2.
        c.touch(key(0));
        c.touch(key(1));
        assert_eq!(c.evict(), Some(key(2)));
    }

    #[test]
    fn second_chance_granted_once() {
        let mut c = Harness::new(Box::new(Clock::new()));
        c.insert(key(0));
        c.touch(key(0));
        // First sweep clears the bit; second sweep evicts.
        assert_eq!(c.evict(), Some(key(0)));
        assert!(c.is_empty());
    }

    #[test]
    fn compaction_preserves_membership() {
        let mut c = Harness::new(Box::new(Clock::new()));
        for i in 0..100 {
            c.insert(key(i));
        }
        for i in 0..80 {
            c.remove(key(i));
        }
        assert_eq!(c.len(), 20);
        for i in 80..100 {
            assert!(c.contains(key(i)), "lost page {i} after compaction");
        }
        let mut n = 0;
        while c.evict().is_some() {
            n += 1;
        }
        assert_eq!(n, 20);
    }

    #[test]
    fn insert_existing_sets_reference() {
        let mut c = Harness::new(Box::new(Clock::new()));
        c.insert(key(0));
        c.insert(key(1));
        c.insert(key(0)); // acts as a touch
        assert_eq!(c.len(), 2);
        assert_eq!(c.evict(), Some(key(1)));
    }
}
