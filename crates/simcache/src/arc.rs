//! Adaptive Replacement Cache (Megiddo & Modha, FAST '03).
//!
//! ARC balances recency (T1) against frequency (T2) with a self-tuning
//! target `p`, steered by ghost hits in B1 (evicted from T1) and B2
//! (evicted from T2). It adapts to workload shifts that fixed policies
//! miss — exactly the kind of cache behaviour the paper says benchmarks
//! never examine.

use crate::olist::OrderedSet;
use crate::page::{PageKey, SlotId, Slots};
use crate::policy::EvictionPolicy;

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

    /// A hit: a page seen twice moves to (the MRU end of) T2.
    fn touch_key(&mut self, key: PageKey) {
        if self.t1.remove(key) || self.t2.contains(key) {
            self.t2.push_back(key);
        }
    }

    /// Drops `key` from every list, ghosts included.
    fn drop_key(&mut self, key: PageKey) {
        let _ = self.t1.remove(key) || self.t2.remove(key);
        self.b1.remove(key);
        self.b2.remove(key);
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
    fn insert(&mut self, slots: &mut Slots, slot: SlotId) {
        let key = slots.key(slot);
        if self.t1.contains(key) || self.t2.contains(key) {
            // Treat as a hit.
            self.touch_key(key);
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

    fn touch(&mut self, slots: &mut Slots, slot: SlotId) {
        self.touch_key(slots.key(slot));
    }

    fn evict(&mut self, _slots: &mut Slots) -> Option<PageKey> {
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

    fn remove(&mut self, slots: &mut Slots, slot: SlotId) {
        self.drop_key(slots.key(slot));
    }

    fn forget(&mut self, key: PageKey) {
        self.drop_key(key);
    }

    fn len(&self) -> usize {
        self.t1.len() + self.t2.len()
    }

    fn name(&self) -> &'static str {
        "arc"
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
    fn single_touch_stays_in_t1() {
        let mut a = Harness::new(Box::new(ArcPolicy::new(8)));
        a.insert(key(1));
        let (t1, t2, _, _) = a.policy.list_sizes();
        assert_eq!((t1, t2), (1, 0));
    }

    #[test]
    fn second_touch_promotes_to_t2() {
        let mut a = Harness::new(Box::new(ArcPolicy::new(8)));
        a.insert(key(1));
        a.touch(key(1));
        let (t1, t2, _, _) = a.policy.list_sizes();
        assert_eq!((t1, t2), (0, 1));
    }

    #[test]
    fn ghost_hit_in_b1_grows_p() {
        let mut a = Harness::new(Box::new(ArcPolicy::new(4)));
        for i in 0..4 {
            a.insert(key(i));
        }
        let p0 = a.policy.target_p();
        a.evict(); // key 0 -> B1
        a.insert(key(0)); // ghost hit
        assert!(a.policy.target_p() > p0, "p did not grow on B1 hit");
        // Promoted straight to T2.
        let (_, t2, _, _) = a.policy.list_sizes();
        assert!(t2 >= 1);
    }

    #[test]
    fn ghost_hit_in_b2_shrinks_p() {
        let mut a = Harness::new(Box::new(ArcPolicy::new(4)));
        // Build frequency traffic: promote 0 to T2, then push it to B2.
        a.insert(key(0));
        a.touch(key(0));
        // Grow p so the shrink is observable.
        for i in 1..5 {
            a.insert(key(i));
        }
        a.evict();
        a.evict();
        // Force T2 eviction by draining T1 empty first.
        while a.policy.list_sizes().0 > 0 {
            a.evict();
        }
        a.evict(); // now from T2 -> B2
        let p_before = a.policy.target_p();
        a.insert(key(0)); // whichever ghost 0 is in adjusts p
        assert!(a.policy.target_p() <= p_before.max(1));
    }

    #[test]
    fn frequency_protected_from_scan() {
        let mut a = Harness::new(Box::new(ArcPolicy::new(8)));
        // Hot pages touched repeatedly live in T2.
        for i in 0..4 {
            a.insert(key(i));
            a.touch(key(i));
        }
        // Scan of cold pages fills T1; evictions should drain T1 first.
        for i in 100..120 {
            a.insert(key(i));
            while a.len() > 8 {
                a.evict();
            }
        }
        let surviving_hot = (0..4).filter(|&i| a.contains(key(i))).count();
        assert!(
            surviving_hot >= 3,
            "scan evicted hot set: {surviving_hot}/4 left"
        );
    }

    #[test]
    fn directory_stays_bounded() {
        let mut a = Harness::new(Box::new(ArcPolicy::new(16)));
        for i in 0..1000 {
            a.insert(key(i));
            while a.len() > 16 {
                a.evict();
            }
        }
        let (t1, t2, b1, b2) = a.policy.list_sizes();
        assert!(t1 + t2 <= 16);
        assert!(
            t1 + t2 + b1 + b2 <= 32,
            "directory leak: {:?}",
            (t1, t2, b1, b2)
        );
    }
}
