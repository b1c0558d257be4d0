//! The eviction-policy abstraction and policy selection.
//!
//! The paper asks: "How are elements evicted from the cache? To the best
//! of our knowledge, none of the existing benchmarks consider these
//! questions." rocketbench makes eviction a first-class experimental
//! variable: every policy implements [`EvictionPolicy`], and the cache
//! benchmarks sweep across them.

use crate::page::{PageKey, SlotId, Slots};

/// A page replacement policy.
///
/// The cache owns residency: it hands every resident page a slot in
/// its [`Slots`] and tells the policy about the page by slot. The
/// policy decides only the order of eviction; it may keep that order
/// in a table indexed by slot id (as [`Lru`](crate::lru::Lru) does) or
/// in structures of its own keyed by page. Implementations must uphold
/// two invariants, checked by the shared conformance tests:
///
/// 1. `evict` returns a page previously inserted and not yet evicted or
///    removed (no phantom evictions).
/// 2. `len` counts the pages inserted and not yet evicted or removed.
pub trait EvictionPolicy: std::fmt::Debug {
    /// Notes that the page in `slot` was inserted (it was not resident).
    fn insert(&mut self, slots: &mut Slots, slot: SlotId);

    /// Notes that the resident page in `slot` was accessed.
    fn touch(&mut self, slots: &mut Slots, slot: SlotId);

    /// Chooses a victim and stops tracking it, returning its key. The
    /// victim's slot stays allocated; the cache frees it.
    ///
    /// Returns `None` when no page is tracked.
    fn evict(&mut self, slots: &mut Slots) -> Option<PageKey>;

    /// Stops tracking the resident page in `slot` without treating it
    /// as an eviction (invalidation).
    fn remove(&mut self, slots: &mut Slots, slot: SlotId);

    /// Notes that `key`, which is not resident, was invalidated: a
    /// policy that remembers evicted pages (ghost entries) forgets it.
    fn forget(&mut self, _key: PageKey) {}

    /// Number of tracked pages.
    fn len(&self) -> usize;

    /// Returns true if no pages are tracked.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Policy name for reports.
    fn name(&self) -> &'static str;
}

/// Selectable replacement policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// Least recently used.
    Lru,
    /// Second-chance clock.
    Clock,
    /// 2Q (Johnson & Shasha): FIFO probation + LRU protection.
    TwoQ,
    /// Adaptive Replacement Cache (Megiddo & Modha).
    Arc,
}

impl PolicyKind {
    /// All policies, for sweeps.
    pub const ALL: [PolicyKind; 4] = [
        PolicyKind::Lru,
        PolicyKind::Clock,
        PolicyKind::TwoQ,
        PolicyKind::Arc,
    ];

    /// Instantiates the policy for a cache of `capacity_pages`.
    pub fn build(self, capacity_pages: u64) -> Box<dyn EvictionPolicy> {
        match self {
            PolicyKind::Lru => Box::new(crate::lru::Lru::new()),
            PolicyKind::Clock => Box::new(crate::clock::Clock::new()),
            PolicyKind::TwoQ => Box::new(crate::twoq::TwoQ::new(capacity_pages)),
            PolicyKind::Arc => Box::new(crate::arc::ArcPolicy::new(capacity_pages)),
        }
    }

    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Lru => "lru",
            PolicyKind::Clock => "clock",
            PolicyKind::TwoQ => "2q",
            PolicyKind::Arc => "arc",
        }
    }
}

#[cfg(test)]
pub(crate) mod conformance {
    //! Shared conformance suite run against every policy, and the
    //! harness the per-policy tests drive policies through.

    use super::*;
    use rb_simcore::rng::Rng;
    use std::collections::{HashMap, HashSet};

    /// Drives a policy by key the way the cache does: a tracked page
    /// owns a slot from insertion until it is evicted or removed, and
    /// removing an untracked page forgets it.
    #[derive(Debug)]
    pub struct Harness<P: ?Sized = dyn EvictionPolicy> {
        pub policy: Box<P>,
        slots: Slots,
        slot_of: HashMap<PageKey, SlotId>,
    }

    impl<P: ?Sized + EvictionPolicy> Harness<P> {
        pub fn new(policy: Box<P>) -> Self {
            Harness {
                policy,
                slots: Slots::default(),
                slot_of: HashMap::new(),
            }
        }

        /// Inserts `key`; a tracked key is inserted again in its slot.
        pub fn insert(&mut self, key: PageKey) {
            let slots = &mut self.slots;
            let slot = *self
                .slot_of
                .entry(key)
                .or_insert_with(|| slots.alloc(key, false));
            self.policy.insert(&mut self.slots, slot);
        }

        pub fn touch(&mut self, key: PageKey) {
            if let Some(&slot) = self.slot_of.get(&key) {
                self.policy.touch(&mut self.slots, slot);
            }
        }

        pub fn evict(&mut self) -> Option<PageKey> {
            let victim = self.policy.evict(&mut self.slots)?;
            let slot = self.slot_of.remove(&victim);
            let slot = slot.unwrap_or_else(|| panic!("{} phantom eviction", self.policy.name()));
            self.slots.release(slot);
            Some(victim)
        }

        pub fn remove(&mut self, key: PageKey) {
            match self.slot_of.remove(&key) {
                Some(slot) => {
                    self.policy.remove(&mut self.slots, slot);
                    self.slots.release(slot);
                }
                None => self.policy.forget(key),
            }
        }

        pub fn contains(&self, key: PageKey) -> bool {
            self.slot_of.contains_key(&key)
        }

        pub fn len(&self) -> usize {
            self.policy.len()
        }

        pub fn is_empty(&self) -> bool {
            self.policy.is_empty()
        }
    }

    fn key(i: u64) -> PageKey {
        PageKey::new(0, i)
    }

    /// Every inserted page is evicted exactly once; len is consistent.
    pub fn check_basic(h: &mut Harness) {
        assert!(h.is_empty());
        for i in 0..10 {
            h.insert(key(i));
        }
        assert_eq!(h.len(), 10);
        let mut seen = HashSet::new();
        while let Some(victim) = h.evict() {
            assert!(victim.page < 10, "{} phantom eviction", h.policy.name());
            assert!(seen.insert(victim), "{} double eviction", h.policy.name());
        }
        assert_eq!(seen.len(), 10);
        assert!(h.is_empty());
    }

    /// remove() never yields the removed page from a later evict().
    pub fn check_remove(h: &mut Harness) {
        for i in 0..8 {
            h.insert(key(i));
        }
        h.remove(key(3));
        h.remove(key(7));
        let mut evicted = HashSet::new();
        while let Some(v) = h.evict() {
            evicted.insert(v.page);
        }
        assert!(
            !evicted.contains(&3),
            "{} resurrected removed page",
            h.policy.name()
        );
        assert!(!evicted.contains(&7));
        assert_eq!(evicted.len(), 6);
    }

    /// Random mixed workload keeps policy bookkeeping consistent with a
    /// model set.
    pub fn check_random_model(h: &mut Harness, seed: u64) {
        let mut model: HashSet<PageKey> = HashSet::new();
        let mut rng = Rng::new(seed);
        for step in 0..5000u64 {
            match rng.below(100) {
                0..=49 => {
                    let k = key(rng.below(200));
                    if model.insert(k) {
                        h.insert(k);
                    } else {
                        h.touch(k);
                    }
                }
                50..=69 => {
                    if let Some(v) = h.evict() {
                        assert!(model.remove(&v), "phantom eviction at step {step}");
                    } else {
                        assert!(model.is_empty());
                    }
                }
                _ => {
                    let k = key(rng.below(200));
                    h.remove(k);
                    model.remove(&k);
                }
            }
            assert_eq!(h.len(), model.len(), "len diverged at step {step}");
        }
        // Draining evicts exactly the model's pages.
        while let Some(v) = h.evict() {
            assert!(model.remove(&v), "phantom eviction while draining");
        }
        assert!(model.is_empty(), "{} lost pages", h.policy.name());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_policies_buildable() {
        for kind in PolicyKind::ALL {
            let p = kind.build(128);
            assert_eq!(p.len(), 0);
            assert_eq!(p.name(), kind.name());
        }
    }

    #[test]
    fn conformance_all_policies() {
        for kind in PolicyKind::ALL {
            use conformance::Harness;
            conformance::check_basic(&mut Harness::new(kind.build(64)));
            conformance::check_remove(&mut Harness::new(kind.build(64)));
            conformance::check_random_model(&mut Harness::new(kind.build(64)), 0xC0FFEE);
        }
    }
}
