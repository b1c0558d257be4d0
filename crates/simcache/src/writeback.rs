//! Dirty-page tracking and writeback policy.
//!
//! Write benchmarks are dominated by *when* dirty pages reach the disk:
//! a benchmark that ends before the flusher runs measures memory, one
//! that runs past the dirty threshold measures the disk — another of the
//! paper's hidden dimensions made explicit and controllable here.

use crate::page::{PageKey, SlotId, Slots};
use rb_simcore::time::Nanos;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Writeback configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WritebackConfig {
    /// Fraction of cache capacity that may be dirty before writeback
    /// becomes urgent (Linux `vm.dirty_ratio`, default 0.20).
    pub dirty_ratio: f64,
    /// Age at which a dirty page is flushed regardless of pressure
    /// (Linux `dirty_expire_centisecs`, default 30 s).
    pub max_age: Nanos,
    /// Pages flushed per writeback batch.
    pub batch: usize,
}

impl Default for WritebackConfig {
    fn default() -> Self {
        WritebackConfig {
            dirty_ratio: 0.20,
            max_age: Nanos::from_secs(30),
            batch: 64,
        }
    }
}

/// Decides which dirty pages to flush when.
///
/// A page's dirty state is its slot's dirty instant; this tracker keeps
/// the flush order and the dirty count.
#[derive(Debug, Clone)]
pub(crate) struct Writeback {
    config: WritebackConfig,
    /// Dirty pages ordered by the instant they were first dirtied: a
    /// min-heap with lazy deletion. An entry is live while its slot
    /// holds its page dirtied at its instant; otherwise it is stale
    /// (the page was cleaned, evicted or invalidated since) and skipped
    /// on pop. Every dirty page has a live entry, so flushes run in
    /// ascending `(instant, key)` order without paying a tree rebalance
    /// on every `mark_dirty`/`clear`.
    by_age: BinaryHeap<Reverse<(Nanos, PageKey, SlotId)>>,
    dirty: usize,
}

impl Writeback {
    /// Creates an empty tracker.
    pub(crate) fn new(config: WritebackConfig) -> Self {
        Writeback {
            config,
            by_age: BinaryHeap::new(),
            dirty: 0,
        }
    }

    /// Whether a heap entry still names a dirty page.
    fn live(slots: &Slots, (dirtied, key, slot): (Nanos, PageKey, SlotId)) -> bool {
        let s = slots.get(slot);
        s.key == key && s.dirtied == Some(dirtied)
    }

    /// Drops stale heap entries once they outnumber the live ones, so
    /// the heap stays proportional to the dirty set. A page cleaned and
    /// dirtied again at the same instant in the same slot leaves two
    /// equal entries; one goes.
    fn maybe_compact(&mut self, slots: &Slots) {
        if self.by_age.len() > 2 * self.dirty + 64 {
            let mut live = std::mem::take(&mut self.by_age).into_sorted_vec();
            live.retain(|&Reverse(e)| Self::live(slots, e));
            live.dedup();
            self.by_age = live.into();
        }
    }

    /// Number of dirty pages.
    pub(crate) fn dirty_count(&self) -> usize {
        self.dirty
    }

    /// Marks the page in `slot` dirty at `now` (keeps the original
    /// dirty time on repeated writes, as Linux does for expiry
    /// purposes).
    pub(crate) fn mark_dirty(&mut self, slots: &mut Slots, slot: SlotId, now: Nanos) {
        let s = slots.get_mut(slot);
        if s.dirtied.is_none() {
            s.dirtied = Some(now);
            self.dirty += 1;
            self.by_age.push(Reverse((now, s.key, slot)));
        }
    }

    /// Clears the dirty state of the page in `slot` (written back,
    /// evicted or invalidated), reporting whether it was dirty. The
    /// heap entry is left behind and skipped lazily.
    pub(crate) fn clear(&mut self, slots: &mut Slots, slot: SlotId) -> bool {
        let was_dirty = slots.get_mut(slot).dirtied.take().is_some();
        // A branch, not `self.dirty -= usize::from(was_dirty)`: rustc
        // 1.95 (LLVM 22.1) at opt-level 2 and 3 drops that subtraction
        // after `take().is_some()`, and release builds undercount
        // cleaned pages.
        if was_dirty {
            self.dirty -= 1;
        }
        was_dirty
    }

    /// Forgets every dirty page (the cache dropped all of them).
    pub(crate) fn reset(&mut self) {
        self.by_age.clear();
        self.dirty = 0;
    }

    /// Returns true if dirty pressure exceeds the ratio for a cache of
    /// `capacity_pages`.
    fn over_ratio(&self, capacity_pages: u64) -> bool {
        self.dirty as f64 > self.config.dirty_ratio * capacity_pages.max(1) as f64
    }

    /// Collects up to one batch of pages due for writeback at `now`:
    /// expired pages always, plus oldest-first overflow while over the
    /// dirty ratio. Returned pages are cleared (the caller performs the
    /// media writes).
    pub(crate) fn take_due(
        &mut self,
        slots: &mut Slots,
        now: Nanos,
        capacity_pages: u64,
    ) -> Vec<PageKey> {
        let mut out = Vec::new();
        while out.len() < self.config.batch {
            let Some(&Reverse(entry)) = self.by_age.peek() else {
                break;
            };
            if !Self::live(slots, entry) {
                self.by_age.pop();
                continue;
            }
            let (dirtied, key, slot) = entry;
            let expired = now.saturating_sub(dirtied) >= self.config.max_age;
            if !(expired || self.over_ratio(capacity_pages)) {
                break;
            }
            self.by_age.pop();
            self.clear(slots, slot);
            out.push(key);
        }
        self.maybe_compact(slots);
        out
    }

    /// Drains every dirty page oldest-first (sync / unmount semantics).
    pub(crate) fn drain_all(&mut self, slots: &mut Slots) -> Vec<PageKey> {
        let mut out = Vec::with_capacity(self.dirty);
        while let Some(Reverse(entry)) = self.by_age.pop() {
            if Self::live(slots, entry) {
                self.clear(slots, entry.2);
                out.push(entry.1);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tracker over pages 0..16 of file 0, each in its own slot
    /// (slot `i` holds page `i`).
    fn fixture(config: WritebackConfig) -> (Writeback, Slots) {
        let mut slots = Slots::default();
        for i in 0..16 {
            slots.alloc(key(i), false);
        }
        (Writeback::new(config), slots)
    }

    fn key(i: u64) -> PageKey {
        PageKey::new(0, i)
    }

    fn mark(wb: &mut Writeback, slots: &mut Slots, i: u64, at: Nanos) {
        wb.mark_dirty(slots, i as SlotId, at);
    }

    #[test]
    fn dirty_bookkeeping() {
        let (mut wb, mut slots) = fixture(WritebackConfig::default());
        mark(&mut wb, &mut slots, 1, Nanos::from_secs(1));
        mark(&mut wb, &mut slots, 2, Nanos::from_secs(2));
        assert_eq!(wb.dirty_count(), 2);
        assert!(wb.clear(&mut slots, 1));
        assert!(!wb.clear(&mut slots, 1), "cleared twice");
        assert_eq!(wb.dirty_count(), 1);
    }

    #[test]
    fn rewrite_keeps_first_dirty_time() {
        let (mut wb, mut slots) = fixture(WritebackConfig::default());
        mark(&mut wb, &mut slots, 1, Nanos::from_secs(1));
        mark(&mut wb, &mut slots, 1, Nanos::from_secs(100));
        // Expires based on the first dirty time.
        let due = wb.take_due(&mut slots, Nanos::from_secs(31), 1_000_000);
        assert_eq!(due, vec![key(1)]);
    }

    #[test]
    fn expiry_flushes_old_pages_only() {
        let (mut wb, mut slots) = fixture(WritebackConfig::default());
        mark(&mut wb, &mut slots, 1, Nanos::from_secs(0));
        mark(&mut wb, &mut slots, 2, Nanos::from_secs(20));
        let due = wb.take_due(&mut slots, Nanos::from_secs(35), 1_000_000);
        assert_eq!(due, vec![key(1)]);
        assert_eq!(wb.dirty_count(), 1);
    }

    #[test]
    fn ratio_pressure_flushes_oldest_first() {
        let cfg = WritebackConfig {
            dirty_ratio: 0.5,
            ..Default::default()
        };
        let (mut wb, mut slots) = fixture(cfg);
        for i in 0..8 {
            mark(&mut wb, &mut slots, i, Nanos::from_secs(i));
        }
        // Capacity 10, ratio 0.5: 8 dirty > 5, flush down toward the ratio.
        let due = wb.take_due(&mut slots, Nanos::from_secs(9), 10);
        assert!(!due.is_empty());
        assert_eq!(due[0], key(0));
        // Flushing stops once under the ratio.
        assert!(wb.dirty_count() <= 5);
    }

    #[test]
    fn batch_limit_respected() {
        let cfg = WritebackConfig {
            batch: 3,
            dirty_ratio: 0.0,
            ..Default::default()
        };
        let (mut wb, mut slots) = fixture(cfg);
        for i in 0..10 {
            mark(&mut wb, &mut slots, i, Nanos::ZERO);
        }
        let due = wb.take_due(&mut slots, Nanos::from_secs(100), 10);
        assert_eq!(due.len(), 3);
    }

    #[test]
    fn drain_all_empties_in_age_order() {
        let (mut wb, mut slots) = fixture(WritebackConfig::default());
        mark(&mut wb, &mut slots, 2, Nanos::from_secs(2));
        mark(&mut wb, &mut slots, 1, Nanos::from_secs(1));
        let drained = wb.drain_all(&mut slots);
        assert_eq!(drained, vec![key(1), key(2)]);
        assert_eq!(wb.dirty_count(), 0);
    }

    #[test]
    fn nothing_due_under_thresholds() {
        let (mut wb, mut slots) = fixture(WritebackConfig::default());
        mark(&mut wb, &mut slots, 1, Nanos::from_secs(100));
        let due = wb.take_due(&mut slots, Nanos::from_secs(101), 1_000_000);
        assert!(due.is_empty());
    }

    #[test]
    fn a_page_dirtied_again_in_a_reused_slot_flushes_once() {
        let cfg = WritebackConfig {
            dirty_ratio: 0.0,
            ..Default::default()
        };
        let (mut wb, mut slots) = fixture(cfg);
        // Page 3 is dirtied, cleaned, and dirtied again at the same
        // instant in the same slot: two equal heap entries, one flush.
        for _ in 0..2 {
            mark(&mut wb, &mut slots, 3, Nanos::from_secs(1));
            assert!(wb.clear(&mut slots, 3));
        }
        mark(&mut wb, &mut slots, 3, Nanos::from_secs(1));
        // Page 5 leaves its slot dirty, and page 9 takes the slot and
        // is dirtied at the same instant: the old entry is stale.
        mark(&mut wb, &mut slots, 5, Nanos::ZERO);
        assert!(wb.clear(&mut slots, 5));
        slots.release(5);
        assert_eq!(slots.alloc(key(9), false), 5);
        mark(&mut wb, &mut slots, 5, Nanos::ZERO);
        let due = wb.take_due(&mut slots, Nanos::from_secs(2), 10);
        assert_eq!(due, vec![key(9), key(3)]);
        assert_eq!(wb.dirty_count(), 0);
    }
}
