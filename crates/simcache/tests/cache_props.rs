//! Property-style tests for the page cache: the readahead window bound,
//! no double flush in writeback, dirty accounting under every policy,
//! and hit/miss accounting.
//!
//! Each property runs a fixed budget of randomized cases drawn from the
//! repo's own deterministic [`Rng`] (the proptest crate is unvendored);
//! a failing case names its seed, and `Rng::new(seed)` replays it.

use rb_simcache::cache::{CacheConfig, PageCache};
use rb_simcache::policy::PolicyKind;
use rb_simcache::readahead::{Readahead, ReadaheadConfig};
use rb_simcache::writeback::WritebackConfig;
use rb_simcore::rng::Rng;
use rb_simcore::time::Nanos;
use std::collections::HashSet;

const CASES: u64 = 256;

/// A length in `1..=max`.
fn len(rng: &mut Rng, max: u64) -> u64 {
    1 + rng.below(max)
}

/// The readahead window never exceeds its maximum (or the initial
/// window, if that is larger) and is zero after any non-sequential
/// access.
#[test]
fn readahead_window_bounded() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let max_window = len(&mut rng, 63);
        let mut ra = Readahead::new(ReadaheadConfig {
            initial_window: 4,
            max_window,
            enabled: true,
        });
        let mut expected_next: Option<u64> = None;
        for _ in 0..len(&mut rng, 99) {
            // Every other access continues the stream.
            let page = match expected_next {
                Some(next) if rng.below(2) == 0 => next,
                _ => rng.below(1000),
            };
            let count = len(&mut rng, 7);
            let sequential = expected_next == Some(page);
            let w = ra.on_read(page, count);
            assert!(w <= max_window.max(4), "seed {seed}: window {w}");
            if !sequential {
                assert_eq!(w, 0, "seed {seed}: prefetched after a random access");
            }
            expected_next = Some(page + count);
        }
    }
}

/// Writeback bookkeeping: the dirty count tracks the pages written, and
/// background writeback flushes each of them exactly once.
#[test]
fn writeback_no_double_flush() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let mut cache = PageCache::new(CacheConfig {
            capacity_pages: 1000,
            policy: PolicyKind::Lru,
            readahead: ReadaheadConfig::disabled(),
            writeback: WritebackConfig {
                dirty_ratio: 0.0, // everything is always due
                max_age: Nanos::ZERO,
                batch: 8,
            },
        });
        let mut dirty = HashSet::new();
        for _ in 0..len(&mut rng, 199) {
            let page = rng.below(100);
            let at = Nanos::from_nanos(rng.below(1000));
            assert!(cache.write(1, page, 1, at).writeback_pages.is_empty());
            dirty.insert(page);
            assert_eq!(cache.dirty_pages() as usize, dirty.len(), "seed {seed}");
        }
        let mut flushed = HashSet::new();
        loop {
            let due = cache.take_writeback_due(Nanos::from_secs(10_000));
            if due.is_empty() {
                break;
            }
            for k in due {
                assert!(flushed.insert(k.page), "seed {seed}: page flushed twice");
                assert!(dirty.contains(&k.page), "seed {seed}: clean page flushed");
            }
        }
        assert_eq!(flushed, dirty, "seed {seed}");
        assert_eq!(cache.dirty_pages(), 0, "seed {seed}");
    }
}

/// Mixed reads and writes never lose dirty pages, under every policy:
/// every page written and not yet evicted is still dirty, and fsync
/// returns exactly those pages.
#[test]
fn cache_dirty_accounting() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let policy = PolicyKind::ALL[(seed % 4) as usize];
        let mut cache = PageCache::new(CacheConfig {
            capacity_pages: 32,
            policy,
            readahead: ReadaheadConfig::disabled(),
            writeback: WritebackConfig::default(),
        });
        let mut dirty = HashSet::new();
        for _ in 0..len(&mut rng, 299) {
            let page = rng.below(64);
            let evicted = if rng.below(2) == 0 {
                dirty.insert(page);
                cache.write(1, page, 1, Nanos::ZERO).writeback_pages
            } else {
                cache.read(1, page, 1, 64, Nanos::ZERO).writeback_pages
            };
            for k in evicted {
                assert!(
                    dirty.remove(&k.page),
                    "seed {seed}: evicted a clean page as dirty"
                );
            }
            assert_eq!(
                cache.dirty_pages() as usize,
                dirty.len(),
                "seed {seed} ({}): dirty count diverged",
                policy.name()
            );
        }
        let flushed: HashSet<u64> = cache.fsync(1).into_iter().map(|k| k.page).collect();
        assert_eq!(flushed, dirty, "seed {seed} ({})", policy.name());
    }
}

/// Hits plus misses equal the pages requested, for any access mix.
#[test]
fn cache_lookup_accounting() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let mut cache = PageCache::new(CacheConfig {
            capacity_pages: 64,
            policy: PolicyKind::Lru,
            readahead: ReadaheadConfig::disabled(),
            writeback: WritebackConfig::default(),
        });
        let mut requested = 0;
        for _ in 0..len(&mut rng, 199) {
            let (page, count) = (rng.below(256), len(&mut rng, 3));
            cache.read(1, page, count, 1 << 20, Nanos::ZERO);
            requested += count;
        }
        let s = cache.stats();
        assert_eq!(s.hits + s.misses, requested, "seed {seed}");
    }
}
