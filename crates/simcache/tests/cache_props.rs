//! Property-style tests for the page cache: the readahead window bound,
//! no double flush in writeback, dirty accounting under every policy,
//! hit/miss accounting, and prefetch-hit accounting under slot reuse.
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

/// A page's prefetched mark belongs to the page, not to the slot it
/// occupies: under every policy, with caches small enough that slots
/// are reused many times over, `prefetch_hits` counts exactly the
/// first demand reads of pages that readahead brought in and that have
/// stayed resident since. Writes do not consume the mark.
#[test]
fn prefetch_hits_match_a_model_of_the_prefetched_set() {
    const FILE_PAGES: u64 = 96;
    let (mut hits, mut evictions) = (0, 0);
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let policy = PolicyKind::ALL[(seed % 4) as usize];
        let mut cache = PageCache::new(CacheConfig {
            capacity_pages: 4 + rng.below(28),
            policy,
            readahead: ReadaheadConfig {
                initial_window: len(&mut rng, 4),
                max_window: 4 + rng.below(28),
                enabled: true,
            },
            writeback: WritebackConfig::default(),
        });
        // Pages prefetched and not yet read, while they stay resident.
        let mut prefetched: HashSet<(u64, u64)> = HashSet::new();
        let mut want = 0;
        let mut next = [0u64; 2];
        for _ in 0..len(&mut rng, 299) {
            let f = rng.below(2) as usize;
            let file = f as u64 + 1;
            let page = rng.below(FILE_PAGES);
            match rng.below(10) {
                0..=6 => {
                    // Two reads in three continue the file's stream.
                    let first = if rng.below(3) == 0 { page } else { next[f] };
                    let count = len(&mut rng, 4).min(FILE_PAGES - first);
                    next[f] = (first + count) % FILE_PAGES;
                    for p in first..first + count {
                        want += u64::from(prefetched.remove(&(file, p)));
                    }
                    let out = cache.read(file, first, count, FILE_PAGES, Nanos::ZERO);
                    prefetched.extend(out.prefetch_pages.iter().map(|&p| (file, p)));
                }
                7 => {
                    cache.write(file, page, 1, Nanos::ZERO);
                }
                8 => cache.invalidate_page(file, page),
                _ => {
                    cache.invalidate_file(file);
                    next[f] = 0;
                }
            }
            prefetched.retain(|&(file, p)| cache.is_resident(file, p));
            assert_eq!(
                cache.stats().prefetch_hits,
                want,
                "seed {seed} ({}): prefetch hits diverged",
                policy.name()
            );
        }
        let s = cache.stats();
        hits += s.prefetch_hits;
        evictions += s.evicted_clean + s.evicted_dirty;
    }
    assert!(
        hits > 0 && evictions > 0,
        "{hits} prefetch hits, {evictions} evictions"
    );
}
