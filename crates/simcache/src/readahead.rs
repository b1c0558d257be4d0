//! Sequential readahead: Linux-style window state machine.
//!
//! The paper notes that applications "can rarely control how a file
//! system caches and prefetches data", and that prefetching is tangled
//! with layout in every on-disk benchmark. Modelling readahead explicitly
//! lets rocketbench *untangle* them: experiments can switch prefetching
//! off, cap the window, or compare policies while holding layout fixed.

use rb_simcore::units::PageNo;

/// Readahead configuration (per open file).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadaheadConfig {
    /// Window size used when a sequential stream is first detected.
    pub initial_window: u64,
    /// Maximum window size (Linux default: 128 KiB = 32 pages).
    pub max_window: u64,
    /// Whether readahead is enabled at all.
    pub enabled: bool,
}

impl Default for ReadaheadConfig {
    fn default() -> Self {
        ReadaheadConfig {
            initial_window: 4,
            max_window: 32,
            enabled: true,
        }
    }
}

impl ReadaheadConfig {
    /// Readahead disabled (pure demand paging).
    pub fn disabled() -> Self {
        ReadaheadConfig {
            enabled: false,
            ..Default::default()
        }
    }
}

/// Per-file readahead state machine.
///
/// Detects sequential streams (next read begins where the previous one
/// ended), doubling the prefetch window per sequential access up to the
/// maximum; any non-sequential access collapses the window, so random
/// workloads pay no prefetch tax.
///
/// # Examples
///
/// ```
/// use rb_simcache::readahead::{Readahead, ReadaheadConfig};
///
/// let mut ra = Readahead::new(ReadaheadConfig::default());
/// assert_eq!(ra.on_read(0, 2), 0);  // first touch: no history
/// assert_eq!(ra.on_read(2, 2), 4);  // sequential: initial window
/// assert_eq!(ra.on_read(4, 2), 8);  // doubled
/// assert_eq!(ra.on_read(100, 2), 0); // random: collapsed
/// ```
#[derive(Debug, Clone)]
pub struct Readahead {
    config: ReadaheadConfig,
    expected_next: Option<PageNo>,
    window: u64,
}

impl Readahead {
    /// Creates state for a freshly opened file.
    pub fn new(config: ReadaheadConfig) -> Self {
        Readahead {
            config,
            expected_next: None,
            window: 0,
        }
    }

    /// Current window size in pages.
    pub fn window(&self) -> u64 {
        self.window
    }

    /// Notes a read of `count` pages starting at `page`; returns how many
    /// pages *beyond the request* should be prefetched.
    pub fn on_read(&mut self, page: PageNo, count: u64) -> u64 {
        if !self.config.enabled {
            return 0;
        }
        let sequential = self.expected_next == Some(page);
        self.expected_next = Some(page + count.max(1));
        if sequential {
            self.window = if self.window == 0 {
                self.config.initial_window
            } else {
                (self.window * 2).min(self.config.max_window)
            };
        } else {
            self.window = 0;
        }
        self.window
    }

    /// True until the first read (or since a reset): the state a fresh
    /// file starts with.
    pub(crate) fn is_fresh(&self) -> bool {
        self.expected_next.is_none()
    }

    /// Resets stream detection (e.g. after a seek or reopen).
    pub fn reset(&mut self) {
        self.expected_next = None;
        self.window = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ramps_to_max_and_holds() {
        let mut ra = Readahead::new(ReadaheadConfig::default());
        ra.on_read(0, 1);
        let sizes: Vec<u64> = (1..9).map(|next| ra.on_read(next, 1)).collect();
        assert_eq!(sizes, vec![4, 8, 16, 32, 32, 32, 32, 32]);
    }

    #[test]
    fn random_never_prefetches() {
        let mut ra = Readahead::new(ReadaheadConfig::default());
        let pages = [100u64, 3, 77, 12, 500, 9];
        for p in pages {
            assert_eq!(ra.on_read(p, 2), 0, "prefetched on random access at {p}");
        }
    }

    #[test]
    fn interleaved_random_collapses_stream() {
        let mut ra = Readahead::new(ReadaheadConfig::default());
        ra.on_read(0, 2);
        assert!(ra.on_read(2, 2) > 0);
        ra.on_read(99, 2); // stream broken
        assert_eq!(ra.window(), 0);
        // Rebuilding the stream restarts from the initial window.
        assert_eq!(ra.on_read(101, 2), 4);
    }

    #[test]
    fn disabled_config_is_inert() {
        let mut ra = Readahead::new(ReadaheadConfig::disabled());
        ra.on_read(0, 2);
        assert_eq!(ra.on_read(2, 2), 0);
        assert_eq!(ra.window(), 0);
    }

    #[test]
    fn reset_forgets_history() {
        let mut ra = Readahead::new(ReadaheadConfig::default());
        ra.on_read(0, 2);
        ra.reset();
        // Would have been sequential without the reset.
        assert_eq!(ra.on_read(2, 2), 0);
    }
}
