//! # rb-simcache — simulated page cache
//!
//! The memory layer between workloads and media: residency tracking with
//! pluggable replacement (LRU, CLOCK, 2Q, ARC), Linux-style sequential
//! readahead, and dirty-page writeback.
//!
//! The paper's central case study is *entirely* a cache story: the
//! Figure 1 cliff is the file size crossing cache capacity, the fragile
//! ±35 % transition region is a few megabytes of capacity wobble, the
//! Figure 2 S-curve is cache fill, and the Figure 3/4 bimodality is the
//! hit/miss latency mixture. This crate makes each of those knobs an
//! explicit, testable parameter.
//!
//! ## Example
//!
//! ```
//! use rb_simcache::prelude::*;
//! use rb_simcore::time::Nanos;
//!
//! let mut cache = PageCache::new(CacheConfig::paper_testbed());
//! let out = cache.read(1, 0, 2, 100_000, Nanos::ZERO);
//! assert_eq!(out.miss_pages.len(), 2); // cold cache: both pages miss
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arc;
pub mod cache;
pub mod clock;
pub mod lru;
mod olist;
#[cfg(test)]
mod oracle;
pub mod page;
pub mod policy;
pub mod readahead;
pub mod twoq;
pub mod writeback;

/// Commonly used items, for glob import.
pub mod prelude {
    pub use crate::arc::ArcPolicy;
    pub use crate::cache::{CacheConfig, PageCache, ReadOutcome, WriteOutcome};
    pub use crate::clock::Clock;
    pub use crate::lru::Lru;
    pub use crate::page::{CacheStats, FileId, PageKey};
    pub use crate::policy::{EvictionPolicy, PolicyKind};
    pub use crate::readahead::{Readahead, ReadaheadConfig};
    pub use crate::twoq::TwoQ;
    pub use crate::writeback::WritebackConfig;
}
