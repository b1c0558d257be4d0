//! # rb-replay — the trace replay subsystem
//!
//! The paper's survey found trace-based evaluation the most popular
//! method (35 of the surveyed uses) and the least reproducible: traces
//! are unavailable, and when they are available they get replayed with
//! ad-hoc timing that changes what is being measured. This crate is the
//! systematic answer — the replay-trace taxonomy as a subsystem:
//!
//! * [`model`] — the portable trace formats: v1 (op stream) and v2
//!   (ops stamped with stream ids and relative arrival times), with a
//!   parser that reads both.
//! * [`record`] — the [`Recorder`] proxy: wrap any [`Target`], run any
//!   workload, get a v2 trace.
//! * [`timing`] — the [`Timing`] policies: `afap` (peak capacity),
//!   `faithful` (the recorded load), `scaled=N` (what-if temporal
//!   scaling).
//! * [`driver`] — dependency-aware multi-stream replay: per-stream
//!   program order and per-path happens-before are preserved, the
//!   remaining interleaving freedom is resolved by a seeded,
//!   deterministic merge.
//! * [`transform`] — filter / remap / merge / spatially scale traces,
//!   so one captured trace yields a family of scenarios.
//! * [`profile`] — trace characterization (op mix, working set,
//!   sequentiality, inter-arrival distribution) with a diff-stable
//!   renderer for golden-snapshot CI.
//! * [`target`] — the [`Target`] trait every driver in the stack is
//!   written against (re-exported by `rb_core` alongside its simulated
//!   and real-directory implementations).
//!
//! ```
//! use rb_replay::{replay_with, ReplayConfig, Timing, Trace};
//!
//! let trace = Trace::from_text(
//!     "# rocketbench-trace v2\n\
//!      0 0    create /a\n\
//!      0 1000 open   /a\n\
//!      1 1500 create /b\n\
//!      0 2000 write  /a 0 4096\n",
//! )
//! .unwrap();
//! assert_eq!(trace.stream_ids(), vec![0, 1]);
//! let cfg = ReplayConfig { timing: Timing::Faithful, seed: 7 };
//! // replay_with(&mut target, &trace, &cfg) drives any Target.
//! let _ = (trace, cfg);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod driver;
pub mod model;
pub mod profile;
pub mod record;
pub mod target;
pub mod timing;
pub mod transform;

pub use driver::{replay, replay_with, schedule, ReplayConfig, ReplayError, ReplayResult};
pub use model::{Trace, TraceEntry, TraceOp, TraceVersion};
pub use profile::{characterize, TraceProfile};
pub use record::Recorder;
pub use target::Target;
pub use timing::Timing;
pub use transform::{apply, merge, Transform};

/// A tiny in-memory [`Target`] for unit tests: constant-latency ops, an
/// op log, and a background-tick counter.
#[cfg(test)]
pub(crate) mod testutil {
    use crate::target::Target;
    use rb_simcore::error::{SimError, SimResult};
    use rb_simcore::time::Nanos;
    use rb_simcore::units::Bytes;
    use rb_simfs::intern::PathId;
    use rb_simfs::stack::{Fd, OpCost};
    use std::collections::{HashMap, HashSet};

    pub struct MemTarget {
        pub now: Nanos,
        pub files: HashMap<String, u64>,
        pub dirs: HashSet<String>,
        pub open: HashMap<Fd, String>,
        pub next_fd: Fd,
        /// (verb, path) per executed operation.
        pub log: Vec<(String, String)>,
        pub ticks: u32,
    }

    impl MemTarget {
        pub const OP_LATENCY: Nanos = Nanos::from_micros(1);

        pub fn new() -> MemTarget {
            MemTarget {
                now: Nanos::ZERO,
                files: HashMap::new(),
                dirs: HashSet::new(),
                open: HashMap::new(),
                next_fd: 3,
                log: Vec::new(),
                ticks: 0,
            }
        }

        /// Logs one executed operation and returns its cost.
        fn op(&mut self, verb: &str, path: &str) -> OpCost {
            self.log.push((verb.to_string(), path.to_string()));
            OpCost::cpu_only(Self::OP_LATENCY)
        }

        fn path_of(&self, fd: Fd) -> SimResult<String> {
            self.open
                .get(&fd)
                .cloned()
                .ok_or_else(|| SimError::InvalidOperation(format!("bad fd {fd}")))
        }
    }

    impl Target for MemTarget {
        fn name(&self) -> String {
            "mem".into()
        }

        fn now(&self) -> Nanos {
            self.now
        }

        fn advance(&mut self, d: Nanos) {
            self.now += d;
        }

        fn create_at(&mut self, _id: Option<PathId>, path: &str, _: Nanos) -> SimResult<OpCost> {
            self.files.insert(path.to_string(), 0);
            Ok(self.op("create", path))
        }

        fn mkdir_at(&mut self, _id: Option<PathId>, path: &str, _: Nanos) -> SimResult<OpCost> {
            self.dirs.insert(path.to_string());
            Ok(self.op("mkdir", path))
        }

        fn unlink_at(&mut self, _id: Option<PathId>, path: &str, _: Nanos) -> SimResult<OpCost> {
            self.files
                .remove(path)
                .ok_or_else(|| SimError::NotFound(path.into()))?;
            Ok(self.op("unlink", path))
        }

        fn stat_at(&mut self, _id: Option<PathId>, path: &str, _: Nanos) -> SimResult<OpCost> {
            if !self.files.contains_key(path) && !self.dirs.contains(path) {
                return Err(SimError::NotFound(path.into()));
            }
            Ok(self.op("stat", path))
        }

        fn open_at(
            &mut self,
            _id: Option<PathId>,
            path: &str,
            _: Nanos,
        ) -> SimResult<(Fd, OpCost)> {
            if !self.files.contains_key(path) {
                return Err(SimError::NotFound(path.into()));
            }
            let fd = self.next_fd;
            self.next_fd += 1;
            self.open.insert(fd, path.to_string());
            Ok((fd, self.op("open", path)))
        }

        fn set_size_at(&mut self, fd: Fd, size: Bytes, _: Nanos) -> SimResult<OpCost> {
            let path = self.path_of(fd)?;
            *self.files.get_mut(&path).expect("open file exists") = size.as_u64();
            Ok(self.op("setsize", &path))
        }

        fn read_at(&mut self, fd: Fd, _offset: Bytes, _len: Bytes, _: Nanos) -> SimResult<OpCost> {
            let path = self.path_of(fd)?;
            Ok(self.op("read", &path))
        }

        fn write_at(&mut self, fd: Fd, offset: Bytes, len: Bytes, _: Nanos) -> SimResult<OpCost> {
            let path = self.path_of(fd)?;
            let end = offset.as_u64() + len.as_u64();
            let size = self.files.get_mut(&path).expect("open file exists");
            *size = (*size).max(end);
            Ok(self.op("write", &path))
        }

        fn fsync_at(&mut self, fd: Fd, _: Nanos) -> SimResult<OpCost> {
            let path = self.path_of(fd)?;
            Ok(self.op("fsync", &path))
        }

        fn tick_at(&mut self, _: Nanos) -> Nanos {
            self.ticks += 1;
            Nanos::ZERO
        }

        fn close(&mut self, fd: Fd) -> SimResult<()> {
            let path = self.path_of(fd)?;
            self.open.remove(&fd);
            // Close has no `*_at` form to return a cost through, so its
            // latency goes straight onto the clock.
            let cost = self.op("close", &path);
            self.advance(cost.total());
            Ok(())
        }

        fn drop_caches(&mut self) -> bool {
            false
        }
    }
}
