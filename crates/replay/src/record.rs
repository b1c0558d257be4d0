//! Recording proxy: wraps a [`Target`], passing operations through
//! while appending them to a [`Trace`].
//!
//! The recorder emits v2 traces: every operation is stamped with its
//! arrival time (the instant the operation was issued, relative to when
//! recording started) and the recorder's current stream id. A harness
//! driving several logical threads through one recorder calls
//! [`Recorder::set_stream`] at context switches so the trace keeps the
//! per-thread structure that dependency-aware replay needs.

use crate::model::{Trace, TraceEntry, TraceOp, TraceVersion};
use crate::target::Target;
use rb_simcore::error::SimResult;
use rb_simcore::fnv::FnvHashMap;
use rb_simcore::time::Nanos;
use rb_simcore::units::Bytes;
use rb_simfs::intern::PathId;
use rb_simfs::stack::{Fd, OpCost};

/// A recording proxy: wraps a target, passing operations through while
/// appending them to a trace.
pub struct Recorder<'t, T: Target> {
    inner: &'t mut T,
    trace: Trace,
    paths: FnvHashMap<Fd, String>,
    start: Nanos,
    stream: u32,
}

impl<'t, T: Target> Recorder<'t, T> {
    /// Wraps a target; timestamps are relative to the target's clock at
    /// this moment.
    pub fn new(inner: &'t mut T) -> Self {
        let start = inner.now();
        Recorder {
            inner,
            trace: Trace {
                version: TraceVersion::V2,
                entries: Vec::new(),
            },
            paths: FnvHashMap::default(),
            start,
            stream: 0,
        }
    }

    /// Sets the stream (thread) id stamped on subsequent operations.
    pub fn set_stream(&mut self, stream: u32) {
        self.stream = stream;
    }

    /// The stream id currently being stamped.
    pub fn stream(&self) -> u32 {
        self.stream
    }

    /// Finishes recording, returning the (v2) trace.
    pub fn finish(self) -> Trace {
        self.trace
    }

    fn path_of(&self, fd: Fd) -> String {
        self.paths
            .get(&fd)
            .cloned()
            .unwrap_or_else(|| format!("<fd{fd}>"))
    }

    /// Appends an operation issued at instant `issue`.
    fn push(&mut self, issue: Nanos, op: TraceOp) {
        self.trace.entries.push(TraceEntry {
            at: issue - self.start,
            stream: self.stream,
            op,
        });
    }
}

impl<T: Target> Target for Recorder<'_, T> {
    fn name(&self) -> String {
        format!("record:{}", self.inner.name())
    }

    fn now(&self) -> Nanos {
        self.inner.now()
    }

    fn advance(&mut self, d: Nanos) {
        self.inner.advance(d);
    }

    fn create_at(&mut self, id: Option<PathId>, path: &str, issue: Nanos) -> SimResult<OpCost> {
        let cost = self.inner.create_at(id, path, issue)?;
        self.push(issue, TraceOp::Create(path.to_string()));
        Ok(cost)
    }

    fn mkdir_at(&mut self, id: Option<PathId>, path: &str, issue: Nanos) -> SimResult<OpCost> {
        let cost = self.inner.mkdir_at(id, path, issue)?;
        self.push(issue, TraceOp::Mkdir(path.to_string()));
        Ok(cost)
    }

    fn unlink_at(&mut self, id: Option<PathId>, path: &str, issue: Nanos) -> SimResult<OpCost> {
        let cost = self.inner.unlink_at(id, path, issue)?;
        self.push(issue, TraceOp::Unlink(path.to_string()));
        Ok(cost)
    }

    fn stat_at(&mut self, id: Option<PathId>, path: &str, issue: Nanos) -> SimResult<OpCost> {
        let cost = self.inner.stat_at(id, path, issue)?;
        self.push(issue, TraceOp::Stat(path.to_string()));
        Ok(cost)
    }

    fn open_at(&mut self, id: Option<PathId>, path: &str, issue: Nanos) -> SimResult<(Fd, OpCost)> {
        let (fd, cost) = self.inner.open_at(id, path, issue)?;
        self.paths.insert(fd, path.to_string());
        self.push(issue, TraceOp::Open(path.to_string()));
        Ok((fd, cost))
    }

    fn set_size_at(&mut self, fd: Fd, size: Bytes, issue: Nanos) -> SimResult<OpCost> {
        let cost = self.inner.set_size_at(fd, size, issue)?;
        let op = TraceOp::SetSize {
            path: self.path_of(fd),
            size: size.as_u64(),
        };
        self.push(issue, op);
        Ok(cost)
    }

    fn read_at(&mut self, fd: Fd, offset: Bytes, len: Bytes, issue: Nanos) -> SimResult<OpCost> {
        let cost = self.inner.read_at(fd, offset, len, issue)?;
        let op = TraceOp::Read {
            path: self.path_of(fd),
            offset: offset.as_u64(),
            len: len.as_u64(),
        };
        self.push(issue, op);
        Ok(cost)
    }

    fn write_at(&mut self, fd: Fd, offset: Bytes, len: Bytes, issue: Nanos) -> SimResult<OpCost> {
        let cost = self.inner.write_at(fd, offset, len, issue)?;
        let op = TraceOp::Write {
            path: self.path_of(fd),
            offset: offset.as_u64(),
            len: len.as_u64(),
        };
        self.push(issue, op);
        Ok(cost)
    }

    fn fsync_at(&mut self, fd: Fd, issue: Nanos) -> SimResult<OpCost> {
        let cost = self.inner.fsync_at(fd, issue)?;
        let op = TraceOp::Fsync(self.path_of(fd));
        self.push(issue, op);
        Ok(cost)
    }

    fn tick_at(&mut self, issue: Nanos) -> Nanos {
        self.inner.tick_at(issue)
    }

    fn close(&mut self, fd: Fd) -> SimResult<()> {
        let issue = self.inner.now();
        let path = self.path_of(fd);
        self.inner.close(fd)?;
        self.paths.remove(&fd);
        self.push(issue, TraceOp::Close(path));
        Ok(())
    }

    fn drop_caches(&mut self) -> bool {
        self.inner.drop_caches()
    }

    fn set_cache_capacity_pages(&mut self, pages: u64) {
        self.inner.set_cache_capacity_pages(pages);
    }

    fn cache_hit_ratio(&self) -> Option<f64> {
        self.inner.cache_hit_ratio()
    }

    fn cache_stats(&self) -> Option<rb_simcache::page::CacheStats> {
        self.inner.cache_stats()
    }
}
