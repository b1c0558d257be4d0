//! The replay driver: executes a [`Trace`] against a [`Target`] under a
//! [`Timing`] policy, with dependency-aware multi-stream interleaving.
//!
//! ## Ordering model
//!
//! A v2 trace carries several streams (threads). Replay preserves:
//!
//! * **program order** — entries of one stream execute in trace order;
//! * **per-path happens-before** — two operations addressing the same
//!   path never reorder relative to the trace, even across streams.
//!   (File handles are looked up by path, so per-path order subsumes
//!   per-fd order.)
//! * **namespace happens-before** — a `create`/`mkdir` never overtakes
//!   an earlier operation on its parent directory (the `mkdir` that
//!   made the parent must land first, whichever stream issued it).
//!
//! Everything else — the interleaving of *independent* streams — is
//! deliberately unspecified by the trace, and the driver resolves it
//! with a seeded merge: whenever several streams are runnable, the
//! choice is drawn from a deterministic RNG derived from
//! [`ReplayConfig::seed`]. Like the campaign sharder, the schedule is a
//! pure function of (trace, config), so results are byte-identical on
//! any machine at any parallelism, while different seeds explore
//! different legal interleavings.
//!
//! ## Timing
//!
//! Under [`Timing::Faithful`] and [`Timing::Scaled`] an operation is
//! not issued before its (possibly scaled) recorded arrival time, and
//! the target's background tick fires on the same 5 s cadence the
//! workload engine uses, so writeback behaves as it would under the
//! original load. On a time-parameterized target, a timed
//! *multi-stream* trace runs through the overlapped discrete-event
//! engine ([`replay_with`] dispatches automatically): each recorded
//! stream issues in program order at `max(due time, predecessor
//! completion, happens-before completions)` while media phases
//! serialize on the shared device — the streams genuinely proceed in
//! parallel instead of taking turns through one serialized clock.
//! Timed single-stream traces (and targets that only run ops at their
//! own `now()`) keep the serialized path, which issues every op at the
//! target clock, advances it by the op's cost, and waits via
//! [`Target::advance`]. Under
//! [`Timing::Afap`] no waiting, no overlap and no extra ticks happen:
//! a single-stream afap replay is byte-identical to the pre-v2 replay
//! loop, and multi-stream afap keeps the seeded serialized merge.

use crate::model::{Trace, TraceOp};
use crate::target::Target;
use crate::timing::Timing;
use rb_simcore::error::SimResult;
use rb_simcore::events::{DeviceQueue, EventQueue};
use rb_simcore::fnv::FnvHashMap;
use rb_simcore::rng::Rng;
use rb_simcore::time::Nanos;
use rb_simcore::units::Bytes;
use rb_simfs::intern::PathId;
use rb_simfs::stack::{Fd, OpCost};
use rb_stats::histogram::Log2Histogram;

/// Background-tick cadence during timed replay (the workload engine's
/// flusher cadence).
const TICK_EVERY: Nanos = Nanos::from_secs(5);

/// How a replay run is executed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplayConfig {
    /// When operations are issued.
    pub timing: Timing,
    /// Seed for the deterministic merge of independent streams.
    pub seed: u64,
}

impl Default for ReplayConfig {
    /// As fast as possible, seed 0 — the classic replay.
    fn default() -> Self {
        ReplayConfig {
            timing: Timing::Afap,
            seed: 0,
        }
    }
}

/// The first operation that failed during a replay.
#[derive(Debug, Clone)]
pub struct ReplayError {
    /// Index of the entry in the trace.
    pub index: usize,
    /// The operation, rendered as its trace line.
    pub op: String,
    /// The underlying error.
    pub message: String,
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "op #{} `{}`: {}", self.index, self.op, self.message)
    }
}

/// Result of replaying a trace.
#[derive(Debug, Clone)]
pub struct ReplayResult {
    /// Operations executed successfully.
    pub ops: u64,
    /// Operations that failed.
    pub errors: u64,
    /// Total virtual/wall time consumed.
    pub duration: Nanos,
    /// Latency histogram over all operations.
    pub histogram: Log2Histogram,
    /// The first failing operation, when any failed.
    pub first_error: Option<ReplayError>,
}

impl ReplayResult {
    /// Mean throughput over the replay.
    pub fn ops_per_sec(&self) -> f64 {
        let secs = self.duration.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.ops as f64 / secs
        }
    }
}

/// The driver's handle table: path → open fd, keyed by pre-resolved
/// [`PathId`] when the target provides one (one integer probe per data
/// op) and by path string otherwise.
#[derive(Default)]
struct FdTable {
    by_id: FnvHashMap<PathId, Fd>,
    by_path: FnvHashMap<String, Fd>,
}

impl FdTable {
    fn get(&self, id: Option<PathId>, path: &str) -> Option<Fd> {
        match id {
            Some(i) => self.by_id.get(&i).copied(),
            None => self.by_path.get(path).copied(),
        }
    }

    fn insert(&mut self, id: Option<PathId>, path: &str, fd: Fd) {
        match id {
            Some(i) => {
                self.by_id.insert(i, fd);
            }
            None => {
                self.by_path.insert(path.to_string(), fd);
            }
        }
    }

    fn remove(&mut self, id: Option<PathId>, path: &str) -> Option<Fd> {
        match id {
            Some(i) => self.by_id.remove(&i),
            None => self.by_path.remove(path),
        }
    }

    /// The handle for `path`, opened at `issue` when the trace omitted
    /// its `open` (the open's cost then joins `spent`).
    fn ensure_open(
        &mut self,
        target: &mut dyn Target,
        id: Option<PathId>,
        path: &str,
        issue: Nanos,
        spent: &mut OpCost,
    ) -> SimResult<Fd> {
        if let Some(fd) = self.get(id, path) {
            return Ok(fd);
        }
        let (fd, cost) = target.open_at(id, path, issue)?;
        *spent += cost;
        self.insert(id, path, fd);
        Ok(fd)
    }
}

/// Executes one trace entry at instant `issue` through the target's
/// `*_at` surface, resolving handles by path (opening on demand if the
/// trace omitted the `open`). `id` is the entry's pre-resolved path,
/// when the target resolves paths.
///
/// Every completed step adds its cost to `spent`, on failure too: a
/// data op whose lazy open succeeded still spent the open's time, which
/// the serialized replay keeps on its clock.
fn apply_op_timed(
    target: &mut dyn Target,
    fds: &mut FdTable,
    op: &TraceOp,
    id: Option<PathId>,
    issue: Nanos,
    spent: &mut OpCost,
) -> SimResult<()> {
    let cost = match op {
        TraceOp::Create(p) => target.create_at(id, p, issue)?,
        TraceOp::Mkdir(p) => target.mkdir_at(id, p, issue)?,
        TraceOp::Open(p) => {
            fds.ensure_open(target, id, p, issue, spent)?;
            return Ok(());
        }
        TraceOp::Close(p) => {
            if let Some(fd) = fds.remove(id, p) {
                target.close(fd)?;
            }
            return Ok(());
        }
        TraceOp::Read { path, offset, len } => {
            let fd = fds.ensure_open(target, id, path, issue, spent)?;
            let at = issue + spent.total();
            target.read_at(fd, Bytes::new(*offset), Bytes::new(*len), at)?
        }
        TraceOp::Write { path, offset, len } => {
            let fd = fds.ensure_open(target, id, path, issue, spent)?;
            let at = issue + spent.total();
            target.write_at(fd, Bytes::new(*offset), Bytes::new(*len), at)?
        }
        TraceOp::SetSize { path, size } => {
            let fd = fds.ensure_open(target, id, path, issue, spent)?;
            target.set_size_at(fd, Bytes::new(*size), issue + spent.total())?
        }
        TraceOp::Fsync(p) => {
            let fd = fds.ensure_open(target, id, p, issue, spent)?;
            target.fsync_at(fd, issue + spent.total())?
        }
        TraceOp::Stat(p) => target.stat_at(id, p, issue)?,
        TraceOp::Unlink(p) => {
            if let Some(fd) = fds.remove(id, p) {
                let _ = target.close(fd);
            }
            target.unlink_at(id, p, issue)?
        }
    };
    *spent += cost;
    Ok(())
}

/// Cross-stream happens-before edges: entry `i` depends on the latest
/// earlier entry on the same path from a *different* stream
/// (same-stream predecessors are covered by program order, and
/// transitivity covers longer chains). Namespace ops additionally
/// depend on the latest earlier op on their parent directory, so
/// `create /d/f` never overtakes the `mkdir /d` that makes it
/// possible. Every edge points to an earlier trace index, which is
/// what makes both the serialized merge and the overlapped engine
/// deadlock-free.
fn dep_edges(trace: &Trace) -> Vec<[Option<usize>; 2]> {
    fn parent(path: &str) -> Option<&str> {
        match path.rfind('/') {
            Some(0) | None => None,
            Some(k) => Some(&path[..k]),
        }
    }
    let entries = &trace.entries;
    let mut last_on_path: FnvHashMap<&str, usize> = FnvHashMap::default();
    let mut dep: Vec<[Option<usize>; 2]> = vec![[None; 2]; entries.len()];
    for (i, e) in entries.iter().enumerate() {
        let path = e.op.path();
        if let Some(&j) = last_on_path.get(path) {
            if entries[j].stream != e.stream {
                dep[i][0] = Some(j);
            }
        }
        if matches!(e.op, TraceOp::Create(_) | TraceOp::Mkdir(_)) {
            if let Some(&j) = parent(path).and_then(|p| last_on_path.get(p)) {
                if entries[j].stream != e.stream {
                    dep[i][1] = Some(j);
                }
            }
        }
        last_on_path.insert(path, i);
    }
    dep
}

/// Pre-resolves every distinct path once (pure bookkeeping on the
/// target, free of simulation side effects), so per-op dispatch is an
/// id probe instead of a string hash + split.
fn resolve_paths(target: &mut dyn Target, trace: &Trace) -> Vec<Option<PathId>> {
    let mut seen: FnvHashMap<&str, Option<PathId>> = FnvHashMap::default();
    trace
        .entries
        .iter()
        .map(|e| {
            let path = e.op.path();
            *seen
                .entry(path)
                .or_insert_with(|| target.prepare_path(path))
        })
        .collect()
}

/// The deterministic serialized replay schedule: trace-entry indices in
/// execution order, a pure function of (trace, timing, seed).
///
/// Exposed for tests and analysis; [`replay_with`] consumes it on the
/// serialized path (afap, single-stream, or targets without
/// [`Target::supports_timed`]). The
/// schedule preserves per-stream program order and per-path trace
/// order, and resolves the remaining freedom with the seeded merge
/// described in the [module docs](self).
pub fn schedule(trace: &Trace, timing: Timing, seed: u64) -> Vec<usize> {
    let entries = &trace.entries;
    let n = entries.len();
    // Streams, preserving trace order within each.
    let ids = trace.stream_ids();
    let stream_index: FnvHashMap<u32, usize> =
        ids.iter().enumerate().map(|(i, &s)| (s, i)).collect();
    let mut queues: Vec<Vec<usize>> = vec![Vec::new(); ids.len()];
    for (i, e) in entries.iter().enumerate() {
        queues[stream_index[&e.stream]].push(i);
    }
    let dep = dep_edges(trace);

    let mut rng = Rng::new(seed).fork("replay-merge");
    let mut cursor = vec![0usize; queues.len()];
    let mut done = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut eligible: Vec<usize> = Vec::with_capacity(queues.len());
    while order.len() < n {
        eligible.clear();
        for (s, q) in queues.iter().enumerate() {
            if let Some(&i) = q.get(cursor[s]) {
                if dep[i].iter().all(|d| d.is_none_or(|j| done[j])) {
                    eligible.push(i);
                }
            }
        }
        // Always nonempty: the unexecuted entry with the smallest trace
        // index is its stream's head and its dependency (earlier in the
        // trace) is done.
        let chosen = if eligible.len() == 1 {
            eligible[0]
        } else {
            match timing.due(Nanos::ZERO) {
                // Afap: pure seeded choice among runnable streams.
                None => eligible[rng.below(eligible.len() as u64) as usize],
                // Timed: earliest due operation fires first; ties are
                // broken by the same seeded draw.
                Some(_) => {
                    let due_of = |i: usize| timing.due(entries[i].at).unwrap_or(Nanos::ZERO);
                    let min_due = eligible.iter().map(|&i| due_of(i)).min().unwrap();
                    let tied: Vec<usize> = eligible
                        .iter()
                        .copied()
                        .filter(|&i| due_of(i) == min_due)
                        .collect();
                    if tied.len() == 1 {
                        tied[0]
                    } else {
                        tied[rng.below(tied.len() as u64) as usize]
                    }
                }
            }
        };
        let s = stream_index[&entries[chosen].stream];
        cursor[s] += 1;
        done[chosen] = true;
        order.push(chosen);
    }
    order
}

/// Replays a trace under a timing policy and merge seed.
///
/// File handles are managed by path: `open` lines open, data ops look up
/// the handle (opening on demand if the trace omitted it). Individual
/// operation failures are counted, not fatal, so traces captured on one
/// system remain usable on another with a slightly different namespace;
/// the first failure is reported in [`ReplayResult::first_error`] so
/// callers can surface it.
///
/// Under [`Timing::Faithful`] and [`Timing::Scaled`], a multi-stream
/// trace on a time-parameterized target runs through the overlapped
/// discrete-event engine: independent streams genuinely proceed in
/// parallel, contending for the shared device, instead of being
/// serialized through one merged order. As-fast-as-possible replay and
/// single-stream traces keep the classic serialized path byte-for-byte.
pub fn replay_with(target: &mut dyn Target, trace: &Trace, config: &ReplayConfig) -> ReplayResult {
    if !matches!(config.timing, Timing::Afap)
        && trace.stream_ids().len() > 1
        && target.supports_timed()
    {
        return replay_overlapped(target, trace, config);
    }
    let order = schedule(trace, config.timing, config.seed);
    let path_ids = resolve_paths(target, trace);
    let mut fds = FdTable::default();
    let mut ops = 0u64;
    let mut errors = 0u64;
    let mut histogram = Log2Histogram::new();
    let mut first_error = None;
    let start = target.now();
    let mut next_tick = start + TICK_EVERY;

    for &i in &order {
        let entry = &trace.entries[i];
        if let Some(due) = config.timing.due(entry.at) {
            // Walk the clock to the arrival time, firing the flusher on
            // its cadence along the way (afap takes neither branch, so
            // the legacy fast path is untouched).
            let due_abs = start + due;
            while next_tick <= due_abs {
                let gap = next_tick - target.now();
                if !gap.is_zero() {
                    target.advance(gap);
                }
                target.background_tick();
                next_tick += TICK_EVERY;
            }
            let now = target.now();
            if now < due_abs {
                target.advance(due_abs - now);
            }
        }
        // Issue on the target's clock, then advance it by what the op
        // spent — a lazy open before a failed data op included.
        let issue = target.now();
        let mut spent = OpCost::default();
        let result = apply_op_timed(target, &mut fds, &entry.op, path_ids[i], issue, &mut spent);
        target.advance(spent.total());
        match result {
            Ok(()) => {
                ops += 1;
                histogram.record(spent.total());
            }
            Err(e) => {
                errors += 1;
                if first_error.is_none() {
                    first_error = Some(ReplayError {
                        index: i,
                        op: entry.op.to_line(),
                        message: e.to_string(),
                    });
                }
            }
        }
    }
    ReplayResult {
        ops,
        errors,
        duration: target.now() - start,
        histogram,
        first_error,
    }
}

/// What the overlapped replay engine pops from its event queue.
#[derive(Debug, Clone, Copy)]
enum ReplayEvent {
    /// Re-evaluate stream `s`'s head entry for issue.
    TryIssue(usize),
    /// Background-flusher tick.
    Tick,
}

/// Timed multi-stream replay with genuine overlap: each trace stream is
/// a scheduler process issuing its entries in program order at
/// `max(recorded due time, predecessor completion, dependency
/// completions)`, with media phases serializing on the shared device
/// and the flusher ticking on its cadence. The happens-before edges are
/// the same ones the serialized merge respects, so the replay is
/// faithful to the trace's ordering semantics — it just stops
/// pretending the streams took turns.
fn replay_overlapped(
    target: &mut dyn Target,
    trace: &Trace,
    config: &ReplayConfig,
) -> ReplayResult {
    let entries = &trace.entries;
    let n = entries.len();
    let ids = trace.stream_ids();
    let stream_index: FnvHashMap<u32, usize> =
        ids.iter().enumerate().map(|(i, &s)| (s, i)).collect();
    let mut queues: Vec<Vec<usize>> = vec![Vec::new(); ids.len()];
    for (i, e) in entries.iter().enumerate() {
        queues[stream_index[&e.stream]].push(i);
    }
    let dep = dep_edges(trace);
    let path_ids = resolve_paths(target, trace);
    let mut fds = FdTable::default();

    let start = target.now();
    let due_abs = |i: usize| start + config.timing.due(entries[i].at).unwrap_or(Nanos::ZERO);
    let mut done = vec![false; n];
    let mut completion = vec![Nanos::ZERO; n];
    let mut stream_last = vec![start; queues.len()];
    let mut cursor = vec![0usize; queues.len()];
    // The shared-device token from rb-simcore: the same serialization
    // primitive the workload scheduler uses.
    let mut device = DeviceQueue::idle_from(start);
    let mut remaining = n;
    let mut ops = 0u64;
    let mut errors = 0u64;
    let mut histogram = Log2Histogram::new();
    let mut first_error = None;
    let mut finished = start;

    let mut queue: EventQueue<ReplayEvent> = EventQueue::new();
    for (s, q) in queues.iter().enumerate() {
        if let Some(&i) = q.first() {
            queue.schedule(due_abs(i), ReplayEvent::TryIssue(s));
        }
    }
    queue.schedule(start + TICK_EVERY, ReplayEvent::Tick);

    while let Some((now, event)) = queue.pop() {
        match event {
            ReplayEvent::Tick => {
                if remaining == 0 {
                    continue; // drained: stop rescheduling
                }
                let begin = device.next_free().max(now);
                let spent = target.tick_at(begin);
                if !spent.is_zero() {
                    device.serve(begin, spent);
                }
                queue.schedule(now + TICK_EVERY, ReplayEvent::Tick);
            }
            ReplayEvent::TryIssue(s) => {
                let Some(&i) = queues[s].get(cursor[s]) else {
                    continue; // stream already drained
                };
                // Blocked on an unexecuted dependency: a broadcast at
                // that dependency's completion will retrigger us.
                if dep[i].iter().any(|d| d.is_some_and(|j| !done[j])) {
                    continue;
                }
                let mut ready = due_abs(i).max(stream_last[s]);
                for d in dep[i].iter().flatten() {
                    ready = ready.max(completion[*d]);
                }
                if ready > now {
                    queue.schedule(ready, ReplayEvent::TryIssue(s));
                    continue;
                }
                // A failed op charges nothing: its stream moves on at
                // `now`.
                let mut cost = OpCost::default();
                let completed = match apply_op_timed(
                    target,
                    &mut fds,
                    &entries[i].op,
                    path_ids[i],
                    now,
                    &mut cost,
                ) {
                    Ok(()) => {
                        ops += 1;
                        let after_cpu = now + cost.cpu;
                        let completed = if cost.device.is_zero() {
                            after_cpu
                        } else {
                            device.serve(after_cpu, cost.device)
                        };
                        histogram.record(completed - now);
                        completed
                    }
                    Err(e) => {
                        errors += 1;
                        if first_error.is_none() {
                            first_error = Some(ReplayError {
                                index: i,
                                op: entries[i].op.to_line(),
                                message: e.to_string(),
                            });
                        }
                        now
                    }
                };
                done[i] = true;
                completion[i] = completed;
                stream_last[s] = completed;
                cursor[s] += 1;
                remaining -= 1;
                finished = finished.max(completed);
                // Wake this stream for its next entry, and every other
                // stream whose head might have been waiting on `i`.
                if let Some(&j) = queues[s].get(cursor[s]) {
                    queue.schedule(completed.max(due_abs(j)), ReplayEvent::TryIssue(s));
                }
                for t in 0..queues.len() {
                    if t != s && queues[t].get(cursor[t]).is_some() {
                        queue.schedule(completed, ReplayEvent::TryIssue(t));
                    }
                }
            }
        }
    }
    // The timed ops never moved the target clock; walk it forward so
    // callers see a consistent timeline.
    target.advance(finished - target.now());
    ReplayResult {
        ops,
        errors,
        duration: finished - start,
        histogram,
        first_error,
    }
}

/// Replays a trace as fast as possible with seed 0 — the classic
/// replay, byte-identical to the pre-v2 driver on v1 traces.
pub fn replay(target: &mut dyn Target, trace: &Trace) -> ReplayResult {
    replay_with(target, trace, &ReplayConfig::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{TraceEntry, TraceVersion};
    use crate::testutil::MemTarget;

    /// Two streams touching disjoint paths plus one shared path, with
    /// timestamps.
    fn crossed_trace() -> Trace {
        Trace::from_text(
            "# rocketbench-trace v2\n\
             0 0 create /shared\n\
             0 1000000 open /shared\n\
             0 2000000 write /shared 0 4096\n\
             1 2500000 create /b\n\
             1 3000000 write /b 0 4096\n\
             1 3500000 write /shared 4096 4096\n\
             0 4000000 read /shared 0 4096\n\
             1 5000000 read /b 0 4096\n\
             0 6000000 close /shared\n\
             1 7000000 unlink /b\n",
        )
        .unwrap()
    }

    fn path_order(trace: &Trace, order: &[usize], path: &str) -> Vec<usize> {
        order
            .iter()
            .copied()
            .filter(|&i| trace.entries[i].op.path() == path)
            .collect()
    }

    #[test]
    fn single_stream_schedule_is_trace_order_at_any_seed() {
        let trace = Trace::from_ops(crate::model::tests::all_variants());
        for seed in 0..16 {
            for timing in [
                Timing::Afap,
                Timing::Faithful,
                Timing::Scaled { factor: 4.0 },
            ] {
                let order = schedule(&trace, timing, seed);
                assert_eq!(order, (0..trace.len()).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn same_path_ops_never_reorder_at_any_seed() {
        let trace = crossed_trace();
        let expected = path_order(&trace, &(0..trace.len()).collect::<Vec<_>>(), "/shared");
        for seed in 0..64 {
            for timing in [
                Timing::Afap,
                Timing::Faithful,
                Timing::Scaled { factor: 10.0 },
            ] {
                let order = schedule(&trace, timing, seed);
                assert_eq!(
                    path_order(&trace, &order, "/shared"),
                    expected,
                    "seed {seed} timing {timing} reordered /shared"
                );
                // Program order within each stream is preserved too.
                for stream in trace.stream_ids() {
                    let mine: Vec<usize> = order
                        .iter()
                        .copied()
                        .filter(|&i| trace.entries[i].stream == stream)
                        .collect();
                    let mut sorted = mine.clone();
                    sorted.sort_unstable();
                    assert_eq!(mine, sorted, "stream {stream} out of program order");
                }
            }
        }
    }

    #[test]
    fn creates_never_overtake_parent_mkdir() {
        let trace = Trace::from_text(
            "# rocketbench-trace v2\n\
             0 0 mkdir /d\n\
             1 100 create /d/f\n\
             1 200 write /d/f 0 4096\n\
             0 300 create /d/g\n",
        )
        .unwrap();
        for seed in 0..64 {
            let order = schedule(&trace, Timing::Afap, seed);
            let pos = |i: usize| order.iter().position(|&x| x == i).unwrap();
            assert!(pos(0) < pos(1), "seed {seed}: create /d/f before mkdir /d");
            assert!(pos(0) < pos(3), "seed {seed}: create /d/g before mkdir /d");
        }
        // And the replay actually succeeds on an empty target.
        let mut target = MemTarget::new();
        let r = replay_with(
            &mut target,
            &trace,
            &ReplayConfig {
                timing: Timing::Afap,
                seed: 11,
            },
        );
        assert_eq!(r.errors, 0);
    }

    #[test]
    fn schedule_is_seed_deterministic_and_seed_sensitive() {
        let trace = crossed_trace();
        let a = schedule(&trace, Timing::Afap, 7);
        let b = schedule(&trace, Timing::Afap, 7);
        assert_eq!(a, b);
        // Some seed yields a different (still legal) interleave.
        let mut saw_different = false;
        for seed in 0..32 {
            if schedule(&trace, Timing::Afap, seed) != a {
                saw_different = true;
                break;
            }
        }
        assert!(saw_different, "merge ignored the seed");
    }

    #[test]
    fn afap_replay_matches_legacy_op_for_op() {
        // The executed op sequence for a single-stream trace is exactly
        // the trace, and the clock only moves by op latencies.
        let trace = Trace::from_text(
            "mkdir /t\ncreate /t/a\nopen /t/a\nsetsize /t/a 65536\n\
             write /t/a 0 4096\nread /t/a 0 4096\nfsync /t/a\nclose /t/a\nunlink /t/a\n",
        )
        .unwrap();
        let mut target = MemTarget::new();
        let result = replay(&mut target, &trace);
        assert_eq!(result.errors, 0);
        assert_eq!(result.ops, trace.len() as u64);
        assert!(result.first_error.is_none());
        let verbs: Vec<String> = target.log.iter().map(|(v, _)| v.clone()).collect();
        let expected: Vec<String> = trace.ops().map(|o| o.verb().to_string()).collect();
        assert_eq!(verbs, expected);
        // Afap: duration is just the sum of op latencies (one tick per
        // op in MemTarget), no recorded-gap waiting, no flusher ticks.
        assert_eq!(result.duration, MemTarget::OP_LATENCY * trace.len() as u64);
        assert_eq!(target.ticks, 0);
    }

    #[test]
    fn faithful_replay_honours_recorded_gaps() {
        let trace = crossed_trace();
        let span = trace.span();
        let mut target = MemTarget::new();
        let result = replay_with(
            &mut target,
            &trace,
            &ReplayConfig {
                timing: Timing::Faithful,
                seed: 3,
            },
        );
        assert_eq!(result.errors, 0);
        // The last op arrives at `span`; replay cannot finish earlier.
        assert!(
            result.duration >= span,
            "duration {} < recorded span {}",
            result.duration,
            span
        );
        // And afap is strictly faster than faithful on the same trace.
        let mut fast = MemTarget::new();
        let afap = replay_with(&mut fast, &trace, &ReplayConfig::default());
        assert!(afap.duration < result.duration);
    }

    #[test]
    fn scaled_replay_compresses_the_timeline() {
        let trace = crossed_trace();
        let factor = 10.0;
        let mut target = MemTarget::new();
        let scaled = replay_with(
            &mut target,
            &trace,
            &ReplayConfig {
                timing: Timing::Scaled { factor },
                seed: 3,
            },
        );
        let mut target = MemTarget::new();
        let faithful = replay_with(
            &mut target,
            &trace,
            &ReplayConfig {
                timing: Timing::Faithful,
                seed: 3,
            },
        );
        assert!(scaled.duration < faithful.duration);
        assert!(scaled.duration >= trace.span().mul_f64(1.0 / factor));
    }

    #[test]
    fn timed_replay_fires_background_ticks() {
        let mut trace = Trace {
            version: TraceVersion::V2,
            entries: vec![
                TraceEntry {
                    at: Nanos::ZERO,
                    stream: 0,
                    op: TraceOp::Create("/a".into()),
                },
                TraceEntry {
                    at: Nanos::from_secs(12),
                    stream: 0,
                    op: TraceOp::Stat("/a".into()),
                },
            ],
        };
        trace.normalize_version();
        let mut target = MemTarget::new();
        let result = replay_with(
            &mut target,
            &trace,
            &ReplayConfig {
                timing: Timing::Faithful,
                seed: 0,
            },
        );
        assert_eq!(result.errors, 0);
        // 12 s gap crosses the 5 s flusher cadence twice.
        assert_eq!(target.ticks, 2);
    }

    #[test]
    fn errors_are_counted_and_first_is_reported() {
        let trace =
            Trace::from_text("stat /missing\nread /also-missing 0 4096\ncreate /ok\n").unwrap();
        let mut target = MemTarget::new();
        let r = replay(&mut target, &trace);
        assert_eq!(r.errors, 2);
        assert_eq!(r.ops, 1);
        let first = r.first_error.expect("first error captured");
        assert_eq!(first.index, 0);
        assert_eq!(first.op, "stat /missing");
        assert!(first.to_string().contains("stat /missing"));
    }

    #[test]
    fn multi_stream_replay_is_deterministic_per_seed() {
        let trace = crossed_trace();
        let run = |seed: u64| {
            let mut t = MemTarget::new();
            let r = replay_with(
                &mut t,
                &trace,
                &ReplayConfig {
                    timing: Timing::Afap,
                    seed,
                },
            );
            (r.ops, r.errors, r.duration, t.log)
        };
        assert_eq!(run(5), run(5));
        assert_eq!(run(6), run(6));
    }
}
