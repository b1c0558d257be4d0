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
use rb_simcore::events::{DeviceQueue, EventQueue, TICK_EVERY};
use rb_simcore::fnv::FnvHashMap;
use rb_simcore::rng::Rng;
use rb_simcore::time::Nanos;
use rb_simcore::units::Bytes;
use rb_simfs::intern::PathId;
use rb_simfs::stack::{Fd, OpCost};
use rb_stats::histogram::Log2Histogram;

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

/// The handle for `path`, opened at `issue` when the trace omitted its
/// `open` (the open's cost then joins `spent`). `handle` is the path's
/// slot in the replay's handle table.
fn ensure_open(
    target: &mut dyn Target,
    handle: &mut Option<Fd>,
    id: Option<PathId>,
    path: &str,
    issue: Nanos,
    spent: &mut OpCost,
) -> SimResult<Fd> {
    if let Some(fd) = *handle {
        return Ok(fd);
    }
    let (fd, cost) = target.open_at(id, path, issue)?;
    *spent += cost;
    *handle = Some(fd);
    Ok(fd)
}

/// Executes one trace entry at instant `issue` through the target's
/// `*_at` surface. Handles are kept per path: `handle` is the entry's
/// path's open fd, opened on demand if the trace omitted the `open`.
/// `id` is the entry's pre-resolved path, when the target resolves
/// paths.
///
/// Every completed step adds its cost to `spent`, on failure too: a
/// data op whose lazy open succeeded still spent the open's time, which
/// the serialized replay keeps on its clock.
fn apply_op_timed(
    target: &mut dyn Target,
    handle: &mut Option<Fd>,
    op: &TraceOp,
    id: Option<PathId>,
    issue: Nanos,
    spent: &mut OpCost,
) -> SimResult<()> {
    let cost = match op {
        TraceOp::Create(p) => target.create_at(id, p, issue)?,
        TraceOp::Mkdir(p) => target.mkdir_at(id, p, issue)?,
        TraceOp::Open(p) => {
            ensure_open(target, handle, id, p, issue, spent)?;
            return Ok(());
        }
        TraceOp::Close(_) => {
            if let Some(fd) = handle.take() {
                target.close(fd)?;
            }
            return Ok(());
        }
        TraceOp::Read { path, offset, len } => {
            let fd = ensure_open(target, handle, id, path, issue, spent)?;
            let at = issue + spent.total();
            target.read_at(fd, Bytes::new(*offset), Bytes::new(*len), at)?
        }
        TraceOp::Write { path, offset, len } => {
            let fd = ensure_open(target, handle, id, path, issue, spent)?;
            let at = issue + spent.total();
            target.write_at(fd, Bytes::new(*offset), Bytes::new(*len), at)?
        }
        TraceOp::SetSize { path, size } => {
            let fd = ensure_open(target, handle, id, path, issue, spent)?;
            target.set_size_at(fd, Bytes::new(*size), issue + spent.total())?
        }
        TraceOp::Fsync(p) => {
            let fd = ensure_open(target, handle, id, p, issue, spent)?;
            target.fsync_at(fd, issue + spent.total())?
        }
        TraceOp::Stat(p) => target.stat_at(id, p, issue)?,
        TraceOp::Unlink(p) => {
            if let Some(fd) = handle.take() {
                let _ = target.close(fd);
            }
            target.unlink_at(id, p, issue)?
        }
    };
    *spent += cost;
    Ok(())
}

/// The directory holding `path`, or `None` at the root.
fn parent(path: &str) -> Option<&str> {
    match path.rfind('/') {
        Some(0) | None => None,
        Some(k) => Some(&path[..k]),
    }
}

/// "No entry" in the plan's `u32` index arrays.
const NONE: u32 = u32::MAX;

/// A trace's ordering constraints and the replay's progress through
/// them, built in one pass over the entries. The seeded merge and the
/// overlapped engine both run on it.
///
/// Each stream runs its entries in program order. Across streams,
/// entry `i` depends on the latest earlier entry on the same path from
/// a *different* stream (same-stream predecessors are covered by
/// program order, and transitivity covers longer chains). Namespace ops
/// also depend on the latest earlier op on their parent directory, so
/// `create /d/f` never overtakes the `mkdir /d` that makes it possible.
/// Every edge points to an earlier trace index, which is what makes
/// both consumers deadlock-free.
///
/// A stream's head is *unblocked* once its count of unfinished
/// predecessors reaches zero; [`Plan::finish`] reports each head the
/// moment that happens, so no consumer has to rescan the streams.
///
/// Every array is flat and indexed by entry or by dense stream index:
/// the streams' queues share one vector, each stream a slice of it.
struct Plan {
    /// Dense index of each entry's stream: its position among the
    /// trace's sorted stream ids.
    stream: Vec<u32>,
    /// Every stream's entries in program order, stream after stream:
    /// stream `s`'s queue is `queue[start[s]..start[s + 1]]`.
    queue: Vec<u32>,
    /// Where each stream's queue starts in `queue`, then `queue.len()`.
    start: Vec<u32>,
    /// Each stream's next entry, as a position in `queue`.
    cursor: Vec<u32>,
    /// Each entry's path, as a dense index in order of first use: the
    /// slot of its resolved id and of its open handle.
    path: Vec<u32>,
    /// Each entry's happens-before predecessors, [`NONE`] when absent:
    /// the last op on its path, then the last op on its parent.
    deps: Vec<[u32; 2]>,
    /// The reverse edges, one intrusive list per entry: `first_dependent[j]`
    /// is an edge slot `2 * i + k` with `deps[i][k] == j`, and
    /// `next_dependent` links each slot to the next one (or [`NONE`]).
    first_dependent: Vec<u32>,
    next_dependent: Vec<u32>,
    /// Each entry's count of predecessors not yet finished.
    pending: Vec<u8>,
}

impl Plan {
    fn new(trace: &Trace) -> Plan {
        let entries = &trace.entries;
        let n = entries.len();
        // Edge slots are `2 * i + k`; no trace that fits in memory
        // comes near the bound.
        assert!(n < (NONE / 2) as usize, "trace too long for u32 indices");
        let mut plan = Plan {
            stream: Vec::with_capacity(n),
            queue: Vec::new(),
            start: Vec::new(),
            cursor: Vec::new(),
            path: Vec::with_capacity(n),
            deps: Vec::with_capacity(n),
            first_dependent: vec![NONE; n],
            next_dependent: vec![NONE; 2 * n],
            pending: Vec::with_capacity(n),
        };
        let mut last_on_path: FnvHashMap<&str, u32> =
            FnvHashMap::with_capacity_and_hasher(n, Default::default());
        let mut paths = 0;
        // Streams are first numbered in order of first use, each with
        // its id and its entry count; only these distinct ids are
        // sorted below.
        let mut first_use: FnvHashMap<u32, u32> = FnvHashMap::default();
        let mut ids: Vec<u32> = Vec::new();
        let mut counts: Vec<u32> = Vec::new();
        for (i, e) in entries.iter().enumerate() {
            let path = e.op.path();
            let cross_stream =
                |j: Option<u32>| j.filter(|&j| entries[j as usize].stream != e.stream);
            let on_parent = match e.op {
                TraceOp::Create(_) | TraceOp::Mkdir(_) => {
                    parent(path).and_then(|p| cross_stream(last_on_path.get(p).copied()))
                }
                _ => None,
            };
            // One probe reads the path's last op and makes `i` its next.
            let prev = last_on_path.insert(path, i as u32);
            let deps = [
                cross_stream(prev).unwrap_or(NONE),
                on_parent.unwrap_or(NONE),
            ];
            let mut pending = 0;
            for (k, &j) in deps.iter().enumerate() {
                if j != NONE {
                    let slot = 2 * i + k;
                    plan.next_dependent[slot] = plan.first_dependent[j as usize];
                    plan.first_dependent[j as usize] = slot as u32;
                    pending += 1;
                }
            }
            let s = *first_use.entry(e.stream).or_insert_with(|| {
                ids.push(e.stream);
                counts.push(0);
                (ids.len() - 1) as u32
            });
            counts[s as usize] += 1;
            plan.stream.push(s);
            plan.path.push(match prev {
                Some(j) => plan.path[j as usize],
                None => {
                    paths += 1;
                    paths - 1
                }
            });
            plan.deps.push(deps);
            plan.pending.push(pending);
        }
        // A stream's dense index is its id's position among the sorted
        // ids, and the counts in that order become offsets. A second
        // pass renumbers each entry's stream and lays each stream's
        // entries out in trace order.
        let mut by_id: Vec<u32> = (0..ids.len() as u32).collect();
        by_id.sort_unstable_by_key(|&s| ids[s as usize]);
        let mut dense = vec![0; ids.len()];
        plan.start = Vec::with_capacity(ids.len() + 1);
        plan.start.push(0);
        for (d, &s) in by_id.iter().enumerate() {
            dense[s as usize] = d as u32;
            plan.start.push(plan.start[d] + counts[s as usize]);
        }
        plan.cursor = plan.start[..ids.len()].to_vec();
        let mut fill = plan.cursor.clone();
        plan.queue = vec![0; n];
        for (i, s) in plan.stream.iter_mut().enumerate() {
            *s = dense[*s as usize];
            plan.queue[fill[*s as usize] as usize] = i as u32;
            fill[*s as usize] += 1;
        }
        plan
    }

    fn streams(&self) -> usize {
        self.cursor.len()
    }

    /// Pre-resolves every distinct path once, in order of first use
    /// (pure bookkeeping on the target, free of simulation side
    /// effects), so per-op dispatch is an id probe instead of a string
    /// hash + split. Indexed by path slot.
    fn resolve_paths(&self, target: &mut dyn Target, trace: &Trace) -> Vec<Option<PathId>> {
        let mut ids = Vec::new();
        for (e, &slot) in trace.entries.iter().zip(&self.path) {
            if slot as usize == ids.len() {
                ids.push(target.prepare_path(e.op.path()));
            }
        }
        ids
    }

    /// The seeded merge of [`schedule`], run to the end.
    fn merge(mut self, trace: &Trace, timing: Timing, seed: u64) -> Vec<usize> {
        let mut ready = ReadySet::new(&self, trace, timing);
        for s in 0..self.streams() {
            if let Some(i) = self.head(s).filter(|&i| self.unblocked(i)) {
                ready.insert(i);
            }
        }
        let mut rng = Rng::new(seed).fork("replay-merge");
        let mut order = Vec::with_capacity(trace.len());
        while order.len() < trace.len() {
            // Never empty: the unexecuted entry with the smallest trace
            // index is its stream's head, and its predecessors (earlier
            // in the trace) are done.
            let chosen = ready.pick(&mut rng);
            ready.remove(chosen);
            self.finish(chosen, |i| ready.insert(i));
            order.push(chosen);
        }
        order
    }

    /// Stream `s`'s next entry, if it has one left.
    fn head(&self, s: usize) -> Option<usize> {
        let at = self.cursor[s];
        (at < self.start[s + 1]).then(|| self.queue[at as usize] as usize)
    }

    /// True once every happens-before predecessor of entry `i` has
    /// finished.
    fn unblocked(&self, i: usize) -> bool {
        self.pending[i] == 0
    }

    /// Entry `i`'s happens-before predecessors.
    fn deps(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        self.deps[i]
            .iter()
            .filter(|&&j| j != NONE)
            .map(|&j| j as usize)
    }

    /// Finishes entry `i`, its stream's head, and moves that stream on.
    /// Calls `unblocked` with every head this makes runnable: the
    /// stream's next entry, and heads of other streams whose last
    /// unfinished predecessor was `i`.
    fn finish(&mut self, i: usize, mut unblocked: impl FnMut(usize)) {
        let s = self.stream[i] as usize;
        debug_assert_eq!(self.head(s), Some(i), "finished a non-head entry");
        self.cursor[s] += 1;
        if let Some(next) = self.head(s).filter(|&h| self.unblocked(h)) {
            unblocked(next);
        }
        let mut slot = self.first_dependent[i];
        while slot != NONE {
            let d = slot as usize / 2;
            self.pending[d] -= 1;
            if self.unblocked(d) && self.head(self.stream[d] as usize) == Some(d) {
                unblocked(d);
            }
            slot = self.next_dependent[slot as usize];
        }
    }
}

/// The seeded merge's runnable stream heads, as bits in a fixed ranking
/// of every entry by (due time, stream index, trace index).
///
/// The ranking puts the runnable heads that share the earliest due
/// time first, in stream-index order — the order the merge draws from.
/// Rank `r` is bit `r % 64` of `words[r / 64]`, and a Fenwick tree over
/// the words counts the set bits: 513 nodes for a 21,503-entry trace.
/// When every entry shares one due time (always under afap), every
/// runnable head is a candidate: a running count says how many, and one
/// descent finds the drawn one. Otherwise a descent to the first
/// runnable rank gives the earliest due time, a prefix count gives how
/// many heads share it, and a second descent finds the drawn one. Each
/// descent ends in a select within one word, so each pick costs
/// O(log n) instead of a scan of every stream.
///
/// A removed head's decrement of the tree waits until the next pick
/// reads the tree, and an insert into the same word cancels it. Under
/// afap a stream's entries hold consecutive ranks, so the head that
/// replaces a finished one usually lands in its word.
struct ReadySet {
    /// Each entry's rank.
    rank: Vec<u32>,
    /// The entry at each rank.
    entry: Vec<u32>,
    /// For each rank, one past the last rank with the same due time.
    tie_end: Vec<u32>,
    /// True when every entry shares one due time.
    one_tie: bool,
    /// How many entries are runnable.
    runnable: u32,
    /// The runnable ranks, one bit each.
    words: Vec<u64>,
    /// Fenwick tree over the words, 1-based and padded to a power of
    /// two: `tree[k]` counts the runnable ranks in words
    /// `(k - lowbit(k), k]`, less one in word `unsettled`.
    tree: Vec<u32>,
    /// The word whose removed rank the tree still counts, or
    /// `usize::MAX`.
    unsettled: usize,
}

/// The position of the `nth` set bit (0-based) of `word`, which has
/// more than `nth` set bits: halve the window by popcount six times.
fn select(mut word: u64, mut nth: u32) -> u32 {
    let mut pos = 0;
    for width in [32, 16, 8, 4, 2, 1] {
        let low = (word & ((1 << width) - 1)).count_ones();
        if nth >= low {
            nth -= low;
            word >>= width;
            pos += width;
        }
    }
    pos
}

impl ReadySet {
    fn new(plan: &Plan, trace: &Trace, timing: Timing) -> ReadySet {
        // Afap has no due times: every entry ranks as due at zero.
        let due: Vec<Nanos> = trace
            .entries
            .iter()
            .map(|e| timing.due(e.at).unwrap_or(Nanos::ZERO))
            .collect();
        // The queue is in (stream, trace index) order; a stable sort by
        // due time completes the ranking.
        let mut entry = plan.queue.clone();
        entry.sort_by_key(|&i| due[i as usize]);
        let n = entry.len();
        let mut rank = vec![0; n];
        for (r, &i) in entry.iter().enumerate() {
            rank[i as usize] = r as u32;
        }
        let mut tie_end = Vec::with_capacity(n);
        for tied in entry.chunk_by(|&a, &b| due[a as usize] == due[b as usize]) {
            let end = (tie_end.len() + tied.len()) as u32;
            tie_end.resize(tie_end.len() + tied.len(), end);
        }
        let words = n.div_ceil(64);
        ReadySet {
            rank,
            entry,
            one_tie: tie_end.first().is_none_or(|&end| end as usize == n),
            tie_end,
            runnable: 0,
            words: vec![0; words],
            tree: vec![0; words.next_power_of_two() + 1],
            unsettled: usize::MAX,
        }
    }

    /// Adds `delta` to word `w`'s count.
    fn add(&mut self, w: usize, delta: i32) {
        let mut k = w + 1;
        while k < self.tree.len() {
            self.tree[k] = self.tree[k].wrapping_add_signed(delta);
            k += k & k.wrapping_neg();
        }
    }

    /// Applies the decrement a removal left pending, if any.
    fn settle(&mut self) {
        if self.unsettled != usize::MAX {
            self.add(self.unsettled, -1);
            self.unsettled = usize::MAX;
        }
    }

    fn insert(&mut self, i: usize) {
        let (w, bit) = (self.rank[i] as usize / 64, self.rank[i] % 64);
        self.words[w] |= 1 << bit;
        self.runnable += 1;
        if self.unsettled == w {
            self.unsettled = usize::MAX;
        } else {
            self.add(w, 1);
        }
    }

    fn remove(&mut self, i: usize) {
        self.settle();
        let (w, bit) = (self.rank[i] as usize / 64, self.rank[i] % 64);
        self.words[w] &= !(1 << bit);
        self.runnable -= 1;
        self.unsettled = w;
    }

    /// How many runnable entries rank below `end`.
    fn count_below(&self, end: u32) -> u32 {
        let (w, bit) = (end as usize / 64, end % 64);
        let mut count = if bit == 0 {
            0
        } else {
            (self.words[w] & ((1 << bit) - 1)).count_ones()
        };
        let mut k = w;
        while k > 0 {
            count += self.tree[k];
            k &= k - 1;
        }
        count
    }

    /// The rank of the `nth` runnable entry (0-based) in rank order;
    /// there must be more than `nth` runnable entries.
    fn nth(&self, mut nth: u32) -> u32 {
        // The padded size keeps every probe in bounds: a descent that
        // starts at half the tree never passes its last node.
        let mut pos = 0;
        let mut step = (self.tree.len() - 1) / 2;
        while step > 0 {
            let below = self.tree[pos + step];
            if below <= nth {
                pos += step;
                nth -= below;
            }
            step /= 2;
        }
        (pos * 64) as u32 + select(self.words[pos], nth)
    }

    /// The merge's pick: the runnable entries sharing the earliest due
    /// time are the candidates, and the RNG draws one of them, in
    /// stream-index order, only when there is more than one.
    fn pick(&mut self, rng: &mut Rng) -> usize {
        self.settle();
        let draw = |candidates: u32, rng: &mut Rng| {
            if candidates == 1 {
                0
            } else {
                rng.below(u64::from(candidates)) as u32
            }
        };
        let rank = if self.one_tie {
            self.nth(draw(self.runnable, rng))
        } else {
            let first = self.nth(0);
            match draw(self.count_below(self.tie_end[first as usize]), rng) {
                0 => first,
                nth => self.nth(nth),
            }
        };
        self.entry[rank as usize] as usize
    }
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
    Plan::new(trace).merge(trace, timing, seed)
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
    let mut plan = Plan::new(trace);
    let path_ids = plan.resolve_paths(target, trace);
    // The merge consumes the plan, so its memory is free again before
    // the replay runs; keep only each entry's path slot.
    let path = std::mem::take(&mut plan.path);
    let order = plan.merge(trace, config.timing, config.seed);
    let mut handles: Vec<Option<Fd>> = vec![None; path_ids.len()];
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
        let p = path[i] as usize;
        let result = apply_op_timed(
            target,
            &mut handles[p],
            &entry.op,
            path_ids[p],
            issue,
            &mut spent,
        );
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
    let mut plan = Plan::new(trace);
    let path_ids = plan.resolve_paths(target, trace);
    let mut handles: Vec<Option<Fd>> = vec![None; path_ids.len()];

    let start = target.now();
    let due_abs = |i: usize| start + config.timing.due(entries[i].at).unwrap_or(Nanos::ZERO);
    let mut completion = vec![Nanos::ZERO; n];
    let mut stream_last = vec![start; plan.streams()];
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
    for s in 0..plan.streams() {
        if let Some(i) = plan.head(s) {
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
                let Some(i) = plan.head(s) else {
                    continue; // stream already drained
                };
                // Blocked on an unexecuted dependency: a broadcast at
                // that dependency's completion will retrigger us.
                if !plan.unblocked(i) {
                    continue;
                }
                let mut ready = due_abs(i).max(stream_last[s]);
                for d in plan.deps(i) {
                    ready = ready.max(completion[d]);
                }
                if ready > now {
                    queue.schedule(ready, ReplayEvent::TryIssue(s));
                    continue;
                }
                // A failed op charges nothing: its stream moves on at
                // `now`.
                let mut cost = OpCost::default();
                let p = plan.path[i] as usize;
                let completed = match apply_op_timed(
                    target,
                    &mut handles[p],
                    &entries[i].op,
                    path_ids[p],
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
                // Every wake below re-checks its stream, so the heads
                // this unblocks need no report of their own.
                plan.finish(i, |_| {});
                completion[i] = completed;
                stream_last[s] = completed;
                remaining -= 1;
                finished = finished.max(completed);
                // Wake this stream for its next entry, and every other
                // stream whose head might have been waiting on `i`.
                if let Some(j) = plan.head(s) {
                    queue.schedule(completed.max(due_abs(j)), ReplayEvent::TryIssue(s));
                }
                for t in 0..plan.streams() {
                    if t != s && plan.head(t).is_some() {
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
    use crate::transform::Transform;

    /// The happens-before edges as the scan oracle computes them: for
    /// each entry, the latest earlier op on its path from another
    /// stream, and for namespace ops the latest earlier op on its parent
    /// from another stream.
    fn dep_edges(trace: &Trace) -> Vec<[Option<usize>; 2]> {
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

    /// The seeded merge by rescanning every stream's head for every
    /// entry, O(entries x streams): the oracle [`schedule`] must match
    /// entry for entry, RNG draw for RNG draw.
    fn schedule_by_scan(trace: &Trace, timing: Timing, seed: u64) -> Vec<usize> {
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
            let chosen = if eligible.len() == 1 {
                eligible[0]
            } else {
                match timing.due(Nanos::ZERO) {
                    // Afap: pure seeded choice among runnable streams.
                    None => eligible[rng.below(eligible.len() as u64) as usize],
                    // Timed: earliest due operation fires first; ties
                    // are broken by the same seeded draw.
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

    /// A random multi-stream trace for property case `case`: 1-64
    /// streams (ids spread out, not dense) over a few shared directories
    /// and files, so paths collide across streams and creates land
    /// under directories other streams made; timestamps on a coarse
    /// grid, so many tie, and not monotone within a stream. Every fifth
    /// case is spatially scaled; case 0 is the empty trace.
    fn random_trace(case: u64) -> Trace {
        if case == 0 {
            return Trace::default();
        }
        let mut rng = Rng::new(0x5EED_0000 ^ case);
        let streams = 1 + rng.below(64);
        let id_stride = 1 + rng.below(3) as u32;
        let scaled = case.is_multiple_of(5);
        let len = 1 + rng.below(if scaled { 60 } else { 240 }) as usize;
        let dirs = 1 + rng.below(4);
        let files = 1 + rng.below(6);
        let instants = 1 + rng.below(6);
        let trace = random_entries(&mut rng, [streams, dirs, files, instants], id_stride, len);
        if scaled {
            let clones = 2 + rng.below(3) as u32;
            Transform::Scale { clones }.apply(&trace).expect("scale")
        } else {
            trace
        }
    }

    /// `len` random entries on `streams` streams (ids `id_stride`
    /// apart) over `dirs` directories of `files` files each, at one of
    /// `instants` instants 250 µs apart: the body of [`random_trace`].
    fn random_entries(
        rng: &mut Rng,
        [streams, dirs, files, instants]: [u64; 4],
        id_stride: u32,
        len: usize,
    ) -> Trace {
        let mut entries = Vec::with_capacity(len);
        for _ in 0..len {
            let dir = format!("/d{}", rng.below(dirs));
            let file = format!("{dir}/f{}", rng.below(files));
            let op = match rng.below(9) {
                0 => TraceOp::Mkdir(dir),
                1 => TraceOp::Mkdir(format!("{dir}/s{}", rng.below(2))),
                2 => TraceOp::Create(file),
                3 => TraceOp::Open(file),
                4 => TraceOp::Write {
                    path: file,
                    offset: 0,
                    len: 4096,
                },
                5 => TraceOp::Read {
                    path: file,
                    offset: 0,
                    len: 4096,
                },
                6 => TraceOp::Stat(file),
                7 => TraceOp::Close(file),
                _ => TraceOp::Unlink(file),
            };
            entries.push(TraceEntry {
                at: Nanos::from_micros(rng.below(instants) * 250),
                stream: rng.below(streams) as u32 * id_stride,
                op,
            });
        }
        Trace {
            version: TraceVersion::V2,
            entries,
        }
    }

    #[test]
    fn merge_matches_the_scan_oracle() {
        // A fixed budget of seeded cases; a failure names the case, the
        // timing and the merge seed to replay it with.
        for case in 0..240u64 {
            let trace = random_trace(case);
            for timing in [
                Timing::Afap,
                Timing::Faithful,
                Timing::Scaled { factor: 4.0 },
            ] {
                for seed in [0, case, u64::MAX - case] {
                    assert_eq!(
                        schedule(&trace, timing, seed),
                        schedule_by_scan(&trace, timing, seed),
                        "case {case} ({} entries, {} streams) timing {timing} seed {seed}",
                        trace.len(),
                        trace.stream_ids().len()
                    );
                }
            }
        }
    }

    #[test]
    fn merge_matches_the_scan_oracle_across_many_words() {
        // Ready sets of dozens of words: deep descents, and heads that
        // move across word boundaries. Golden v2 scaled ×64 and ×256
        // (1.3k and 5.4k entries on 128 and 512 streams), 2,400 random
        // entries on 256 streams at six instants, and the same entries
        // at one instant, so that a timed policy also sees a single
        // tie group.
        let golden = Trace::from_text(include_str!("../../../examples/golden_v2.trace"))
            .expect("golden trace parses");
        let wide = random_entries(&mut Rng::new(0x5EED_1000), [256, 16, 32, 6], 2, 2400);
        let mut one_instant = wide.clone();
        for e in &mut one_instant.entries {
            e.at = Nanos::from_millis(5);
        }
        let scaled = |clones| Transform::Scale { clones }.apply(&golden).expect("scale");
        let cases = [
            ("golden x64", scaled(64)),
            ("golden x256", scaled(256)),
            ("wide", wide),
            ("wide at one instant", one_instant),
        ];
        for (name, trace) in cases {
            assert!(
                trace.len() >= 1300 && trace.stream_ids().len() >= 128,
                "{name}"
            );
            for timing in [
                Timing::Afap,
                Timing::Faithful,
                Timing::Scaled { factor: 4.0 },
            ] {
                for seed in [0, 1, u64::MAX] {
                    assert_eq!(
                        schedule(&trace, timing, seed),
                        schedule_by_scan(&trace, timing, seed),
                        "{name} ({} entries) timing {timing} seed {seed}",
                        trace.len()
                    );
                }
            }
        }
    }

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

        // Random multi-stream traces, afap and timed: every entry ends
        // up counted once, as an op or as an error, and any error is
        // reported. A failure names the case to replay it with.
        for case in 0..64u64 {
            let trace = random_trace(case);
            for timing in [Timing::Afap, Timing::Faithful] {
                let mut target = MemTarget::new();
                let r = replay_with(&mut target, &trace, &ReplayConfig { timing, seed: case });
                assert_eq!(
                    r.ops + r.errors,
                    trace.len() as u64,
                    "case {case} timing {timing}"
                );
                assert_eq!(
                    r.first_error.is_some(),
                    r.errors > 0,
                    "case {case} timing {timing}"
                );
            }
        }
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
