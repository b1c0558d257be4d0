//! Deterministic discrete-event queue for virtual-time concurrency.
//!
//! Multi-threaded workloads (the paper's *scaling* dimension) are simulated
//! by interleaving per-thread operations in virtual time: each simulated
//! thread schedules its next operation's completion instant, and the engine
//! always dispatches the earliest one. Ties are broken by insertion
//! sequence so the schedule is a pure function of the inputs.

use crate::time::Nanos;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// An event scheduled at a virtual instant, carrying a payload `T`.
#[derive(Debug, Clone)]
struct Scheduled<T> {
    at: Nanos,
    seq: u64,
    payload: T,
}

/// A min-ordered event queue over virtual time.
///
/// Implemented as an arena-backed 4-ary min-heap over a flat `Vec`:
/// sift loops walk index arithmetic in one contiguous allocation, with
/// a branching factor chosen so a heap of hundreds of in-flight events
/// stays within a couple of cache lines per level. Ordering is by the
/// `(at, seq)` key — `seq` increments per [`EventQueue::schedule`] call
/// — so equal-instant events pop in exact FIFO order, and the pop
/// sequence is a pure function of the schedule no matter what internal
/// shape the heap takes.
///
/// The queue is built to be reused: [`EventQueue::clear`] resets it to
/// the freshly-constructed state (including the FIFO sequence counter)
/// while keeping the arena allocation, and [`EventQueue::reserve`]
/// pre-sizes it, so run-per-cell drivers stop paying an allocation
/// ramp-up on every run.
///
/// # Examples
///
/// ```
/// use rb_simcore::events::EventQueue;
/// use rb_simcore::time::Nanos;
///
/// let mut q = EventQueue::new();
/// q.schedule(Nanos::from_micros(5), "b");
/// q.schedule(Nanos::from_micros(1), "a");
/// let (t, what) = q.pop().unwrap();
/// assert_eq!((t.as_micros(), what), (1, "a"));
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<T> {
    /// Flat 4-ary min-heap: children of `i` are `4i+1 ..= 4i+4`.
    arena: Vec<Scheduled<T>>,
    seq: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            arena: Vec::new(),
            seq: 0,
        }
    }

    /// Creates an empty queue with room for `capacity` pending events.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            arena: Vec::with_capacity(capacity),
            seq: 0,
        }
    }

    /// Reserves room for at least `additional` more pending events.
    pub fn reserve(&mut self, additional: usize) {
        self.arena.reserve(additional);
    }

    /// Empties the queue and resets the FIFO sequence counter, keeping
    /// the arena allocation. A cleared queue behaves identically to a
    /// fresh one — same tie-break numbering — so reuse across runs
    /// cannot perturb a deterministic schedule.
    pub fn clear(&mut self) {
        self.arena.clear();
        self.seq = 0;
    }

    #[inline]
    fn key(&self, i: usize) -> (Nanos, u64) {
        let s = &self.arena[i];
        (s.at, s.seq)
    }

    #[inline]
    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) >> 2;
            if self.key(i) < self.key(parent) {
                self.arena.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    #[inline]
    fn sift_down(&mut self, mut i: usize) {
        let n = self.arena.len();
        loop {
            let first = (i << 2) + 1;
            if first >= n {
                break;
            }
            let mut min = first;
            let mut min_key = self.key(first);
            let last = (first + 4).min(n);
            for c in first + 1..last {
                let k = self.key(c);
                if k < min_key {
                    min = c;
                    min_key = k;
                }
            }
            if min_key < self.key(i) {
                self.arena.swap(i, min);
                i = min;
            } else {
                break;
            }
        }
    }

    /// Schedules `payload` at instant `at`.
    pub fn schedule(&mut self, at: Nanos, payload: T) {
        let seq = self.seq;
        self.seq += 1;
        self.arena.push(Scheduled { at, seq, payload });
        self.sift_up(self.arena.len() - 1);
    }

    /// Removes and returns the earliest event, if any.
    ///
    /// Events at equal instants come out in the order they were scheduled.
    pub fn pop(&mut self) -> Option<(Nanos, T)> {
        let last = self.arena.pop()?;
        if self.arena.is_empty() {
            return Some((last.at, last.payload));
        }
        let top = std::mem::replace(&mut self.arena[0], last);
        self.sift_down(0);
        Some((top.at, top.payload))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.arena.len()
    }

    /// Returns true if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.arena.is_empty()
    }
}

/// Per-core next-free tokens: the CPU side of a contention model.
///
/// `claim` gives the caller the earliest-free core (lowest index on
/// ties), occupies it for `work`, and returns the completion instant.
/// Shared by the multi-process workload scheduler and anything else
/// that needs bounded-parallelism tokens over virtual time.
///
/// The token set is a min-heap keyed `(free_at, index)`, so a claim is
/// O(log cores) instead of a linear scan, and the heap ordering itself
/// enforces the lowest-index tie-break the linear scan used to provide
/// (the popped minimum is the smallest `(free_at, index)` pair — the
/// first minimum a front-to-back scan would find).
#[derive(Debug, Clone)]
pub struct CoreSet {
    free: BinaryHeap<Reverse<(Nanos, u32)>>,
}

impl CoreSet {
    /// A set of `cores` idle cores (at least one).
    pub fn new(cores: u32) -> Self {
        CoreSet {
            free: (0..cores.max(1))
                .map(|i| Reverse((Nanos::ZERO, i)))
                .collect(),
        }
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.free.len()
    }

    /// Claims the earliest-free core at `now` for `work`; returns when
    /// the work completes. Ties break toward the lowest core index, so
    /// the claim order is deterministic.
    pub fn claim(&mut self, now: Nanos, work: Nanos) -> Nanos {
        self.claim_indexed(now, work).1
    }

    /// Like [`CoreSet::claim`], but also reports *which* core served
    /// the claim, so callers can attribute busy time per core
    /// (utilization accounting, trace track ids).
    pub fn claim_indexed(&mut self, now: Nanos, work: Nanos) -> (u32, Nanos) {
        // peek_mut re-sifts once on drop: one O(log cores) pass per
        // claim instead of a pop + push pair. The heap is never empty:
        // `new` fills it with at least one token, and a claim only
        // replaces the top one.
        let mut top = self.free.peek_mut().expect("at least one core");
        let Reverse((free_at, core)) = *top;
        let start = free_at.max(now);
        let done = start + work;
        *top = Reverse((done, core));
        (core, done)
    }
}

/// The background flusher's cadence (Linux: every ~5 s), shared by every
/// driver that ticks a target: the serial engine, the scheduler and
/// timed replay.
pub const TICK_EVERY: Nanos = Nanos::from_secs(5);

/// A shared device's next-free token: the media side of a contention
/// model. Every queued request serializes behind the previous ones,
/// which is what makes device-bound workloads refuse to scale.
#[derive(Debug, Clone, Copy, Default)]
pub struct DeviceQueue {
    free: Nanos,
    waited: Nanos,
    busy: Nanos,
}

impl DeviceQueue {
    /// An idle device.
    pub fn new() -> Self {
        DeviceQueue {
            free: Nanos::ZERO,
            waited: Nanos::ZERO,
            busy: Nanos::ZERO,
        }
    }

    /// An idle device that becomes available at `at` (for schedulers
    /// running in absolute time).
    pub fn idle_from(at: Nanos) -> Self {
        DeviceQueue {
            free: at,
            waited: Nanos::ZERO,
            busy: Nanos::ZERO,
        }
    }

    /// The instant the device next falls idle.
    pub fn next_free(&self) -> Nanos {
        self.free
    }

    /// Total time requests spent queued behind the device (the gap
    /// between becoming ready and service start, summed over every
    /// `serve` call).
    pub fn waited(&self) -> Nanos {
        self.waited
    }

    /// Total device service time handed out (summed `work` over every
    /// `serve` call).
    pub fn busy(&self) -> Nanos {
        self.busy
    }

    /// Serves `work` device time for a request that becomes ready at
    /// `ready`; returns the completion instant (start = max(ready,
    /// next_free)).
    pub fn serve(&mut self, ready: Nanos, work: Nanos) -> Nanos {
        let start = self.free.max(ready);
        self.waited += start - ready;
        self.busy += work;
        self.free = start + work;
        self.free
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_set_claims_earliest_and_lowest() {
        let mut cores = CoreSet::new(2);
        // Two claims at t=0 land on distinct cores.
        assert_eq!(
            cores.claim(Nanos::ZERO, Nanos::from_micros(10)).as_micros(),
            10
        );
        assert_eq!(
            cores.claim(Nanos::ZERO, Nanos::from_micros(4)).as_micros(),
            4
        );
        // The next claim takes the earliest-free core (the second).
        assert_eq!(
            cores.claim(Nanos::ZERO, Nanos::from_micros(1)).as_micros(),
            5
        );
        // Both free at 10 vs 6: the second is earlier again.
        assert_eq!(
            cores.claim(Nanos::from_micros(6), Nanos::ZERO).as_micros(),
            6
        );
    }

    #[test]
    fn zero_cores_coerced_to_one() {
        let mut cores = CoreSet::new(0);
        assert_eq!(cores.cores(), 1);
        let a = cores.claim(Nanos::ZERO, Nanos::from_micros(5));
        let b = cores.claim(Nanos::ZERO, Nanos::from_micros(5));
        assert!(b > a, "one core must serialize");
    }

    #[test]
    fn claim_indexed_reports_cores() {
        let mut cores = CoreSet::new(2);
        let (a, _) = cores.claim_indexed(Nanos::ZERO, Nanos::from_micros(10));
        let (b, _) = cores.claim_indexed(Nanos::ZERO, Nanos::from_micros(4));
        assert_ne!(a, b, "concurrent claims land on distinct cores");
        // Core `b` frees first, so the next claim lands there again.
        let (c, done) = cores.claim_indexed(Nanos::ZERO, Nanos::from_micros(1));
        assert_eq!(c, b);
        assert_eq!(done.as_micros(), 5);
    }

    #[test]
    fn device_queue_accounts_wait_and_busy() {
        let mut dev = DeviceQueue::new();
        dev.serve(Nanos::ZERO, Nanos::from_millis(5));
        // Ready at 1ms, served at 5ms: 4ms queued.
        dev.serve(Nanos::from_millis(1), Nanos::from_millis(5));
        // Ready after idle: no queueing.
        dev.serve(Nanos::from_millis(20), Nanos::from_millis(5));
        assert_eq!(dev.waited().as_millis(), 4);
        assert_eq!(dev.busy().as_millis(), 15);
    }

    #[test]
    fn device_queue_serializes() {
        let mut dev = DeviceQueue::new();
        let a = dev.serve(Nanos::ZERO, Nanos::from_millis(5));
        assert_eq!(a.as_millis(), 5);
        // Ready at 1ms but the device is busy until 5ms.
        let b = dev.serve(Nanos::from_millis(1), Nanos::from_millis(5));
        assert_eq!(b.as_millis(), 10);
        // Ready after the device idles: no queueing.
        let c = dev.serve(Nanos::from_millis(20), Nanos::from_millis(5));
        assert_eq!(c.as_millis(), 25);
        // And a device created idle-from a later instant starts there.
        assert_eq!(
            DeviceQueue::idle_from(Nanos::from_millis(3))
                .next_free()
                .as_millis(),
            3
        );
    }

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.schedule(Nanos::from_nanos(30), 3);
        q.schedule(Nanos::from_nanos(10), 1);
        q.schedule(Nanos::from_nanos(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_are_fifo() {
        let mut q = EventQueue::new();
        let t = Nanos::from_micros(1);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(Nanos::from_nanos(7), ());
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((Nanos::from_nanos(7), ())));
        assert!(q.pop().is_none());
    }

    #[test]
    fn interleaving_is_deterministic() {
        // Two "threads" alternately scheduling; the merged order must be a
        // pure function of the schedule.
        let run = || {
            let mut q = EventQueue::new();
            let mut out = Vec::new();
            q.schedule(Nanos::from_nanos(0), (0u8, 0u32));
            q.schedule(Nanos::from_nanos(0), (1u8, 0u32));
            while let Some((t, (tid, n))) = q.pop() {
                out.push((t.as_nanos(), tid, n));
                if n < 50 {
                    // Thread 0 is faster than thread 1.
                    let step = if tid == 0 { 3 } else { 5 };
                    q.schedule(t + Nanos::from_nanos(step), (tid, n + 1));
                }
            }
            out
        };
        assert_eq!(run(), run());
    }
}
