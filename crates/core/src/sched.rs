//! The discrete-event process scheduler: concurrency as a substrate.
//!
//! The paper's fifth dimension — scaling under concurrent load — used
//! to be faked by a sidecar simulation (the old `scaling::run_point`,
//! deleted in this refactor): one file, uniform 8 KiB reads, its own
//! private cache and disk plumbing. This module promotes that buried
//! logic into the substrate every driver shares: N simulated workers
//! run closed loops, or serve an open load, over *any* workload against
//! the *real* storage stack, contending for
//!
//! * **cores** — each operation's think phase (the engine's per-op
//!   framework overhead, [`SchedConfig::think`]) claims the
//!   earliest-free core token and queues behind other processes when
//!   all cores are busy ([`CoreSet`]). The stack-level CPU residue
//!   ([`OpCost::cpu`]: syscall entry + memory copies, a few µs) is
//!   charged to the process's own timeline without a token — it is
//!   small against the framework overhead and letting it overlap keeps
//!   the event pump simple;
//! * **the device** — each operation's media phase serializes on the
//!   shared spindle behind both other processes' I/O and background
//!   writeback ([`DeviceQueue`]).
//!
//! Operations execute against the shared stack through the
//! time-parameterized [`Target`](crate::target::Target) interface
//! (`*_at`), which mutates cache/fs/device state at an explicit
//! instant and hands the decomposed [`OpCost`] back to the scheduler
//! instead of advancing a private clock.
//!
//! Determinism is load-bearing, exactly as in the campaign engine: the
//! interleaving is a pure function of (workload, config, seed). Events
//! pop from the shared [`EventQueue`] in time order with FIFO tie-break,
//! core claims resolve ties toward the lowest-index core, and each
//! process draws from its own forked RNG stream, so adding draws in one
//! process never perturbs another.

use rb_simcore::error::{SimError, SimResult};
use rb_simcore::events::{EventQueue, TICK_EVERY};
use rb_simcore::rng::Rng;
use rb_simcore::time::Nanos;
use rb_simfs::stack::OpCost;
use std::collections::VecDeque;

// The contention tokens live next to the event queue in rb-simcore so
// every driver — including the replay crate, which rb-core depends on
// and therefore cannot import from it — shares one implementation.
pub use rb_simcore::events::{CoreSet, DeviceQueue};

/// Bound on an open load's admission queue: past this many waiting
/// requests, new arrivals are dropped and counted. Large enough that
/// transient bursts survive, small enough that a saturated run produces
/// honest backpressure instead of an unbounded backlog.
pub(crate) const QUEUE_CAP: usize = 1024;

/// Scheduler configuration: the workers and the substrate they share.
#[derive(Debug, Clone, Copy)]
pub struct SchedConfig {
    /// Concurrent workers: closed-loop processes, or an open load's
    /// service workers.
    pub processes: u32,
    /// CPU cores available to them.
    pub cores: u32,
    /// Virtual instant the measured phase starts (the target clock's
    /// position when the scheduler takes over).
    pub start: Nanos,
    /// Measured duration: closed workers stop issuing, and an open load
    /// stops arriving, once `start + duration` is reached; in-flight
    /// and queued work drains.
    pub duration: Nanos,
    /// Per-operation framework overhead claimed on a core before the
    /// operation itself executes (the flowop engine's `op_overhead`).
    pub think: Nanos,
}

/// An open load: requests arrive on their own schedule, whether or not
/// the workers keep up, and wait in a queue of at most 1,024 requests
/// for a free worker.
#[derive(Debug, Clone)]
pub struct OpenLoad {
    /// The arrival process (must be open).
    pub arrival: Arrival,
    /// The arrival process's own RNG stream.
    pub rng: Rng,
    /// Queue-depth sampling cadence ([`Nanos::ZERO`] disables the
    /// timeline).
    pub sample_every: Nanos,
}

/// One operation's life, reported to the caller at its completion
/// instant. Completions are delivered in completion-time order (FIFO
/// among ties), which is what lets the caller feed windowed series
/// directly.
#[derive(Debug, Clone, Copy)]
pub struct Completion {
    /// The process that ran the operation.
    pub process: u32,
    /// When the process arrived (started waiting for a core); for an
    /// open load, when the request arrived.
    pub arrived: Nanos,
    /// When the operation was issued against the stack (core wait and
    /// think time already paid; `issued - arrived - think` is the core
    /// queueing delay).
    pub issued: Nanos,
    /// The core that served the think phase (for per-core utilization
    /// and trace track ids).
    pub core: u32,
    /// When the operation completed (CPU + queueing + device).
    pub completed: Nanos,
    /// The operation's raw cost, excluding queueing delays.
    pub cost: OpCost,
}

/// What the scheduler pops from its event queue.
#[derive(Debug, Clone, Copy)]
enum Event {
    /// Closed worker `p` is ready to start its next operation.
    Ready(u32),
    /// The open load's next request arrives.
    Arrive,
    /// Worker `process` got its CPU phase; execute the request that
    /// arrived at `arrived` now.
    Issue {
        process: u32,
        arrived: Nanos,
        core: u32,
    },
    /// An operation completed (recorded in completion-time order).
    Done {
        process: u32,
        arrived: Nanos,
        issued: Nanos,
        core: u32,
        cost: OpCost,
    },
    /// Background-flusher tick.
    Tick,
    /// Queue-depth sample of an open load.
    Sample,
}

/// The outcome of a scheduled run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedOutcome {
    /// The virtual instant the last completion (or the deadline,
    /// whichever is later) landed at.
    pub finished: Nanos,
    /// The open load's accounting, when the run had one.
    pub open: Option<OpenOutcome>,
}

/// The end-to-end accounting of an open load, which a closed loop
/// cannot produce. `offered` always equals
/// `completed + failed + dropped` — every generated request is either
/// served, failed at the target, or rejected at the full queue.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpenOutcome {
    /// Requests generated by the arrival process within the horizon.
    pub offered: u64,
    /// Requests served to completion.
    pub completed: u64,
    /// Requests that reached the target but failed.
    pub failed: u64,
    /// Requests rejected because the admission queue was full.
    pub dropped: u64,
    /// Deepest the admission queue ever got.
    pub max_queue_depth: u32,
    /// `(instant - start, queue depth)` samples on the configured
    /// cadence, within the horizon.
    pub depth_timeline: Vec<(Nanos, u32)>,
}

/// What the scheduler drives: the operation source, the background
/// flusher, and the completion/error observers, bundled as one object
/// so a driver can hold the target and all bookkeeping state behind a
/// single mutable borrow.
pub trait SchedDriver {
    /// Executes `process`'s next operation at instant `now` against the
    /// shared state and returns its decomposed cost. Errors are routed
    /// to [`SchedDriver::on_error`] and cost the process nothing beyond
    /// the think time it already spent (no spin).
    fn exec(&mut self, process: u32, now: Nanos) -> SimResult<OpCost>;

    /// Runs the background flusher as of instant `start`, returning the
    /// device time consumed. The scheduler charges it to the shared
    /// device queue, so writeback interference delays process I/O
    /// exactly as it does in the serial engine.
    fn tick(&mut self, start: Nanos) -> Nanos;

    /// Observes one successful operation. Completions arrive in
    /// completion-time order (FIFO among ties). Returning an error
    /// aborts the run.
    fn on_complete(&mut self, completion: &Completion) -> SimResult<()>;

    /// Observes one failed operation at its issue instant. Returning an
    /// error aborts the run (e.g. the engine's consecutive-failure
    /// limit).
    fn on_error(&mut self, process: u32, now: Nanos, error: SimError) -> SimResult<()>;

    /// Publishes the shared device queue's next-free instant to the
    /// driver, immediately before each [`SchedDriver::exec`]. A target
    /// with a mechanical device model can then evaluate seek distance
    /// at *actual service start* rather than at issue — without this, a
    /// request issued while the device is busy would charge the seek
    /// from wherever the head was at issue time, not where the queued
    /// work leaves it. Drivers without a positional device ignore it.
    fn set_device_floor(&mut self, _floor: Nanos) {}
}

/// Reusable event-pump state: the event queue and per-run buffers that
/// used to be rebuilt (and re-grown from empty) on every run.
///
/// A campaign executes thousands of scheduled runs back to back; with
/// a scratch held across them, each run starts with pre-sized arenas
/// ([`EventQueue::clear`] keeps the allocation and resets the FIFO
/// counter, so reuse is observationally identical to a fresh queue).
#[derive(Debug, Default)]
struct SchedScratch {
    queue: EventQueue<Event>,
    pending: VecDeque<Nanos>,
    idle: Vec<bool>,
    samples: Vec<(Nanos, u32)>,
}

thread_local! {
    /// Per-thread scratch behind [`run`], so every caller gets queue
    /// reuse without threading a scratch through its signature.
    static SCRATCH: std::cell::RefCell<SchedScratch> =
        std::cell::RefCell::new(SchedScratch::default());
}

/// Drives `config.processes` workers over a shared target: closed-loop
/// workers when `open` is `None`, each issuing its next operation the
/// instant its last one ends, or else the service workers of `open`,
/// each serving one request at a time.
///
/// The two differ in two places only: what arrives (a closed worker
/// re-arrives as `Ready`; open requests come from an [`ArrivalGen`]),
/// and where a freed worker's next request comes from (itself, or the
/// admission queue). Cores, the device queue, the flusher and the
/// completion order are one code path. For an open load,
/// [`Completion::arrived`] is the request's *arrival* instant, so the
/// latency a driver records (`completed - arrived`) includes the queue
/// wait — the quantity closed loops structurally hide.
///
/// The schedule is a pure function of the inputs: same driver state,
/// same config, same arrival stream — byte-identical event order.
pub fn run<D: SchedDriver + ?Sized>(
    config: &SchedConfig,
    open: Option<OpenLoad>,
    driver: &mut D,
) -> SimResult<SchedOutcome> {
    SCRATCH.with(|s| match s.try_borrow_mut() {
        Ok(mut scratch) => run_in(&mut scratch, config, open, driver),
        // Re-entrant call (a driver running a nested loop): fall back
        // to a one-shot scratch rather than panicking on the borrow.
        Err(_) => run_in(&mut SchedScratch::default(), config, open, driver),
    })
}

/// [`run`] against caller-held scratch state.
fn run_in<D: SchedDriver + ?Sized>(
    scratch: &mut SchedScratch,
    config: &SchedConfig,
    open: Option<OpenLoad>,
    driver: &mut D,
) -> SimResult<SchedOutcome> {
    let end = config.start + config.duration;
    let workers = config.processes.max(1);
    let SchedScratch {
        queue,
        pending,
        idle,
        samples,
    } = scratch;
    queue.clear();
    queue.reserve(workers as usize + 3);
    pending.clear();
    idle.clear();
    idle.resize(workers as usize, true);
    samples.clear();
    let mut cores = CoreSet::new(config.cores);
    let mut device = DeviceQueue::new();
    let mut finished = end;
    let mut out = OpenOutcome::default();
    let sample_every = open.as_ref().map_or(Nanos::ZERO, |load| load.sample_every);
    let mut arrivals = open
        .map(|load| ArrivalGen::new(load.arrival, load.rng, config.start, config.duration))
        .transpose()?;

    // What arrives first: every closed worker, or the first request.
    match &mut arrivals {
        None => {
            for p in 0..workers {
                queue.schedule(config.start, Event::Ready(p));
            }
        }
        Some(gen) => {
            let first = gen.next_after(config.start);
            if first < end {
                queue.schedule(first, Event::Arrive);
            }
        }
    }
    queue.schedule(config.start + TICK_EVERY, Event::Tick);
    if !sample_every.is_zero() {
        queue.schedule(config.start + sample_every, Event::Sample);
    }

    while let Some((now, event)) = queue.pop() {
        // The worker this event frees, if any.
        let freed = match event {
            Event::Ready(p) => {
                // Past the deadline the worker retires; in-flight work
                // drains.
                if now < end {
                    claim(queue, &mut cores, config.think, now, p, now);
                }
                None
            }
            Event::Arrive => {
                out.offered += 1;
                // Lowest-index idle worker first: deterministic, like
                // the core tie-break.
                if let Some(w) = idle.iter().position(|&free| free) {
                    idle[w] = false;
                    claim(queue, &mut cores, config.think, now, w as u32, now);
                } else if pending.len() < QUEUE_CAP {
                    pending.push_back(now);
                    out.max_queue_depth = out.max_queue_depth.max(pending.len() as u32);
                } else {
                    out.dropped += 1;
                }
                if let Some(gen) = &mut arrivals {
                    let next = gen.next_after(now);
                    if next < end {
                        queue.schedule(next, Event::Arrive);
                    }
                }
                None
            }
            Event::Issue {
                process,
                arrived,
                core,
            } => {
                driver.set_device_floor(device.next_free());
                match driver.exec(process, now) {
                    Ok(cost) => {
                        let after_cpu = now + cost.cpu;
                        let completed = if cost.device.is_zero() {
                            after_cpu
                        } else {
                            device.serve(after_cpu, cost.device)
                        };
                        queue.schedule(
                            completed,
                            Event::Done {
                                process,
                                arrived,
                                issued: now,
                                core,
                                cost,
                            },
                        );
                        None
                    }
                    Err(e) => {
                        driver.on_error(process, now, e)?;
                        // The request is consumed (no retry at this
                        // layer) and its think time paid: the worker is
                        // free now.
                        out.failed += 1;
                        Some(process)
                    }
                }
            }
            Event::Done {
                process,
                arrived,
                issued,
                core,
                cost,
            } => {
                finished = finished.max(now);
                out.completed += 1;
                driver.on_complete(&Completion {
                    process,
                    arrived,
                    issued,
                    core,
                    completed: now,
                    cost,
                })?;
                Some(process)
            }
            Event::Tick => {
                // Past the deadline only in-flight work drains: a
                // flusher pass now would charge device time past the
                // horizon and inflate the virtual end-time of short
                // runs, so the flusher stops.
                if now < end {
                    let start = device.next_free().max(now);
                    let spent = driver.tick(start);
                    if !spent.is_zero() {
                        device.serve(start, spent);
                    }
                    queue.schedule(now + TICK_EVERY, Event::Tick);
                }
                None
            }
            Event::Sample => {
                if now < end {
                    samples.push((now - config.start, pending.len() as u32));
                    queue.schedule(now + sample_every, Event::Sample);
                }
                None
            }
        };
        // Where a freed worker's next request comes from.
        let Some(w) = freed else { continue };
        if arrivals.is_none() {
            // Itself: the closed worker is ready again now. The hop
            // through `Ready` queues its core claim behind the events
            // already due at this instant, and `Ready` retires it once
            // the deadline has passed.
            queue.schedule(now, Event::Ready(w));
        } else if let Some(arrived) = pending.pop_front() {
            // The admission queue's oldest request.
            claim(queue, &mut cores, config.think, now, w, arrived);
        } else {
            idle[w as usize] = true;
        }
    }
    let open = arrivals.map(|_| OpenOutcome {
        depth_timeline: coalesce_depth_timeline(samples),
        ..out
    });
    Ok(SchedOutcome { finished, open })
}

/// Claims the earliest-free core for `process` at `now` and schedules
/// the issue of its request, which arrived at `arrived`, once the think
/// phase is paid.
fn claim(
    queue: &mut EventQueue<Event>,
    cores: &mut CoreSet,
    think: Nanos,
    now: Nanos,
    process: u32,
    arrived: Nanos,
) {
    let (core, cpu_done) = cores.claim_indexed(now, think);
    queue.schedule(
        cpu_done,
        Event::Issue {
            process,
            arrived,
            core,
        },
    );
}

/// How requests arrive at the system.
///
/// [`Arrival::Closed`] is the classic benchmark loop: each worker
/// issues its next operation the instant the previous one completes,
/// so the offered load always equals the capacity and queueing delay
/// is structurally invisible. The open variants model *offered* load —
/// requests arrive on their own schedule whether or not the system
/// keeps up, which is what exposes the latency-vs-load hockey stick
/// real services live on.
///
/// Rates are whole operations per second (integer, so an arrival mode
/// can sit in hashable cell identities); all randomness comes from a
/// forked, seed-deterministic [`Rng`] stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Arrival {
    /// Closed loop: issue-on-completion, no arrival process.
    Closed,
    /// Memoryless arrivals: exponential inter-arrival times with mean
    /// `1/rate`.
    Poisson {
        /// Mean offered load, operations per second.
        rate: u64,
    },
    /// ON-OFF bursts: alternating 100 ms phases; the ON phase offers
    /// Poisson arrivals at `2 * rate`, the OFF phase offers none, so
    /// the long-run average is `rate`.
    Bursty {
        /// Long-run average offered load, operations per second.
        rate: u64,
    },
    /// Diurnal ramp: instantaneous Poisson rate climbs linearly from
    /// `0.5 * rate` at the start of the run to `1.5 * rate` at the
    /// end (average `rate`) — a compressed day of traffic.
    Diurnal {
        /// Average offered load, operations per second.
        rate: u64,
    },
}

impl Arrival {
    /// Whether this is an open-loop mode (any variant but `Closed`).
    pub fn is_open(self) -> bool {
        !matches!(self, Arrival::Closed)
    }

    /// The configured average rate, when open.
    pub fn rate(self) -> Option<u64> {
        match self {
            Arrival::Closed => None,
            Arrival::Poisson { rate } | Arrival::Bursty { rate } | Arrival::Diurnal { rate } => {
                Some(rate)
            }
        }
    }

    /// The same arrival shape at a different average rate (`Closed`
    /// stays `Closed`) — how the SLO bisection probes a cell.
    pub fn with_rate(self, rate: u64) -> Arrival {
        match self {
            Arrival::Closed => Arrival::Closed,
            Arrival::Poisson { .. } => Arrival::Poisson { rate },
            Arrival::Bursty { .. } => Arrival::Bursty { rate },
            Arrival::Diurnal { .. } => Arrival::Diurnal { rate },
        }
    }

    /// Canonical label: `closed`, `poisson:RATE`, `bursty:RATE`,
    /// `diurnal:RATE`. Stable — it is part of campaign cell keys.
    /// Allocates; key-building hot paths write the identical bytes
    /// through the [`std::fmt::Display`] impl instead.
    pub fn label(self) -> String {
        self.to_string()
    }

    /// Parses a label produced by [`Arrival::label`] (also the CLI
    /// `--arrival` syntax). Rates must be positive integers.
    pub fn parse(s: &str) -> Result<Arrival, String> {
        if s == "closed" {
            return Ok(Arrival::Closed);
        }
        let (kind, rate) = s
            .split_once(':')
            .ok_or_else(|| format!("bad arrival {s:?}: expected closed or KIND:RATE"))?;
        let rate: u64 = rate
            .parse()
            .map_err(|_| format!("bad arrival rate {rate:?}: expected ops/sec as an integer"))?;
        if rate == 0 {
            return Err(format!("bad arrival {s:?}: rate must be positive"));
        }
        match kind {
            "poisson" => Ok(Arrival::Poisson { rate }),
            "bursty" => Ok(Arrival::Bursty { rate }),
            "diurnal" => Ok(Arrival::Diurnal { rate }),
            other => Err(format!(
                "unknown arrival process {other:?} (try poisson, bursty, diurnal or closed)"
            )),
        }
    }

    /// Parses one `--arrival` axis entry, which is either a single
    /// [`Arrival::parse`] label or a declarative **rate ladder**
    /// `KIND:LO..HIxFACTOR` — the geometric sequence `LO, LO*FACTOR, …`
    /// up to and including `HI` when the ladder lands on it exactly.
    /// `poisson:1000..16000x2` expands to the five rates
    /// `1000, 2000, 4000, 8000, 16000`, each an ordinary arrival whose
    /// label round-trips through [`Arrival::parse`] — the SLO
    /// hockey-stick grid without enumerating every rung by hand.
    pub fn parse_axis(s: &str) -> Result<Vec<Arrival>, String> {
        let Some((kind, (lo, rest))) = s
            .split_once(':')
            .and_then(|(kind, range)| Some((kind, range.split_once("..")?)))
        else {
            return Arrival::parse(s).map(|a| vec![a]);
        };
        let (hi, factor) = rest
            .split_once('x')
            .ok_or_else(|| format!("bad arrival ladder {s:?}: expected KIND:LO..HIxFACTOR"))?;
        let parse_rate = |r: &str| -> Result<u64, String> {
            r.parse()
                .ok()
                .filter(|&n| n > 0)
                .ok_or_else(|| format!("bad arrival ladder rate {r:?}: expected positive ops/sec"))
        };
        let lo = parse_rate(lo)?;
        let hi = parse_rate(hi)?;
        let factor = parse_rate(factor)?;
        if factor < 2 {
            return Err(format!(
                "bad arrival ladder {s:?}: factor must be at least 2"
            ));
        }
        if hi < lo {
            return Err(format!("bad arrival ladder {s:?}: {hi} is below {lo}"));
        }
        let mut rungs = Vec::new();
        let mut rate = lo;
        loop {
            rungs.push(Arrival::parse(&format!("{kind}:{rate}"))?);
            match rate.checked_mul(factor) {
                Some(next) if next <= hi => rate = next,
                _ => break,
            }
        }
        Ok(rungs)
    }
}

impl std::fmt::Display for Arrival {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Arrival::Closed => f.write_str("closed"),
            Arrival::Poisson { rate } => write!(f, "poisson:{rate}"),
            Arrival::Bursty { rate } => write!(f, "bursty:{rate}"),
            Arrival::Diurnal { rate } => write!(f, "diurnal:{rate}"),
        }
    }
}

/// ON-phase length of the bursty arrival process.
const BURST_ON: Nanos = Nanos::from_millis(100);
/// Full ON+OFF period of the bursty arrival process.
const BURST_PERIOD: Nanos = Nanos::from_millis(200);

/// A deterministic arrival-instant generator: a pure function of
/// (arrival mode, RNG stream, run horizon).
#[derive(Debug, Clone)]
pub struct ArrivalGen {
    arrival: Arrival,
    rng: Rng,
    start: Nanos,
    duration: Nanos,
}

impl ArrivalGen {
    /// Builds a generator for an open arrival mode over
    /// `[start, start + duration)`. `Closed` is rejected — there is no
    /// arrival process to generate.
    pub fn new(arrival: Arrival, rng: Rng, start: Nanos, duration: Nanos) -> SimResult<ArrivalGen> {
        if !arrival.is_open() {
            return Err(SimError::BadConfig(
                "closed-loop mode has no arrival process".into(),
            ));
        }
        Ok(ArrivalGen {
            arrival,
            rng,
            start,
            duration,
        })
    }

    /// One exponential inter-arrival draw at `rate` ops/sec, floored at
    /// a nanosecond so the generator always makes progress.
    fn exp_gap(&mut self, rate: u64) -> Nanos {
        let mean_ns = 1e9 / rate.max(1) as f64;
        Nanos::from_nanos((self.rng.exponential(mean_ns)).max(1.0) as u64)
    }

    /// The next arrival instant strictly after `t`. Callers stop the
    /// stream once this crosses the run horizon.
    pub fn next_after(&mut self, t: Nanos) -> Nanos {
        match self.arrival {
            Arrival::Closed => unreachable!("ArrivalGen::new rejects Closed"),
            Arrival::Poisson { rate } => t + self.exp_gap(rate),
            Arrival::Bursty { rate } => {
                let mut t = t.max(self.start);
                loop {
                    let phase = Nanos::from_nanos(
                        (t - self.start).as_nanos() % BURST_PERIOD.as_nanos().max(1),
                    );
                    if phase >= BURST_ON {
                        // In the OFF phase: jump to the next ON start.
                        t += BURST_PERIOD - phase;
                        continue;
                    }
                    t += self.exp_gap(rate.saturating_mul(2));
                    let phase = Nanos::from_nanos(
                        (t - self.start).as_nanos() % BURST_PERIOD.as_nanos().max(1),
                    );
                    if phase < BURST_ON {
                        return t;
                    }
                    // The draw crossed into an OFF phase; loop to skip
                    // forward and draw again.
                }
            }
            Arrival::Diurnal { rate } => {
                let elapsed = t.saturating_sub(self.start);
                let frac = if self.duration.is_zero() {
                    0.5
                } else {
                    (elapsed.as_secs_f64() / self.duration.as_secs_f64()).clamp(0.0, 1.0)
                };
                let instantaneous = ((rate as f64) * (0.5 + frac)).max(1.0);
                let mean_ns = 1e9 / instantaneous;
                t + Nanos::from_nanos((self.rng.exponential(mean_ns)).max(1.0) as u64)
            }
        }
    }
}

/// Fixed upper bound on the entries a reported queue-depth timeline
/// may carry.
pub const DEPTH_TIMELINE_BUCKETS: usize = 256;

/// Coalesces raw queue-depth samples — an unbounded series, one entry
/// per sampling window, that grows without limit on long runs — into at
/// most [`DEPTH_TIMELINE_BUCKETS`] entries. Adjacent samples merge into
/// a bucket reported at the bucket's first instant with the *maximum*
/// depth seen inside it, so backlog peaks survive the summarization.
/// Series that already fit pass through unchanged.
fn coalesce_depth_timeline(samples: &[(Nanos, u32)]) -> Vec<(Nanos, u32)> {
    let n = samples.len();
    if n <= DEPTH_TIMELINE_BUCKETS {
        return samples.to_vec();
    }
    let mut out = Vec::with_capacity(DEPTH_TIMELINE_BUCKETS);
    for b in 0..DEPTH_TIMELINE_BUCKETS {
        let lo = b * n / DEPTH_TIMELINE_BUCKETS;
        let hi = ((b + 1) * n / DEPTH_TIMELINE_BUCKETS).max(lo + 1).min(n);
        let at = samples[lo].0;
        let depth = samples[lo..hi].iter().map(|&(_, d)| d).max().unwrap_or(0);
        out.push((at, depth));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // CoreSet/DeviceQueue have their own unit tests next to their
    // implementation in rb_simcore::events.

    #[test]
    fn arrival_axis_expands_geometric_ladders() {
        let rungs = Arrival::parse_axis("poisson:1000..16000x2").expect("ladder parses");
        let rates: Vec<u64> = rungs.iter().filter_map(|a| a.rate()).collect();
        assert_eq!(rates, [1000, 2000, 4000, 8000, 16000]);
        assert!(rungs.iter().all(|a| matches!(a, Arrival::Poisson { .. })));
        // A ladder that overshoots its top stops at the last rung <= HI.
        let rungs = Arrival::parse_axis("bursty:100..1000x3").expect("ladder parses");
        let rates: Vec<u64> = rungs.iter().filter_map(|a| a.rate()).collect();
        assert_eq!(rates, [100, 300, 900]);
        // Degenerate ladder: LO == HI is the single rung.
        let rungs = Arrival::parse_axis("diurnal:500..500x2").expect("ladder parses");
        assert_eq!(rungs, [Arrival::Diurnal { rate: 500 }]);
    }

    #[test]
    fn arrival_axis_ladder_rungs_round_trip_labels() {
        for rung in Arrival::parse_axis("poisson:250..4000x2").expect("ladder parses") {
            let label = rung.label();
            assert_eq!(Arrival::parse(&label), Ok(rung), "label {label}");
            assert_eq!(Arrival::parse_axis(&label), Ok(vec![rung]));
        }
    }

    #[test]
    fn arrival_axis_plain_labels_unchanged() {
        for label in ["closed", "poisson:2000", "bursty:64", "diurnal:9999"] {
            let axis = Arrival::parse_axis(label).expect("plain label parses");
            assert_eq!(axis, vec![Arrival::parse(label).expect("parses")]);
        }
    }

    #[test]
    fn arrival_axis_rejects_malformed_ladders() {
        for bad in [
            "poisson:1000..16000",  // no factor
            "poisson:1000..500x2",  // reversed bounds
            "poisson:1000..2000x1", // factor below 2
            "poisson:0..2000x2",    // zero rate
            "warble:1..2x2",        // unknown process
            "poisson:a..bx2",       // non-numeric
        ] {
            assert!(Arrival::parse_axis(bad).is_err(), "{bad} should fail");
        }
    }

    /// A scripted test driver: `costs(i)` is the i-th executed op's
    /// outcome; issue order, completions and tick instants are logged.
    struct Script<F: FnMut(u64) -> SimResult<OpCost>> {
        costs: F,
        executed: u64,
        issued: Vec<u32>,
        completions: Vec<Nanos>,
        ticks: Vec<Nanos>,
        errors_seen: u64,
        abort_after_errors: Option<u64>,
    }

    impl<F: FnMut(u64) -> SimResult<OpCost>> Script<F> {
        fn new(costs: F) -> Self {
            Script {
                costs,
                executed: 0,
                issued: Vec::new(),
                completions: Vec::new(),
                ticks: Vec::new(),
                errors_seen: 0,
                abort_after_errors: None,
            }
        }
    }

    impl<F: FnMut(u64) -> SimResult<OpCost>> SchedDriver for Script<F> {
        fn exec(&mut self, process: u32, _now: Nanos) -> SimResult<OpCost> {
            self.issued.push(process);
            let i = self.executed;
            self.executed += 1;
            (self.costs)(i)
        }

        fn tick(&mut self, start: Nanos) -> Nanos {
            self.ticks.push(start);
            Nanos::ZERO
        }

        fn on_complete(&mut self, completion: &Completion) -> SimResult<()> {
            self.completions.push(completion.completed);
            Ok(())
        }

        fn on_error(&mut self, _process: u32, _now: Nanos, _error: SimError) -> SimResult<()> {
            self.errors_seen += 1;
            match self.abort_after_errors {
                Some(n) if self.errors_seen >= n => {
                    Err(SimError::InvalidOperation("too many failures".into()))
                }
                _ => Ok(()),
            }
        }
    }

    /// Equal-instant events drain FIFO: with several processes arriving
    /// at t=0, the issue order is exactly the process order, repeatably.
    #[test]
    fn equal_instant_events_drain_fifo() {
        let run = || {
            let config = SchedConfig {
                processes: 5,
                cores: 5,
                start: Nanos::ZERO,
                duration: Nanos::from_nanos(1),
                think: Nanos::ZERO,
            };
            let mut driver = Script::new(|_| Ok(OpCost::cpu_only(Nanos::from_micros(1))));
            run(&config, None, &mut driver).unwrap();
            driver.issued
        };
        let order = run();
        assert_eq!(&order[..5], &[0, 1, 2, 3, 4]);
        assert_eq!(order, run());
    }

    #[test]
    fn completions_arrive_in_time_order() {
        let config = SchedConfig {
            processes: 3,
            cores: 1,
            start: Nanos::ZERO,
            duration: Nanos::from_micros(50),
            think: Nanos::from_micros(3),
        };
        // Alternate fast CPU-only and slow device-bound ops so raw
        // completion instants would interleave without the Done events.
        let mut driver = Script::new(|i| {
            Ok(if i % 2 == 0 {
                OpCost {
                    cpu: Nanos::from_micros(1),
                    device: Nanos::from_micros(9),
                }
            } else {
                OpCost::cpu_only(Nanos::from_micros(1))
            })
        });
        run(&config, None, &mut driver).unwrap();
        assert!(driver.completions.len() > 3);
        assert!(
            driver.completions.windows(2).all(|w| w[0] <= w[1]),
            "completions out of order: {:?}",
            driver.completions
        );
    }

    #[test]
    fn ticks_follow_cadence_and_stop_at_retirement() {
        let config = SchedConfig {
            processes: 1,
            cores: 1,
            start: Nanos::ZERO,
            duration: Nanos::from_secs(16),
            think: Nanos::from_secs(1),
        };
        let mut driver = Script::new(|_| Ok(OpCost::cpu_only(Nanos::from_millis(1))));
        run(&config, None, &mut driver).unwrap();
        // Ticks at 5, 10, 15 s — never falling behind the cadence.
        assert_eq!(driver.ticks.len(), 3, "{:?}", driver.ticks);
    }

    /// A tick popped past the horizon while operations are still in
    /// flight must neither run the flusher nor reschedule: a short run
    /// with one long op used to have its drain inflated by post-horizon
    /// writeback.
    #[test]
    fn ticks_past_the_horizon_are_skipped_during_drain() {
        let config = SchedConfig {
            processes: 1,
            cores: 1,
            start: Nanos::ZERO,
            duration: Nanos::from_secs(2),
            think: Nanos::from_micros(1),
        };
        // One op that outlives the whole run: in flight at the 5 s tick.
        let mut driver = Script::new(|_| {
            Ok(OpCost {
                cpu: Nanos::from_micros(1),
                device: Nanos::from_secs(10),
            })
        });
        run(&config, None, &mut driver).unwrap();
        assert!(
            driver.ticks.is_empty(),
            "post-horizon tick ran the flusher at {:?}",
            driver.ticks
        );
    }

    #[test]
    fn arrival_labels_round_trip() {
        for a in [
            Arrival::Closed,
            Arrival::Poisson { rate: 5000 },
            Arrival::Bursty { rate: 250 },
            Arrival::Diurnal { rate: 12 },
        ] {
            assert_eq!(Arrival::parse(&a.label()), Ok(a));
        }
        assert!(Arrival::parse("poisson").is_err());
        assert!(Arrival::parse("poisson:0").is_err());
        assert!(Arrival::parse("poisson:-3").is_err());
        assert!(Arrival::parse("sawtooth:100").is_err());
    }

    fn open_config(duration: Nanos, workers: u32) -> SchedConfig {
        SchedConfig {
            processes: workers,
            cores: workers,
            start: Nanos::ZERO,
            duration,
            think: Nanos::from_micros(10),
        }
    }

    /// Runs `driver` under an open `arrival` load drawn from `seed`'s
    /// arrival stream, sampling the queue depth every `sample_every`.
    fn run_open<D: SchedDriver>(
        config: &SchedConfig,
        arrival: Arrival,
        seed: u64,
        sample_every: Nanos,
        driver: &mut D,
    ) -> OpenOutcome {
        let load = OpenLoad {
            arrival,
            rng: Rng::new(seed).fork("arrivals"),
            sample_every,
        };
        let outcome = run(config, Some(load), driver).unwrap();
        outcome.open.expect("an open load reports its accounting")
    }

    /// Every generated request is accounted for: served, failed or
    /// dropped — under overload, with a tiny queue, with errors mixed in.
    #[test]
    fn open_loop_accounting_sums_to_offered() {
        let config = open_config(Nanos::from_secs(1), 2);
        // Service slower than arrivals (2 workers x ~10k ops/s max each
        // on device time alone), every 7th op fails.
        let mut driver = Script::new(|i| {
            if i % 7 == 3 {
                Err(SimError::NotFound("flaky".into()))
            } else {
                Ok(OpCost {
                    cpu: Nanos::from_micros(20),
                    device: Nanos::from_micros(120),
                })
            }
        });
        let rate = Arrival::Poisson { rate: 20_000 };
        let out = run_open(&config, rate, 7, Nanos::ZERO, &mut driver);
        assert!(out.offered > 0);
        assert!(
            out.dropped > 0,
            "overload never filled the 1,024-slot queue"
        );
        assert!(out.failed > 0);
        assert_eq!(out.offered, out.completed + out.failed + out.dropped);
        assert_eq!(out.completed, driver.completions.len() as u64);
    }

    /// The open-loop schedule is a pure function of (config, seed).
    #[test]
    fn open_loop_is_seed_deterministic() {
        let run = |seed: u64| {
            let config = open_config(Nanos::from_millis(200), 3);
            let mut driver = Script::new(|i| {
                Ok(OpCost {
                    cpu: Nanos::from_micros(5),
                    device: Nanos::from_micros(50 + (i % 5) * 20),
                })
            });
            let rate = Arrival::Bursty { rate: 5_000 };
            let out = run_open(&config, rate, seed, Nanos::ZERO, &mut driver);
            (out.offered, out.completed, out.dropped, driver.completions)
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3).0, run(4).0, "seed had no effect on arrivals");
    }

    /// An under-loaded open loop keeps the queue shallow and drops
    /// nothing; latencies (completed - arrived) include no queueing to
    /// speak of.
    #[test]
    fn underload_drops_nothing() {
        let config = open_config(Nanos::from_secs(1), 2);
        let mut driver = Script::new(|_| {
            Ok(OpCost {
                cpu: Nanos::from_micros(10),
                device: Nanos::from_micros(100),
            })
        });
        let out = run_open(
            &config,
            Arrival::Poisson { rate: 500 },
            0,
            Nanos::ZERO,
            &mut driver,
        );
        assert_eq!(out.dropped, 0);
        assert!(out.offered > 300, "rate 500/s over 1 s offered too little");
        assert_eq!(out.offered, out.completed);
    }

    /// The depth timeline samples on its cadence, inside the horizon.
    #[test]
    fn depth_timeline_follows_cadence() {
        let config = open_config(Nanos::from_secs(1), 1);
        let mut driver = Script::new(|_| {
            Ok(OpCost {
                cpu: Nanos::from_micros(10),
                device: Nanos::from_micros(200),
            })
        });
        // One worker serves ~4,500 requests/s, so 5,400/s builds a
        // backlog of ~850 in the second: saturated, yet short of the
        // queue bound.
        let rate = Arrival::Poisson { rate: 5_400 };
        let out = run_open(&config, rate, 1, Nanos::from_millis(100), &mut driver);
        assert_eq!(out.depth_timeline.len(), 9, "{:?}", out.depth_timeline);
        assert!(
            (out.max_queue_depth as usize) < QUEUE_CAP,
            "{}",
            out.max_queue_depth
        );
        // Below the bound, the saturated queue grows monotonically.
        let depths: Vec<u32> = out.depth_timeline.iter().map(|&(_, d)| d).collect();
        assert!(depths.windows(2).all(|w| w[1] >= w[0]), "{depths:?}");
        // Arrivals keep pushing after the last sample, so the true max
        // is at least the sampled max.
        assert!(out.max_queue_depth >= *depths.iter().max().unwrap());
    }

    /// Each completion's instants form an exact integer partition of
    /// its latency: core wait + think + cpu + device queue wait +
    /// device service == completed - arrived. The flight recorder's
    /// latency decomposition is built on this identity.
    #[test]
    fn completion_decomposition_is_exact() {
        struct Check {
            think: Nanos,
            cores: u32,
            n: u64,
        }
        impl SchedDriver for Check {
            fn exec(&mut self, _p: u32, _now: Nanos) -> SimResult<OpCost> {
                Ok(OpCost {
                    cpu: Nanos::from_micros(2),
                    device: Nanos::from_micros(50),
                })
            }
            fn tick(&mut self, _s: Nanos) -> Nanos {
                Nanos::ZERO
            }
            fn on_complete(&mut self, c: &Completion) -> SimResult<()> {
                self.n += 1;
                assert!(c.core < self.cores, "core id out of range");
                let latency = c.completed - c.arrived;
                let core_wait = c.issued - c.arrived - self.think;
                let queue_wait = c.completed - c.issued - c.cost.cpu - c.cost.device;
                assert_eq!(
                    core_wait + self.think + c.cost.cpu + queue_wait + c.cost.device,
                    latency
                );
                Ok(())
            }
            fn on_error(&mut self, _p: u32, _now: Nanos, _e: SimError) -> SimResult<()> {
                Ok(())
            }
        }
        let config = SchedConfig {
            processes: 4,
            cores: 2,
            start: Nanos::ZERO,
            duration: Nanos::from_millis(10),
            think: Nanos::from_micros(5),
        };
        let mut closed = Check {
            think: config.think,
            cores: config.cores,
            n: 0,
        };
        run(&config, None, &mut closed).unwrap();
        assert!(closed.n > 10, "closed loop barely ran: {}", closed.n);

        let mut open_check = Check {
            think: config.think,
            cores: config.cores,
            n: 0,
        };
        let rate = Arrival::Poisson { rate: 100_000 };
        run_open(&config, rate, 11, Nanos::ZERO, &mut open_check);
        assert!(open_check.n > 10, "open loop barely ran: {}", open_check.n);
    }

    #[test]
    fn errors_abort_when_handler_says_so() {
        let config = SchedConfig {
            processes: 2,
            cores: 2,
            start: Nanos::ZERO,
            duration: Nanos::from_secs(1),
            think: Nanos::from_micros(10),
        };
        let mut driver = Script::new(|_| Err(SimError::NotFound("gone".into())));
        driver.abort_after_errors = Some(5);
        let result = run(&config, None, &mut driver);
        assert!(result.is_err());
        assert_eq!(driver.errors_seen, 5);
    }

    /// The closed- and open-loop pumps that the single [`run`] replaced,
    /// kept verbatim as the oracle it must match callback for callback,
    /// each with its own event enum, configuration and scratch.
    mod oracle {
        use super::super::{
            coalesce_depth_timeline, Arrival, ArrivalGen, Completion, CoreSet, DeviceQueue,
            SchedDriver,
        };
        use rb_simcore::error::SimResult;
        use rb_simcore::events::EventQueue;
        use rb_simcore::rng::Rng;
        use rb_simcore::time::Nanos;
        use rb_simfs::stack::OpCost;
        use std::collections::VecDeque;

        /// Closed-loop scheduler configuration.
        #[derive(Debug, Clone, Copy)]
        pub struct SchedConfig {
            /// Concurrent closed-loop processes.
            pub processes: u32,
            /// CPU cores available to them.
            pub cores: u32,
            /// Virtual instant the measured phase starts (the target clock's
            /// position when the scheduler takes over).
            pub start: Nanos,
            /// Measured duration: processes stop issuing once `start + duration`
            /// is reached, and in-flight operations drain.
            pub duration: Nanos,
            /// Per-operation framework overhead claimed on a core before the
            /// operation itself executes (the flowop engine's `op_overhead`).
            pub think: Nanos,
            /// Background-flusher cadence ([`Nanos::ZERO`] disables ticks).
            pub tick_every: Nanos,
        }

        /// What the scheduler pops from its event queue.
        #[derive(Debug, Clone, Copy)]
        enum Event {
            /// Process `p` wants to start its next operation.
            Arrive(u32),
            /// Process `p` got its CPU phase; execute the operation now.
            Issue {
                process: u32,
                arrived: Nanos,
                core: u32,
            },
            /// An operation completed (recorded in completion-time order).
            Done {
                process: u32,
                arrived: Nanos,
                issued: Nanos,
                core: u32,
                cost: OpCost,
            },
            /// Background-flusher tick.
            Tick,
        }

        /// The outcome of a scheduled run.
        #[derive(Debug, Clone, Copy)]
        pub struct SchedOutcome {
            /// The virtual instant the last completion (or the deadline,
            /// whichever is later) landed at.
            pub finished: Nanos,
        }

        /// Reusable event-pump state: the event queues and per-run buffers
        /// that used to be rebuilt (and re-grown from empty) on every run.
        ///
        /// A campaign executes thousands of scheduled runs back to back; with
        /// a scratch held across them, each run starts with pre-sized arenas
        /// ([`EventQueue::clear`] keeps the allocation and resets the FIFO
        /// counter, so reuse is observationally identical to a fresh queue).
        #[derive(Debug, Default)]
        pub struct SchedScratch {
            closed: EventQueue<Event>,
            open: EventQueue<OpenEvent>,
            pending: VecDeque<Nanos>,
            idle: Vec<bool>,
            samples: Vec<(Nanos, u32)>,
        }

        /// [`run_closed_loop`] against caller-held scratch state.
        pub fn run_closed_loop_in<D: SchedDriver + ?Sized>(
            scratch: &mut SchedScratch,
            config: &SchedConfig,
            driver: &mut D,
        ) -> SimResult<SchedOutcome> {
            let end = config.start + config.duration;
            let queue = &mut scratch.closed;
            queue.clear();
            queue.reserve(config.processes.max(1) as usize + 2);
            let mut cores = CoreSet::new(config.cores);
            let mut device = DeviceQueue::new();
            let mut live = config.processes.max(1);
            let mut finished = end;

            for p in 0..config.processes.max(1) {
                queue.schedule(config.start, Event::Arrive(p));
            }
            if !config.tick_every.is_zero() {
                queue.schedule(config.start + config.tick_every, Event::Tick);
            }

            while let Some((now, event)) = queue.pop() {
                match event {
                    Event::Arrive(p) => {
                        if now >= end {
                            // The process retires; in-flight work drains.
                            live -= 1;
                            continue;
                        }
                        let (core, cpu_done) = cores.claim_indexed(now, config.think);
                        queue.schedule(
                            cpu_done,
                            Event::Issue {
                                process: p,
                                arrived: now,
                                core,
                            },
                        );
                    }
                    Event::Issue {
                        process,
                        arrived,
                        core,
                    } => {
                        driver.set_device_floor(device.next_free());
                        match driver.exec(process, now) {
                            Ok(cost) => {
                                let after_cpu = now + cost.cpu;
                                let completed = if cost.device.is_zero() {
                                    after_cpu
                                } else {
                                    device.serve(after_cpu, cost.device)
                                };
                                queue.schedule(
                                    completed,
                                    Event::Done {
                                        process,
                                        arrived,
                                        issued: now,
                                        core,
                                        cost,
                                    },
                                );
                            }
                            Err(e) => {
                                driver.on_error(process, now, e)?;
                                // Errors still paid the think time; rearrive now.
                                queue.schedule(now, Event::Arrive(process));
                            }
                        }
                    }
                    Event::Done {
                        process,
                        arrived,
                        issued,
                        core,
                        cost,
                    } => {
                        finished = finished.max(now);
                        driver.on_complete(&Completion {
                            process,
                            arrived,
                            issued,
                            core,
                            completed: now,
                            cost,
                        })?;
                        queue.schedule(now, Event::Arrive(process));
                    }
                    Event::Tick => {
                        if live == 0 || now >= end {
                            // Every process has retired, or the deadline has
                            // passed and only in-flight work is draining: a
                            // flusher pass now would charge device time past
                            // the horizon and inflate the virtual end-time of
                            // short runs. Stop rescheduling and let the queue
                            // drain.
                            continue;
                        }
                        let start = device.next_free().max(now);
                        let spent = driver.tick(start);
                        if !spent.is_zero() {
                            device.serve(start, spent);
                        }
                        queue.schedule(now + config.tick_every, Event::Tick);
                    }
                }
            }
            Ok(SchedOutcome { finished })
        }

        /// Open-loop scheduler configuration: the closed-loop substrate
        /// ([`SchedConfig`], whose `processes` become the service workers) plus
        /// the arrival process, the admission queue bound and the queue-depth
        /// sampling cadence.
        #[derive(Debug, Clone, Copy)]
        pub struct OpenLoopConfig {
            /// Worker/core/device substrate. `sched.processes` is the number of
            /// service workers; `sched.duration` is the arrival horizon
            /// (in-flight and queued work drains past it).
            pub sched: SchedConfig,
            /// The arrival process (must be open).
            pub arrival: Arrival,
            /// Bounded admission queue: arrivals beyond this many waiting
            /// requests are dropped (counted, never served).
            pub queue_cap: u32,
            /// Queue-depth sampling cadence ([`Nanos::ZERO`] disables the
            /// timeline).
            pub sample_every: Nanos,
        }

        /// What the open-loop pump pops from its event queue.
        #[derive(Debug, Clone, Copy)]
        enum OpenEvent {
            /// The next generated request arrives.
            Arrive,
            /// Worker `worker` got its CPU phase; execute the request that
            /// arrived at `arrived` now.
            Issue {
                worker: u32,
                arrived: Nanos,
                core: u32,
            },
            /// A request completed.
            Done {
                worker: u32,
                arrived: Nanos,
                issued: Nanos,
                core: u32,
                cost: OpCost,
            },
            /// Background-flusher tick.
            Tick,
            /// Queue-depth sample.
            Sample,
        }

        /// The outcome of an open-loop run: the end-to-end accounting that a
        /// closed loop cannot produce. `offered` always equals
        /// `completed + failed + dropped` — every generated request is either
        /// served, failed at the target, or rejected at the full queue.
        #[derive(Debug, Clone)]
        pub struct OpenOutcome {
            /// The virtual instant the last completion (or the deadline,
            /// whichever is later) landed at.
            pub finished: Nanos,
            /// Requests generated by the arrival process within the horizon.
            pub offered: u64,
            /// Requests served to completion.
            pub completed: u64,
            /// Requests that reached the target but failed.
            pub failed: u64,
            /// Requests rejected because the admission queue was full.
            pub dropped: u64,
            /// Deepest the admission queue ever got.
            pub max_queue_depth: u32,
            /// `(instant - start, queue depth)` samples on the configured
            /// cadence, within the horizon.
            pub depth_timeline: Vec<(Nanos, u32)>,
        }

        /// [`run_open_loop`] against caller-held scratch state.
        pub fn run_open_loop_in<D: SchedDriver + ?Sized>(
            scratch: &mut SchedScratch,
            config: &OpenLoopConfig,
            arrival_rng: Rng,
            driver: &mut D,
        ) -> SimResult<OpenOutcome> {
            let sched = &config.sched;
            let end = sched.start + sched.duration;
            let workers = sched.processes.max(1) as usize;
            let queue = &mut scratch.open;
            queue.clear();
            queue.reserve(workers + 3);
            let mut cores = CoreSet::new(sched.cores);
            let mut device = DeviceQueue::new();
            let pending = &mut scratch.pending;
            pending.clear();
            scratch.idle.clear();
            scratch.idle.resize(workers, true);
            let idle = &mut scratch.idle;
            scratch.samples.clear();
            let samples = &mut scratch.samples;
            let mut gen =
                ArrivalGen::new(config.arrival, arrival_rng, sched.start, sched.duration)?;
            let mut out = OpenOutcome {
                finished: end,
                offered: 0,
                completed: 0,
                failed: 0,
                dropped: 0,
                max_queue_depth: 0,
                depth_timeline: Vec::new(),
            };

            let first = gen.next_after(sched.start);
            if first < end {
                queue.schedule(first, OpenEvent::Arrive);
            }
            if !sched.tick_every.is_zero() {
                queue.schedule(sched.start + sched.tick_every, OpenEvent::Tick);
            }
            if !config.sample_every.is_zero() {
                queue.schedule(sched.start + config.sample_every, OpenEvent::Sample);
            }

            while let Some((now, event)) = queue.pop() {
                match event {
                    OpenEvent::Arrive => {
                        out.offered += 1;
                        // Lowest-index idle worker first: deterministic, like
                        // the core tie-break.
                        if let Some(w) = idle.iter().position(|&free| free) {
                            idle[w] = false;
                            let (core, cpu_done) = cores.claim_indexed(now, sched.think);
                            queue.schedule(
                                cpu_done,
                                OpenEvent::Issue {
                                    worker: w as u32,
                                    arrived: now,
                                    core,
                                },
                            );
                        } else if (pending.len() as u32) < config.queue_cap {
                            pending.push_back(now);
                            out.max_queue_depth = out.max_queue_depth.max(pending.len() as u32);
                        } else {
                            out.dropped += 1;
                        }
                        let next = gen.next_after(now);
                        if next < end {
                            queue.schedule(next, OpenEvent::Arrive);
                        }
                    }
                    OpenEvent::Issue {
                        worker,
                        arrived,
                        core,
                    } => {
                        driver.set_device_floor(device.next_free());
                        match driver.exec(worker, now) {
                            Ok(cost) => {
                                let after_cpu = now + cost.cpu;
                                let completed = if cost.device.is_zero() {
                                    after_cpu
                                } else {
                                    device.serve(after_cpu, cost.device)
                                };
                                queue.schedule(
                                    completed,
                                    OpenEvent::Done {
                                        worker,
                                        arrived,
                                        issued: now,
                                        core,
                                        cost,
                                    },
                                );
                            }
                            Err(e) => {
                                driver.on_error(worker, now, e)?;
                                out.failed += 1;
                                // The request is consumed (open loops don't retry);
                                // the worker immediately picks up the next one.
                                match pending.pop_front() {
                                    Some(arrived) => {
                                        let (core, cpu_done) =
                                            cores.claim_indexed(now, sched.think);
                                        queue.schedule(
                                            cpu_done,
                                            OpenEvent::Issue {
                                                worker,
                                                arrived,
                                                core,
                                            },
                                        );
                                    }
                                    None => idle[worker as usize] = true,
                                }
                            }
                        }
                    }
                    OpenEvent::Done {
                        worker,
                        arrived,
                        issued,
                        core,
                        cost,
                    } => {
                        out.finished = out.finished.max(now);
                        out.completed += 1;
                        driver.on_complete(&Completion {
                            process: worker,
                            arrived,
                            issued,
                            core,
                            completed: now,
                            cost,
                        })?;
                        match pending.pop_front() {
                            Some(arrived) => {
                                let (core, cpu_done) = cores.claim_indexed(now, sched.think);
                                queue.schedule(
                                    cpu_done,
                                    OpenEvent::Issue {
                                        worker,
                                        arrived,
                                        core,
                                    },
                                );
                            }
                            None => idle[worker as usize] = true,
                        }
                    }
                    OpenEvent::Tick => {
                        if now >= end {
                            // Same horizon discipline as the closed loop: no
                            // flusher interference while the tail drains.
                            continue;
                        }
                        let start = device.next_free().max(now);
                        let spent = driver.tick(start);
                        if !spent.is_zero() {
                            device.serve(start, spent);
                        }
                        queue.schedule(now + sched.tick_every, OpenEvent::Tick);
                    }
                    OpenEvent::Sample => {
                        if now >= end {
                            continue;
                        }
                        samples.push((now - sched.start, pending.len() as u32));
                        queue.schedule(now + config.sample_every, OpenEvent::Sample);
                    }
                }
            }
            out.depth_timeline = coalesce_depth_timeline(samples);
            Ok(out)
        }
    }

    const MICRO: Nanos = Nanos::from_micros(1);
    const MILLI: Nanos = Nanos::from_millis(1);

    /// Every callback a driver sees, in order.
    #[derive(Debug, PartialEq)]
    enum Call {
        Exec(u32, Nanos),
        Tick(Nanos),
        Complete(u32, Nanos, Nanos, u32, Nanos, OpCost),
        Error(u32, Nanos, SimError),
        Floor(Nanos),
    }

    /// The driver of one oracle case: each exec's outcome and each
    /// tick's device time are drawn from the case's script stream, and
    /// every callback is logged.
    struct Logged {
        script: Rng,
        /// Costs in ms rather than µs.
        long: bool,
        /// One exec in this many fails (0: none do).
        fail_one_in: u64,
        /// The error handler aborts the run at this many errors.
        abort_after: Option<u64>,
        errors: u64,
        calls: Vec<Call>,
    }

    impl SchedDriver for Logged {
        fn exec(&mut self, process: u32, now: Nanos) -> SimResult<OpCost> {
            self.calls.push(Call::Exec(process, now));
            if self.fail_one_in > 0 && self.script.below(self.fail_one_in) == 0 {
                return Err(SimError::NotFound(format!(
                    "scripted #{}",
                    self.calls.len()
                )));
            }
            // Costs on a coarse grid, so that events often fall due at
            // one instant and the FIFO tie-break decides their order.
            let unit = if self.long { MILLI } else { MICRO };
            let cpu = unit * self.script.below(3);
            // A quarter of the ops never touch the device.
            let device = match self.script.below(4) {
                0 => Nanos::ZERO,
                _ => unit * self.script.below(21),
            };
            Ok(OpCost { cpu, device })
        }

        fn tick(&mut self, start: Nanos) -> Nanos {
            self.calls.push(Call::Tick(start));
            MILLI * self.script.below(50)
        }

        fn on_complete(&mut self, c: &Completion) -> SimResult<()> {
            self.calls.push(Call::Complete(
                c.process,
                c.arrived,
                c.issued,
                c.core,
                c.completed,
                c.cost,
            ));
            Ok(())
        }

        fn on_error(&mut self, process: u32, now: Nanos, error: SimError) -> SimResult<()> {
            self.calls.push(Call::Error(process, now, error));
            self.errors += 1;
            match self.abort_after {
                Some(n) if self.errors >= n => Err(SimError::InvalidOperation("abort".into())),
                _ => Ok(()),
            }
        }

        fn set_device_floor(&mut self, floor: Nanos) {
            self.calls.push(Call::Floor(floor));
        }
    }

    /// One oracle case: a random shape (1-8 workers on 1-4 cores, think
    /// 0, 1 or 10 µs), load (closed, or Poisson, bursty or diurnal from
    /// under- to 25x over capacity), sampling cadence and failure
    /// script. One case in five runs past the 5 s flusher tick with
    /// ms-scale costs. Returns the merged and the oracle run, each as
    /// (outcome, callbacks).
    fn oracle_case(case: u64) -> [(SimResult<SchedOutcome>, Vec<Call>); 2] {
        let mut rng = Rng::new(0x5C4E_D000 ^ case);
        let long = rng.below(5) == 0;
        let config = SchedConfig {
            processes: 1 + rng.below(8) as u32,
            cores: 1 + rng.below(4) as u32,
            start: Nanos::from_micros(rng.below(1_000)),
            duration: if long {
                // Half-second steps, so some runs end on a tick.
                Nanos::from_millis(500 * (11 + rng.below(14)))
            } else {
                Nanos::from_micros(500 + rng.below(30_000))
            },
            think: [0, 1, 10].map(Nanos::from_micros)[rng.below(3) as usize],
        };
        // Capacity: the workers' mean service time, capped by the one
        // device's mean service time; the offered load stays below
        // 20,000 requests.
        let unit = if long { 1e6 } else { 1e3 };
        let service = config.think.as_nanos() as f64 + unit + 7.5 * unit;
        let capacity = (config.processes as f64 * 1e9 / service).min(1e9 / (7.5 * unit));
        let factor = [0.3, 0.9, 1.5, 25.0][rng.below(4) as usize];
        let rate = (capacity * factor).min(20_000.0 / config.duration.as_secs_f64()) as u64;
        let rate = rate.max(1);
        let arrival = [
            Arrival::Closed,
            Arrival::Poisson { rate },
            Arrival::Bursty { rate },
            Arrival::Diurnal { rate },
        ][(case % 4) as usize];
        let sample_every = match rng.below(2) {
            0 => Nanos::ZERO,
            _ => config.duration / (1 + rng.below(12)),
        };
        let fail_one_in = [0, 0, 3, 10, 40][rng.below(5) as usize];
        let abort_after = match rng.below(3) {
            0 => Some(1 + rng.below(30)),
            _ => None,
        };
        let driver = || Logged {
            script: Rng::new(case).fork("script"),
            long,
            fail_one_in,
            abort_after,
            errors: 0,
            calls: Vec::new(),
        };
        let arrivals = Rng::new(case).fork("arrivals");

        let mut merged = driver();
        let load = arrival.is_open().then(|| OpenLoad {
            arrival,
            rng: arrivals.clone(),
            sample_every,
        });
        let outcome = run(&config, load, &mut merged);

        let mut twin = driver();
        let sched = oracle::SchedConfig {
            processes: config.processes,
            cores: config.cores,
            start: config.start,
            duration: config.duration,
            think: config.think,
            tick_every: TICK_EVERY,
        };
        let mut scratch = oracle::SchedScratch::default();
        let expected = if arrival.is_open() {
            let open = oracle::OpenLoopConfig {
                sched,
                arrival,
                queue_cap: QUEUE_CAP as u32,
                sample_every,
            };
            oracle::run_open_loop_in(&mut scratch, &open, arrivals, &mut twin).map(|o| {
                SchedOutcome {
                    finished: o.finished,
                    open: Some(OpenOutcome {
                        offered: o.offered,
                        completed: o.completed,
                        failed: o.failed,
                        dropped: o.dropped,
                        max_queue_depth: o.max_queue_depth,
                        depth_timeline: o.depth_timeline,
                    }),
                }
            })
        } else {
            oracle::run_closed_loop_in(&mut scratch, &sched, &mut twin).map(|o| SchedOutcome {
                finished: o.finished,
                open: None,
            })
        };
        [(outcome, merged.calls), (expected, twin.calls)]
    }

    /// The single pump matches the two pumps it replaced on a fixed
    /// budget of seeded cases: every driver callback in order (exec,
    /// tick, the full completion, error, device floor) and the outcome.
    /// A failure names the case to replay.
    #[test]
    fn single_pump_matches_the_two_pump_oracle() {
        let mut covered = [0u32; 5];
        for case in 0..300u64 {
            let [(outcome, calls), (expected, oracle_calls)] = oracle_case(case);
            if let Some(i) = (0..calls.len().max(oracle_calls.len()))
                .find(|&i| calls.get(i) != oracle_calls.get(i))
            {
                panic!(
                    "case {case}: callback {i} differs: {:?}, the oracle's {:?}",
                    calls.get(i),
                    oracle_calls.get(i)
                );
            }
            assert_eq!(outcome, expected, "case {case}: outcome differs");
            let open = outcome.as_ref().ok().and_then(|o| o.open.as_ref());
            let dropped = open.is_some_and(|o| o.dropped > 0);
            let sampled = open.is_some_and(|o| !o.depth_timeline.is_empty());
            let ticked = calls.iter().any(|c| matches!(c, Call::Tick(_)));
            let failed = calls.iter().any(|c| matches!(c, Call::Error(..)));
            for (n, hit) in
                covered
                    .iter_mut()
                    .zip([dropped, sampled, ticked, failed, outcome.is_err()])
            {
                *n += hit as u32;
            }
        }
        // The budget reaches every arm it is meant to: a full queue,
        // queue-depth samples, flusher ticks, errors and aborts.
        assert!(covered.iter().all(|&n| n >= 5), "{covered:?}");
    }
}
