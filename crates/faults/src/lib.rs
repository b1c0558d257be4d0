//! # rb-faults — deterministic fault plans
//!
//! The paper's complaint is that benchmark conclusions hinge on
//! undisclosed dimensions; fault state is the dimension nobody
//! discloses at all. This crate makes degraded hardware a declared,
//! reproducible experiment axis: a [`FaultSpec`] plus a forked RNG
//! stream plus the virtual clock is a *pure function* deciding, for
//! every media request, whether it fails and how much extra latency it
//! pays. Same spec, same seed, same schedule — same faults, on any
//! machine, at any `--jobs`.
//!
//! The vocabulary:
//!
//! - [`FaultSpec`] — parsed, integer-encoded description of a fault
//!   plan (`slow-disk:4x,eio:1e-4,crash:10s`), hashable so campaign
//!   cell keys can carry it.
//! - [`FaultState`] — the live injector: forked RNG, sticky bad-block
//!   set, and [`FaultStats`] counters. The storage stack consults it on
//!   every media request it issues.
//! - [`RetryPolicy`] — what the harness does when an op fails: nothing,
//!   bounded retries with deterministic virtual-time backoff, or
//!   fail-op-and-continue.
//! - [`OutcomeLedger`] — conservation accounting for a run:
//!   `attempted = succeeded + retried_ok + gave_up + dropped`.
//! - [`RecoveryPlan`] / [`CrashReport`] — what a file system does after
//!   a crash-at-instant (journal replay vs fsck scan) and the verdict.
//!
//! ## Example
//!
//! ```
//! use rb_faults::{FaultSpec, FaultState};
//! use rb_simcore::time::Nanos;
//! use rb_simdisk::prelude::IoRequest;
//!
//! let spec = FaultSpec::parse("slow-disk:4x,eio:0.5").unwrap();
//! assert_eq!(spec.label(), "slow-disk:4x,eio:0.5");
//! let mut state = FaultState::new(spec, 42);
//! // Degradation is a pure function of the clock and the base latency.
//! let slow = state.degrade(Nanos::ZERO, Nanos::from_millis(2));
//! assert_eq!(slow, Nanos::from_millis(8));
//! // Error injection is a deterministic draw per request.
//! let mut failures = 0;
//! for i in 0..100 {
//!     if state.check(&IoRequest::read(i, 1)).is_err() {
//!         failures += 1;
//!     }
//! }
//! assert!(failures > 20 && failures < 80);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rb_simcore::error::{SimError, SimResult};
use rb_simcore::fnv::FnvHashSet;
use rb_simcore::rng::Rng;
use rb_simcore::time::Nanos;
use rb_simcore::units::BlockNo;
use rb_simdisk::device::IoRequest;
use std::fmt;

/// Parts-per-billion denominator for probability encoding.
const PPB: u64 = 1_000_000_000;

/// A declared fault plan, integer-encoded so it is `Eq + Hash` and can
/// key campaign cells the way [`Arrival`] keys the arrival axis.
///
/// Parsed from a comma-separated clause list and rendered back through
/// [`FaultSpec::label`]; `parse(label())` always round-trips. A
/// default-constructed spec is healthy (no clauses active) and is
/// rejected by the parser — use `Option<FaultSpec>` for "no faults".
///
/// [`Arrival`]: https://docs.rs/ (rb-core's arrival axis; same pattern)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaultSpec {
    /// Service-latency multiplier in centi-units (100 = healthy 1.00x).
    pub slow_centi: u32,
    /// Stall-window period in milliseconds (0 = no stall windows).
    pub stall_every_ms: u32,
    /// Stall-window duration in milliseconds.
    pub stall_dur_ms: u32,
    /// Transient I/O error probability per request, parts per billion.
    pub eio_ppb: u32,
    /// Sticky bad-block probability per request, parts per billion.
    /// Once a block goes bad, every later request starting at it fails.
    pub sticky_ppb: u32,
    /// ENOSPC gate: allocations failing once the file system is fuller
    /// than this percentage (0 = off).
    pub enospc_pct: u8,
    /// Crash instant, milliseconds into the measured run (0 = off).
    pub crash_ms: u32,
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec {
            slow_centi: 100,
            stall_every_ms: 0,
            stall_dur_ms: 0,
            eio_ppb: 0,
            sticky_ppb: 0,
            enospc_pct: 0,
            crash_ms: 0,
        }
    }
}

/// Formats a ppb-encoded probability the way `f64` displays it
/// (`100_000 → "0.0001"`), which `parse` accepts back unchanged.
fn fmt_prob(ppb: u32) -> String {
    format!("{}", ppb as f64 / PPB as f64)
}

fn parse_prob(clause: &str, value: &str) -> Result<u32, String> {
    let p: f64 = value
        .parse()
        .map_err(|_| format!("{clause}: probability must be a number, got {value:?}"))?;
    if !(p > 0.0 && p <= 1.0) {
        return Err(format!(
            "{clause}: probability must be in (0, 1], got {value}"
        ));
    }
    Ok((p * PPB as f64).round() as u32)
}

fn parse_ms(clause: &str, value: &str) -> Result<u32, String> {
    let (digits, scale) = if let Some(v) = value.strip_suffix("ms") {
        (v, 1u64)
    } else if let Some(v) = value.strip_suffix('s') {
        (v, 1000)
    } else {
        return Err(format!(
            "{clause}: expected a duration like 500ms or 10s, got {value:?}"
        ));
    };
    let n: u64 = digits
        .parse()
        .map_err(|_| format!("{clause}: expected a duration like 500ms or 10s, got {value:?}"))?;
    n.checked_mul(scale)
        .and_then(|ms| u32::try_from(ms).ok())
        .filter(|&ms| ms > 0)
        .ok_or_else(|| format!("{clause}: duration out of range: {value}"))
}

impl FaultSpec {
    /// Parses a comma-separated fault clause list.
    ///
    /// Clauses: `slow-disk:4x` (also `1.5x`), `stall:500ms/50ms`
    /// (period/duration), `eio:1e-4`, `eio-sticky:1e-5`, `enospc:90%`,
    /// `crash:10s`. Errors are one-line human-readable strings; this
    /// never panics on malformed input.
    pub fn parse(s: &str) -> Result<FaultSpec, String> {
        let s = s.trim();
        if s.is_empty() || s == "none" {
            return Err("empty fault spec; use --faults none to disable".into());
        }
        let mut spec = FaultSpec::default();
        for raw in s.split(',') {
            let clause = raw.trim();
            let (name, value) = clause.split_once(':').ok_or_else(|| {
                format!("fault clause {clause:?} needs a value, like slow-disk:4x")
            })?;
            match name {
                "slow-disk" => {
                    let v = value.strip_suffix('x').ok_or_else(|| {
                        format!("slow-disk: expected a multiplier like 4x, got {value:?}")
                    })?;
                    let f: f64 = v.parse().map_err(|_| {
                        format!("slow-disk: expected a multiplier like 4x, got {value:?}")
                    })?;
                    if !(1.0..=1000.0).contains(&f) {
                        return Err(format!(
                            "slow-disk: multiplier must be in [1, 1000]x, got {value}"
                        ));
                    }
                    spec.slow_centi = (f * 100.0).round() as u32;
                }
                "stall" => {
                    let (every, dur) = value.split_once('/').ok_or_else(|| {
                        format!("stall: expected period/duration like 500ms/50ms, got {value:?}")
                    })?;
                    spec.stall_every_ms = parse_ms("stall", every)?;
                    spec.stall_dur_ms = parse_ms("stall", dur)?;
                    if spec.stall_dur_ms >= spec.stall_every_ms {
                        return Err(format!(
                            "stall: duration must be shorter than the period, got {value}"
                        ));
                    }
                }
                "eio" => spec.eio_ppb = parse_prob("eio", value)?,
                "eio-sticky" => spec.sticky_ppb = parse_prob("eio-sticky", value)?,
                "enospc" => {
                    let v = value.strip_suffix('%').unwrap_or(value);
                    let pct: u8 = v.parse().map_err(|_| {
                        format!("enospc: expected a percentage like 90%, got {value:?}")
                    })?;
                    if pct == 0 || pct > 100 {
                        return Err(format!(
                            "enospc: percentage must be in [1, 100], got {value}"
                        ));
                    }
                    spec.enospc_pct = pct;
                }
                "crash" => spec.crash_ms = parse_ms("crash", value)?,
                other => {
                    return Err(format!(
                        "unknown fault clause {other:?}; known: slow-disk, stall, eio, \
                         eio-sticky, enospc, crash"
                    ))
                }
            }
        }
        if !spec.active() {
            return Err(format!(
                "fault spec {s:?} injects nothing; use --faults none to disable"
            ));
        }
        Ok(spec)
    }

    /// Parses a `--faults` flag value, where `none` (or empty) means no
    /// fault plan at all.
    pub fn parse_flag(s: &str) -> Result<Option<FaultSpec>, String> {
        let s = s.trim();
        if s.is_empty() || s == "none" {
            Ok(None)
        } else {
            FaultSpec::parse(s).map(Some)
        }
    }

    /// Canonical clause list; `FaultSpec::parse(spec.label())` is
    /// identity. Used verbatim in campaign cell keys (`|faults=LABEL`).
    pub fn label(&self) -> String {
        let mut parts = Vec::new();
        if self.slow_centi != 100 {
            if self.slow_centi.is_multiple_of(100) {
                parts.push(format!("slow-disk:{}x", self.slow_centi / 100));
            } else {
                parts.push(format!("slow-disk:{}x", self.slow_centi as f64 / 100.0));
            }
        }
        if self.stall_every_ms > 0 {
            parts.push(format!(
                "stall:{}ms/{}ms",
                self.stall_every_ms, self.stall_dur_ms
            ));
        }
        if self.eio_ppb > 0 {
            parts.push(format!("eio:{}", fmt_prob(self.eio_ppb)));
        }
        if self.sticky_ppb > 0 {
            parts.push(format!("eio-sticky:{}", fmt_prob(self.sticky_ppb)));
        }
        if self.enospc_pct > 0 {
            parts.push(format!("enospc:{}%", self.enospc_pct));
        }
        if self.crash_ms > 0 {
            parts.push(format!("crash:{}ms", self.crash_ms));
        }
        parts.join(",")
    }

    /// True when any clause is active (a default spec is healthy).
    pub fn active(&self) -> bool {
        *self != FaultSpec::default()
    }

    /// Crash instant relative to the start of the measured phase.
    pub fn crash_at(&self) -> Option<Nanos> {
        (self.crash_ms > 0).then(|| Nanos::from_millis(self.crash_ms as u64))
    }
}

impl fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.active() {
            f.write_str(&self.label())
        } else {
            f.write_str("none")
        }
    }
}

/// What the harness does when an op fails under faults.
///
/// Backoff between bounded retries is deterministic virtual time:
/// `100µs · 2^(attempt-1)`, capped at 10ms — see
/// [`RetryPolicy::backoff`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum RetryPolicy {
    /// Errors propagate to the engine's legacy error accounting
    /// (consecutive failures can abort the run). Today's behavior.
    #[default]
    None,
    /// Retry a failed op up to `retries` times with virtual-time
    /// backoff, then give up on it and continue the run.
    Bounded {
        /// Maximum retry attempts per op.
        retries: u32,
    },
    /// No retries: count the failed op as given up and continue; the
    /// run never aborts on fault-induced errors.
    Continue,
}

impl RetryPolicy {
    /// Parses `none`, `bounded:N` or `continue`; one-line errors,
    /// never panics.
    pub fn parse(s: &str) -> Result<RetryPolicy, String> {
        let s = s.trim();
        match s {
            "none" | "" => Ok(RetryPolicy::None),
            "continue" => Ok(RetryPolicy::Continue),
            _ => {
                let n = s
                    .strip_prefix("bounded:")
                    .ok_or_else(|| {
                        format!("unknown retry policy {s:?}; known: none, bounded:N, continue")
                    })?
                    .parse::<u32>()
                    .map_err(|_| format!("bounded: expected a retry count, got {s:?}"))?;
                if !(1..=100).contains(&n) {
                    return Err(format!("bounded: retry count must be in [1, 100], got {n}"));
                }
                Ok(RetryPolicy::Bounded { retries: n })
            }
        }
    }

    /// Maximum retry attempts for a failed op.
    pub fn retries(&self) -> u32 {
        match self {
            RetryPolicy::Bounded { retries } => *retries,
            _ => 0,
        }
    }

    /// Deterministic virtual-time backoff before retry `attempt`
    /// (1-based): `100µs · 2^(attempt-1)`, capped at 10ms.
    pub fn backoff(attempt: u32) -> Nanos {
        let base = Nanos::from_micros(100);
        let cap = Nanos::from_millis(10);
        let scaled = base
            * 1u64
                .checked_shl(attempt.saturating_sub(1))
                .unwrap_or(u64::MAX);
        if scaled > cap || scaled < base {
            cap
        } else {
            scaled
        }
    }
}

/// The canonical flag value: `RetryPolicy::parse` of it is identity.
impl fmt::Display for RetryPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RetryPolicy::None => f.write_str("none"),
            RetryPolicy::Bounded { retries } => write!(f, "bounded:{retries}"),
            RetryPolicy::Continue => f.write_str("continue"),
        }
    }
}

/// Counters kept by a [`FaultState`]: what was injected, and how much
/// extra virtual time degradation cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Transient I/O errors injected.
    pub transient_errors: u64,
    /// Requests failed on sticky bad blocks (including first touch).
    pub sticky_errors: u64,
    /// Distinct blocks that went bad.
    pub bad_blocks: u64,
    /// Requests delayed by a stall window.
    pub stall_hits: u64,
    /// Extra latency charged by the slow-disk multiplier.
    pub slow_extra: Nanos,
    /// Extra latency charged by stall windows.
    pub stall_extra: Nanos,
    /// Allocations rejected by the ENOSPC fill-fraction gate.
    pub enospc_rejections: u64,
    /// Injected errors absorbed by background paths (writeback), where
    /// real kernels also swallow them until fsync.
    pub absorbed_errors: u64,
}

impl FaultStats {
    /// Total injected device errors (transient + sticky).
    pub fn injected_errors(&self) -> u64 {
        self.transient_errors + self.sticky_errors
    }

    /// Total degraded-mode virtual time charged at the device.
    pub fn degraded(&self) -> Nanos {
        self.slow_extra + self.stall_extra
    }
}

/// The live fault injector: spec + forked RNG + sticky-block memory.
///
/// Decisions are pure functions of `(spec, RNG stream, virtual clock)`,
/// so two runs with the same seed and schedule inject identical faults.
#[derive(Debug, Clone)]
pub struct FaultState {
    spec: FaultSpec,
    rng: Rng,
    bad: FnvHashSet<BlockNo>,
    stats: FaultStats,
}

impl FaultState {
    /// Creates an injector for `spec`, forking a dedicated RNG stream
    /// from `seed` so fault draws never perturb workload draws.
    pub fn new(spec: FaultSpec, seed: u64) -> Self {
        FaultState {
            spec,
            rng: Rng::new(seed).fork("faults"),
            bad: FnvHashSet::default(),
            stats: FaultStats::default(),
        }
    }

    /// The spec this state was built from.
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// Read-only view of injection counters.
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    /// Decides whether `req` fails: sticky bad block, then a transient
    /// draw, then a go-bad draw. Returns the injected error.
    pub fn check(&mut self, req: &IoRequest) -> SimResult<()> {
        if self.spec.sticky_ppb > 0 && self.bad.contains(&req.block) {
            self.stats.sticky_errors += 1;
            return Err(SimError::Io { block: req.block });
        }
        if self.spec.eio_ppb > 0 && self.rng.below(PPB) < self.spec.eio_ppb as u64 {
            self.stats.transient_errors += 1;
            return Err(SimError::Io { block: req.block });
        }
        if self.spec.sticky_ppb > 0 && self.rng.below(PPB) < self.spec.sticky_ppb as u64 {
            self.bad.insert(req.block);
            self.stats.bad_blocks += 1;
            self.stats.sticky_errors += 1;
            return Err(SimError::Io { block: req.block });
        }
        Ok(())
    }

    /// Like [`FaultState::check`], but absorbs an injected error the
    /// way real kernels swallow async-writeback errors until fsync:
    /// counts it and reports success.
    pub fn check_absorbing(&mut self, req: &IoRequest) {
        if self.check(req).is_err() {
            self.stats.absorbed_errors += 1;
        }
    }

    /// Applies latency degradation to a base service latency for a
    /// request presented at `now`: the slow-disk multiplier scales the
    /// base, and a request landing inside a stall window additionally
    /// waits for the window to end.
    pub fn degrade(&mut self, now: Nanos, base: Nanos) -> Nanos {
        let mut total = base;
        if self.spec.slow_centi > 100 {
            let extra = base * (self.spec.slow_centi - 100) as u64 / 100;
            self.stats.slow_extra += extra;
            total += extra;
        }
        if self.spec.stall_every_ms > 0 && self.spec.stall_dur_ms > 0 {
            let every = Nanos::from_millis(self.spec.stall_every_ms as u64).as_nanos();
            let dur = Nanos::from_millis(self.spec.stall_dur_ms as u64).as_nanos();
            let pos = now.as_nanos() % every;
            if pos < dur {
                let extra = Nanos::from_nanos(dur - pos);
                self.stats.stall_hits += 1;
                self.stats.stall_extra += extra;
                total += extra;
            }
        }
        total
    }

    /// ENOSPC gate: fails an allocation that would push the fill
    /// fraction past the spec's threshold. `used`/`capacity`/`growth`
    /// are in bytes; a spec without an `enospc` clause never fails.
    pub fn enospc_gate(&mut self, used: u64, capacity: u64, growth: u64) -> SimResult<()> {
        if self.spec.enospc_pct == 0 || capacity == 0 {
            return Ok(());
        }
        let limit = capacity as u128 * self.spec.enospc_pct as u128 / 100;
        if used as u128 + growth as u128 > limit {
            self.stats.enospc_rejections += 1;
            return Err(SimError::NoSpace);
        }
        Ok(())
    }
}

/// How a file system recovers after a crash: the region it must scan
/// and the writes it replays. Journaling file systems scan a small log;
/// non-journaled ones pay a metadata-proportional fsck walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPlan {
    /// First block of the scan region.
    pub scan_start: BlockNo,
    /// Blocks read during the scan.
    pub scan_blocks: u64,
    /// Blocks rewritten while replaying the log (0 for fsck).
    pub replay_writes: u64,
    /// `"journal-replay"` or `"fsck-scan"`.
    pub mechanism: &'static str,
}

/// The verdict of a crash-at-instant: when it hit, what recovery cost,
/// what was lost, and whether the metadata walk came back clean.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashReport {
    /// Virtual instant the crash was injected.
    pub at: Nanos,
    /// Recovery mechanism (from the file system's [`RecoveryPlan`]).
    pub mechanism: &'static str,
    /// Device time spent scanning and replaying.
    pub recovery: Nanos,
    /// Dirty page-cache pages discarded by the crash.
    pub lost_dirty_pages: u64,
    /// Whether the post-recovery consistency walk passed.
    pub consistent: bool,
}

/// Conservation accounting for a run under faults:
/// `attempted = succeeded + retried_ok + gave_up + dropped`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OutcomeLedger {
    /// Ops the workload attempted (open loop: offered, incl. drops).
    pub attempted: u64,
    /// Ops that succeeded first try.
    pub succeeded: u64,
    /// Ops that failed at least once but succeeded on a retry.
    pub retried_ok: u64,
    /// Ops abandoned after exhausting the retry policy.
    pub gave_up: u64,
    /// Open-loop arrivals shed before reaching the target.
    pub dropped: u64,
    /// Individual retry attempts issued.
    pub retries: u64,
    /// Degraded-mode virtual time: backoff waits plus crash recovery.
    pub degraded: Nanos,
    /// Crash verdict, when the plan included `crash:`.
    pub crash: Option<CrashReport>,
}

impl OutcomeLedger {
    /// The conservation identity every engine must preserve.
    pub fn balanced(&self) -> bool {
        self.attempted == self.succeeded + self.retried_ok + self.gave_up + self.dropped
    }

    /// Folds another run's ledger into this one (campaign aggregation
    /// across repeated runs); the first crash report wins.
    pub fn merge(&mut self, other: &OutcomeLedger) {
        self.attempted += other.attempted;
        self.succeeded += other.succeeded;
        self.retried_ok += other.retried_ok;
        self.gave_up += other.gave_up;
        self.dropped += other.dropped;
        self.retries += other.retries;
        self.degraded += other.degraded;
        if self.crash.is_none() {
            self.crash = other.crash;
        }
    }

    /// One-line human-readable summary, used by the CLI.
    pub fn render(&self) -> String {
        let mut line = format!(
            "ledger: attempted {} = ok {} + retried-ok {} + gave-up {} + dropped {} \
             ({} retries, degraded {})",
            self.attempted,
            self.succeeded,
            self.retried_ok,
            self.gave_up,
            self.dropped,
            self.retries,
            self.degraded,
        );
        if let Some(c) = &self.crash {
            line.push_str(&format!(
                "\ncrash at {}: {} recovered in {}, {} dirty pages lost, metadata {}",
                c.at,
                c.mechanism,
                c.recovery,
                c.lost_dirty_pages,
                if c.consistent {
                    "consistent"
                } else {
                    "INCONSISTENT"
                }
            ));
        }
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parse_label_round_trips() {
        for s in [
            "slow-disk:4x",
            "slow-disk:1.5x",
            "stall:500ms/50ms",
            "eio:0.0001",
            "eio-sticky:0.00001",
            "enospc:90%",
            "crash:10000ms",
            "slow-disk:4x,stall:500ms/50ms,eio:0.0001,eio-sticky:0.00001,enospc:90%,crash:10000ms",
        ] {
            let spec = FaultSpec::parse(s).unwrap_or_else(|e| panic!("{s}: {e}"));
            assert_eq!(spec.label(), s, "canonical label for {s}");
            assert_eq!(FaultSpec::parse(&spec.label()).unwrap(), spec);
        }
    }

    #[test]
    fn spec_accepts_scientific_and_seconds() {
        let spec = FaultSpec::parse("eio:1e-4,crash:10s").unwrap();
        assert_eq!(spec.eio_ppb, 100_000);
        assert_eq!(spec.crash_ms, 10_000);
        assert_eq!(spec.label(), "eio:0.0001,crash:10000ms");
        assert_eq!(spec.crash_at(), Some(Nanos::from_secs(10)));
    }

    #[test]
    fn spec_rejects_malformed_input_with_one_line_errors() {
        for bad in [
            "",
            "none",
            "slow-disk",
            "slow-disk:fast",
            "slow-disk:0.5x",
            "stall:50ms",
            "stall:50ms/500ms",
            "eio:2.0",
            "eio:-1",
            "enospc:0%",
            "enospc:101",
            "crash:0ms",
            "warp:9",
        ] {
            let err = FaultSpec::parse(bad).expect_err(bad);
            assert!(!err.contains('\n'), "{bad}: multi-line error {err:?}");
        }
    }

    #[test]
    fn parse_flag_treats_none_as_absent() {
        assert_eq!(FaultSpec::parse_flag("none").unwrap(), None);
        assert_eq!(FaultSpec::parse_flag("").unwrap(), None);
        assert!(FaultSpec::parse_flag("slow-disk:2x").unwrap().is_some());
        assert!(FaultSpec::parse_flag("bogus").is_err());
    }

    #[test]
    fn retry_policy_round_trips() {
        for s in ["none", "bounded:3", "continue"] {
            let p = RetryPolicy::parse(s).unwrap();
            assert_eq!(p.to_string(), s);
        }
        assert!(RetryPolicy::parse("bounded:0").is_err());
        assert!(RetryPolicy::parse("bounded:many").is_err());
        assert!(RetryPolicy::parse("always").is_err());
        assert_eq!(RetryPolicy::Bounded { retries: 7 }.retries(), 7);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        assert_eq!(RetryPolicy::backoff(1), Nanos::from_micros(100));
        assert_eq!(RetryPolicy::backoff(2), Nanos::from_micros(200));
        assert_eq!(RetryPolicy::backoff(3), Nanos::from_micros(400));
        assert_eq!(RetryPolicy::backoff(8), Nanos::from_millis(10));
        assert_eq!(RetryPolicy::backoff(64), Nanos::from_millis(10));
    }

    #[test]
    fn injection_is_deterministic_per_seed() {
        let spec = FaultSpec::parse("eio:0.01").unwrap();
        let outcomes = |seed| {
            let mut st = FaultState::new(spec, seed);
            (0..10_000u64)
                .map(|i| st.check(&IoRequest::read(i, 1)).is_err())
                .collect::<Vec<_>>()
        };
        assert_eq!(outcomes(7), outcomes(7), "same seed, same faults");
        assert_ne!(outcomes(7), outcomes(8), "different seed, different faults");
        let hits = outcomes(7).iter().filter(|&&e| e).count();
        assert!((50..200).contains(&hits), "≈1% of 10k draws, got {hits}");
    }

    #[test]
    fn sticky_blocks_fail_forever() {
        let spec = FaultSpec::parse("eio-sticky:1.0").unwrap();
        let mut st = FaultState::new(spec, 3);
        assert!(st.check(&IoRequest::read(42, 1)).is_err());
        for _ in 0..5 {
            assert_eq!(
                st.check(&IoRequest::read(42, 1)),
                Err(SimError::Io { block: 42 })
            );
        }
        assert_eq!(st.stats().bad_blocks, 1);
        assert_eq!(st.stats().sticky_errors, 6);
    }

    #[test]
    fn degrade_scales_and_stalls() {
        let spec = FaultSpec::parse("slow-disk:4x,stall:100ms/10ms").unwrap();
        let mut st = FaultState::new(spec, 0);
        // Inside the stall window at t=2ms: wait 8ms + 4x the base.
        let total = st.degrade(Nanos::from_millis(2), Nanos::from_millis(1));
        assert_eq!(total, Nanos::from_millis(4) + Nanos::from_millis(8));
        // Outside the window: only the multiplier.
        let total = st.degrade(Nanos::from_millis(50), Nanos::from_millis(1));
        assert_eq!(total, Nanos::from_millis(4));
        assert_eq!(st.stats().stall_hits, 1);
        assert_eq!(st.stats().degraded(), Nanos::from_millis(14));
    }

    #[test]
    fn enospc_gate_honors_fill_fraction() {
        let spec = FaultSpec::parse("enospc:90%").unwrap();
        let mut st = FaultState::new(spec, 0);
        assert!(st.enospc_gate(800, 1000, 50).is_ok());
        assert_eq!(st.enospc_gate(880, 1000, 50), Err(SimError::NoSpace));
        assert_eq!(st.stats().enospc_rejections, 1);
    }

    #[test]
    fn ledger_conserves_and_merges() {
        let mut a = OutcomeLedger {
            attempted: 10,
            succeeded: 7,
            retried_ok: 1,
            gave_up: 1,
            dropped: 1,
            retries: 4,
            degraded: Nanos::from_millis(3),
            crash: None,
        };
        assert!(a.balanced());
        let b = OutcomeLedger {
            attempted: 5,
            succeeded: 5,
            ..OutcomeLedger::default()
        };
        a.merge(&b);
        assert_eq!(a.attempted, 15);
        assert!(a.balanced());
        assert!(a.render().starts_with("ledger: attempted 15 = ok 12"));
    }
}
