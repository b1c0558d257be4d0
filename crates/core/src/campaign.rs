//! Declarative sweep campaigns: multi-dimensional experiment grids.
//!
//! The paper's complaint is that file-system benchmarks are run as
//! one-off, under-specified experiments. A [`SweepSpec`] is the
//! opposite: a declarative cross-product over workload personality,
//! file size, file count, file system and cache capacity, executed under
//! one [`RunPlan`] protocol. The spec expands into a deduplicated list
//! of experiment [`Cell`]s; [`run_campaign`] shards the cells across
//! worker threads and aggregates per-cell [`Summary`] statistics into a
//! [`CampaignReport`] with CSV/JSON/ASCII renderers and per-dimension
//! grouping from the Section 2 taxonomy.
//!
//! Determinism is load-bearing: each cell's seed is derived by hashing
//! the cell's identity into the campaign's base seed, so results are
//! byte-identical no matter how many workers run the campaign or which
//! worker picks up which cell.
//!
//! ```
//! use rb_core::campaign::{run_campaign, Personality, SweepSpec};
//! use rb_core::runner::{Protocol, RunPlan};
//! use rb_core::testbed::FsKind;
//! use rb_simcore::time::Nanos;
//! use rb_simcore::units::Bytes;
//!
//! let mut plan = RunPlan::quick(7);
//! plan.protocol = Protocol::FixedRuns(1);
//! plan.duration = Nanos::from_secs(2);
//! let spec = SweepSpec {
//!     name: "doc".into(),
//!     personalities: vec![Personality::RandomRead],
//!     file_sizes: vec![Bytes::mib(4)],
//!     filesystems: vec![FsKind::Ext2],
//!     plan,
//!     ..SweepSpec::default()
//! };
//! let report = run_campaign(&spec, 2).unwrap();
//! assert_eq!(report.cells.len(), 1);
//! ```

use crate::dimensions::{Coverage, CoverageProfile, Dimension};
use crate::report::{self, Json};
use crate::runner::{
    repeat, run_many, summarize, MultiRun, Protocol, RunPlan, Verdict, SEQUENTIAL_CI,
};
use crate::sched::Arrival;
use crate::target::Target as _;
use crate::testbed::{self, FsKind};
use crate::workload::{personalities, Workload};
use rb_replay::{characterize, replay_with, ReplayConfig, Timing, Trace, TraceProfile};
use rb_simcore::error::{SimError, SimResult};
use rb_simcore::time::Nanos;
use rb_simcore::units::Bytes;
use rb_stats::bootstrap::Interval;
use rb_stats::histogram::Log2Histogram;
use rb_stats::summary::Summary;
use std::collections::HashSet;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// A named workload personality — the campaign's workload axis.
///
/// Size-driven personalities (`RandomRead`, `SequentialRead`,
/// `RandomWrite`) sweep the file-size axis; fileset-driven ones sweep
/// the file-count axis. Expansion normalizes the unused axis away so
/// cross products never produce duplicate cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Personality {
    /// 8 KiB random reads of one large file (the Figure 1 workload).
    RandomRead,
    /// Sequential reads of one large file.
    SequentialRead,
    /// 8 KiB random writes to one large file.
    RandomWrite,
    /// Zipf-popular whole-file reads plus a log append.
    Webserver,
    /// Mixed create/write/read/delete file serving.
    Fileserver,
    /// Mail-spool create/append/fsync/delete churn.
    Varmail,
    /// The Postmark transaction mix.
    Postmark,
    /// Pure namespace traffic: create/stat/open/delete.
    MetadataOnly,
}

impl Personality {
    /// Every personality, in report order.
    pub const ALL: [Personality; 8] = [
        Personality::RandomRead,
        Personality::SequentialRead,
        Personality::RandomWrite,
        Personality::Webserver,
        Personality::Fileserver,
        Personality::Varmail,
        Personality::Postmark,
        Personality::MetadataOnly,
    ];

    /// CLI/report name.
    pub fn name(self) -> &'static str {
        match self {
            Personality::RandomRead => "randomread",
            Personality::SequentialRead => "seqread",
            Personality::RandomWrite => "randomwrite",
            Personality::Webserver => "webserver",
            Personality::Fileserver => "fileserver",
            Personality::Varmail => "varmail",
            Personality::Postmark => "postmark",
            Personality::MetadataOnly => "metadata",
        }
    }

    /// Parses a CLI/report name.
    pub fn parse(name: &str) -> Option<Personality> {
        Personality::ALL.into_iter().find(|p| p.name() == name)
    }

    /// Whether the file-size axis applies (single-file personalities).
    pub fn uses_file_size(self) -> bool {
        matches!(
            self,
            Personality::RandomRead | Personality::SequentialRead | Personality::RandomWrite
        )
    }

    /// Whether the file-count axis applies (fileset personalities).
    pub fn uses_file_count(self) -> bool {
        !self.uses_file_size()
    }

    /// Instantiates the workload for one cell.
    pub fn workload(self, file_size: Bytes, files: u64) -> Workload {
        match self {
            Personality::RandomRead => personalities::random_read(file_size),
            Personality::SequentialRead => personalities::sequential_read(file_size),
            Personality::RandomWrite => personalities::random_write(file_size),
            Personality::Webserver => personalities::webserver(files),
            Personality::Fileserver => personalities::fileserver(files),
            Personality::Varmail => personalities::varmail(files),
            Personality::Postmark => personalities::postmark(files),
            Personality::MetadataOnly => personalities::metadata_only(files),
        }
    }

    /// Which Section 2 dimensions the personality touches, in Table 1's
    /// marker language.
    pub fn coverage(self) -> CoverageProfile {
        use Coverage::{Exercises, Isolates};
        match self {
            Personality::RandomRead => {
                CoverageProfile::new(&[(Dimension::Io, Exercises), (Dimension::Caching, Isolates)])
            }
            Personality::SequentialRead => {
                CoverageProfile::new(&[(Dimension::Io, Isolates), (Dimension::Caching, Exercises)])
            }
            Personality::RandomWrite => CoverageProfile::new(&[
                (Dimension::Io, Exercises),
                (Dimension::OnDisk, Exercises),
                (Dimension::Caching, Exercises),
            ]),
            Personality::Webserver => CoverageProfile::new(&[
                (Dimension::Io, Exercises),
                (Dimension::Caching, Exercises),
                (Dimension::Metadata, Exercises),
            ]),
            Personality::Fileserver | Personality::Postmark => CoverageProfile::new(&[
                (Dimension::Io, Exercises),
                (Dimension::OnDisk, Exercises),
                (Dimension::Caching, Exercises),
                (Dimension::Metadata, Exercises),
            ]),
            Personality::Varmail => CoverageProfile::new(&[
                (Dimension::OnDisk, Exercises),
                (Dimension::Caching, Exercises),
                (Dimension::Metadata, Exercises),
            ]),
            Personality::MetadataOnly => CoverageProfile::new(&[(Dimension::Metadata, Isolates)]),
        }
    }
}

impl std::fmt::Display for Personality {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A trace-backed workload for sweeps: a captured (or transformed)
/// [`Trace`] replayed under one [`Timing`] policy — the campaign's
/// answer to "trace-based evaluation is popular but irreproducible".
///
/// The `name` is the source's identity in cell keys and reports, so two
/// sources with the same name and timing are the same cell (dedup keeps
/// the first). The trace itself is shared (`Arc`) across worker threads
/// without copies.
#[derive(Debug, Clone)]
pub struct TraceSource {
    /// Report/identity name (e.g. the trace file's stem).
    pub name: String,
    /// The trace to replay.
    pub trace: Arc<Trace>,
    /// Timing policy each replay runs under.
    pub timing: Timing,
}

impl TraceSource {
    /// Wraps a trace as a sweep axis value.
    pub fn new(name: impl Into<String>, trace: Trace, timing: Timing) -> TraceSource {
        TraceSource {
            name: name.into(),
            trace: Arc::new(trace),
            timing,
        }
    }

    /// Section 2 coverage of this source. Everything is
    /// [`Coverage::Depends`] — the paper's ⋆ marker: what a trace
    /// exercises depends on the trace — limited to the dimensions its
    /// operations actually touch.
    pub fn coverage(&self) -> CoverageProfile {
        trace_coverage(&characterize(&self.trace))
    }
}

/// Derives the Section 2 coverage of a characterized trace from its
/// operation mix, using the paper's ⋆ ("depends on the workload/trace")
/// marker.
pub fn trace_coverage(profile: &TraceProfile) -> CoverageProfile {
    let count = |verb: &str| {
        profile
            .op_counts
            .iter()
            .find(|(v, _)| v == verb)
            .map(|&(_, n)| n)
            .unwrap_or(0)
    };
    let mut pairs = Vec::new();
    if profile.reads + profile.writes > 0 {
        pairs.push((Dimension::Io, Coverage::Depends));
        pairs.push((Dimension::Caching, Coverage::Depends));
    }
    if profile.writes + count("setsize") + count("fsync") + count("create") + count("unlink") > 0 {
        pairs.push((Dimension::OnDisk, Coverage::Depends));
    }
    if count("create") + count("mkdir") + count("stat") + count("open") + count("unlink") > 0 {
        pairs.push((Dimension::Metadata, Coverage::Depends));
    }
    CoverageProfile::new(&pairs)
}

/// A declarative sweep: the cross product of every listed axis, run
/// under one repetition protocol.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Campaign name, for reports.
    pub name: String,
    /// Workload-personality axis.
    pub personalities: Vec<Personality>,
    /// Trace-backed workload axis: each source crosses with the
    /// file-system and cache axes (file size/count do not apply — a
    /// trace brings its own namespace and sizes).
    pub traces: Vec<TraceSource>,
    /// File-size axis (applies to size-driven personalities).
    pub file_sizes: Vec<Bytes>,
    /// File-count axis (applies to fileset-driven personalities).
    pub file_counts: Vec<u64>,
    /// Simulated file-system axis.
    pub filesystems: Vec<FsKind>,
    /// Cache-capacity axis (the paper's memory-pressure dimension).
    /// [`Bytes::ZERO`] means "uncontrolled": the target keeps its
    /// default cache and no per-run capacity jitter is applied.
    pub cache_capacities: Vec<Bytes>,
    /// Concurrency axis (the paper's scaling dimension): closed-loop
    /// process counts each personality cell runs under. Trace cells
    /// ignore it — a trace's concurrency is its recorded streams.
    /// Cells at `1` run the classic serial engine and keep their
    /// pre-axis identity (keys, seeds and report bytes unchanged).
    pub processes: Vec<u32>,
    /// Load-regime axis (the latency dimension): closed-loop and/or
    /// open-loop arrival processes each personality cell runs under.
    /// Trace cells ignore it — a trace's arrivals are its timestamps.
    /// Cells at [`Arrival::Closed`] keep their pre-axis identity (keys,
    /// seeds and report bytes unchanged); an empty axis means the
    /// implicit closed-loop default.
    pub arrivals: Vec<Arrival>,
    /// Fault-plan axis (the robustness dimension): fault specs each
    /// personality cell runs under, `None` meaning healthy hardware.
    /// Trace cells ignore it — a trace replays what it recorded.
    /// Healthy cells (`None`) keep their pre-axis identity (keys,
    /// seeds and report bytes unchanged); an empty axis means the
    /// implicit healthy default.
    pub faults: Vec<Option<rb_faults::FaultSpec>>,
    /// Retry policy every faulted cell runs under (healthy cells too —
    /// with no faults a retry policy never triggers, so it is free).
    pub retry: rb_faults::RetryPolicy,
    /// Optional SLO target on open-loop p99 latency: when set, every
    /// open-loop cell also reports the maximum offered load (ops/s)
    /// that still sustains `p99 <= slo_p99`, found by deterministic
    /// bisection over the arrival rate.
    pub slo_p99: Option<Nanos>,
    /// Repetition protocol applied to every cell. `plan.base_seed` is
    /// the campaign seed; each cell derives its own base seed from it.
    pub plan: RunPlan,
    /// Minimum formatted device size (grown per cell when a file would
    /// not fit comfortably, or when the cell's file system needs more
    /// to format).
    pub device: Bytes,
    /// Optional shared run budget for the whole campaign. Divided
    /// evenly across cells *before* execution (each cell's protocol is
    /// capped at `budget / n_cells` runs, floored at one), so the cap —
    /// like everything else — depends only on the spec, never on
    /// scheduling order, and reports stay byte-identical at any
    /// `--jobs` count.
    pub run_budget: Option<u64>,
}

impl Default for SweepSpec {
    /// One quick Figure-1-style cell: random read, 64 MiB, ext2, the
    /// paper's cache.
    fn default() -> Self {
        SweepSpec {
            name: "sweep".into(),
            personalities: vec![Personality::RandomRead],
            traces: Vec::new(),
            file_sizes: vec![Bytes::mib(64)],
            file_counts: vec![100],
            filesystems: vec![FsKind::Ext2],
            cache_capacities: vec![testbed::PAPER_CACHE],
            processes: vec![1],
            arrivals: vec![Arrival::Closed],
            faults: Vec::new(),
            retry: rb_faults::RetryPolicy::None,
            slo_p99: None,
            plan: RunPlan::quick(0),
            device: Bytes::gib(1),
            run_budget: None,
        }
    }
}

impl SweepSpec {
    /// Expands the spec into its deduplicated experiment cells, in a
    /// deterministic order (axes iterate in declaration order).
    ///
    /// Normalization powers deduplication: a personality that ignores an
    /// axis gets the neutral value (`0`) on that axis, so e.g. `varmail`
    /// crossed with five file sizes still yields one cell per
    /// (count, fs, cache) combination.
    pub fn expand(&self) -> Vec<Cell> {
        let mut seen = HashSet::new();
        let mut cells = Vec::new();
        // An empty processes axis means the implicit serial default.
        let processes: &[u32] = if self.processes.is_empty() {
            &[1]
        } else {
            &self.processes
        };
        // Likewise an empty arrival axis means the closed-loop default.
        let arrivals: &[Arrival] = if self.arrivals.is_empty() {
            &[Arrival::Closed]
        } else {
            &self.arrivals
        };
        // And an empty fault axis means the implicit healthy default.
        let faults: &[Option<rb_faults::FaultSpec>] = if self.faults.is_empty() {
            &[None]
        } else {
            &self.faults
        };
        for &personality in &self.personalities {
            let sizes: &[Bytes] = if personality.uses_file_size() {
                &self.file_sizes
            } else {
                &[Bytes::ZERO]
            };
            let counts: &[u64] = if personality.uses_file_count() {
                &self.file_counts
            } else {
                &[0]
            };
            for &file_size in sizes {
                for &files in counts {
                    for &fs in &self.filesystems {
                        for &cache in &self.cache_capacities {
                            for &procs in processes {
                                for &arrival in arrivals {
                                    for &fault in faults {
                                        let cell = Cell {
                                            workload: CellWorkload::Personality(personality),
                                            file_size,
                                            files,
                                            fs,
                                            cache,
                                            processes: procs.max(1),
                                            arrival,
                                            faults: fault,
                                        };
                                        if seen.insert(cell.key()) {
                                            cells.push(cell);
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        // Trace-backed cells cross with the fs and cache axes only: a
        // trace's concurrency is its recorded stream structure, not a
        // knob.
        for (index, source) in self.traces.iter().enumerate() {
            for &fs in &self.filesystems {
                for &cache in &self.cache_capacities {
                    let cell = Cell {
                        workload: CellWorkload::Trace {
                            index,
                            name: source.name.clone(),
                            timing: source.timing.label(),
                        },
                        file_size: Bytes::ZERO,
                        files: 0,
                        fs,
                        cache,
                        processes: 1,
                        arrival: Arrival::Closed,
                        faults: None,
                    };
                    if seen.insert(cell.key()) {
                        cells.push(cell);
                    }
                }
            }
        }
        cells
    }
}

/// What a cell runs: a synthetic personality or a replayed trace.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum CellWorkload {
    /// A synthetic flowop personality.
    Personality(Personality),
    /// A trace replayed under a timing policy.
    Trace {
        /// Index into [`SweepSpec::traces`].
        index: usize,
        /// The source's identity name.
        name: String,
        /// Canonical timing label (`afap`/`faithful`/`scaled=N`); part
        /// of the cell identity because the policy changes what the
        /// cell measures.
        timing: String,
    },
}

/// One point of the experiment grid.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Cell {
    /// What the cell runs.
    pub workload: CellWorkload,
    /// File size ([`Bytes::ZERO`] when the workload ignores it).
    pub file_size: Bytes,
    /// File count (`0` when the workload ignores it).
    pub files: u64,
    /// File system under test.
    pub fs: FsKind,
    /// Controlled cache capacity ([`Bytes::ZERO`] = uncontrolled).
    pub cache: Bytes,
    /// Closed-loop processes the cell runs under (`1` = serial).
    pub processes: u32,
    /// Load regime ([`Arrival::Closed`] = the classic closed loop).
    pub arrival: Arrival,
    /// Fault plan the cell runs under (`None` = healthy hardware).
    pub faults: Option<rb_faults::FaultSpec>,
}

impl Cell {
    /// The cell's personality, when it runs one.
    pub fn personality(&self) -> Option<Personality> {
        match self.workload {
            CellWorkload::Personality(p) => Some(p),
            CellWorkload::Trace { .. } => None,
        }
    }

    /// Report name of the cell's workload (`"varmail"`,
    /// `"trace:mail@faithful"`, …).
    pub fn workload_name(&self) -> String {
        match &self.workload {
            CellWorkload::Personality(p) => p.name().to_string(),
            CellWorkload::Trace { name, timing, .. } => format!("trace:{name}@{timing}"),
        }
    }

    /// Whether the file-size axis applies to this cell.
    pub fn uses_file_size(&self) -> bool {
        self.personality().is_some_and(|p| p.uses_file_size())
    }

    /// Canonical identity string: the dedup key and the seed-derivation
    /// input. Must not depend on axis ordering or scheduling.
    ///
    /// Personality cells keep the exact pre-trace format, so their
    /// derived seeds — and therefore every personality campaign's
    /// numbers — are unchanged by the trace axis existing. The same
    /// discipline applies to the concurrency axis: serial cells
    /// (`processes == 1`) omit the marker entirely, so every pre-axis
    /// campaign's seeds and report bytes are preserved.
    pub fn key(&self) -> String {
        let mut key = format!(
            "{}|size={}|files={}|fs={}|cache={}",
            match &self.workload {
                CellWorkload::Personality(p) => p.name().to_string(),
                CellWorkload::Trace { name, timing, .. } => format!("trace:{name}@{timing}"),
            },
            self.file_size.as_u64(),
            self.files,
            self.fs.name(),
            self.cache.as_u64()
        );
        if self.processes > 1 {
            let _ = write!(key, "|procs={}", self.processes);
        }
        // Closed-loop cells omit the arrival marker entirely, so every
        // pre-axis campaign's seeds and report bytes are preserved.
        // (Display writes the label straight into the key buffer — no
        // intermediate String per cell key.)
        if self.arrival.is_open() {
            let _ = write!(key, "|arrival={}", self.arrival);
        }
        // Healthy cells likewise omit the fault marker, so every
        // pre-fault-axis campaign's seeds and report bytes are
        // preserved.
        if let Some(f) = &self.faults {
            let _ = write!(key, "|faults={}", f.label());
        }
        key
    }

    /// Human-oriented label for tables and charts.
    pub fn label(&self) -> String {
        match &self.workload {
            CellWorkload::Personality(p) => {
                let mut parts = vec![p.name().to_string()];
                if p.uses_file_size() {
                    parts.push(format!("{}", self.file_size));
                } else {
                    parts.push(format!("{}f", self.files));
                }
                parts.push(self.fs.name().to_string());
                if self.processes > 1 {
                    parts.push(format!("{}p", self.processes));
                }
                if self.arrival.is_open() {
                    parts.push(self.arrival.label());
                }
                if let Some(f) = &self.faults {
                    parts.push(f.label());
                }
                parts.join("/")
            }
            CellWorkload::Trace { name, timing, .. } => {
                format!("{name}@{timing}/{}", self.fs.name())
            }
        }
    }

    /// The cell's derived base seed: a 64-bit FNV-1a hash of the cell
    /// key folded into the campaign seed. Every run `i` of the cell then
    /// uses `derived + i`, exactly as [`RunPlan`] prescribes.
    pub fn seed(&self, campaign_seed: u64) -> u64 {
        derive_seed(campaign_seed, &self.key())
    }
}

/// Folds `key` into `base_seed` with 64-bit FNV-1a (the shared
/// [`rb_simcore::fnv::fnv1a`] — the same primitive that hashes the
/// hot-path maps). Stable across platforms and releases;
/// scheduling-independent by construction.
pub fn derive_seed(base_seed: u64, key: &str) -> u64 {
    use rb_simcore::fnv::{fnv1a, FNV_OFFSET};
    fnv1a(fnv1a(FNV_OFFSET, &base_seed.to_le_bytes()), key.as_bytes())
}

/// One cell's aggregated outcome.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// The cell.
    pub cell: Cell,
    /// Section 2 coverage of the cell's workload (a personality's
    /// static profile, or a trace's ⋆-derived profile).
    pub coverage: CoverageProfile,
    /// Derived base seed the cell ran under.
    pub seed: u64,
    /// Steady-state throughput of each run, in run order — the "range
    /// of values" the paper wants reported alongside any mean.
    pub samples: Vec<f64>,
    /// Steady-state throughput summary across the cell's runs.
    pub summary: Summary,
    /// Bootstrap CI on the mean, at the protocol's confidence level.
    pub ci: Option<Interval>,
    /// Why the cell's experiment stopped (converged / max-runs /
    /// mixed-regime / fixed).
    pub verdict: Verdict,
    /// Runs actually executed — under an adaptive protocol this varies
    /// per cell (stable cells stop early; fragile ones run long).
    pub runs: u32,
    /// Mean cache hit ratio across runs, when the target reports one.
    pub hit_ratio: Option<f64>,
    /// Total failed operations across runs.
    pub errors: u64,
    /// Open-loop tail statistics, for cells on the arrival axis
    /// (`None` for closed-loop cells).
    pub open_loop: Option<OpenCellStats>,
    /// Flight-recorder snapshot from the cell's first run, when the
    /// plan enabled metrics capture. The first run (not an aggregate)
    /// keeps the snapshot an exact, explainable account of one run.
    pub metrics: Option<rb_obs::MetricsSnapshot>,
    /// Outcome ledger merged across the cell's runs, for cells on the
    /// fault axis (`None` for healthy cells). Conservation holds on
    /// the merge because it holds per run.
    pub ledger: Option<rb_faults::OutcomeLedger>,
}

/// Open-loop statistics aggregated across one cell's runs: the offered
/// and dropped ledgers summed, the percentile ladder read off the
/// merged per-run latency histograms (merging is order-independent, so
/// the ladder is scheduling-independent too).
#[derive(Debug, Clone, PartialEq)]
pub struct OpenCellStats {
    /// Total ops the arrival process offered, across runs.
    pub offered: u64,
    /// Ops dropped at the bounded queue, across runs.
    pub dropped: u64,
    /// Median completion latency (arrival to completion).
    pub p50: Option<Nanos>,
    /// 99th-percentile completion latency.
    pub p99: Option<Nanos>,
    /// 99.9th-percentile completion latency.
    pub p999: Option<Nanos>,
    /// Maximum offered load (ops/s) sustaining `p99 <= slo_p99`, when
    /// the campaign set an SLO target.
    pub slo_max_rate: Option<u64>,
}

impl OpenCellStats {
    /// Fraction of offered ops dropped at the queue.
    pub fn drop_ratio(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.dropped as f64 / self.offered as f64
        }
    }

    fn from_runs(mr: &MultiRun) -> OpenCellStats {
        let mut offered = 0u64;
        let mut dropped = 0u64;
        let mut histogram = Log2Histogram::new();
        for o in &mr.outcomes {
            if let Some(report) = &o.recording.open_loop {
                offered += report.offered;
                dropped += report.dropped;
            }
            histogram.merge(&o.recording.histogram);
        }
        OpenCellStats {
            offered,
            dropped,
            p50: histogram.quantile(0.5),
            p99: histogram.quantile(0.99),
            p999: histogram.quantile(0.999),
            slo_max_rate: None,
        }
    }
}

impl CellResult {
    fn from_multi_run(
        cell: Cell,
        coverage: CoverageProfile,
        seed: u64,
        mr: &MultiRun,
    ) -> CellResult {
        let ratios: Vec<f64> = mr
            .outcomes
            .iter()
            .filter_map(|o| o.recording.hit_ratio)
            .collect();
        let errors = mr.outcomes.iter().map(|o| o.recording.errors).sum();
        let open_loop = cell.arrival.is_open().then(|| OpenCellStats::from_runs(mr));
        let metrics = mr
            .outcomes
            .first()
            .and_then(|o| o.recording.metrics.clone());
        let ledger = mr
            .outcomes
            .iter()
            .filter_map(|o| o.recording.ledger.as_ref())
            .fold(None::<rb_faults::OutcomeLedger>, |acc, l| match acc {
                Some(mut merged) => {
                    merged.merge(l);
                    Some(merged)
                }
                None => Some(l.clone()),
            });
        CellResult {
            cell,
            coverage,
            seed,
            samples: mr.samples(),
            summary: mr.summary.clone(),
            ci: mr.ci,
            verdict: mr.verdict,
            runs: mr.runs(),
            hit_ratio: mean_hit_ratio(&ratios),
            errors,
            open_loop,
            metrics,
            ledger,
        }
    }
}

/// The mean of a cell's per-run cache hit ratios, when its target
/// reported any.
fn mean_hit_ratio(ratios: &[f64]) -> Option<f64> {
    (!ratios.is_empty()).then(|| ratios.iter().sum::<f64>() / ratios.len() as f64)
}

/// A completed campaign: every cell's aggregate, in expansion order.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Campaign name (from the spec).
    pub name: String,
    /// Worker threads used (informational; never affects results).
    pub jobs: usize,
    /// Per-cell aggregates, in [`SweepSpec::expand`] order.
    pub cells: Vec<CellResult>,
}

impl CampaignReport {
    /// Union coverage of every cell's workload — what the whole
    /// campaign exercised, in the Section 2 taxonomy.
    pub fn coverage(&self) -> CoverageProfile {
        self.cells
            .iter()
            .fold(CoverageProfile::EMPTY, |acc, c| acc.union(&c.coverage))
    }

    /// Per-dimension grouping: for each taxonomy dimension the cells
    /// exercising it, summarized over their mean throughputs. The
    /// per-dimension RSD is the cross-*configuration* spread — large
    /// values mean the dimension's setting materially changes results,
    /// exactly what the paper says single-configuration benchmarks hide.
    pub fn dimension_groups(&self) -> Vec<(Dimension, Summary)> {
        Dimension::ALL
            .iter()
            .filter_map(|&d| {
                let means: Vec<f64> = self
                    .cells
                    .iter()
                    .filter(|c| c.coverage.get(d) != Coverage::None)
                    .map(|c| c.summary.mean)
                    .collect();
                Summary::from_sample(&means).map(|s| (d, s))
            })
            .collect()
    }

    /// Whether any cell runs concurrently. Reports only grow their
    /// `processes` column when the axis is actually swept, so every
    /// pre-axis campaign's CSV/JSON/table stays byte-identical.
    pub fn sweeps_processes(&self) -> bool {
        self.cells.iter().any(|c| c.cell.processes > 1)
    }

    /// Whether any cell runs open-loop. Like the `processes` column,
    /// the `arrival` column (and the open-loop tail columns) only
    /// appear when the axis is actually swept, so every pre-axis
    /// campaign's CSV/JSON/table stays byte-identical.
    pub fn sweeps_arrival(&self) -> bool {
        self.cells.iter().any(|c| c.cell.arrival.is_open())
    }

    /// Whether any cell runs under a fault plan. Like the other axis
    /// columns, the `faults` and ledger columns only appear when the
    /// axis is actually swept, so every pre-axis campaign's
    /// CSV/JSON/table stays byte-identical.
    pub fn sweeps_faults(&self) -> bool {
        self.cells.iter().any(|c| c.cell.faults.is_some())
    }

    /// Which optional column groups this report carries, decided once
    /// for every format.
    fn shape(&self) -> Shape {
        Shape {
            processes: self.sweeps_processes(),
            arrival: self.sweeps_arrival(),
            faults: self.sweeps_faults(),
            slo: self.cells.iter().any(|c| slo_rate(c).is_some()),
            metrics: self.cells.iter().any(|c| c.metrics.is_some()),
        }
    }

    /// The header and one row per cell of the columns in `layout` that
    /// this report's shape carries.
    fn columns(&self, layout: Layout) -> (Vec<&'static str>, Vec<Vec<String>>) {
        let shape = self.shape();
        let columns: Vec<&Column> = layout
            .iter()
            .filter(|(carried, _)| carried(shape))
            .flat_map(|(_, run)| *run)
            .collect();
        let header = columns.iter().map(|(h, _)| *h).collect();
        let rows = self
            .cells
            .iter()
            .map(|c| columns.iter().map(|(_, value)| value(c)).collect())
            .collect();
        (header, rows)
    }

    /// The campaign table as CSV (one row per cell, runs' spread
    /// included). Each optional column group appears only when some
    /// cell needs it.
    pub fn to_csv(&self) -> String {
        let (header, rows) = self.columns(CSV_COLUMNS);
        report::to_csv(&header, &rows)
    }

    /// The campaign as a JSON document (cells + aggregate coverage).
    /// Like the CSV, each optional group of cell fields appears only
    /// when the report's shape carries it.
    pub fn to_json(&self) -> Json {
        let shape = self.shape();
        let ms_or_null = |v: Option<Nanos>| v.map(|n| Json::Num(ms(n))).unwrap_or(Json::Null);
        let cells = self
            .cells
            .iter()
            .map(|c| {
                let mut fields = vec![
                    ("workload", Json::Str(c.cell.workload_name())),
                    ("size_bytes", Json::Num(c.cell.file_size.as_u64() as f64)),
                    ("files", Json::Num(c.cell.files as f64)),
                    ("fs", Json::Str(c.cell.fs.name().into())),
                    ("cache_bytes", Json::Num(c.cell.cache.as_u64() as f64)),
                ];
                if shape.processes {
                    fields.push(("processes", Json::Num(c.cell.processes as f64)));
                }
                if shape.arrival {
                    fields.push(("arrival", Json::Str(c.cell.arrival.label())));
                }
                if shape.faults {
                    fields.push(("faults", Json::Str(fault_label(c))));
                }
                fields.extend([
                    ("seed", Json::Num(c.seed as f64)),
                    ("runs", Json::Num(c.runs as f64)),
                    (
                        "samples",
                        Json::Arr(c.samples.iter().map(|&s| Json::Num(s)).collect()),
                    ),
                    ("mean_ops_per_sec", Json::Num(c.summary.mean)),
                    ("rsd_percent", Json::Num(c.summary.rsd_percent)),
                    (
                        "ci",
                        match c.ci {
                            Some(ci) => Json::obj(vec![
                                ("lo", Json::Num(ci.lo)),
                                ("hi", Json::Num(ci.hi)),
                                ("rel_width", Json::Num(ci.rel_width())),
                            ]),
                            None => Json::Null,
                        },
                    ),
                    ("verdict", Json::Str(c.verdict.label().into())),
                    ("min", Json::Num(c.summary.min)),
                    ("max", Json::Num(c.summary.max)),
                    (
                        "hit_ratio",
                        c.hit_ratio.map(Json::Num).unwrap_or(Json::Null),
                    ),
                    ("errors", Json::Num(c.errors as f64)),
                ]);
                if shape.arrival {
                    let open = match &c.open_loop {
                        Some(o) => Json::obj(vec![
                            ("offered", Json::Num(o.offered as f64)),
                            ("dropped", Json::Num(o.dropped as f64)),
                            ("drop_ratio", Json::Num(o.drop_ratio())),
                            ("p50_ms", ms_or_null(o.p50)),
                            ("p99_ms", ms_or_null(o.p99)),
                            ("p999_ms", ms_or_null(o.p999)),
                            (
                                "slo_max_ops_per_sec",
                                o.slo_max_rate
                                    .map(|r| Json::Num(r as f64))
                                    .unwrap_or(Json::Null),
                            ),
                        ]),
                        None => Json::Null,
                    };
                    fields.push(("open_loop", open));
                }
                if shape.faults {
                    let ledger = match &c.ledger {
                        Some(l) => {
                            let mut lf = vec![
                                ("attempted", Json::Num(l.attempted as f64)),
                                ("succeeded", Json::Num(l.succeeded as f64)),
                                ("retried_ok", Json::Num(l.retried_ok as f64)),
                                ("gave_up", Json::Num(l.gave_up as f64)),
                                ("dropped", Json::Num(l.dropped as f64)),
                                ("retries", Json::Num(l.retries as f64)),
                                ("degraded_ms", Json::Num(ms(l.degraded))),
                                ("balanced", Json::Bool(l.balanced())),
                            ];
                            if let Some(cr) = &l.crash {
                                lf.push((
                                    "crash",
                                    Json::obj(vec![
                                        ("at_ms", Json::Num(ms(cr.at))),
                                        ("mechanism", Json::Str(cr.mechanism.into())),
                                        ("recovery_ms", Json::Num(ms(cr.recovery))),
                                        ("lost_dirty_pages", Json::Num(cr.lost_dirty_pages as f64)),
                                        ("consistent", Json::Bool(cr.consistent)),
                                    ]),
                                ));
                            }
                            Json::obj(lf)
                        }
                        None => Json::Null,
                    };
                    fields.push(("ledger", ledger));
                }
                if shape.metrics {
                    let m = match &c.metrics {
                        Some(m) => {
                            let counters = m
                                .counters()
                                .into_iter()
                                .map(|(n, v)| (n, Json::Num(v as f64)))
                                .collect();
                            Json::obj(vec![
                                (
                                    "hit_ratio",
                                    m.hit_ratio().map(Json::Num).unwrap_or(Json::Null),
                                ),
                                (
                                    "device_busy",
                                    m.device_busy_frac().map(Json::Num).unwrap_or(Json::Null),
                                ),
                                ("queue_wait_share", Json::Num(m.sched.queue_wait_share())),
                                ("counters", Json::obj(counters)),
                            ])
                        }
                        None => Json::Null,
                    };
                    fields.push(("metrics", m));
                }
                Json::obj(fields)
            })
            .collect();
        let coverage = self.coverage();
        let cov = Dimension::ALL
            .iter()
            .map(|&d| {
                Json::obj(vec![
                    ("dimension", Json::Str(d.label().into())),
                    ("coverage", Json::Str(coverage.get(d).glyph().trim().into())),
                ])
            })
            .collect();
        Json::obj(vec![
            ("campaign", Json::Str(self.name.clone())),
            ("cells", Json::Arr(cells)),
            ("coverage", Json::Arr(cov)),
        ])
    }

    /// Renders the campaign for the terminal: the cell table (with the
    /// optional column groups some cell needs), the dimension grouping,
    /// the aggregate coverage row, and (when the campaign swept the
    /// file-size axis) an ASCII chart of throughput vs size per
    /// (personality, fs) series.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "campaign {:?}: {} cells ({} worker{})",
            self.name,
            self.cells.len(),
            self.jobs,
            if self.jobs == 1 { "" } else { "s" }
        );
        let (header, rows) = self.columns(TABLE_COLUMNS);
        out.push_str(&report::text_table(&header, &rows));
        out.push('\n');
        let groups = self.dimension_groups();
        if !groups.is_empty() {
            let _ = writeln!(out, "per-dimension grouping (Section 2 taxonomy):");
            let rows: Vec<Vec<String>> = groups
                .iter()
                .map(|(d, s)| {
                    vec![
                        d.label().to_string(),
                        s.n.to_string(),
                        format!("{:.0}", s.mean),
                        format!("{:.1}", s.rsd_percent),
                        format!("{:.1}x", s.spread()),
                    ]
                })
                .collect();
            out.push_str(&report::text_table(
                &[
                    "dimension",
                    "cells",
                    "mean ops/s",
                    "cross-cell rsd%",
                    "spread",
                ],
                &rows,
            ));
            let coverage = self.coverage();
            let cov: Vec<String> = Dimension::ALL
                .iter()
                .map(|&d| format!("{}:{}", d.label(), coverage.get(d).glyph().trim()))
                .collect();
            let _ = writeln!(out, "campaign coverage: {}", cov.join("  "));
            out.push('\n');
        }
        if let Some(chart) = self.size_chart() {
            let _ = writeln!(out, "throughput vs file size:");
            out.push_str(&chart);
        }
        out
    }

    /// Mean throughput against file size (MiB), one series per
    /// combination of the other axes: workload and fs, plus the cache,
    /// process count, arrival and fault plan when the campaign sweeps
    /// them. A series thus holds one cell per size; only those with two
    /// or more sizes are kept.
    fn size_series(&self) -> Vec<(String, Vec<(f64, f64)>)> {
        let sized: Vec<&CellResult> = self
            .cells
            .iter()
            .filter(|c| c.cell.uses_file_size())
            .collect();
        let axes: [fn(&CellResult) -> String; 4] = [
            |c| format!("/{}", c.cell.cache),
            |c| format!("/{}p", c.cell.processes),
            |c| format!("/{}", c.cell.arrival),
            |c| format!("/{}", fault_label(c)),
        ];
        let swept: Vec<_> = axes
            .into_iter()
            .filter(|axis| sized.iter().any(|c| axis(c) != axis(sized[0])))
            .collect();
        let mut series: Vec<(String, Vec<(f64, f64)>)> = Vec::new();
        for c in sized {
            let mut label = format!("{}/{}", c.cell.workload_name(), c.cell.fs.name());
            for axis in &swept {
                label.push_str(&axis(c));
            }
            let point = (c.cell.file_size.as_mib_f64(), c.summary.mean);
            match series.iter_mut().find(|(l, _)| *l == label) {
                Some((_, pts)) => pts.push(point),
                None => series.push((label, vec![point])),
            }
        }
        series.retain(|(_, pts)| pts.len() >= 2);
        series
    }

    /// ASCII chart of [`CampaignReport::size_series`]; `None` when no
    /// series has two sizes.
    fn size_chart(&self) -> Option<String> {
        let series = self.size_series();
        if series.is_empty() {
            return None;
        }
        let borrowed: Vec<(&str, &[(f64, f64)])> = series
            .iter()
            .map(|(l, pts)| (l.as_str(), pts.as_slice()))
            .collect();
        Some(report::ascii_chart(&borrowed, 64, 12))
    }
}

/// Which optional column groups one report carries. Each appears only
/// when some cell needs it, so a report that sweeps no such axis keeps
/// the bytes it had before the axis existed.
#[derive(Clone, Copy)]
struct Shape {
    processes: bool,
    arrival: bool,
    faults: bool,
    slo: bool,
    metrics: bool,
}

/// One report column: its header and its value in a cell.
type Column = (&'static str, fn(&CellResult) -> String);

/// A format's columns in order, in runs that a report carries when its
/// shape passes the run's test.
type Layout = &'static [(fn(Shape) -> bool, &'static [Column])];

/// The CSV's columns. A missing value is an empty field.
const CSV_COLUMNS: Layout = &[
    (
        |_| true,
        &[
            ("workload", |c| c.cell.workload_name()),
            ("size_mib", |c| c.cell.file_size.as_mib().to_string()),
            ("files", |c| c.cell.files.to_string()),
            ("fs", |c| c.cell.fs.name().to_string()),
            ("cache_mib", |c| c.cell.cache.as_mib().to_string()),
        ],
    ),
    (
        |s| s.processes,
        &[("processes", |c| c.cell.processes.to_string())],
    ),
    (|s| s.arrival, &[("arrival", |c| c.cell.arrival.label())]),
    (|s| s.faults, &[("faults", fault_label)]),
    (
        |_| true,
        &[
            ("seed", |c| c.seed.to_string()),
            ("runs", |c| c.runs.to_string()),
            ("mean_ops_per_sec", |c| format!("{:.1}", c.summary.mean)),
            ("rsd_percent", |c| format!("{:.3}", c.summary.rsd_percent)),
            ("ci_lo", |c| {
                or_empty(c.ci.map(|ci| format!("{:.1}", ci.lo)))
            }),
            ("ci_hi", |c| {
                or_empty(c.ci.map(|ci| format!("{:.1}", ci.hi)))
            }),
            ("verdict", |c| c.verdict.label().to_string()),
            ("min", |c| format!("{:.1}", c.summary.min)),
            ("max", |c| format!("{:.1}", c.summary.max)),
            ("hit_ratio", |c| {
                or_empty(c.hit_ratio.map(|h| format!("{h:.4}")))
            }),
            ("errors", |c| c.errors.to_string()),
        ],
    ),
    (
        |s| s.arrival,
        &[
            ("offered", |c| or_empty(open(c).map(|o| o.offered))),
            ("dropped", |c| or_empty(open(c).map(|o| o.dropped))),
            ("p50_ms", |c| csv_ms(open(c).and_then(|o| o.p50))),
            ("p99_ms", |c| csv_ms(open(c).and_then(|o| o.p99))),
            ("p999_ms", |c| csv_ms(open(c).and_then(|o| o.p999))),
        ],
    ),
    (
        |s| s.slo,
        &[("slo_max_ops_per_sec", |c| or_empty(slo_rate(c)))],
    ),
    (
        |s| s.faults,
        &[
            ("attempted", |c| or_empty(ledger(c).map(|l| l.attempted))),
            ("ok_first_try", |c| or_empty(ledger(c).map(|l| l.succeeded))),
            ("retried_ok", |c| or_empty(ledger(c).map(|l| l.retried_ok))),
            ("gave_up", |c| or_empty(ledger(c).map(|l| l.gave_up))),
            ("retries", |c| or_empty(ledger(c).map(|l| l.retries))),
            ("degraded_ms", |c| csv_ms(ledger(c).map(|l| l.degraded))),
            ("crash", |c| or_empty(crash_verdict(c, "inconsistent"))),
        ],
    ),
    (
        |s| s.metrics,
        &[
            ("dev_busy_pct", |c| {
                or_empty(metrics(c).and_then(|m| m.device_busy_frac()).map(percent))
            }),
            ("qwait_pct", |c| {
                or_empty(metrics(c).map(|m| percent(m.sched.queue_wait_share())))
            }),
            ("seeks", |c| {
                or_empty(metrics(c).and_then(|m| m.disk.as_ref()).map(|d| d.seeks))
            }),
            ("journal_commits", |c| {
                or_empty(
                    metrics(c)
                        .and_then(|m| m.fs.as_ref())
                        .map(|f| f.journal_commits),
                )
            }),
            ("writeback_flushed", |c| {
                or_empty(
                    metrics(c)
                        .and_then(|m| m.cache.as_ref())
                        .map(|c| c.writeback_flushed),
                )
            }),
        ],
    ),
];

/// The terminal table's columns. A missing value is `-`.
const TABLE_COLUMNS: Layout = &[
    (
        |_| true,
        &[
            ("cell", |c| c.cell.label()),
            ("cache", |c| {
                or_dash((!c.cell.cache.is_zero()).then_some(c.cell.cache))
            }),
        ],
    ),
    (
        |s| s.processes,
        &[("procs", |c| c.cell.processes.to_string())],
    ),
    (|s| s.arrival, &[("arrival", |c| c.cell.arrival.label())]),
    (
        |_| true,
        &[
            ("n", |c| c.runs.to_string()),
            ("ops/s", |c| format!("{:.0}", c.summary.mean)),
            ("rsd%", |c| format!("{:.1}", c.summary.rsd_percent)),
            ("ci", |c| {
                or_dash(c.ci.map(|ci| format!("±{:.0}", ci.half_width())))
            }),
            ("min", |c| format!("{:.0}", c.summary.min)),
            ("max", |c| format!("{:.0}", c.summary.max)),
            ("hits", |c| or_dash(c.hit_ratio.map(|h| format!("{h:.3}")))),
            ("verdict", |c| c.verdict.label().to_string()),
        ],
    ),
    (
        |s| s.arrival,
        &[
            ("p99ms", |c| {
                or_dash(open(c).and_then(|o| o.p99).map(|p| format!("{:.2}", ms(p))))
            }),
            ("drop", |c| {
                or_dash(open(c).map(|o| format!("{:.3}", o.drop_ratio())))
            }),
        ],
    ),
    (|s| s.slo, &[("slo ops/s", |c| or_dash(slo_rate(c)))]),
    (
        |s| s.faults,
        &[
            ("retries", |c| or_dash(ledger(c).map(|l| l.retries))),
            ("gave-up", |c| or_dash(ledger(c).map(|l| l.gave_up))),
            ("crash", |c| or_dash(crash_verdict(c, "INCONSISTENT"))),
        ],
    ),
];

/// A span in milliseconds, as every report prints one.
fn ms(n: Nanos) -> f64 {
    n.as_secs_f64() * 1e3
}

/// A CSV millisecond field: three decimals, or empty.
fn csv_ms(n: Option<Nanos>) -> String {
    or_empty(n.map(|n| format!("{:.3}", ms(n))))
}

/// A share as a percentage with two decimals.
fn percent(share: f64) -> String {
    format!("{:.2}", share * 100.0)
}

/// A value, or an empty field.
fn or_empty<T: std::fmt::Display>(v: Option<T>) -> String {
    v.map(|v| v.to_string()).unwrap_or_default()
}

/// A value, or `-`.
fn or_dash<T: std::fmt::Display>(v: Option<T>) -> String {
    v.map_or_else(|| "-".into(), |v| v.to_string())
}

/// The cell's fault plan, or `none` for healthy hardware.
fn fault_label(c: &CellResult) -> String {
    c.cell
        .faults
        .as_ref()
        .map_or_else(|| "none".into(), |f| f.label())
}

/// The cell's open-loop statistics, when it ran open-loop.
fn open(c: &CellResult) -> Option<&OpenCellStats> {
    c.open_loop.as_ref()
}

/// The cell's outcome ledger, when it ran under a fault plan.
fn ledger(c: &CellResult) -> Option<&rb_faults::OutcomeLedger> {
    c.ledger.as_ref()
}

/// The cell's flight-recorder snapshot, when the plan captured one.
fn metrics(c: &CellResult) -> Option<&rb_obs::MetricsSnapshot> {
    c.metrics.as_ref()
}

/// The cell's SLO verdict, when the campaign set a target.
fn slo_rate(c: &CellResult) -> Option<u64> {
    open(c).and_then(|o| o.slo_max_rate)
}

/// How the cell's crash ended, when it crashed: `recovered`, or the
/// format's word for a file system left `inconsistent`.
fn crash_verdict(c: &CellResult, inconsistent: &'static str) -> Option<&'static str> {
    let crash = ledger(c)?.crash.as_ref()?;
    Some(if crash.consistent {
        "recovered"
    } else {
        inconsistent
    })
}

/// Bytes a workload occupies once created: its filesets' counts times
/// their mean file sizes, and at least `file_size`.
pub(crate) fn working_set(workload: &Workload, file_size: Bytes) -> Bytes {
    let total: f64 = workload
        .filesets
        .iter()
        .map(|fs| fs.count as f64 * fs.size.mean())
        .sum();
    file_size.max(Bytes::new(total as u64))
}

/// Section 2 coverage of a cell's workload — a pure function of
/// `(spec, cell)`, shared by the live path and the store loader so a
/// record loaded from disk carries exactly the coverage a fresh run
/// would have computed.
pub(crate) fn cell_coverage(spec: &SweepSpec, cell: &Cell) -> SimResult<CoverageProfile> {
    match &cell.workload {
        CellWorkload::Personality(p) => {
            // A concurrent cell exercises the scaling dimension on top
            // of the personality's static profile.
            let mut coverage = p.coverage();
            if cell.processes > 1 {
                coverage = coverage.union(&CoverageProfile::new(&[(
                    Dimension::Scaling,
                    Coverage::Exercises,
                )]));
            }
            Ok(coverage)
        }
        CellWorkload::Trace { index, .. } => {
            let source = spec.traces.get(*index).ok_or_else(|| {
                SimError::BadConfig(format!("trace cell references missing source {index}"))
            })?;
            Ok(trace_coverage(&characterize(&source.trace)))
        }
    }
}

/// Executes one cell under the campaign's plan. `run_cap` is the
/// per-cell share of the campaign's run budget, if one was set.
pub(crate) fn run_cell(
    spec: &SweepSpec,
    cell: &Cell,
    run_cap: Option<u32>,
) -> SimResult<CellResult> {
    let personality = match &cell.workload {
        CellWorkload::Personality(p) => *p,
        CellWorkload::Trace { index, .. } => return run_trace_cell(spec, cell, *index, run_cap),
    };
    let workload = personality.workload(cell.file_size, cell.files);
    // Size the device by the working set, whether it is one large file
    // or a fileset.
    let (plan, device) = cell_setup(spec, cell, working_set(&workload, cell.file_size), run_cap);
    let fs = cell.fs;
    let mr = run_many(|s| testbed::paper_fs(fs, device, s), &workload, &plan)?;
    let coverage = cell_coverage(spec, cell)?;
    let mut result = CellResult::from_multi_run(cell.clone(), coverage, plan.base_seed, &mr);
    if let (Some(stats), Some(slo)) = (result.open_loop.as_mut(), spec.slo_p99) {
        stats.slo_max_rate = Some(slo_max_rate(&workload, &plan, fs, device, slo)?);
    }
    Ok(result)
}

/// How every run of `cell` is set up: the campaign plan stamped with the
/// cell's seed and axes (its protocol capped at the cell's share
/// `run_cap` of the run budget, its cache controlled unless the cell's
/// capacity is zero), and the device its targets are formatted on, kept
/// comfortably larger than `working_set` and at least as large as the
/// cell's file system formats.
fn cell_setup(
    spec: &SweepSpec,
    cell: &Cell,
    working_set: Bytes,
    run_cap: Option<u32>,
) -> (RunPlan, Bytes) {
    let mut plan = spec
        .plan
        .clone()
        .with_base_seed(cell.seed(spec.plan.base_seed))
        .with_processes(cell.processes)
        .with_arrival(cell.arrival)
        .with_faults(cell.faults)
        .with_retry(spec.retry);
    if let Some(cap) = run_cap {
        plan.protocol = plan.protocol.capped(cap);
    }
    plan.cache_capacity = if cell.cache.is_zero() {
        None
    } else {
        Some(cell.cache)
    };
    let device = spec
        .device
        .max(Bytes::new(working_set.as_u64().saturating_mul(2)))
        .max(cell.fs.min_device());
    (plan, device)
}

/// Maximum offered load (ops/s) at which one probe run of a cell still
/// sustains `p99 <= slo` — the cell's SLO verdict. `plan` and `device`
/// are the cell's, from [`cell_setup`].
///
/// Deterministic bisection: double the rate from the cell's configured
/// arrival rate until a probe breaches the SLO (bracketing), then
/// bisect the integer interval down to ~5 % relative width. Each probe
/// is a single engine run under the cell's own seed discipline, so the
/// verdict is a pure function of (spec, cell) — never of scheduling.
fn slo_max_rate(
    workload: &Workload,
    plan: &RunPlan,
    fs: FsKind,
    device: Bytes,
    slo: Nanos,
) -> SimResult<u64> {
    let probe = |rate: u64| -> SimResult<bool> {
        let plan = plan
            .clone()
            .with_arrival(plan.arrival.with_rate(rate))
            .with_protocol(Protocol::FixedRuns(1));
        let mr = run_many(|s| testbed::paper_fs(fs, device, s), workload, &plan)?;
        let p99 = mr.outcomes[0].recording.histogram.quantile(0.99);
        Ok(p99.is_none_or(|p| p <= slo))
    };
    let base = plan.arrival.rate().unwrap_or(1).max(1);
    if !probe(base)? {
        // Even the configured rate breaches: bisect down from it.
        let (mut lo, mut hi) = (0u64, base);
        while hi - lo > (lo / 20).max(1) {
            let mid = lo + (hi - lo) / 2;
            if mid == 0 || probe(mid)? {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        return Ok(lo);
    }
    // Double until a rate breaches (capped to keep the bracket sane).
    let mut lo = base;
    let mut hi = base;
    loop {
        hi = hi.saturating_mul(2);
        if !probe(hi)? {
            break;
        }
        lo = hi;
        if hi >= base.saturating_mul(1 << 12) {
            // Never breaches within a 4096x bracket: report the bound.
            return Ok(hi);
        }
    }
    while hi - lo > (lo / 20).max(1) {
        let mid = lo + (hi - lo) / 2;
        if probe(mid)? {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok(lo)
}

/// Executes one trace-backed cell: N replays of the source's trace
/// under its timing policy, repeated per the campaign protocol.
///
/// Each run `i` builds a fresh target seeded `cell_seed + i`, applies
/// the cell's cache capacity with the plan's per-run jitter (the same
/// memory-pressure discipline as workload cells), and replays with the
/// run seed driving the stream merge — so a multi-stream trace samples
/// a different legal interleaving per run, which is exactly the
/// run-to-run variance the protocol's CI then quantifies. The sample is
/// replay throughput (ops/s of the virtual clock).
fn run_trace_cell(
    spec: &SweepSpec,
    cell: &Cell,
    index: usize,
    run_cap: Option<u32>,
) -> SimResult<CellResult> {
    let source = spec.traces.get(index).ok_or_else(|| {
        SimError::BadConfig(format!("trace cell references missing source {index}"))
    })?;
    // One characterization pass serves both the device sizing and the
    // cell's ⋆ coverage profile.
    let profile = characterize(&source.trace);
    let (plan, device) = cell_setup(spec, cell, profile.working_set, run_cap);
    let mut errors = 0u64;
    let mut ratios: Vec<f64> = Vec::new();
    let (samples, verdict) = repeat(&plan.protocol, plan.base_seed, SEQUENTIAL_CI, |_, seed| {
        let mut target = testbed::paper_fs(cell.fs, device, seed);
        plan.set_run_cache(&mut target, seed);
        let config = ReplayConfig {
            timing: source.timing,
            seed,
        };
        let result = replay_with(&mut target, &source.trace, &config);
        errors += result.errors;
        if let Some(h) = target.cache_hit_ratio() {
            ratios.push(h);
        }
        Ok((result.ops_per_sec(), None))
    })?;
    let (summary, ci) = summarize(&samples, &plan.protocol, plan.base_seed);
    Ok(CellResult {
        cell: cell.clone(),
        coverage: trace_coverage(&profile),
        seed: plan.base_seed,
        runs: samples.len() as u32,
        samples,
        summary,
        ci,
        verdict,
        hit_ratio: mean_hit_ratio(&ratios),
        errors,
        open_loop: None,
        metrics: None,
        ledger: None,
    })
}

/// Result-store configuration for a campaign run.
#[derive(Debug, Clone)]
pub struct StoreOptions {
    /// Store root directory (conventionally `results/store/`).
    pub dir: std::path::PathBuf,
    /// Probe the store before executing a cell. `false` (`--no-cache`)
    /// forces full execution; finished cells are still written, so a
    /// no-cache run refreshes the store.
    pub read_cache: bool,
}

impl StoreOptions {
    /// Read-write store at `dir` — the default cache-aware mode.
    pub fn at(dir: impl Into<std::path::PathBuf>) -> StoreOptions {
        StoreOptions {
            dir: dir.into(),
            read_cache: true,
        }
    }
}

/// Execution options for [`run_campaign_with`]. The defaults reproduce
/// the classic fully-in-memory campaign.
#[derive(Debug, Clone, Default)]
pub struct CampaignOptions {
    /// Stream per-cell records through a content-addressed store.
    pub store: Option<StoreOptions>,
}

/// Execution accounting for one campaign: where each expanded cell came
/// from. Conservation (`expanded == cached + executed`) holds on every
/// successful run; a failed cell aborts the campaign with an error
/// instead of appearing here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CampaignStats {
    /// Cells the spec expanded to.
    pub expanded: usize,
    /// Cells served from the result store (verified cache hits).
    pub cached: usize,
    /// Cells executed live this run.
    pub executed: usize,
}

/// A completed campaign run: the report plus execution accounting.
#[derive(Debug, Clone)]
pub struct CampaignRun {
    /// The assembled report (byte-identical however cells were sourced).
    pub report: CampaignReport,
    /// Cache-hit accounting for this run.
    pub stats: CampaignStats,
}

/// Runs every cell of `spec`, sharded across `jobs` worker threads.
///
/// Workers pull cells from a shared atomic cursor (work stealing keeps
/// long cells from serializing the tail); each worker builds its own
/// simulated targets, so no simulation state is shared. Each worker
/// keeps the results it produced, tagged with their expansion index,
/// and the report places them in expansion order, which makes the
/// aggregate independent of scheduling: the same spec yields
/// byte-identical reports at any job count.
///
/// With [`CampaignOptions::store`] set, each cell is first probed in
/// the content-addressed store (a verified hit is the cell's result,
/// and it is not executed) and each miss is executed and streamed to
/// disk as one fsync'd record before the worker moves on. A record
/// round-trips its cell exactly, so the report's bytes are the same
/// whether cells came from cache or live runs, at any `--jobs` count.
/// No recording outlives its run; the report keeps every cell's row.
pub fn run_campaign_with(
    spec: &SweepSpec,
    jobs: usize,
    opts: &CampaignOptions,
) -> SimResult<CampaignRun> {
    let cells = spec.expand();
    if cells.is_empty() {
        return Err(SimError::InvalidOperation(
            "sweep expands to zero cells; every axis needs at least one value".into(),
        ));
    }
    spec.plan.protocol.validate()?;
    if spec.run_budget == Some(0) {
        return Err(SimError::BadConfig(
            "campaign run budget must be at least 1".into(),
        ));
    }
    let store = match &opts.store {
        Some(s) => {
            // A metrics snapshot describes one live run — caching it
            // would replay a diagnostic as if it were a measurement.
            if spec.plan.obs.metrics {
                return Err(SimError::BadConfig(
                    "the result store cannot cache flight-recorder campaigns; \
                     drop the store or run without metrics capture"
                        .into(),
                ));
            }
            Some(crate::store::ResultStore::open(&s.dir).map_err(|e| {
                SimError::BadConfig(format!("cannot open result store {}: {e}", s.dir.display()))
            })?)
        }
        None => None,
    };
    let read_cache = opts.store.as_ref().is_some_and(|s| s.read_cache);
    // A shared run budget divides evenly across cells up front: the cap
    // is a function of the spec alone, so scheduling can never leak into
    // the results. (Redistributing unused runs from early-converging
    // cells would couple cells through completion order — exactly the
    // nondeterminism the campaign engine exists to exclude.)
    let run_cap = spec
        .run_budget
        .map(|budget| ((budget / cells.len() as u64).max(1)).min(u32::MAX as u64) as u32);
    let jobs = jobs.clamp(1, cells.len());
    let next = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let mut done = Vec::with_capacity(cells.len());
    std::thread::scope(|scope| {
        let mut workers = Vec::with_capacity(jobs);
        for _ in 0..jobs {
            workers.push(scope.spawn(|| {
                let mut mine = Vec::new();
                loop {
                    // A failed cell aborts the campaign: don't burn the
                    // rest of the grid computing results that will be
                    // discarded.
                    if failed.load(Ordering::Relaxed) {
                        break;
                    }
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(cell) = cells.get(i) else { break };
                    let result = execute_slot(spec, cell, run_cap, store.as_ref(), read_cache);
                    if result.is_err() {
                        failed.store(true, Ordering::Relaxed);
                    }
                    mine.push((i, result));
                }
                mine
            }));
        }
        // The scope waits only for the closures. A thread still exiting
        // has not handed back its malloc arena, so the next threads would
        // open fresh ones, each keeping its own high-water mark resident:
        // peak memory would depend on thread timing.
        for w in workers {
            match w.join() {
                Ok(mine) => done.extend(mine),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });
    // Collect in expansion order. Workers stop early only after a cell
    // failed, and every index below the lowest failing one was pulled,
    // and so finished, before any abort could trigger: the first error
    // met is the lowest-index failure, so the reported error is
    // deterministic even though later cells may have been skipped.
    done.sort_unstable_by_key(|&(i, _)| i);
    let mut stats = CampaignStats {
        expanded: cells.len(),
        ..CampaignStats::default()
    };
    let mut results = Vec::with_capacity(cells.len());
    for (_, outcome) in done {
        let (result, cached) = outcome?;
        if cached {
            stats.cached += 1;
        } else {
            stats.executed += 1;
        }
        results.push(result);
    }
    Ok(CampaignRun {
        report: CampaignReport {
            name: spec.name.clone(),
            jobs,
            cells: results,
        },
        stats,
    })
}

/// One worker's handling of one cell: probe, execute, stream. Returns
/// the cell's result, and whether it was a verified store hit.
fn execute_slot(
    spec: &SweepSpec,
    cell: &Cell,
    run_cap: Option<u32>,
    store: Option<&crate::store::ResultStore>,
    read_cache: bool,
) -> SimResult<(CellResult, bool)> {
    if read_cache {
        if let Some(hit) = store.and_then(|store| store.load(spec, cell, run_cap)) {
            return Ok((hit, true));
        }
    }
    let result = run_cell(spec, cell, run_cap)?;
    if let Some(store) = store {
        store.save(spec, cell, run_cap, &result).map_err(|e| {
            SimError::InvalidOperation(format!(
                "cannot write store record for cell `{}`: {e}",
                cell.key()
            ))
        })?;
    }
    Ok((result, false))
}

/// Runs a campaign with the classic fully-in-memory pipeline — no
/// result store, every cell executed live. See [`run_campaign_with`]
/// for the cache-aware, streaming variant.
pub fn run_campaign(spec: &SweepSpec, jobs: usize) -> SimResult<CampaignReport> {
    run_campaign_with(spec, jobs, &CampaignOptions::default()).map(|run| run.report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Protocol;
    use rb_simcore::time::Nanos;

    /// A spec small enough for debug-mode unit tests.
    fn tiny_spec() -> SweepSpec {
        let mut plan = RunPlan::quick(42);
        plan.protocol = Protocol::FixedRuns(2);
        plan.duration = Nanos::from_secs(2);
        plan.window = Nanos::from_secs(1);
        plan.tail_windows = 2;
        SweepSpec {
            name: "tiny".into(),
            personalities: vec![Personality::RandomRead],
            traces: Vec::new(),
            file_sizes: vec![Bytes::mib(4), Bytes::mib(8)],
            file_counts: vec![10],
            filesystems: vec![FsKind::Ext2, FsKind::Ext3],
            cache_capacities: vec![Bytes::mib(64)],
            processes: vec![1],
            arrivals: Vec::new(),
            faults: Vec::new(),
            retry: rb_faults::RetryPolicy::None,
            slo_p99: None,
            plan,
            device: Bytes::mib(256),
            run_budget: None,
        }
    }

    /// A size chart's series agree on every swept axis but the size:
    /// two sizes under two arrivals draw one two-point series per
    /// arrival, and one size under two arrivals draws no chart.
    #[test]
    fn size_chart_series_hold_one_cell_per_size() {
        let mut spec = tiny_spec();
        spec.filesystems = vec![FsKind::Ext2];
        spec.arrivals = vec![Arrival::Closed, Arrival::Poisson { rate: 400 }];
        let report = run_campaign(&spec, 1).expect("two sizes");
        let series = report.size_series();
        let labels: Vec<&str> = series.iter().map(|(l, _)| l.as_str()).collect();
        assert_eq!(
            labels,
            ["randomread/ext2/closed", "randomread/ext2/poisson:400"]
        );
        for (label, points) in &series {
            let sizes: Vec<f64> = points.iter().map(|&(size, _)| size).collect();
            assert_eq!(sizes, [4.0, 8.0], "{label}");
        }
        let text = report.render();
        assert!(text.contains("* = randomread/ext2/closed"), "{text}");
        assert!(text.contains("+ = randomread/ext2/poisson:400"), "{text}");
        spec.file_sizes.truncate(1);
        let text = run_campaign(&spec, 1).expect("one size").render();
        assert!(!text.contains("throughput vs file size"), "{text}");
    }

    #[test]
    fn expansion_is_a_cross_product() {
        let mut spec = tiny_spec();
        spec.personalities = vec![Personality::RandomRead, Personality::SequentialRead];
        // 2 personalities x 2 sizes x 2 fs x 1 cache.
        assert_eq!(spec.expand().len(), 8);
        spec.cache_capacities = vec![Bytes::mib(64), Bytes::mib(128)];
        assert_eq!(spec.expand().len(), 16);
    }

    #[test]
    fn expansion_normalizes_unused_axes() {
        let mut spec = tiny_spec();
        // varmail ignores file size: five sizes collapse onto one cell
        // per (count, fs, cache).
        spec.personalities = vec![Personality::Varmail];
        spec.file_sizes = (1..=5).map(Bytes::mib).collect();
        let cells = spec.expand();
        assert_eq!(cells.len(), 2); // 1 count x 2 fs x 1 cache
        assert!(cells.iter().all(|c| c.file_size == Bytes::ZERO));
        // And randomread ignores file count.
        spec.personalities = vec![Personality::RandomRead];
        spec.file_counts = vec![10, 20, 30];
        assert_eq!(spec.expand().len(), 10); // 5 sizes x 2 fs
    }

    #[test]
    fn expansion_dedups_repeated_axis_values() {
        let mut spec = tiny_spec();
        spec.file_sizes = vec![Bytes::mib(4), Bytes::mib(4), Bytes::mib(4)];
        spec.filesystems = vec![FsKind::Ext2, FsKind::Ext2];
        assert_eq!(spec.expand().len(), 1);
    }

    #[test]
    fn cell_seeds_are_stable_and_distinct() {
        let spec = tiny_spec();
        let cells = spec.expand();
        let seeds: Vec<u64> = cells.iter().map(|c| c.seed(42)).collect();
        // Stable: recomputing gives the same seeds.
        let again: Vec<u64> = spec.expand().iter().map(|c| c.seed(42)).collect();
        assert_eq!(seeds, again);
        // Distinct per cell and sensitive to the campaign seed.
        let unique: HashSet<u64> = seeds.iter().copied().collect();
        assert_eq!(unique.len(), seeds.len());
        assert_ne!(cells[0].seed(42), cells[0].seed(43));
    }

    #[test]
    fn jobs_do_not_change_results() {
        let spec = tiny_spec();
        let serial = run_campaign(&spec, 1).unwrap();
        let sharded = run_campaign(&spec, 4).unwrap();
        assert_eq!(serial.cells.len(), 4);
        // Byte-identical aggregates regardless of scheduling.
        assert_eq!(serial.to_csv(), sharded.to_csv());
        assert_eq!(serial.to_json().to_string(), sharded.to_json().to_string());
        for (a, b) in serial.cells.iter().zip(&sharded.cells) {
            assert_eq!(a.cell, b.cell);
            assert_eq!(a.seed, b.seed);
            assert_eq!(a.summary, b.summary);
        }
    }

    /// A failed cell aborts the campaign, and the error names the
    /// lowest-index failure at any job count. A directory at a cell's
    /// record address makes its save fail.
    #[test]
    fn a_failed_campaign_reports_its_lowest_failing_cell() {
        let spec = tiny_spec();
        let cells = spec.expand();
        for jobs in [1, 4] {
            let dir = std::env::temp_dir()
                .join(format!("rb-campaign-fail-{}-{jobs}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let store = crate::store::ResultStore::open(&dir).expect("open");
            for cell in [&cells[1], &cells[3]] {
                let identity = crate::store::cell_identity(&spec, cell, None);
                let path = store.record_path(crate::store::digest(&identity));
                std::fs::create_dir_all(path).expect("block the record");
            }
            let opts = CampaignOptions {
                store: Some(StoreOptions::at(&dir)),
            };
            let error = run_campaign_with(&spec, jobs, &opts).expect_err("blocked cells fail");
            let _ = std::fs::remove_dir_all(&dir);
            assert!(
                error.to_string().contains(&format!("`{}`", cells[1].key())),
                "jobs {jobs}: {error}"
            );
        }
    }

    /// A record that cannot be written fails its cell as an I/O
    /// failure, not a configuration error, and leaves no temp file.
    #[test]
    fn a_failed_save_names_its_cell_and_leaves_no_temp_file() {
        let spec = tiny_spec();
        let cell = &spec.expand()[0];
        let dir = std::env::temp_dir().join(format!("rb-campaign-save-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = crate::store::ResultStore::open(&dir).expect("open");
        let identity = crate::store::cell_identity(&spec, cell, None);
        let path = store.record_path(crate::store::digest(&identity));
        std::fs::create_dir_all(path).expect("block the record");
        let opts = CampaignOptions {
            store: Some(StoreOptions::at(&dir)),
        };
        let error = run_campaign_with(&spec, 1, &opts).expect_err("a blocked cell fails");
        let temps: Vec<String> = std::fs::read_dir(dir.join("cells"))
            .expect("cells")
            .filter_map(|e| e.ok()?.file_name().into_string().ok())
            .filter(|name| name.starts_with(".tmp-"))
            .collect();
        let _ = std::fs::remove_dir_all(&dir);
        let error = error.to_string();
        assert!(error.contains(&format!("`{}`", cell.key())), "{error}");
        assert!(!error.contains("bad configuration"), "{error}");
        assert!(temps.is_empty(), "left behind: {temps:?}");
    }

    #[test]
    fn report_renders_all_sections() {
        let spec = tiny_spec();
        let report = run_campaign(&spec, 2).unwrap();
        let text = report.render();
        assert!(text.contains("campaign \"tiny\""));
        assert!(text.contains("randomread/4.0MiB/ext2"));
        assert!(text.contains("per-dimension grouping"));
        assert!(text.contains("campaign coverage:"));
        assert!(text.contains("throughput vs file size"));
        // CSV has a header plus one row per cell.
        assert_eq!(report.to_csv().lines().count(), 1 + report.cells.len());
    }

    #[test]
    fn coverage_union_reflects_personalities() {
        let mut spec = tiny_spec();
        spec.personalities = vec![Personality::RandomRead, Personality::MetadataOnly];
        spec.file_sizes = vec![Bytes::mib(4)];
        spec.filesystems = vec![FsKind::Ext2];
        let report = run_campaign(&spec, 2).unwrap();
        let cov = report.coverage();
        assert_eq!(cov.get(Dimension::Caching), Coverage::Isolates);
        assert_eq!(cov.get(Dimension::Metadata), Coverage::Isolates);
        assert_eq!(cov.get(Dimension::Scaling), Coverage::None);
    }

    #[test]
    fn empty_spec_is_an_error() {
        let mut spec = tiny_spec();
        spec.personalities.clear();
        assert!(run_campaign(&spec, 1).is_err());
    }

    #[test]
    fn degenerate_cells_still_complete() {
        // Zero-size files and empty filesets are valid (if silly)
        // configurations: the engine treats them as sparse/growing sets,
        // so the campaign completes instead of erroring.
        let mut spec = tiny_spec();
        spec.personalities = vec![Personality::RandomRead, Personality::Varmail];
        spec.file_sizes = vec![Bytes::ZERO];
        spec.file_counts = vec![0];
        let report = run_campaign(&spec, 2).unwrap();
        assert_eq!(report.cells.len(), 4); // 2 personalities x 2 fs
    }

    #[test]
    fn extreme_derived_seeds_do_not_overflow_runs() {
        // Derived seeds span the full u64 range; run indexing must wrap.
        let w = crate::workload::personalities::random_read(Bytes::mib(2));
        let plan = RunPlan {
            protocol: Protocol::FixedRuns(3),
            duration: Nanos::from_secs(1),
            window: Nanos::from_secs(1),
            tail_windows: 1,
            base_seed: u64::MAX - 1,
            cache_capacity: Some(Bytes::mib(32)),
            cache_jitter: Bytes::mib(1),
            cold_start: false,
            prewarm: false,
            processes: 1,
            arrival: Arrival::Closed,
            obs: rb_obs::ObsConfig::default(),
            faults: None,
            retry: rb_faults::RetryPolicy::None,
        };
        let mr = run_many(
            |s| testbed::paper_fs(FsKind::Ext2, Bytes::mib(64), s),
            &w,
            &plan,
        )
        .unwrap();
        assert_eq!(mr.outcomes.len(), 3);
    }

    #[test]
    fn zero_runs_is_an_error_not_a_panic() {
        let mut spec = tiny_spec();
        spec.plan.protocol = Protocol::FixedRuns(0);
        assert!(run_campaign(&spec, 1).is_err());
    }

    #[test]
    fn run_budget_caps_cells_deterministically() {
        let mut spec = tiny_spec();
        spec.plan.protocol = Protocol::FixedRuns(3);
        // 4 cells, budget 4: one run each.
        spec.run_budget = Some(4);
        let capped = run_campaign(&spec, 2).unwrap();
        assert!(capped.cells.iter().all(|c| c.runs == 1), "cap ignored");
        // Identical at any job count.
        let serial = run_campaign(&spec, 1).unwrap();
        assert_eq!(serial.to_csv(), capped.to_csv());
        // A generous budget changes nothing.
        spec.run_budget = Some(1000);
        let roomy = run_campaign(&spec, 2).unwrap();
        assert!(roomy.cells.iter().all(|c| c.runs == 3));
        // A zero budget is a config error, not a silent 1-run campaign.
        spec.run_budget = Some(0);
        assert!(run_campaign(&spec, 2).is_err());
    }

    /// A small trace that replays cleanly on a fresh simulated target,
    /// with two streams and real inter-arrival gaps.
    fn tiny_trace() -> Trace {
        Trace::from_text(
            "# rocketbench-trace v2\n\
             0 0 mkdir /t\n\
             0 500000 create /t/a\n\
             0 1000000 open /t/a\n\
             0 1500000 setsize /t/a 262144\n\
             1 2000000 create /t/b\n\
             1 2500000 open /t/b\n\
             1 3000000 setsize /t/b 262144\n\
             0 3500000 read /t/a 0 8192\n\
             1 4000000 write /t/b 0 8192\n\
             0 4500000 read /t/a 131072 8192\n\
             1 5000000 fsync /t/b\n\
             0 5500000 read /t/a 8192 8192\n\
             1 6000000 read /t/b 0 8192\n\
             0 6500000 close /t/a\n\
             1 7000000 close /t/b\n",
        )
        .unwrap()
    }

    fn tiny_trace_spec() -> SweepSpec {
        let mut spec = tiny_spec();
        spec.personalities = Vec::new();
        spec.traces = vec![
            TraceSource::new("tt", tiny_trace(), Timing::Afap),
            TraceSource::new("tt", tiny_trace(), Timing::Faithful),
        ];
        spec
    }

    #[test]
    fn trace_cells_cross_with_fs_and_cache() {
        let spec = tiny_trace_spec();
        let cells = spec.expand();
        // 2 sources x 2 fs x 1 cache; the file-size/count axes are
        // normalized away.
        assert_eq!(cells.len(), 4);
        assert!(cells
            .iter()
            .all(|c| c.file_size == Bytes::ZERO && c.files == 0));
        assert_eq!(cells[0].workload_name(), "trace:tt@afap");
        assert_eq!(cells[0].label(), "tt@afap/ext2");
        // Identity includes the timing policy: same trace under two
        // policies is two distinct cells with distinct seeds.
        assert_ne!(cells[0].key(), cells[2].key());
        assert_ne!(cells[0].seed(42), cells[2].seed(42));
        // Duplicate (name, timing) pairs dedup.
        let mut dup = spec.clone();
        dup.traces
            .push(TraceSource::new("tt", tiny_trace(), Timing::Afap));
        assert_eq!(dup.expand().len(), 4);
    }

    #[test]
    fn trace_campaign_reports_like_personality_cells() {
        let report = run_campaign(&tiny_trace_spec(), 2).unwrap();
        assert_eq!(report.cells.len(), 4);
        for c in &report.cells {
            assert_eq!(c.verdict, Verdict::Fixed);
            assert_eq!(c.runs, 2);
            assert_eq!(c.errors, 0, "{}: replay diverged", c.cell.label());
            assert!(c.summary.mean > 0.0);
            let ci = c.ci.expect("bootstrap ci");
            assert!(ci.lo <= c.summary.mean && c.summary.mean <= ci.hi);
            assert!(c.hit_ratio.is_some());
            // Trace coverage is the paper's ⋆ marker.
            assert_eq!(c.coverage.get(Dimension::Io), Coverage::Depends);
        }
        // The afap and faithful cells measure different things.
        let afap = &report.cells[0];
        let faithful = &report.cells[2];
        assert!(afap.summary.mean > faithful.summary.mean);
        // Reports carry the cells in every format.
        let csv = report.to_csv();
        assert!(csv.contains("trace:tt@afap"));
        assert!(csv.contains("trace:tt@faithful"));
        assert!(report.to_json().to_string().contains("trace:tt@afap"));
        assert!(report.render().contains("tt@afap/ext2"));
    }

    #[test]
    fn trace_campaign_is_jobs_deterministic() {
        let mut spec = tiny_trace_spec();
        // Mixed grid: personalities and traces in one campaign.
        spec.personalities = vec![Personality::RandomRead];
        spec.file_sizes = vec![Bytes::mib(4)];
        let serial = run_campaign(&spec, 1).unwrap();
        let sharded = run_campaign(&spec, 4).unwrap();
        assert_eq!(serial.cells.len(), 6); // (1 size + 2 sources) x 2 fs
        assert_eq!(serial.to_csv(), sharded.to_csv());
        assert_eq!(serial.to_json().to_string(), sharded.to_json().to_string());
        // The campaign coverage row unions personality and ⋆ markers
        // (the stronger marker wins: Depends > Exercises < Isolates).
        let cov = serial.coverage();
        assert_eq!(cov.get(Dimension::Io), Coverage::Depends);
        assert_eq!(cov.get(Dimension::Caching), Coverage::Isolates);
        assert_eq!(cov.get(Dimension::OnDisk), Coverage::Depends);
    }

    #[test]
    fn trace_coverage_follows_the_op_mix() {
        let read_only = Trace::from_text("open /a\nread /a 0 4096\nclose /a\n").unwrap();
        let cov = trace_coverage(&characterize(&read_only));
        assert_eq!(cov.get(Dimension::Io), Coverage::Depends);
        assert_eq!(cov.get(Dimension::Caching), Coverage::Depends);
        assert_eq!(cov.get(Dimension::OnDisk), Coverage::None);
        // open/close are namespace traffic.
        assert_eq!(cov.get(Dimension::Metadata), Coverage::Depends);
        let meta_only = Trace::from_text("create /a\nstat /a\nunlink /a\n").unwrap();
        let cov = trace_coverage(&characterize(&meta_only));
        assert_eq!(cov.get(Dimension::Io), Coverage::None);
        assert_eq!(cov.get(Dimension::Metadata), Coverage::Depends);
    }

    #[test]
    fn report_carries_verdicts_and_cis() {
        let report = run_campaign(&tiny_spec(), 2).unwrap();
        for c in &report.cells {
            assert_eq!(c.verdict, Verdict::Fixed);
            assert_eq!(c.runs, 2);
            let ci = c.ci.expect("bootstrap ci");
            assert!(ci.lo <= c.summary.mean && c.summary.mean <= ci.hi);
        }
        let csv = report.to_csv();
        assert!(csv.lines().next().unwrap().contains("verdict"));
        assert!(csv.contains(",fixed,"));
        let json = report.to_json().to_string();
        assert!(json.contains("\"verdict\":\"fixed\""));
        assert!(json.contains("\"ci\":{\"lo\":"));
        assert!(report.render().contains("verdict"));
    }

    #[test]
    fn zero_cache_means_uncontrolled() {
        let mut spec = tiny_spec();
        spec.file_sizes = vec![Bytes::mib(4)];
        spec.filesystems = vec![FsKind::Ext2];
        spec.cache_capacities = vec![Bytes::ZERO];
        let report = run_campaign(&spec, 1).unwrap();
        assert_eq!(report.cells.len(), 1);
        assert!(report.cells[0].summary.mean > 0.0);
        // The table shows "-" rather than a zero capacity.
        assert!(report.render().contains("  -  "));
    }

    #[test]
    fn device_grows_with_fileset_working_set() {
        // varmail ignores file size, so the device must scale with the
        // fileset estimate; with a deliberately tiny spec.device the
        // campaign still completes without ENOSPC-driven failure.
        let mut spec = tiny_spec();
        spec.personalities = vec![Personality::Varmail];
        spec.filesystems = vec![FsKind::Ext2];
        spec.file_counts = vec![300];
        spec.device = Bytes::mib(1);
        let report = run_campaign(&spec, 1).unwrap();
        assert_eq!(report.cells.len(), 1);
        assert_eq!(report.cells[0].errors, 0, "fileset did not fit the device");
    }

    /// A cell's device grows to the smallest its file system formats:
    /// one block short of xfs's minimum becomes the minimum, the
    /// minimum itself stays, and ext2 keeps a device that small. A
    /// 4 MiB xfs sweep, which used to panic in mkfs, runs.
    #[test]
    fn device_grows_to_what_the_file_system_formats() {
        use rb_simcore::units::PAGE_SIZE;
        use rb_simfs::xfs::XfsConfig;
        let min = PAGE_SIZE * XfsConfig::MIN_BLOCKS;
        let mut spec = tiny_spec();
        spec.file_sizes = vec![Bytes::kib(4)];
        spec.filesystems = vec![FsKind::Ext2, FsKind::Xfs];
        for (device, xfs_device) in [(min - PAGE_SIZE, min), (min, min)] {
            spec.device = device;
            for cell in spec.expand() {
                let (_, grown) = cell_setup(&spec, &cell, cell.file_size, None);
                let want = if cell.fs == FsKind::Xfs {
                    xfs_device
                } else {
                    device
                };
                assert_eq!(grown, want, "{} on a {device} device", cell.fs.name());
            }
        }
        spec.filesystems = vec![FsKind::Xfs];
        spec.file_sizes = vec![Bytes::mib(1)];
        spec.device = Bytes::mib(4);
        let report = run_campaign(&spec, 1).unwrap();
        assert_eq!(report.cells.len(), 1);
        assert_eq!(report.cells[0].errors, 0);
    }
}
