//! Content-addressed result store: campaign cells cached on disk.
//!
//! Campaign cells are pure functions of their spec — the cell key, the
//! campaign seed, the repetition protocol and the engine code version
//! fully determine the result (that determinism is what
//! [`crate::campaign`] exists to guarantee). The store exploits it:
//! every finished cell is serialized to one fsync'd record file named
//! by a content hash over that identity, so an unchanged cell is never
//! executed twice. Reruns probe the store first; editing one axis value
//! re-executes only the new column of the grid, and an interrupted
//! campaign resumes from whatever records already landed.
//!
//! ## Layout
//!
//! ```text
//! <dir>/
//!   cells/<digest>.cell   one record per finished cell (atomic rename)
//! ```
//!
//! The records are the store's only state: there is no index to keep
//! in step with them, and the directory is its own listing.
//!
//! ## Identity
//!
//! A record's address is `fnv1a(identity)` where the identity string
//! canonically encodes everything a cell result depends on: the code
//! salt ([`CODE_SALT`], bumped whenever engine semantics change), the
//! cell key, the campaign seed, the protocol, the run-shaping plan
//! fields, the retry policy, the SLO target, the device floor, any
//! per-campaign run cap, and (for trace cells) a content hash of the
//! trace itself. Records written under a different salt or spec simply
//! hash to different addresses — they are ignored, never corrupted.
//! On load the stored identity line is compared against the recomputed
//! one, so a hash collision or a tampered record degrades to a cache
//! miss, not a wrong result.
//!
//! ## Integrity
//!
//! A record's last line, `end <seal>`, is the FNV-1a-64 of every byte
//! before it. A load checks the seal before it parses anything, so a
//! flipped bit or a torn write anywhere in the record is a miss and the
//! cell re-executes; it never loads as a different result.
//!
//! ## Fidelity
//!
//! Records round-trip [`CellResult`] losslessly: floating-point fields
//! are written with Rust's shortest-round-trip formatting (parsing the
//! text recovers the exact bits), derived fields (summary, coverage)
//! are recomputed by the same pure functions the live path uses, and
//! everything else is integers and labels. A report assembled from
//! records is therefore byte-identical to one assembled from live runs
//! — the property `tests/campaign_store.rs` pins against the committed
//! sweep goldens.
//!
//! Flight-recorder campaigns (`plan.obs.metrics`) are refused by the
//! store: a metrics snapshot is a diagnostic of one live run, not a
//! reproducible measurement, so caching it would be a lie. See
//! `docs/CAMPAIGNS.md`.

use std::fmt::Write as _;
use std::fs::{self, File};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

use rb_simcore::error::{SimError, SimResult};
use rb_simcore::fnv::{fnv1a, FNV_OFFSET};
use rb_simcore::time::Nanos;
use rb_stats::bootstrap::Interval;
use rb_stats::summary::Summary;

use crate::campaign::{cell_coverage, Cell, CellResult, OpenCellStats, SweepSpec};
use crate::runner::{Protocol, Verdict};

/// Code-version salt folded into every record identity. Bump it when
/// engine semantics change (anything that could alter a cell's numbers
/// for the same spec): every existing record then hashes to a dead
/// address and the grid re-executes, which is exactly the safe default.
pub const CODE_SALT: &str = "rb-store-v1";

/// First line of every record file; the version gate for the format.
/// v1 records had no seal: they miss once and their cells re-execute.
const RECORD_HEADER: &str = "rocketbench-cell-record v2";

/// Canonical identity string of one cell under one spec: the content
/// hash preimage. Single line by construction (cell keys and labels
/// never contain newlines).
pub fn cell_identity(spec: &SweepSpec, cell: &Cell, run_cap: Option<u32>) -> String {
    let mut id = String::with_capacity(160);
    let _ = write!(
        id,
        "salt={CODE_SALT};cell={};seed={};protocol={};duration={};window={};tail={};\
         jitter={};cold={};prewarm={};retry={};slo={};device={};cap={}",
        cell.key(),
        spec.plan.base_seed,
        protocol_identity(&spec.plan.protocol),
        spec.plan.duration.as_nanos(),
        spec.plan.window.as_nanos(),
        spec.plan.tail_windows,
        spec.plan.cache_jitter.as_u64(),
        spec.plan.cold_start,
        spec.plan.prewarm,
        spec.retry,
        spec.slo_p99.map_or(u64::MAX, Nanos::as_nanos),
        spec.device.as_u64(),
        run_cap.map_or(-1i64, i64::from),
    );
    // A trace cell's numbers depend on the trace content, which lives
    // outside the cell key — fold a content hash of the canonical v2
    // serialization into the identity so editing a trace invalidates
    // its cells.
    if let crate::campaign::CellWorkload::Trace { index, .. } = &cell.workload {
        let h = spec
            .traces
            .get(*index)
            .and_then(|s| s.trace.to_text_v2().ok())
            .map_or(0, |text| fnv1a(FNV_OFFSET, text.as_bytes()));
        let _ = write!(id, ";trace={h:016x}");
    }
    id
}

/// The protocol as a record identity names it. A fixed protocol keeps
/// its `Display` text, so stores of fixed cells keep hitting; an
/// adaptive one names every field, its floats at full precision, where
/// `Display` rounds the CI width to 0.1 % and the confidence to 1 %.
fn protocol_identity(protocol: &Protocol) -> String {
    match *protocol {
        Protocol::FixedRuns(_) => protocol.to_string(),
        Protocol::Adaptive {
            min_runs,
            max_runs,
            ci_rel_width,
            confidence,
        } => format!("adaptive({min_runs}..{max_runs}, ci {ci_rel_width} @ {confidence})"),
    }
}

/// The 64-bit content address of an identity string.
pub fn digest(identity: &str) -> u64 {
    fnv1a(FNV_OFFSET, identity.as_bytes())
}

/// A directory of content-addressed cell records.
///
/// Shared by reference across campaign workers. It holds no mutable
/// state: each record lands by its own atomic rename, so workers (and
/// concurrent campaign processes) never coordinate.
#[derive(Debug)]
pub struct ResultStore {
    dir: PathBuf,
}

impl ResultStore {
    /// Opens (creating if needed) a store rooted at `dir`.
    pub fn open(dir: &Path) -> io::Result<ResultStore> {
        fs::create_dir_all(dir.join("cells"))?;
        Ok(ResultStore {
            dir: dir.to_path_buf(),
        })
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// True when the directory already holds a store (its `cells/`
    /// exists, which [`ResultStore::open`] creates): the `--resume`
    /// precondition.
    pub fn exists(dir: &Path) -> bool {
        dir.join("cells").is_dir()
    }

    /// Path of the record addressed by `digest`.
    pub fn record_path(&self, digest: u64) -> PathBuf {
        self.dir.join("cells").join(format!("{digest:016x}.cell"))
    }

    /// Number of records in the store (a directory scan; diagnostics
    /// and tests only).
    pub fn record_count(&self) -> usize {
        fs::read_dir(self.dir.join("cells"))
            .map(|rd| {
                rd.filter_map(Result::ok)
                    .filter(|e| e.path().extension().is_some_and(|x| x == "cell"))
                    .count()
            })
            .unwrap_or(0)
    }

    /// Probes the store for `cell` under `spec`. A hit is parsed and
    /// verified — the stored identity must equal the recomputed one —
    /// and rebuilt into a full [`CellResult`]. Any mismatch, parse
    /// failure or I/O error degrades to a miss (`None`).
    pub fn load(&self, spec: &SweepSpec, cell: &Cell, run_cap: Option<u32>) -> Option<CellResult> {
        let identity = cell_identity(spec, cell, run_cap);
        let path = self.record_path(digest(&identity));
        let text = fs::read_to_string(path).ok()?;
        decode_record(&text, &identity, spec, cell).ok()
    }

    /// Streams one finished cell to disk: the record is written to a
    /// temp file, fsync'd and atomically renamed to its content address.
    /// A crash between cells therefore loses nothing; a crash mid-cell
    /// loses only that cell's in-flight record. A save that fails
    /// removes its temp file.
    pub fn save(
        &self,
        spec: &SweepSpec,
        cell: &Cell,
        run_cap: Option<u32>,
        result: &CellResult,
    ) -> io::Result<()> {
        let identity = cell_identity(spec, cell, run_cap);
        let d = digest(&identity);
        let record = encode_record(&identity, result);
        let tmp = self
            .dir
            .join("cells")
            .join(format!(".tmp-{d:016x}-{}", std::process::id()));
        let saved = File::create(&tmp)
            .and_then(|mut f| {
                f.write_all(record.as_bytes())?;
                f.sync_all()
            })
            .and_then(|()| fs::rename(&tmp, self.record_path(d)));
        if saved.is_err() {
            let _ = fs::remove_file(&tmp);
        }
        saved
    }
}

/// Formats an `Option` scalar as its value or `-`.
fn opt<T: std::fmt::Display>(v: Option<T>) -> String {
    v.map_or_else(|| "-".into(), |x| x.to_string())
}

/// Serializes a [`CellResult`] plus its identity into record text.
///
/// Derived fields (summary, coverage) are omitted: the decoder
/// recomputes them with the same pure functions the live path uses,
/// which keeps the format small and the round-trip honest. Metrics
/// snapshots are never present (the store refuses metrics campaigns).
fn encode_record(identity: &str, r: &CellResult) -> String {
    let mut out = String::with_capacity(256);
    let _ = writeln!(out, "{RECORD_HEADER}");
    let _ = writeln!(out, "identity {identity}");
    let _ = writeln!(out, "key {}", r.cell.key());
    let _ = writeln!(out, "seed {}", r.seed);
    let _ = writeln!(out, "runs {}", r.runs);
    let _ = writeln!(out, "verdict {}", r.verdict.label());
    let _ = writeln!(out, "errors {}", r.errors);
    let _ = writeln!(out, "hit_ratio {}", opt(r.hit_ratio));
    let samples: Vec<String> = r.samples.iter().map(f64::to_string).collect();
    let _ = writeln!(out, "samples {}", samples.join(" "));
    match r.ci {
        Some(ci) => {
            let _ = writeln!(out, "ci {} {} {}", ci.lo, ci.point, ci.hi);
        }
        None => {
            let _ = writeln!(out, "ci -");
        }
    }
    if let Some(open) = &r.open_loop {
        let _ = writeln!(
            out,
            "open {} {} {} {} {} {}",
            open.offered,
            open.dropped,
            opt(open.p50.map(Nanos::as_nanos)),
            opt(open.p99.map(Nanos::as_nanos)),
            opt(open.p999.map(Nanos::as_nanos)),
            opt(open.slo_max_rate),
        );
    }
    if let Some(l) = &r.ledger {
        let _ = writeln!(
            out,
            "ledger {} {} {} {} {} {} {}",
            l.attempted,
            l.succeeded,
            l.retried_ok,
            l.gave_up,
            l.dropped,
            l.retries,
            l.degraded.as_nanos(),
        );
        if let Some(c) = &l.crash {
            let _ = writeln!(
                out,
                "crash {} {} {} {} {}",
                c.at.as_nanos(),
                c.mechanism,
                c.recovery.as_nanos(),
                c.lost_dirty_pages,
                c.consistent,
            );
        }
    }
    let seal = fnv1a(FNV_OFFSET, out.as_bytes());
    let _ = writeln!(out, "end {seal:016x}");
    out
}

/// The body of sealed record text: every byte before its `end` line,
/// once that line is the one [`encode_record`] writes for them.
fn unseal(text: &str) -> SimResult<&str> {
    let at = text.rfind("\nend ").ok_or_else(|| bad("no end line"))? + 1;
    let (body, end) = text.split_at(at);
    if end != format!("end {:016x}\n", fnv1a(FNV_OFFSET, body.as_bytes())) {
        return Err(bad("seal mismatch"));
    }
    Ok(body)
}

/// One parse failure mode; every variant degrades to a cache miss.
fn bad(msg: &str) -> SimError {
    SimError::BadConfig(format!("store record: {msg}"))
}

fn parse_field<T: std::str::FromStr>(s: &str, what: &str) -> SimResult<T> {
    s.parse().map_err(|_| bad(&format!("bad {what} `{s}`")))
}

fn parse_opt<T: std::str::FromStr>(s: &str, what: &str) -> SimResult<Option<T>> {
    if s == "-" {
        Ok(None)
    } else {
        parse_field(s, what).map(Some)
    }
}

/// The lines of a record's body, read in the order they were written.
type RecordLines<'a> = std::iter::Peekable<std::str::Lines<'a>>;

/// The rest of the record's next line, if that line carries `tag`.
fn optional<'a>(lines: &mut RecordLines<'a>, tag: &str) -> Option<&'a str> {
    let line: &'a str = lines.peek()?;
    let rest = line.strip_prefix(tag)?.strip_prefix(' ')?;
    lines.next();
    Some(rest)
}

/// The rest of the record's next line, which must carry `tag`.
fn required<'a>(lines: &mut RecordLines<'a>, tag: &str) -> SimResult<&'a str> {
    optional(lines, tag).ok_or_else(|| bad(&format!("expected a `{tag}` line")))
}

/// The `N` space-separated fields of a `tag` line's rest.
fn fields<'a, const N: usize>(rest: &'a str, tag: &str) -> SimResult<[&'a str; N]> {
    let f: Vec<&str> = rest.split_whitespace().collect();
    f.try_into()
        .map_err(|_| bad(&format!("{tag} line needs {N} fields")))
}

/// Parses and verifies record text back into a [`CellResult`].
///
/// The seal is checked before any field is read; the lines are then
/// read in the order [`encode_record`] writes them, and any other line
/// or order is a miss. `expect_identity` is the recomputed identity for
/// the probing campaign; a stored identity that differs (salt bump,
/// spec drift, a hash collision, tampering) is rejected. Summary and
/// coverage are rebuilt from the parsed samples and the live spec, so a
/// loaded result is indistinguishable from an executed one.
fn decode_record(
    text: &str,
    expect_identity: &str,
    spec: &SweepSpec,
    cell: &Cell,
) -> SimResult<CellResult> {
    let mut lines = unseal(text)?.lines().peekable();
    if lines.next() != Some(RECORD_HEADER) {
        return Err(bad("unknown header"));
    }
    if required(&mut lines, "identity")? != expect_identity {
        return Err(bad("identity mismatch"));
    }
    if required(&mut lines, "key")? != cell.key() {
        return Err(bad("key mismatch"));
    }
    let seed = parse_field(required(&mut lines, "seed")?, "seed")?;
    let runs = parse_field(required(&mut lines, "runs")?, "runs")?;
    let verdict =
        Verdict::parse(required(&mut lines, "verdict")?).ok_or_else(|| bad("unknown verdict"))?;
    let errors = parse_field(required(&mut lines, "errors")?, "errors")?;
    let hit_ratio = parse_opt(required(&mut lines, "hit_ratio")?, "hit ratio")?;
    let samples = required(&mut lines, "samples")?
        .split_whitespace()
        .map(|s| parse_field(s, "sample"))
        .collect::<SimResult<Vec<f64>>>()?;
    let ci = match required(&mut lines, "ci")? {
        "-" => None,
        rest => {
            let [lo, point, hi] = fields(rest, "ci")?;
            Some(Interval {
                lo: parse_field(lo, "ci lo")?,
                point: parse_field(point, "ci point")?,
                hi: parse_field(hi, "ci hi")?,
            })
        }
    };
    let open_loop = match optional(&mut lines, "open") {
        Some(rest) => {
            let [offered, dropped, p50, p99, p999, slo] = fields(rest, "open")?;
            Some(OpenCellStats {
                offered: parse_field(offered, "offered")?,
                dropped: parse_field(dropped, "dropped")?,
                p50: parse_opt(p50, "p50")?.map(Nanos::from_nanos),
                p99: parse_opt(p99, "p99")?.map(Nanos::from_nanos),
                p999: parse_opt(p999, "p999")?.map(Nanos::from_nanos),
                slo_max_rate: parse_opt(slo, "slo rate")?,
            })
        }
        None => None,
    };
    let ledger = match optional(&mut lines, "ledger") {
        Some(rest) => {
            let [attempted, succeeded, retried_ok, gave_up, dropped, retries, degraded] =
                fields(rest, "ledger")?;
            Some(rb_faults::OutcomeLedger {
                attempted: parse_field(attempted, "attempted")?,
                succeeded: parse_field(succeeded, "succeeded")?,
                retried_ok: parse_field(retried_ok, "retried_ok")?,
                gave_up: parse_field(gave_up, "gave_up")?,
                dropped: parse_field(dropped, "dropped")?,
                retries: parse_field(retries, "retries")?,
                degraded: Nanos::from_nanos(parse_field(degraded, "degraded")?),
                crash: optional(&mut lines, "crash")
                    .map(decode_crash)
                    .transpose()?,
            })
        }
        None => None,
    };
    if lines.next().is_some() {
        return Err(bad("unexpected line"));
    }
    let summary = Summary::from_sample(&samples).ok_or_else(|| bad("empty sample"))?;
    Ok(CellResult {
        cell: cell.clone(),
        coverage: cell_coverage(spec, cell)?,
        seed,
        samples,
        summary,
        ci,
        verdict,
        runs,
        hit_ratio,
        errors,
        open_loop,
        metrics: None,
        ledger,
    })
}

/// Parses the rest of a `crash` line.
fn decode_crash(rest: &str) -> SimResult<rb_faults::CrashReport> {
    let [at, mechanism, recovery, lost, consistent] = fields(rest, "crash")?;
    // `mechanism` is a &'static str on the live type; map the stored
    // label back onto the known constants.
    let mechanism = match mechanism {
        "journal-replay" => "journal-replay",
        "fsck-scan" => "fsck-scan",
        other => return Err(bad(&format!("unknown recovery mechanism `{other}`"))),
    };
    Ok(rb_faults::CrashReport {
        at: Nanos::from_nanos(parse_field(at, "crash at")?),
        mechanism,
        recovery: Nanos::from_nanos(parse_field(recovery, "recovery")?),
        lost_dirty_pages: parse_field(lost, "lost pages")?,
        consistent: parse_field(consistent, "consistent")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::run_cell;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rb-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn tiny_spec() -> SweepSpec {
        use crate::runner::RunPlan;
        let mut plan = RunPlan::quick(7);
        plan.duration = Nanos::from_millis(300);
        plan.window = Nanos::from_millis(50);
        SweepSpec {
            name: "store-tiny".into(),
            file_sizes: vec![rb_simcore::units::Bytes::mib(8)],
            plan,
            ..SweepSpec::default()
        }
    }

    #[test]
    fn identity_is_deterministic_and_salted() {
        let spec = tiny_spec();
        let cell = &spec.expand()[0];
        let a = cell_identity(&spec, cell, None);
        let b = cell_identity(&spec, cell, None);
        assert_eq!(a, b);
        assert!(a.contains(CODE_SALT));
        assert!(a.contains(&cell.key()));
        // A different campaign seed is a different identity.
        let mut other = tiny_spec();
        other.plan.base_seed = 8;
        assert_ne!(a, cell_identity(&other, &other.expand()[0], None));
        // So is a run cap.
        assert_ne!(a, cell_identity(&spec, cell, Some(3)));
    }

    #[test]
    fn record_round_trips_exactly() {
        let spec = tiny_spec();
        let cell = &spec.expand()[0];
        let live = run_cell(&spec, cell, None).expect("cell runs");
        let identity = cell_identity(&spec, cell, None);
        let text = encode_record(&identity, &live);
        let back = decode_record(&text, &identity, &spec, cell).expect("decodes");
        assert_eq!(back.samples, live.samples);
        assert_eq!(back.seed, live.seed);
        assert_eq!(back.runs, live.runs);
        assert_eq!(back.verdict, live.verdict);
        assert_eq!(back.errors, live.errors);
        assert_eq!(back.hit_ratio, live.hit_ratio);
        assert_eq!(back.summary.mean, live.summary.mean);
        assert_eq!(back.ci.map(|c| (c.lo, c.hi)), live.ci.map(|c| (c.lo, c.hi)));
        assert_eq!(back.coverage, live.coverage);
        assert_eq!(back.open_loop, live.open_loop);
        assert_eq!(back.ledger, live.ledger);
    }

    #[test]
    fn store_save_then_load_hits() {
        let dir = tmpdir("hit");
        let spec = tiny_spec();
        let cell = &spec.expand()[0];
        let store = ResultStore::open(&dir).expect("open");
        assert!(store.load(&spec, cell, None).is_none(), "cold store misses");
        let live = run_cell(&spec, cell, None).expect("cell runs");
        store.save(&spec, cell, None, &live).expect("save");
        let hit = store.load(&spec, cell, None).expect("warm store hits");
        assert_eq!(hit.samples, live.samples);
        assert_eq!(store.record_count(), 1);
        assert!(ResultStore::exists(&dir));
        let _ = fs::remove_dir_all(&dir);
    }

    /// Every single-bit flip and every truncation of a sealed record
    /// loads exactly the original result or misses, and none panics.
    /// The records cover an open-loop cell with an SLO, a crash ledger
    /// and both at once.
    #[test]
    fn damaged_records_load_the_original_or_miss() {
        let mut spec = tiny_spec();
        spec.filesystems = vec![crate::testbed::FsKind::Ext3];
        spec.arrivals = vec![crate::sched::Arrival::Closed];
        spec.arrivals
            .extend(crate::sched::Arrival::parse_axis("poisson:500").expect("arrival"));
        spec.faults = vec![
            None,
            Some(rb_faults::FaultSpec::parse("crash:100ms").expect("fault plan")),
        ];
        spec.slo_p99 = Some(Nanos::from_millis(50));
        let cells = spec.expand();
        assert_eq!(cells.len(), 4);
        for cell in &cells {
            let live = run_cell(&spec, cell, None).expect("cell runs");
            let original = format!("{live:?}");
            let identity = cell_identity(&spec, cell, None);
            let mut record = encode_record(&identity, &live).into_bytes();
            let check = |bytes: &[u8], what: &str| {
                let loaded = std::str::from_utf8(bytes)
                    .ok()
                    .and_then(|text| decode_record(text, &identity, &spec, cell).ok());
                if let Some(loaded) = loaded {
                    assert_eq!(format!("{loaded:?}"), original, "{}: {what}", cell.key());
                }
            };
            let intact = std::str::from_utf8(&record).expect("record text");
            let loaded = decode_record(intact, &identity, &spec, cell).expect("intact loads");
            assert_eq!(format!("{loaded:?}"), original, "{}: intact", cell.key());
            for bit in 0..record.len() * 8 {
                record[bit / 8] ^= 1 << (bit % 8);
                check(&record, &format!("bit {bit} flipped"));
                record[bit / 8] ^= 1 << (bit % 8);
            }
            for len in 0..record.len() {
                check(&record[..len], &format!("cut to {len} bytes"));
            }
        }
    }

    /// A record is read in the order it is written: resealed with two
    /// lines swapped, or with a line repeated, it misses.
    #[test]
    fn records_out_of_write_order_miss() {
        let spec = tiny_spec();
        let cell = &spec.expand()[0];
        let live = run_cell(&spec, cell, None).expect("cell runs");
        let identity = cell_identity(&spec, cell, None);
        let text = encode_record(&identity, &live);
        let lines: Vec<&str> = unseal(&text).expect("sealed").lines().collect();
        assert_eq!(
            lines[3..5],
            [
                &format!("seed {}", live.seed),
                &format!("runs {}", live.runs)
            ]
        );
        let load = |lines: &[&str]| {
            let body = lines.join("\n") + "\n";
            let seal = fnv1a(FNV_OFFSET, body.as_bytes());
            decode_record(&format!("{body}end {seal:016x}\n"), &identity, &spec, cell)
        };
        assert!(load(&lines).is_ok(), "the resealed original loads");
        let mut swapped = lines.clone();
        swapped.swap(3, 4);
        assert!(load(&swapped).is_err(), "seed and runs swapped");
        let mut repeated = lines.clone();
        repeated.push(lines[3]);
        assert!(load(&repeated).is_err(), "seed repeated");
    }

    /// `exists` is the `--resume` precondition: a missing or empty
    /// directory holds no store, and `open` makes one before any save.
    #[test]
    fn exists_once_opened_even_before_a_save() {
        let dir = tmpdir("exists");
        assert!(!ResultStore::exists(&dir), "missing directory");
        fs::create_dir_all(&dir).expect("mkdir");
        assert!(!ResultStore::exists(&dir), "empty directory");
        let store = ResultStore::open(&dir).expect("open");
        assert!(ResultStore::exists(&dir), "opened store");
        assert_eq!(store.record_count(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn tampered_record_degrades_to_miss() {
        let dir = tmpdir("tamper");
        let spec = tiny_spec();
        let cell = &spec.expand()[0];
        let store = ResultStore::open(&dir).expect("open");
        let live = run_cell(&spec, cell, None).expect("cell runs");
        store.save(&spec, cell, None, &live).expect("save");
        // Rewrite the record with a foreign identity at the same
        // address: verification must reject it.
        let path = store.record_path(digest(&cell_identity(&spec, cell, None)));
        let forged = encode_record("salt=other;cell=whatever", &live);
        fs::write(&path, forged).expect("forge");
        assert!(store.load(&spec, cell, None).is_none());
        let _ = fs::remove_dir_all(&dir);
    }
}
