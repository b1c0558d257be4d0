//! The `rocketbench` command-line tool.
//!
//! Runs workload personalities against the simulated testbed or a real
//! directory, executes the nano-benchmark suite, regenerates Table 1,
//! and records/replays portable traces. Run `rocketbench help` for
//! usage.

use rb_core::analysis::Regime;
use rb_core::campaign::{Personality, SweepSpec, TraceSource};
use rb_core::prelude::*;
use rb_obs::{ObsConfig, TraceConfig};
use rb_replay::{
    characterize, merge, replay_with, Recorder, ReplayConfig, Timing, Trace, Transform,
};
use rb_simcore::time::Nanos;
use rb_simcore::units::Bytes;
use std::process::ExitCode;

/// Parsed command-line options (flag → value).
#[derive(Debug, Default)]
struct Opts {
    flags: std::collections::HashMap<String, String>,
}

impl Opts {
    fn parse(args: &[String]) -> Result<Opts, String> {
        let mut flags = std::collections::HashMap::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let Some(name) = a.strip_prefix("--") else {
                return Err(format!("unexpected argument {a:?}"));
            };
            let value = it
                .next()
                .ok_or_else(|| format!("--{name} needs a value"))?
                .clone();
            flags.insert(name.to_string(), value);
        }
        Ok(Opts { flags })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }
}

/// Parses sizes like `64M`, `1G`, `8192K`, `4096`.
fn parse_size(s: &str) -> Result<Bytes, String> {
    let s = s.trim();
    let (digits, mult) = match s.chars().last() {
        Some('K') | Some('k') => (&s[..s.len() - 1], 1024u64),
        Some('M') | Some('m') => (&s[..s.len() - 1], 1024 * 1024),
        Some('G') | Some('g') => (&s[..s.len() - 1], 1024 * 1024 * 1024),
        _ => (s, 1),
    };
    digits
        .parse::<u64>()
        .map(|n| Bytes::new(n * mult))
        .map_err(|e| format!("bad size {s:?}: {e}"))
}

/// Builds the flight-recorder configuration from `--metrics true`,
/// `--trace-out FILE` and `--trace-sample N`. All observability is
/// opt-in: with none of the flags the engine runs with the recorder
/// fully off and output stays byte-identical.
fn parse_obs(opts: &Opts) -> Result<ObsConfig, String> {
    let metrics = opts.get("metrics").is_some_and(|v| v == "true");
    let trace = match opts.get("trace-out") {
        Some(_) => {
            let sample_every = opts
                .get("trace-sample")
                .map(|v| match v.parse::<u64>() {
                    Ok(n) if n > 0 => Ok(n),
                    _ => Err(format!("bad --trace-sample: {v:?} is not a positive count")),
                })
                .transpose()?
                .unwrap_or(1);
            Some(TraceConfig { sample_every })
        }
        None => {
            if opts.get("trace-sample").is_some() {
                return Err("--trace-sample only applies with --trace-out".into());
            }
            None
        }
    };
    Ok(ObsConfig { metrics, trace })
}

/// Writes a span trace as Chrome trace-event JSON, creating parent
/// directories as needed.
fn write_trace(path: &str, trace: &rb_obs::SpanTrace) -> Result<(), String> {
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("cannot create {parent:?}: {e}"))?;
        }
    }
    std::fs::write(path, trace.to_chrome_json()).map_err(|e| e.to_string())?;
    eprintln!(
        "wrote {} span events ({} of {} ops sampled) to {path}",
        trace.events.len(),
        trace.sampled,
        trace.seen
    );
    Ok(())
}

/// Parses durations like `30s`, `5m`, `90`.
fn parse_duration(s: &str) -> Result<Nanos, String> {
    let s = s.trim();
    let (digits, mult) = match s.chars().last() {
        Some('s') => (&s[..s.len() - 1], 1u64),
        Some('m') => (&s[..s.len() - 1], 60),
        _ => (s, 1),
    };
    digits
        .parse::<u64>()
        .map(|n| Nanos::from_secs(n * mult))
        .map_err(|e| format!("bad duration {s:?}: {e}"))
}

/// Builds a target from `sim:ext2` / `sim:ext3` / `sim:xfs` /
/// `real:<path>`.
fn make_target(spec: &str, device: Bytes, seed: u64) -> Result<Box<dyn Target>, String> {
    match spec.split_once(':') {
        Some(("sim", fs)) => {
            let kind = parse_fs(fs)?;
            Ok(Box::new(rb_core::testbed::paper_fs(kind, device, seed)))
        }
        Some(("real", path)) => RealFsTarget::new(path)
            .map(|t| Box::new(t) as Box<dyn Target>)
            .map_err(|e| format!("cannot open {path:?}: {e}")),
        _ => Err(format!(
            "bad target {spec:?}; expected sim:ext2|sim:ext3|sim:xfs|real:<dir>"
        )),
    }
}

fn make_workload(name: &str, size: Bytes, files: u64) -> Result<Workload, String> {
    Ok(match name {
        "randomread" => personalities::random_read(size),
        "seqread" => personalities::sequential_read(size),
        "randomwrite" => personalities::random_write(size),
        "webserver" => personalities::webserver(files),
        "fileserver" => personalities::fileserver(files),
        "varmail" => personalities::varmail(files),
        "postmark" => personalities::postmark(files),
        "metadata" => personalities::metadata_only(files),
        other => return Err(format!("unknown workload {other:?}")),
    })
}

fn cmd_bench(opts: &Opts) -> Result<(), String> {
    let target_spec = opts.get("target").unwrap_or("sim:ext2");
    let workload_name = opts.get("workload").unwrap_or("randomread");
    let size = parse_size(opts.get("size").unwrap_or("64M"))?;
    let files = opts
        .get("files")
        .map(|f| f.parse::<u64>().map_err(|e| e.to_string()))
        .transpose()?
        .unwrap_or(100);
    let duration = parse_duration(opts.get("duration").unwrap_or("30s"))?;
    let seed = opts
        .get("seed")
        .map(|s| s.parse::<u64>().map_err(|e| e.to_string()))
        .transpose()?
        .unwrap_or(0);
    let device = Bytes::new((size.as_u64() * 3).max(Bytes::gib(1).as_u64()));

    let arrival = match opts.get("arrival") {
        Some(a) => Arrival::parse(a).map_err(|e| format!("--arrival: {e}"))?,
        None => Arrival::Closed,
    };
    let (faults, retry) = parse_faults(opts)?;

    let obs = parse_obs(opts)?;
    let mut target = make_target(target_spec, device, seed)?;
    let workload = make_workload(workload_name, size, files)?;
    let config = EngineConfig {
        duration,
        window: Nanos::from_secs(5),
        seed,
        cold_start: opts.get("warm").is_none(),
        prewarm: opts.get("prewarm").is_some_and(|v| v == "true"),
        arrival,
        obs,
        faults,
        retry,
        ..Default::default()
    };
    eprintln!(
        "running {} on {} for {}...",
        workload.name,
        target.name(),
        duration
    );
    let rec = Engine::run(target.as_mut(), &workload, &config).map_err(|e| e.to_string())?;

    println!("target:     {}", target.name());
    println!("workload:   {}", workload.name);
    println!("ops:        {} ({} errors)", rec.ops, rec.errors);
    println!("throughput: {:.1} ops/s", rec.ops_per_sec());
    if let Some(h) = rec.hit_ratio {
        println!("hit ratio:  {h:.4}");
    }
    if let Some(open) = &rec.open_loop {
        let ms = |v: Option<Nanos>| match v {
            Some(n) => format!("{:.3} ms", n.as_secs_f64() * 1e3),
            None => "-".into(),
        };
        println!("arrival:    {}", open.arrival.label());
        println!(
            "offered:    {} ({} completed, {} failed, {} dropped)",
            open.offered, open.completed, open.failed, open.dropped
        );
        println!(
            "latency:    p50 {}  p99 {}  p999 {}",
            ms(open.p50),
            ms(open.p99),
            ms(open.p999)
        );
        println!(
            "queue:      max depth {} (drop ratio {:.4})",
            open.max_queue_depth,
            open.drop_ratio()
        );
    }
    if let Some(ledger) = &rec.ledger {
        println!("{}", ledger.render());
    }
    println!("regime:     {}", Regime::classify(&rec).label());
    println!();
    println!("latency profile (the number the paper wants you to show):");
    let lo = rec.histogram.min_bucket().unwrap_or(0);
    let hi = (rec.histogram.max_bucket().unwrap_or(24) + 2).min(40);
    print!("{}", rec.histogram.render_ascii(lo, hi, 44));
    println!();
    println!("throughput timeline:");
    let ys: Vec<f64> = rec.windows.iter().map(|w| w.ops_per_sec).collect();
    println!("  {}", rb_core::report::sparkline(&ys));
    if let Some(m) = &rec.metrics {
        println!();
        print!("{}", m.render_explain());
    }
    if let Some(path) = opts.get("trace-out") {
        let trace = rec
            .trace
            .as_ref()
            .ok_or("trace requested but the engine recorded none")?;
        write_trace(path, trace)?;
    }
    Ok(())
}

/// Parses `--faults SPEC` and `--retry POLICY` into an engine fault
/// plan. Malformed values come back as one-line errors — the CLI never
/// panics on bad fault syntax.
fn parse_faults(
    opts: &Opts,
) -> Result<(Option<rb_faults::FaultSpec>, rb_faults::RetryPolicy), String> {
    let faults = match opts.get("faults") {
        Some(f) => rb_faults::FaultSpec::parse_flag(f).map_err(|e| format!("--faults: {e}"))?,
        None => None,
    };
    let retry = match opts.get("retry") {
        Some(r) => rb_faults::RetryPolicy::parse(r).map_err(|e| format!("--retry: {e}"))?,
        None => rb_faults::RetryPolicy::None,
    };
    if faults.is_none() && retry != rb_faults::RetryPolicy::None && opts.get("faults").is_none() {
        return Err("--retry only applies with --faults".into());
    }
    Ok((faults, retry))
}

/// Splits a comma-separated flag value and parses each element.
fn parse_list<T>(s: &str, parse: impl Fn(&str) -> Result<T, String>) -> Result<Vec<T>, String> {
    s.split(',')
        .map(str::trim)
        .filter(|p| !p.is_empty())
        .map(parse)
        .collect()
}

fn parse_fs(name: &str) -> Result<FsKind, String> {
    match name {
        "ext2" => Ok(FsKind::Ext2),
        "ext3" => Ok(FsKind::Ext3),
        "xfs" => Ok(FsKind::Xfs),
        other => Err(format!("unknown fs {other:?}")),
    }
}

/// Builds the repetition protocol from `--protocol`, `--runs`, `--ci`,
/// `--min-runs`, `--max-runs` and `--confidence` via the shared
/// [`Protocol::from_flags`] parser. The fixed-protocol default of 3
/// runs matches `RunPlan::quick`'s smoke protocol.
fn parse_protocol(opts: &Opts) -> Result<Protocol, String> {
    let flags = rb_core::runner::ProtocolFlags {
        protocol: opts.get("protocol"),
        runs: opts.get("runs"),
        ci: opts.get("ci"),
        min_runs: opts.get("min-runs"),
        max_runs: opts.get("max-runs"),
        confidence: opts.get("confidence"),
    };
    Protocol::from_flags(&flags, 3)
}

/// Loads `--traces` files as sweep sources, each named by its file stem
/// and replayed under the shared `--trace-timing` policy.
fn parse_trace_sources(opts: &Opts) -> Result<Vec<TraceSource>, String> {
    let Some(spec) = opts.get("traces") else {
        return Ok(Vec::new());
    };
    let timing = match opts.get("trace-timing") {
        Some(t) => Timing::parse(t).map_err(|e| format!("--trace-timing: {e}"))?,
        None => Timing::Afap,
    };
    let sources = parse_list(spec, |path| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let trace = Trace::from_text(&text).map_err(|e| format!("{path}: {e}"))?;
        let name = std::path::Path::new(path)
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or(path)
            .to_string();
        Ok(TraceSource::new(name, trace, timing))
    })?;
    // The stem is the cell identity; two files sharing one stem would
    // silently dedup to a single cell. Refuse instead.
    for (i, a) in sources.iter().enumerate() {
        if sources[..i].iter().any(|b| b.name == a.name) {
            return Err(format!(
                "duplicate trace name {:?} in --traces (cells are keyed by \
                 file stem); rename one of the files",
                a.name
            ));
        }
    }
    Ok(sources)
}

fn cmd_sweep(opts: &Opts) -> Result<(), String> {
    let traces = parse_trace_sources(opts)?;
    if opts.get("trace-timing").is_some() && traces.is_empty() {
        return Err("--trace-timing only applies with --traces".into());
    }
    // With trace sources and no explicit --workloads, sweep the traces
    // alone instead of silently adding the personality default.
    let workloads = match opts.get("workloads") {
        Some(w) => w,
        None if !traces.is_empty() => "",
        None => "randomread",
    };
    let personalities = parse_list(workloads, |w| {
        Personality::parse(w).ok_or_else(|| {
            let known: Vec<&str> = Personality::ALL.iter().map(|p| p.name()).collect();
            format!("unknown workload {w:?}; known: {}", known.join(","))
        })
    })?;
    let file_sizes = parse_list(opts.get("sizes").unwrap_or("64M,256M,768M"), parse_size)?;
    let file_counts = parse_list(opts.get("files").unwrap_or("100"), |f| {
        f.parse::<u64>()
            .map_err(|e| format!("bad file count {f:?}: {e}"))
    })?;
    let filesystems = parse_list(opts.get("fs").unwrap_or("ext2,ext3,xfs"), parse_fs)?;
    let cache_capacities = parse_list(opts.get("cache").unwrap_or("410M"), parse_size)?;
    let processes = parse_list(opts.get("processes").unwrap_or("1"), |p| {
        match p.parse::<u32>() {
            Ok(n) if n > 0 => Ok(n),
            _ => Err(format!(
                "bad process count {p:?}; expected a positive integer"
            )),
        }
    })?;
    // Each --arrival entry is a single mode or a declarative rate
    // ladder (`poisson:1000..16000x2`) that expands into one rung per
    // rate; the grid dedup then treats every rung as its own axis value.
    let arrivals: Vec<Arrival> = parse_list(opts.get("arrival").unwrap_or("closed"), |a| {
        Arrival::parse_axis(a).map_err(|e| format!("--arrival: {e}"))
    })?
    .into_iter()
    .flatten()
    .collect();
    // The fault axis: commas separate axis values, `+` joins the
    // components of one plan (`none,slow-disk:4x+eio:1e-4` is two
    // cells: healthy, and slow-plus-flaky).
    let faults = match opts.get("faults") {
        Some(spec) => parse_list(spec, |f| {
            rb_faults::FaultSpec::parse_flag(&f.replace('+', ","))
                .map_err(|e| format!("--faults: {e}"))
        })?,
        None => Vec::new(),
    };
    let retry = match opts.get("retry") {
        Some(r) => rb_faults::RetryPolicy::parse(r).map_err(|e| format!("--retry: {e}"))?,
        None => rb_faults::RetryPolicy::None,
    };
    if retry != rb_faults::RetryPolicy::None && faults.iter().all(|f| f.is_none()) {
        return Err("--retry only applies with a faulted --faults axis".into());
    }
    let slo_p99 = opts
        .get("slo-p99")
        .map(|v| match v.trim().parse::<f64>() {
            Ok(ms) if ms > 0.0 => Ok(Nanos::from_secs_f64(ms / 1e3)),
            _ => Err(format!(
                "bad --slo-p99: {v:?} is not a positive latency in ms"
            )),
        })
        .transpose()?;
    if slo_p99.is_some() && !arrivals.iter().any(|a| a.is_open()) {
        return Err("--slo-p99 only applies with an open-loop --arrival".into());
    }
    let seed = opts
        .get("seed")
        .map(|s| s.parse::<u64>().map_err(|e| e.to_string()))
        .transpose()?
        .unwrap_or(0);
    let mut plan = RunPlan::quick(seed);
    plan.protocol = parse_protocol(opts)?;
    // Opt-in flight-recorder columns; reports without the flag stay
    // byte-identical.
    plan.obs.metrics = opts.get("metrics").is_some_and(|v| v == "true");
    let run_budget = opts
        .get("budget")
        .map(|b| match b.parse::<u64>() {
            Ok(n) if n > 0 => Ok(n),
            _ => Err(format!("bad --budget: {b:?} is not a positive run count")),
        })
        .transpose()?;
    if let Some(d) = opts.get("duration") {
        plan.duration = parse_duration(d)?;
    }
    if let Some(w) = opts.get("window") {
        plan.window = parse_duration(w)?;
    }
    if let Some(j) = opts.get("jitter") {
        plan.cache_jitter = parse_size(j)?;
    }
    let jobs = match opts.get("jobs") {
        Some(j) => j.parse::<usize>().map_err(|e| format!("bad --jobs: {e}"))?,
        None => std::thread::available_parallelism()
            .map(usize::from)
            .unwrap_or(1),
    };
    if jobs == 0 {
        return Err("--jobs must be at least 1".into());
    }
    // Validate output options before burning minutes on the campaign.
    let format = opts.get("format").unwrap_or("ascii");
    if !matches!(format, "ascii" | "csv" | "json") {
        return Err(format!("unknown format {format:?}; use ascii|csv|json"));
    }
    // The content-addressed result store: finished cells stream to
    // `--store DIR` and unchanged cells are served from it on rerun.
    let store_dir = opts.get("store");
    let no_cache = opts.get("no-cache").is_some_and(|v| v == "true");
    let resume = opts.get("resume").is_some_and(|v| v == "true");
    if (no_cache || resume) && store_dir.is_none() {
        return Err("--no-cache and --resume require --store DIR".into());
    }
    if no_cache && resume {
        return Err("--no-cache contradicts --resume (resuming is cache hits)".into());
    }
    if resume {
        let dir = std::path::Path::new(store_dir.expect("checked: resume requires store"));
        if !rb_core::store::ResultStore::exists(dir) {
            return Err(format!(
                "nothing to resume: {} holds no store manifest",
                dir.display()
            ));
        }
    }
    let campaign_opts = CampaignOptions {
        store: store_dir.map(|dir| StoreOptions {
            dir: dir.into(),
            read_cache: !no_cache,
        }),
    };
    let spec = SweepSpec {
        name: opts.get("name").unwrap_or("sweep").to_string(),
        personalities,
        traces,
        file_sizes,
        file_counts,
        filesystems,
        cache_capacities,
        processes,
        arrivals,
        faults,
        retry,
        slo_p99,
        plan,
        device: parse_size(opts.get("device").unwrap_or("2G"))?,
        run_budget,
    };
    let n_cells = spec.expand().len();
    eprintln!(
        "sweeping {} cells under {} on {} worker(s)...",
        n_cells, spec.plan.protocol, jobs
    );
    let run = run_campaign_with(&spec, jobs, &campaign_opts).map_err(|e| e.to_string())?;
    if let Some(dir) = store_dir {
        // Machine-parseable accounting line: the resume-smoke CI job
        // asserts `executed=0` on a warm rerun.
        eprintln!(
            "store: cells={} cached={} executed={} ({dir})",
            run.stats.expanded, run.stats.cached, run.stats.executed
        );
    }
    let report = run.report;
    let rendered = match format {
        "csv" => report.to_csv(),
        "json" => report.to_json().to_string(),
        _ => report.render(),
    };
    match opts.get("out") {
        Some(path) => {
            std::fs::write(path, &rendered).map_err(|e| e.to_string())?;
            eprintln!("wrote {path}");
        }
        None => print!("{rendered}"),
    }
    Ok(())
}

/// Runs one cell with the flight recorder on and renders the
/// explain-your-number report: every layer's contribution to the
/// throughput/latency figure, with the parts shown summing back to the
/// recorded totals.
fn cmd_explain(opts: &Opts) -> Result<(), String> {
    let target_spec = opts.get("target").unwrap_or("sim:ext2");
    let workload_name = opts.get("workload").unwrap_or("fileserver");
    let size = parse_size(opts.get("size").unwrap_or("64M"))?;
    let files = opts
        .get("files")
        .map(|f| f.parse::<u64>().map_err(|e| e.to_string()))
        .transpose()?
        .unwrap_or(100);
    let duration = parse_duration(opts.get("duration").unwrap_or("15s"))?;
    let seed = opts
        .get("seed")
        .map(|s| s.parse::<u64>().map_err(|e| e.to_string()))
        .transpose()?
        .unwrap_or(0);
    // Default to 4 processes: contention is what makes the latency
    // decomposition informative. `--processes 1` explains the serial
    // engine instead (layer counters only).
    let processes = opts
        .get("processes")
        .map(|p| match p.parse::<u32>() {
            Ok(n) if n > 0 => Ok(n),
            _ => Err(format!(
                "bad process count {p:?}; expected a positive integer"
            )),
        })
        .transpose()?
        .unwrap_or(4);
    let arrival = match opts.get("arrival") {
        Some(a) => Arrival::parse(a).map_err(|e| format!("--arrival: {e}"))?,
        None => Arrival::Closed,
    };
    let device = Bytes::new((size.as_u64() * 3).max(Bytes::gib(1).as_u64()));
    let mut target = make_target(target_spec, device, seed)?;
    let workload = make_workload(workload_name, size, files)?;
    let config = EngineConfig {
        duration,
        window: Nanos::from_secs(5),
        seed,
        cold_start: opts.get("warm").is_none(),
        prewarm: opts.get("prewarm").is_some_and(|v| v == "true"),
        processes,
        arrival,
        obs: ObsConfig {
            metrics: true,
            trace: None,
        },
        ..Default::default()
    };
    eprintln!(
        "explaining {} on {} ({} process(es), {})...",
        workload.name,
        target.name(),
        processes,
        duration
    );
    let rec = Engine::run(target.as_mut(), &workload, &config).map_err(|e| e.to_string())?;
    println!("target:     {}", target.name());
    println!("workload:   {}", workload.name);
    println!(
        "throughput: {:.1} ops/s ({} ops, {} errors)",
        rec.ops_per_sec(),
        rec.ops,
        rec.errors
    );
    println!();
    let m = rec
        .metrics
        .ok_or("the run produced no metrics snapshot (recorder off?)")?;
    print!("{}", m.render_explain());
    Ok(())
}

fn cmd_nano(opts: &Opts) -> Result<(), String> {
    let kind = parse_fs(opts.get("fs").unwrap_or("ext2"))?;
    let config = if opts.get("quick").is_some_and(|v| v == "true") {
        NanoConfig::quick()
    } else {
        NanoConfig::default()
    };
    let report = rb_core::nano::run_suite(kind, &config).map_err(|e| e.to_string())?;
    print!("{}", rb_core::nano::render_report(&report));
    Ok(())
}

fn cmd_table1() -> Result<(), String> {
    print!("{}", render_table1(&table1()));
    Ok(())
}

fn cmd_trace(args: &[String]) -> Result<(), String> {
    let sub = args.first().map(String::as_str).unwrap_or("");
    let opts = Opts::parse(&args[1.min(args.len())..])?;
    match sub {
        "record" => {
            let out = opts.get("out").ok_or("trace record needs --out FILE")?;
            let workload_name = opts.get("workload").unwrap_or("varmail");
            let size = parse_size(opts.get("size").unwrap_or("8M"))?;
            let duration = parse_duration(opts.get("duration").unwrap_or("5s"))?;
            let workload = make_workload(workload_name, size, 25)?;
            let mut target = rb_core::testbed::paper_ext2(Bytes::gib(1), 0);
            let mut recorder = Recorder::new(&mut target);
            let config = EngineConfig {
                duration,
                window: Nanos::from_secs(1),
                seed: 0,
                cold_start: false,
                prewarm: false,
                ..Default::default()
            };
            Engine::run(&mut recorder, &workload, &config).map_err(|e| e.to_string())?;
            let trace = recorder.finish();
            let text = trace.to_text().map_err(|e| e.to_string())?;
            std::fs::write(out, text).map_err(|e| e.to_string())?;
            println!(
                "recorded {} ops ({}) to {out}",
                trace.len(),
                trace.version.label()
            );
            Ok(())
        }
        "replay" => {
            let input = opts.get("in").ok_or("trace replay needs --in FILE")?;
            let target_spec = opts.get("target").unwrap_or("sim:ext2");
            let timing = match opts.get("timing") {
                Some(t) => Timing::parse(t).map_err(|e| format!("--timing: {e}"))?,
                None => Timing::Afap,
            };
            let seed = opts
                .get("seed")
                .map(|s| s.parse::<u64>().map_err(|e| e.to_string()))
                .transpose()?
                .unwrap_or(0);
            let text = std::fs::read_to_string(input).map_err(|e| e.to_string())?;
            let trace = Trace::from_text(&text).map_err(|e| e.to_string())?;
            let mut target = make_target(target_spec, Bytes::gib(1), 0)?;
            let result = replay_with(target.as_mut(), &trace, &ReplayConfig { timing, seed });
            println!(
                "replayed {} ops ({} errors) in {} on {}",
                result.ops,
                result.errors,
                result.duration,
                target.name()
            );
            // A failing replay must fail the command: the summary above
            // is printed either way, but CI scripting needs the exit
            // code — and the operator needs to know *what* failed first.
            match result.first_error {
                Some(first) if result.errors > 0 => Err(format!(
                    "replay finished with {} failed op(s); first failure: {first}",
                    result.errors
                )),
                _ => Ok(()),
            }
        }
        "stats" => {
            let input = opts.get("in").ok_or("trace stats needs --in FILE")?;
            let text = std::fs::read_to_string(input).map_err(|e| e.to_string())?;
            let trace = Trace::from_text(&text).map_err(|e| e.to_string())?;
            print!("{}", characterize(&trace).render());
            Ok(())
        }
        "transform" => {
            let input = opts.get("in").ok_or("trace transform needs --in FILE")?;
            let out = opts.get("out").ok_or("trace transform needs --out FILE")?;
            let text = std::fs::read_to_string(input).map_err(|e| e.to_string())?;
            let mut trace = Trace::from_text(&text).map_err(|e| e.to_string())?;
            let before = trace.len();
            if let Some(extra) = opts.get("merge") {
                let mut traces = vec![trace];
                for path in extra.split(',').map(str::trim).filter(|p| !p.is_empty()) {
                    let text = std::fs::read_to_string(path)
                        .map_err(|e| format!("cannot read {path}: {e}"))?;
                    traces.push(Trace::from_text(&text).map_err(|e| format!("{path}: {e}"))?);
                }
                trace = merge(&traces);
            }
            let mut pipeline = Vec::new();
            if let Some(verbs) = opts.get("keep-ops") {
                pipeline.push(Transform::KeepOps(
                    verbs.split(',').map(|v| v.trim().to_string()).collect(),
                ));
            }
            if let Some(prefix) = opts.get("keep-prefix") {
                pipeline.push(Transform::KeepPrefix(prefix.to_string()));
            }
            if let Some(remap) = opts.get("remap") {
                let (from, to) = remap
                    .split_once('=')
                    .ok_or_else(|| format!("bad --remap {remap:?}; expected FROM=TO"))?;
                pipeline.push(Transform::Remap {
                    from: from.to_string(),
                    to: to.to_string(),
                });
            }
            if let Some(clones) = opts.get("scale") {
                let clones = clones
                    .parse::<u32>()
                    .map_err(|e| format!("bad --scale: {e}"))?;
                pipeline.push(Transform::Scale { clones });
            }
            let transformed = rb_replay::apply(&trace, &pipeline).map_err(|e| e.to_string())?;
            let text = transformed.to_text().map_err(|e| e.to_string())?;
            std::fs::write(out, text).map_err(|e| e.to_string())?;
            println!(
                "transformed {} -> {} ops ({}) to {out}",
                before,
                transformed.len(),
                transformed.version.label()
            );
            Ok(())
        }
        other => Err(format!(
            "unknown trace subcommand {other:?}; use record|replay|stats|transform"
        )),
    }
}

fn usage() -> &'static str {
    "rocketbench — statistically rigorous file system benchmarking

USAGE:
  rocketbench bench  [--target sim:ext2|sim:ext3|sim:xfs|real:<dir>]
                     [--workload randomread|seqread|randomwrite|webserver|
                                 fileserver|varmail|postmark|metadata]
                     [--size 64M] [--files 100] [--duration 30s]
                     [--seed 0] [--prewarm true] [--warm true]
                     [--arrival closed|poisson:RATE|bursty:RATE|diurnal:RATE]
                     [--faults slow-disk:4x,eio:1e-4,...] [--retry none|bounded:N|continue]
                     [--metrics true] [--trace-out FILE] [--trace-sample N]
  rocketbench explain [--target sim:ext2|...] [--workload fileserver|...]
                     [--size 64M] [--files 100] [--duration 15s]
                     [--processes 4] [--seed 0] [--prewarm true] [--warm true]
                     [--arrival closed|poisson:RATE|...]
  rocketbench sweep  [--workloads randomread,varmail,...] [--sizes 64M,256M,768M]
                     [--files 100,1000] [--fs ext2,ext3,xfs] [--cache 410M,256M]
                     [--processes 1,2,4,8]
                     [--arrival closed,poisson:RATE,poisson:LO..HIxF,...]
                     [--faults none,slow-disk:4x+eio:1e-4,...]
                     [--retry none|bounded:N|continue]
                     [--slo-p99 MS]
                     [--traces a.trace,b.trace] [--trace-timing afap|faithful|scaled=N]
                     [--protocol fixed|adaptive] [--runs 3]
                     [--ci 2%] [--min-runs 5] [--max-runs 30]
                     [--confidence 95%] [--budget RUNS]
                     [--duration 15s] [--window 3s] [--jitter 3M]
                     [--jobs N] [--seed 0] [--device 2G] [--name NAME]
                     [--format ascii|csv|json] [--out FILE] [--metrics true]
                     [--store DIR] [--no-cache true] [--resume true]
  rocketbench nano   [--fs ext2|ext3|xfs] [--quick true]
  rocketbench table1
  rocketbench trace  record --out FILE [--workload varmail] [--duration 5s]
  rocketbench trace  replay --in FILE [--target sim:xfs]
                     [--timing afap|faithful|scaled=N] [--seed 0]
  rocketbench trace  stats --in FILE
  rocketbench trace  transform --in FILE --out FILE [--merge FILE2,...]
                     [--keep-ops read,write] [--keep-prefix /mail]
                     [--remap /mail=/spool] [--scale CLONES]
  rocketbench version | --version
  rocketbench help

`sweep` runs the declarative campaign engine: the cross product of
--workloads x --sizes (or --files for fileset workloads) x --fs x
--cache x --processes, each cell run under the chosen protocol with
per-cell deterministic seeds, sharded over --jobs worker threads.
--processes is the paper's scaling dimension: cells above 1 drive that
many closed-loop workers through the discrete-event scheduler
(contending for cores and the shared disk) and reports grow a
`processes` column; cells at 1 run the classic serial engine with
byte-identical output. --arrival adds the open-loop dimension: cells
with poisson:RATE / bursty:RATE / diurnal:RATE offer RATE ops/s from a
seeded arrival process into a bounded queue regardless of completions —
the regime where queueing delay (and the latency hockey stick) is
visible — and reports grow arrival/offered/dropped/p50/p99/p999
columns; closed cells keep byte-identical pre-axis output. With
--slo-p99 MS every open cell also reports the maximum offered load
sustaining p99 <= MS, found by deterministic bisection over the rate.
--faults adds the robustness dimension: each axis value is a fault plan
(none = healthy; `+` joins components of one plan, e.g.
slow-disk:4x+eio:1e-4; components are slow-disk:Nx, stall:EVERY/DUR,
eio:P, eio-sticky:P, enospc:PCT%, crash:DUR) injected deterministically
from the cell seed, with --retry choosing how engines respond (none =
abort on error, bounded:N = up to N retries with virtual-time backoff,
continue = drop the op and move on). Faulted reports grow a faults
column plus the outcome ledger (attempted = ok + retried-ok + gave-up +
dropped) and a crash verdict; healthy cells keep byte-identical
pre-axis output. See docs/FAULTS.md.
An --arrival entry may also be a rate ladder KIND:LO..HIxF — the
geometric sequence LO, LO*F, ... capped at HI, each rung its own axis
value (poisson:1000..16000x2 is five cells per grid point).
Trace files given via --traces become
additional cells (trace x fs x cache), each replayed under
--trace-timing with verdict/CI columns like any other cell; with
--traces and no --workloads, only the traces sweep.

--store DIR streams every finished cell to a content-addressed result
store (one fsync'd record per cell plus an append-only manifest) and
serves unchanged cells from it on rerun: a warm rerun of an unchanged
sweep executes 0 cells, and editing one axis value re-executes only the
new column of the grid. Records are addressed by a hash of (cell key,
campaign seed, protocol, code-version salt), verified on load, and
report bytes are identical whether cells came from cache or live runs.
--no-cache true executes everything but still refreshes the store;
--resume true picks an interrupted campaign back up from the same
store. See docs/CAMPAIGNS.md.

The flight recorder is opt-in everywhere and never perturbs a run.
`bench --metrics true` appends the per-layer breakdown to the report;
`bench --trace-out FILE` writes sampled op lifecycles (arrive -> issue
-> cpu -> device -> done) as Chrome trace-event JSON, loadable in
Perfetto or chrome://tracing, with `--trace-sample N` keeping every
N-th op. `explain` runs one cell with metrics on and reports where the
number came from: cache hit ratio, device busy share, and the exact
latency decomposition (core wait / think / cpu / queue wait / device)
summing back to the recorded total. `sweep --metrics true` adds
dev_busy_pct / qwait_pct / seeks / journal_commits / writeback_flushed
columns to CSV and a `metrics` object to JSON.

`trace` makes workloads portable artifacts: `record` captures any
workload run as a v2 trace (ops stamped with stream ids and relative
timestamps; the parser still reads v1), `replay` executes one under a
timing policy (afap = peak capacity, faithful = the recorded load,
scaled=N = temporal what-if) and exits non-zero if any op fails,
`stats` prints the characterization report (op mix, working set,
sequentiality, inter-arrival histogram), and `transform` derives new
scenarios (merge, filter, remap, spatial scale) from captured ones.

  --protocol fixed     exactly --runs repetitions per cell (default 3)
  --protocol adaptive  convergence-driven: at least --min-runs, stop as
                       soon as the bootstrap CI on the mean is narrower
                       than --ci (relative, at --confidence), give up at
                       --max-runs; every cell reports a verdict
                       (converged | max-runs | mixed-regime)
  --budget RUNS        shared run budget, divided evenly across cells

The report carries per-cell run counts, bootstrap CIs and verdicts in
all formats, groups results by the paper's Section 2 dimensions, and is
byte-identical at any --jobs value.

Paper-figure regenerators live in rb-bench:
  cargo run -p rb-bench --release --bin fig1|fig1zoom|fig2|fig3|fig4|scaling
  (fig1/fig1zoom accept --jobs N and run as sharded campaigns)
"
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.split_first() {
        Some((c, r)) => (c.as_str(), r),
        None => ("help", &[] as &[String]),
    };
    let result = match cmd {
        "bench" => Opts::parse(rest).and_then(|o| cmd_bench(&o)),
        "explain" => Opts::parse(rest).and_then(|o| cmd_explain(&o)),
        "sweep" => Opts::parse(rest).and_then(|o| cmd_sweep(&o)),
        "nano" => Opts::parse(rest).and_then(|o| cmd_nano(&o)),
        "table1" => cmd_table1(),
        "trace" => cmd_trace(rest),
        "version" | "--version" | "-V" => {
            println!("rocketbench {}", env!("CARGO_PKG_VERSION"));
            Ok(())
        }
        "help" | "--help" | "-h" => {
            print!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n\n{}", usage())),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_size_units() {
        assert_eq!(parse_size("4096").unwrap(), Bytes::new(4096));
        assert_eq!(parse_size("8K").unwrap(), Bytes::kib(8));
        assert_eq!(parse_size("64M").unwrap(), Bytes::mib(64));
        assert_eq!(parse_size("2G").unwrap(), Bytes::gib(2));
        assert!(parse_size("x").is_err());
        assert!(parse_size("12Q").is_err());
    }

    #[test]
    fn parse_duration_units() {
        assert_eq!(parse_duration("90").unwrap(), Nanos::from_secs(90));
        assert_eq!(parse_duration("30s").unwrap(), Nanos::from_secs(30));
        assert_eq!(parse_duration("5m").unwrap(), Nanos::from_secs(300));
        assert!(parse_duration("abc").is_err());
    }

    #[test]
    fn opts_parser() {
        let o = Opts::parse(&["--size".into(), "64M".into(), "--seed".into(), "7".into()]).unwrap();
        assert_eq!(o.get("size"), Some("64M"));
        assert_eq!(o.get("seed"), Some("7"));
        assert_eq!(o.get("missing"), None);
        assert!(Opts::parse(&["oops".into()]).is_err());
        assert!(Opts::parse(&["--dangling".into()]).is_err());
    }

    #[test]
    fn parse_list_splits_and_trims() {
        let sizes = parse_list("64M, 256M ,1G", parse_size).unwrap();
        assert_eq!(sizes, vec![Bytes::mib(64), Bytes::mib(256), Bytes::gib(1)]);
        let fs = parse_list("ext2,xfs", parse_fs).unwrap();
        assert_eq!(fs, vec![FsKind::Ext2, FsKind::Xfs]);
        assert!(parse_list("ext2,zfs", parse_fs).is_err());
        assert!(parse_list("", parse_fs).unwrap().is_empty());
    }

    fn opts(pairs: &[(&str, &str)]) -> Opts {
        let mut flags = std::collections::HashMap::new();
        for (k, v) in pairs {
            flags.insert(k.to_string(), v.to_string());
        }
        Opts { flags }
    }

    #[test]
    fn parse_percent_forms() {
        assert!((Protocol::parse_percent("2%").unwrap() - 0.02).abs() < 1e-12);
        assert!((Protocol::parse_percent("2").unwrap() - 0.02).abs() < 1e-12);
        assert!((Protocol::parse_percent("0.5%").unwrap() - 0.005).abs() < 1e-12);
        assert!(Protocol::parse_percent("0").is_err());
        assert!(Protocol::parse_percent("100").is_err());
        assert!(Protocol::parse_percent("x%").is_err());
    }

    #[test]
    fn protocol_defaults_to_fixed() {
        assert_eq!(parse_protocol(&opts(&[])).unwrap(), Protocol::FixedRuns(3));
        assert_eq!(
            parse_protocol(&opts(&[("runs", "7")])).unwrap(),
            Protocol::FixedRuns(7)
        );
        assert!(parse_protocol(&opts(&[("runs", "0")])).is_err());
    }

    #[test]
    fn protocol_adaptive_flags() {
        let p = parse_protocol(&opts(&[
            ("protocol", "adaptive"),
            ("ci", "2%"),
            ("max-runs", "30"),
        ]))
        .unwrap();
        assert_eq!(
            p,
            Protocol::Adaptive {
                min_runs: 5,
                max_runs: 30,
                ci_rel_width: 0.02,
                confidence: 0.95,
            }
        );
        // One-line errors, never panics.
        assert!(parse_protocol(&opts(&[("protocol", "magic")])).is_err());
        assert!(parse_protocol(&opts(&[("protocol", "adaptive"), ("ci", "banana")])).is_err());
        assert!(parse_protocol(&opts(&[("protocol", "adaptive"), ("runs", "5")])).is_err());
        assert!(parse_protocol(&opts(&[("ci", "2%")])).is_err());
        assert!(parse_protocol(&opts(&[
            ("protocol", "adaptive"),
            ("min-runs", "9"),
            ("max-runs", "3"),
        ]))
        .is_err());
    }

    #[test]
    fn trace_sources_parse_from_files() {
        let dir = std::env::temp_dir().join(format!("rb-cli-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mailspool.trace");
        std::fs::write(&path, "# rocketbench-trace v1\ncreate /a\nstat /a\n").unwrap();
        let path = path.to_str().unwrap().to_string();

        let none = parse_trace_sources(&opts(&[])).unwrap();
        assert!(none.is_empty());
        let sources = parse_trace_sources(&opts(&[("traces", &path)])).unwrap();
        assert_eq!(sources.len(), 1);
        assert_eq!(sources[0].name, "mailspool");
        assert_eq!(sources[0].timing, Timing::Afap);
        assert_eq!(sources[0].trace.len(), 2);
        let timed =
            parse_trace_sources(&opts(&[("traces", &path), ("trace-timing", "scaled=4")])).unwrap();
        assert_eq!(timed[0].timing, Timing::Scaled { factor: 4.0 });
        // Two files sharing a stem would collapse into one cell; refuse.
        let twin_dir = dir.join("twin");
        std::fs::create_dir_all(&twin_dir).unwrap();
        let twin = twin_dir.join("mailspool.trace");
        std::fs::write(&twin, "create /b\n").unwrap();
        let both = format!("{},{}", path, twin.display());
        let err = parse_trace_sources(&opts(&[("traces", &both)])).unwrap_err();
        assert!(err.contains("duplicate trace name"), "{err}");
        // Bad inputs are one-line errors.
        assert!(parse_trace_sources(&opts(&[("traces", "/no/such/file")])).is_err());
        assert!(
            parse_trace_sources(&opts(&[("traces", &path), ("trace-timing", "warp")])).is_err()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn target_and_workload_factories() {
        assert!(make_target("sim:ext2", Bytes::gib(1), 0).is_ok());
        assert!(make_target("sim:zfs", Bytes::gib(1), 0).is_err());
        assert!(make_target("bogus", Bytes::gib(1), 0).is_err());
        assert!(make_workload("varmail", Bytes::mib(1), 10).is_ok());
        assert!(make_workload("nope", Bytes::mib(1), 10).is_err());
    }
}
