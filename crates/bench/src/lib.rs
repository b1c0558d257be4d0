//! # rb-bench — paper-artifact regenerators and performance benches
//!
//! One binary per paper artifact (`fig1`, `fig1zoom`, `fig2`, `fig3`,
//! `fig4`, `table1`, `nano`), plus `figreplay` — the replay-taxonomy
//! demonstration: one recorded trace under `afap`/`faithful`/`scaled`
//! timing policies on every file system. Each prints the rows/series
//! the paper reports and drops machine-readable `.csv`/`.dat` files
//! under `results/`. `perfgate` times the harness's scenarios and, in
//! its `layer/*` rows, the simulator's layers one call at a time.
//!
//! Run `cargo run -p rb-bench --release --bin fig1 -- --quick` for a
//! smoke pass or without `--quick` for the paper protocol.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rb_core::runner::Protocol;
use std::path::{Path, PathBuf};

/// Returns true if `--quick` was passed on the command line.
pub fn quick_requested() -> bool {
    std::env::args().any(|a| a == "--quick" || a == "-q")
}

/// Worker-thread count for campaign-backed regenerators: the value of
/// `--jobs N` / `--jobs=N` if given, otherwise the machine's available
/// parallelism. An invalid or missing value after the flag is a hard
/// error (exit 2), never a silent fallback.
pub fn jobs_requested() -> usize {
    let args: Vec<String> = std::env::args().collect();
    let value = args
        .iter()
        .position(|a| a == "--jobs" || a == "-j")
        .map(|i| args.get(i + 1).cloned().unwrap_or_default())
        .or_else(|| {
            args.iter()
                .find_map(|a| a.strip_prefix("--jobs=").map(str::to_string))
        });
    match value {
        None => std::thread::available_parallelism()
            .map(usize::from)
            .unwrap_or(1),
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => {
                eprintln!("error: --jobs needs a positive integer, got {v:?}");
                std::process::exit(2);
            }
        },
    }
}

/// Value of a `--flag value` / `--flag=value` pair, if present. A flag
/// given last with no value reads as the empty string.
pub fn flag_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    let long = format!("--{name}");
    let prefixed = format!("--{name}=");
    args.iter()
        .position(|a| *a == long)
        .map(|i| args.get(i + 1).cloned().unwrap_or_default())
        .or_else(|| {
            args.iter()
                .find_map(|a| a.strip_prefix(&prefixed).map(str::to_string))
        })
}

/// Repetition-protocol override from the command line, if any:
/// `--protocol fixed|adaptive` with `--runs N` (fixed) or
/// `--ci 2% --min-runs 5 --max-runs 30 --confidence 95%` (adaptive),
/// parsed by the same [`Protocol::from_flags`] the `rocketbench` CLI
/// uses (the fixed default here is the paper's 10 runs). Invalid values
/// are a one-line hard error (exit 2), never a panic or a silent
/// fallback.
pub fn protocol_requested() -> Option<Protocol> {
    let (protocol, runs) = (flag_value("protocol"), flag_value("runs"));
    let (ci, min_runs) = (flag_value("ci"), flag_value("min-runs"));
    let (max_runs, confidence) = (flag_value("max-runs"), flag_value("confidence"));
    if [&protocol, &runs, &ci, &min_runs, &max_runs, &confidence]
        .iter()
        .all(|f| f.is_none())
    {
        return None;
    }
    let flags = rb_core::runner::ProtocolFlags {
        protocol: protocol.as_deref(),
        runs: runs.as_deref(),
        ci: ci.as_deref(),
        min_runs: min_runs.as_deref(),
        max_runs: max_runs.as_deref(),
        confidence: confidence.as_deref(),
    };
    match Protocol::from_flags(&flags, 10) {
        Ok(p) => Some(p),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}

/// Peak resident set size of this process in bytes (`VmHWM`), if the
/// kernel exposes it.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb * 1024);
        }
    }
    None
}

/// Directory where regenerators drop data files (`results/`, created on
/// demand next to the workspace root).
pub fn results_dir() -> PathBuf {
    let dir = Path::new("results");
    std::fs::create_dir_all(dir).ok();
    dir.to_path_buf()
}

/// Writes a data file into [`results_dir`], reporting the path on
/// stdout. I/O failures are reported, not fatal: the figures also print
/// to the terminal.
pub fn write_results(name: &str, contents: &str) {
    let path = results_dir().join(name);
    match std::fs::write(&path, contents) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_dir_is_creatable() {
        let d = results_dir();
        assert!(d.exists());
    }
}
