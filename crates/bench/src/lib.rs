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

/// The flags [`protocol_requested`] reads, in the order it reads them.
pub const PROTOCOL_FLAGS: [&str; 6] = [
    "protocol",
    "runs",
    "ci",
    "min-runs",
    "max-runs",
    "confidence",
];

/// Exits 2 with one line, before any work, if the command line holds a
/// `--flag` that `reads` does not name (without the dashes): a
/// misspelled flag would otherwise be ignored, and the binary would run
/// a configuration other than the one asked for. `-q` and `-j` are not
/// `--flag`s and stay accepted.
pub fn refuse_unknown_flags(reads: &[&str]) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    exit_on_error(check_flags(&args, reads));
}

/// The check behind [`refuse_unknown_flags`], on an explicit argument
/// list: the first `--flag` or `--flag=value` that `reads` does not
/// name, as a one-line error.
fn check_flags(args: &[String], reads: &[&str]) -> Result<(), String> {
    let unknown = args
        .iter()
        .filter_map(|a| a.strip_prefix("--"))
        .map(|f| f.split_once('=').map_or(f, |(name, _)| name))
        .find(|name| !reads.contains(name));
    match unknown {
        Some(name) => Err(format!(
            "this binary takes no --{name} flag; it reads {reads:?}"
        )),
        None => Ok(()),
    }
}

/// Returns true if `--quick` was passed on the command line.
pub fn quick_requested() -> bool {
    std::env::args().any(|a| a == "--quick" || a == "-q")
}

/// The parsed value, or exit 2 with the error's one line: the command
/// line is read before any work is done.
pub fn exit_on_error<T>(parsed: Result<T, String>) -> T {
    parsed.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    })
}

/// A count flag's value: a positive integer, or a one-line error
/// naming `--flag`.
pub fn positive_count(flag: &str, value: &str) -> Result<usize, String> {
    match value.parse::<usize>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!("--{flag} needs a positive integer, got {value:?}")),
    }
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
        Some(v) => exit_on_error(positive_count("jobs", &v)),
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
    let values = PROTOCOL_FLAGS.map(flag_value);
    if values.iter().all(Option::is_none) {
        return None;
    }
    let [protocol, runs, ci, min_runs, max_runs, confidence] = values;
    let flags = rb_core::runner::ProtocolFlags {
        protocol: protocol.as_deref(),
        runs: runs.as_deref(),
        ci: ci.as_deref(),
        min_runs: min_runs.as_deref(),
        max_runs: max_runs.as_deref(),
        confidence: confidence.as_deref(),
    };
    Some(exit_on_error(Protocol::from_flags(&flags, 10)))
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

    /// Only the flags a binary names pass; a misspelled one is refused
    /// on one line that names it. Values and the `-q`/`-j` short forms
    /// are not flags.
    #[test]
    fn unknown_flags_are_refused() {
        let args =
            |line: &str| -> Vec<String> { line.split_whitespace().map(String::from).collect() };
        let reads = ["only", "reps", "gate", "baseline", "quick"];
        assert_eq!(
            check_flags(
                &args("--only layer/rng-next-u64 --reps 1 --gate 0.90 --baseline B.json -q"),
                &reads
            ),
            Ok(())
        );
        assert_eq!(check_flags(&args("--reps=3 --quick -j 2"), &reads), Ok(()));
        for (line, flag) in [
            (
                "--only layer/rng-next-u64 --reps 1 --gates 0.90 --basline B.json",
                "--gates",
            ),
            ("--quick --jobs=2", "--jobs"),
            ("--", "--"),
        ] {
            let error = check_flags(&args(line), &reads).expect_err(line);
            assert!(
                error.contains(&format!("takes no {flag} flag")) && !error.contains('\n'),
                "{line}: {error}"
            );
        }
        assert!(check_flags(&args("--quick"), &[]).is_err());
    }

    #[test]
    fn results_dir_is_creatable() {
        let d = results_dir();
        assert!(d.exists());
    }
}
