//! Seeded fuzz loops over the flag parsers (`--faults`, `--retry`,
//! `--arrival`, `--trace-timing`/`--timing` and the protocol flags) and
//! over the trace parser.
//!
//! Each case mutates a valid spelling, or one of the golden traces, one
//! to three times: a digit run replaced by an extreme value, a
//! truncation, a doubled or dropped separator, or inserted non-ASCII
//! text. Every parse returns `Ok` or a one-line `Err` and never panics.
//! Every fault plan, arrival, timing and retry policy that parses
//! round-trips through its label; every trace that parses characterizes
//! and round-trips through its text. A failing case names its seed and
//! input; `Rng::new(seed)` replays it.

use rocketbench::core::runner::{Protocol, ProtocolFlags};
use rocketbench::core::sched::Arrival;
use rocketbench::faults::{FaultSpec, RetryPolicy};
use rocketbench::replay::{characterize, Timing, Trace, TraceOp};
use rocketbench::simcore::rng::Rng;
use std::panic::{catch_unwind, UnwindSafe};

const CASES: u64 = 3_000;

const FAULTS: &[&str] = &[
    "slow-disk:4x",
    "slow-disk:1.5x",
    "stall:500ms/50ms",
    "eio:1e-4",
    "eio-sticky:0.00001",
    "enospc:90%",
    "crash:10s",
    "slow-disk:4x,eio:1e-4,crash:300ms",
    "stall:10s/1s,enospc:95%",
    "none",
];
const RETRIES: &[&str] = &["none", "continue", "bounded:2", "bounded:100"];
const ARRIVALS: &[&str] = &[
    "closed",
    "poisson:500",
    "bursty:2000",
    "diurnal:1000",
    "poisson:1000..16000x2",
];
const TIMINGS: &[&str] = &["afap", "faithful", "scaled=4", "scaled=0.5"];
/// `--protocol`, `--runs`, `--ci`, `--min-runs`, `--max-runs` and
/// `--confidence`, in that order.
const PROTOCOLS: &[[Option<&str>; 6]] = &[
    [Some("fixed"), Some("3"), None, None, None, None],
    [
        Some("adaptive"),
        None,
        Some("2%"),
        Some("5"),
        Some("30"),
        Some("95%"),
    ],
    [Some("adaptive"), None, Some("0.5"), None, None, None],
];

const EXTREMES: &[&str] = &[
    "0",
    "4294967296",
    "18446744073709551615",
    "18446744073709552",
    "1e308",
    "-1",
    "NaN",
];
const SEPARATORS: &[char] = &[':', ',', '/', '.', '=', '%', 'x'];
const NON_ASCII: &[&str] = &["é", "∞", "٣", "ｘ", "\u{200b}", "🦀"];

fn pick<'a>(rng: &mut Rng, from: &[&'a str]) -> &'a str {
    from[rng.below(from.len() as u64) as usize]
}

/// One mutation of `s`.
fn mutate(rng: &mut Rng, s: &str) -> String {
    let chars: Vec<char> = s.chars().collect();
    let at = |i: usize| chars[..i].iter().collect::<String>();
    let from = |i: usize| chars[i..].iter().collect::<String>();
    match rng.below(4) {
        0 => {
            let starts: Vec<usize> = (0..chars.len())
                .filter(|&i| {
                    chars[i].is_ascii_digit() && (i == 0 || !chars[i - 1].is_ascii_digit())
                })
                .collect();
            let Some(&start) = starts.get(rng.below(starts.len() as u64) as usize) else {
                return s.to_string();
            };
            let end = (start..chars.len())
                .find(|&i| !chars[i].is_ascii_digit())
                .unwrap_or(chars.len());
            format!("{}{}{}", at(start), pick(rng, EXTREMES), from(end))
        }
        1 => at(rng.below(chars.len() as u64 + 1) as usize),
        2 => {
            let seps: Vec<usize> = (0..chars.len())
                .filter(|&i| SEPARATORS.contains(&chars[i]))
                .collect();
            let Some(&i) = seps.get(rng.below(seps.len() as u64) as usize) else {
                return s.to_string();
            };
            if rng.chance(0.5) {
                format!("{}{}", at(i + 1), from(i))
            } else {
                format!("{}{}", at(i), from(i + 1))
            }
        }
        _ => {
            let i = rng.below(chars.len() as u64 + 1) as usize;
            format!("{}{}{}", at(i), pick(rng, NON_ASCII), from(i))
        }
    }
}

/// One to three mutations of a spelling drawn from `valid`.
fn mutated(rng: &mut Rng, valid: &[&str]) -> String {
    let mut s = pick(rng, valid).to_string();
    for _ in 0..1 + rng.below(3) {
        s = mutate(rng, &s);
    }
    s
}

/// Runs `parse`, failing with `case` if it panics or returns an error
/// that is empty or longer than one line.
fn check<T>(case: &str, parse: impl FnOnce() -> Result<T, String> + UnwindSafe) -> Option<T> {
    match catch_unwind(parse).unwrap_or_else(|_| panic!("{case}: the parser panicked")) {
        Ok(value) => Some(value),
        Err(e) => {
            assert!(!e.is_empty() && !e.contains('\n'), "{case}: error {e:?}");
            None
        }
    }
}

/// Parses one candidate `--faults`, `--retry`, `--arrival` and
/// `--timing` value, checking that whatever parses round-trips.
fn check_spellings(case: &str, faults: &str, retry: &str, arrival: &str, timing: &str) {
    let case_of = |flag: &str, input: &str| format!("{case}: --{flag} {input:?}");
    let c = case_of("faults", faults);
    if let Some(Some(spec)) = check(&c, || FaultSpec::parse_flag(faults)) {
        assert_eq!(FaultSpec::parse(&spec.label()), Ok(spec), "{c}");
    }
    let c = case_of("retry", retry);
    if let Some(policy) = check(&c, || RetryPolicy::parse(retry)) {
        assert_eq!(RetryPolicy::parse(&policy.to_string()), Ok(policy), "{c}");
    }
    let c = case_of("arrival", arrival);
    if let Some(rungs) = check(&c, || Arrival::parse_axis(arrival)) {
        assert!(!rungs.is_empty(), "{c}");
        for rung in rungs {
            assert_eq!(Arrival::parse(&rung.label()), Ok(rung), "{c}");
        }
    }
    let c = case_of("timing", timing);
    if let Some(t) = check(&c, || Timing::parse(timing)) {
        assert_eq!(Timing::parse(&t.label()), Ok(t), "{c}");
    }
}

#[test]
fn flag_parsers_survive_mutated_input() {
    // Every truncation of every valid spelling.
    for valid in FAULTS.iter().chain(RETRIES).chain(ARRIVALS).chain(TIMINGS) {
        for (i, _) in valid.char_indices() {
            let cut = &valid[..i];
            check_spellings(&format!("prefix {cut:?}"), cut, cut, cut, cut);
        }
    }
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let faults = mutated(&mut rng, FAULTS);
        let retry = mutated(&mut rng, RETRIES);
        let arrival = mutated(&mut rng, ARRIVALS);
        let timing = mutated(&mut rng, TIMINGS);
        check_spellings(&format!("seed {seed}"), &faults, &retry, &arrival, &timing);

        let mut values: Vec<Option<String>> = PROTOCOLS[rng.below(PROTOCOLS.len() as u64) as usize]
            .iter()
            .map(|v| v.map(str::to_string))
            .collect();
        for _ in 0..1 + rng.below(2) {
            let i = rng.below(values.len() as u64) as usize;
            let value = values[i].as_deref().unwrap_or("3");
            values[i] = Some(mutate(&mut rng, value));
        }
        let v: Vec<Option<&str>> = values.iter().map(|v| v.as_deref()).collect();
        let flags = ProtocolFlags {
            protocol: v[0],
            runs: v[1],
            ci: v[2],
            min_runs: v[3],
            max_runs: v[4],
            confidence: v[5],
        };
        let case = format!("seed {seed}: protocol flags {values:?}");
        if let Some(protocol) = check(&case, || Protocol::from_flags(&flags, 3)) {
            assert!(protocol.validate().is_ok(), "{case}: {protocol}");
        }
    }
}

/// Parses one candidate trace text; what parses must characterize
/// without panicking, with a working set no smaller than the largest
/// extent of any one path, and read back from its own text unchanged.
fn check_trace(case: &str, text: &str) {
    let case = format!("{case}: trace {text:?}");
    let Some(trace) = check(&case, || Trace::from_text(text).map_err(|e| e.to_string())) else {
        return;
    };
    let profile = catch_unwind(|| characterize(&trace))
        .unwrap_or_else(|_| panic!("{case}: characterize panicked"));
    let largest = trace
        .ops()
        .map(|op| match op {
            TraceOp::SetSize { size, .. } => *size,
            TraceOp::Read { offset, len, .. } | TraceOp::Write { offset, len, .. } => {
                offset.saturating_add(*len)
            }
            _ => 0,
        })
        .max()
        .unwrap_or(0);
    assert!(
        profile.working_set.as_u64() >= largest,
        "{case}: working set {} below one path's extent {largest}",
        profile.working_set.as_u64()
    );
    let written = trace
        .to_text()
        .unwrap_or_else(|e| panic!("{case}: to_text failed: {e}"));
    let read_back = Trace::from_text(&written).map_err(|e| e.to_string());
    assert_eq!(
        read_back,
        Ok(trace),
        "{case}: round trip through {written:?}"
    );
}

#[test]
fn trace_parser_survives_mutated_input() {
    let golden = [
        include_str!("../examples/golden_v1.trace"),
        include_str!("../examples/golden_v2.trace"),
    ];
    // Every truncation of each golden trace.
    for text in golden {
        for (i, _) in text.char_indices() {
            check_trace(&format!("prefix of {i} bytes"), &text[..i]);
        }
    }
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let text = mutated(&mut rng, &golden);
        check_trace(&format!("seed {seed}"), &text);
    }
}
