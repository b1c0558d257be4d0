//! Trace characterization: what a trace *is*, before you replay it.
//!
//! The paper's complaint about trace-based evaluation is that papers
//! replay traces nobody can inspect. [`characterize`] turns a trace
//! into the numbers a reader needs to judge it — operation mix,
//! read/write ratio, working-set size, sequentiality, inter-arrival
//! distribution — and [`TraceProfile::render`] prints them in a stable
//! text form that CI can diff against a committed snapshot to catch
//! format or semantics drift.

use crate::model::{Trace, TraceOp, TraceVersion};
use rb_simcore::time::Nanos;
use rb_simcore::units::Bytes;
use rb_stats::histogram::Log2Histogram;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Summary statistics of one trace.
#[derive(Debug, Clone)]
pub struct TraceProfile {
    /// Format version of the source trace.
    pub version: TraceVersion,
    /// Total entries.
    pub entries: u64,
    /// Distinct stream (thread) ids.
    pub streams: u64,
    /// Recorded span (largest relative timestamp; zero for v1).
    pub span: Nanos,
    /// Operation counts per verb, sorted by verb.
    pub op_counts: Vec<(String, u64)>,
    /// Read operations.
    pub reads: u64,
    /// Write operations.
    pub writes: u64,
    /// Bytes read.
    pub read_bytes: Bytes,
    /// Bytes written.
    pub write_bytes: Bytes,
    /// Distinct paths referenced.
    pub unique_paths: u64,
    /// Working-set estimate: per path, the largest extent addressed
    /// (offset + length of data ops, or the largest `setsize`), summed
    /// over all paths, saturating at `u64::MAX` bytes.
    pub working_set: Bytes,
    /// Fraction of data operations (reads + writes) continuing exactly
    /// where the previous data operation on the same path ended. The
    /// first access to a path counts as sequential iff it starts at
    /// offset zero.
    pub sequentiality: f64,
    /// Inter-arrival times between consecutive entries (v2 only; empty
    /// for v1, which records no timing).
    pub interarrival: Log2Histogram,
}

impl TraceProfile {
    /// Read:write operation ratio, when any writes exist.
    pub fn read_write_ratio(&self) -> Option<f64> {
        if self.writes == 0 {
            None
        } else {
            Some(self.reads as f64 / self.writes as f64)
        }
    }

    /// Renders the profile as stable, diff-friendly text.
    ///
    /// Every line is a deterministic function of the trace (sorted
    /// maps, fixed float precision), which is what lets CI keep a
    /// golden copy under version control and `diff` against it.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "trace profile ({})", self.version.label());
        let _ = writeln!(
            out,
            "  ops:           {} over {} stream(s), span {}ns",
            self.entries,
            self.streams,
            self.span.as_nanos()
        );
        let mix: Vec<String> = self
            .op_counts
            .iter()
            .map(|(verb, n)| {
                format!(
                    "{verb} {n} ({:.1}%)",
                    *n as f64 / self.entries.max(1) as f64 * 100.0
                )
            })
            .collect();
        let _ = writeln!(out, "  op mix:        {}", mix.join(", "));
        let _ = writeln!(
            out,
            "  read/write:    ops {}/{}{} bytes {}/{}",
            self.reads,
            self.writes,
            match self.read_write_ratio() {
                Some(r) => format!(" (ratio {r:.2}),"),
                None => ",".into(),
            },
            self.read_bytes.as_u64(),
            self.write_bytes.as_u64()
        );
        let _ = writeln!(
            out,
            "  working set:   {} bytes over {} path(s)",
            self.working_set.as_u64(),
            self.unique_paths
        );
        let _ = writeln!(out, "  sequentiality: {:.3}", self.sequentiality);
        if self.interarrival.is_empty() {
            let _ = writeln!(out, "  inter-arrival: (no timing recorded)");
        } else {
            let buckets: Vec<String> = (0..64)
                .filter(|&k| self.interarrival.count(k) > 0)
                .map(|k| format!("2^{k}ns:{}", self.interarrival.count(k)))
                .collect();
            let _ = writeln!(out, "  inter-arrival: {}", buckets.join(" "));
        }
        out
    }
}

/// Computes a trace's [`TraceProfile`].
pub fn characterize(trace: &Trace) -> TraceProfile {
    let mut op_counts: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut reads = 0u64;
    let mut writes = 0u64;
    let mut read_bytes = 0u64;
    let mut write_bytes = 0u64;
    // Per path: (largest extent seen, end of the last data op).
    let mut per_path: BTreeMap<&str, (u64, Option<u64>)> = BTreeMap::new();
    let mut data_ops = 0u64;
    let mut sequential = 0u64;
    let mut interarrival = Log2Histogram::new();
    let mut prev_at: Option<Nanos> = None;

    for e in &trace.entries {
        *op_counts.entry(e.op.verb()).or_insert(0) += 1;
        let slot = per_path.entry(e.op.path()).or_insert((0, None));
        match &e.op {
            TraceOp::Read { offset, len, .. } | TraceOp::Write { offset, len, .. } => {
                let end = offset.saturating_add(*len);
                slot.0 = slot.0.max(end);
                data_ops += 1;
                let continues = match slot.1 {
                    Some(prev_end) => *offset == prev_end,
                    None => *offset == 0,
                };
                if continues {
                    sequential += 1;
                }
                slot.1 = Some(end);
                if matches!(e.op, TraceOp::Read { .. }) {
                    reads += 1;
                    read_bytes = read_bytes.saturating_add(*len);
                } else {
                    writes += 1;
                    write_bytes = write_bytes.saturating_add(*len);
                }
            }
            TraceOp::SetSize { size, .. } => {
                slot.0 = slot.0.max(*size);
            }
            _ => {}
        }
        if trace.version == TraceVersion::V2 {
            if let Some(prev) = prev_at {
                interarrival.record(e.at.saturating_sub(prev));
            }
            prev_at = Some(e.at);
        }
    }

    TraceProfile {
        version: trace.version,
        entries: trace.len() as u64,
        streams: trace.stream_ids().len() as u64,
        span: trace.span(),
        op_counts: op_counts
            .into_iter()
            .map(|(v, n)| (v.to_string(), n))
            .collect(),
        reads,
        writes,
        read_bytes: Bytes::new(read_bytes),
        write_bytes: Bytes::new(write_bytes),
        unique_paths: per_path.len() as u64,
        working_set: Bytes::new(
            per_path
                .values()
                .fold(0, |sum: u64, (extent, _)| sum.saturating_add(*extent)),
        ),
        sequentiality: if data_ops == 0 {
            0.0
        } else {
            sequential as f64 / data_ops as f64
        },
        interarrival,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        Trace::from_text(
            "# rocketbench-trace v2\n\
             0 0 mkdir /d\n\
             0 1000 create /d/a\n\
             0 2000 open /d/a\n\
             0 3000 write /d/a 0 8192\n\
             0 4000 write /d/a 8192 8192\n\
             1 4500 create /d/b\n\
             1 5000 setsize /d/b 65536\n\
             0 6000 read /d/a 0 4096\n\
             1 8000 read /d/b 32768 4096\n\
             0 9000 close /d/a\n",
        )
        .unwrap()
    }

    #[test]
    fn counts_and_mix() {
        let p = characterize(&sample());
        assert_eq!(p.entries, 10);
        assert_eq!(p.streams, 2);
        assert_eq!(p.span, Nanos::from_nanos(9000));
        assert_eq!(p.reads, 2);
        assert_eq!(p.writes, 2);
        assert_eq!(p.read_bytes, Bytes::new(8192));
        assert_eq!(p.write_bytes, Bytes::new(16384));
        assert_eq!(p.read_write_ratio(), Some(1.0));
        let creates = p.op_counts.iter().find(|(v, _)| v == "create").unwrap().1;
        assert_eq!(creates, 2);
    }

    #[test]
    fn working_set_is_per_path_max_extent() {
        let p = characterize(&sample());
        // /d/a: writes reach 16384; /d/b: setsize 65536 beats the read
        // extent 36864; /d itself contributes nothing.
        assert_eq!(p.working_set, Bytes::new(16384 + 65536));
        assert_eq!(p.unique_paths, 3); // /d, /d/a, /d/b
    }

    #[test]
    fn sequentiality_tracks_continuations() {
        let p = characterize(&sample());
        // write@0 (first, offset 0: seq), write@8192 (continues: seq),
        // read@0 on /d/a (last end 16384: not), read@32768 on /d/b
        // (first, nonzero offset: not) => 2/4.
        assert!((p.sequentiality - 0.5).abs() < 1e-12);
    }

    #[test]
    fn v1_has_no_interarrival() {
        let v1 = Trace::from_text("create /a\nstat /a\n").unwrap();
        let p = characterize(&v1);
        assert!(p.interarrival.is_empty());
        assert!(p.render().contains("no timing recorded"));
        assert_eq!(p.span, Nanos::ZERO);
    }

    #[test]
    fn render_is_stable() {
        let a = characterize(&sample()).render();
        let b = characterize(&sample()).render();
        assert_eq!(a, b);
        assert!(a.contains("trace profile (v2)"));
        assert!(a.contains("sequentiality: 0.500"));
        // Inter-arrival gaps were recorded (9 consecutive pairs).
        assert_eq!(characterize(&sample()).interarrival.total(), 9);
    }
}
