//! Throughput time series: windowed operation counting over virtual time.
//!
//! Figure 2 plots throughput every 10 seconds over a 20-minute run;
//! Figure 4 collects a latency histogram per window. [`WindowedSeries`]
//! is the accumulator behind both: operations are recorded with their
//! completion instant, and the series buckets them into fixed windows.

use crate::histogram::Log2Histogram;
use rb_simcore::time::Nanos;

/// One completed window of a throughput series.
#[derive(Debug, Clone, PartialEq)]
pub struct Window {
    /// Window start instant.
    pub start: Nanos,
    /// Operations completed within the window.
    pub ops: u64,
    /// Throughput in operations per second.
    pub ops_per_sec: f64,
    /// Latency histogram of the window's operations.
    pub histogram: Log2Histogram,
}

/// Accumulates per-operation completions into fixed-width windows.
///
/// # Examples
///
/// ```
/// use rb_stats::timeseries::WindowedSeries;
/// use rb_simcore::time::Nanos;
///
/// let mut s = WindowedSeries::new(Nanos::from_secs(10));
/// s.record(Nanos::from_secs(1), Nanos::from_micros(4));
/// s.record(Nanos::from_secs(12), Nanos::from_millis(8));
/// let windows = s.finish();
/// assert_eq!(windows.len(), 2);
/// assert_eq!(windows[0].ops, 1);
/// assert!((windows[0].ops_per_sec - 0.1).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct WindowedSeries {
    width: Nanos,
    current_index: u64,
    current_ops: u64,
    current_hist: Log2Histogram,
    done: Vec<Window>,
}

impl WindowedSeries {
    /// Creates a series with the given window width.
    ///
    /// A zero width is coerced to 1 ns to keep the series well-defined.
    pub fn new(width: Nanos) -> Self {
        let width = if width.is_zero() {
            Nanos::from_nanos(1)
        } else {
            width
        };
        WindowedSeries {
            width,
            current_index: 0,
            current_ops: 0,
            current_hist: Log2Histogram::new(),
            done: Vec::new(),
        }
    }

    /// Window width.
    pub fn width(&self) -> Nanos {
        self.width
    }

    /// Records an operation that completed at `when` with `latency`.
    ///
    /// Completions must be recorded in non-decreasing time order (the
    /// simulators guarantee this); an out-of-order completion is counted
    /// in the current window rather than resurrecting a closed one.
    pub fn record(&mut self, when: Nanos, latency: Nanos) {
        let idx = when.as_nanos() / self.width.as_nanos();
        while idx > self.current_index {
            self.flush_current();
        }
        self.current_ops += 1;
        self.current_hist.record(latency);
    }

    fn flush_current(&mut self) {
        let start = Nanos::from_nanos(self.current_index * self.width.as_nanos());
        let secs = self.width.as_secs_f64();
        let hist = std::mem::take(&mut self.current_hist);
        self.done.push(Window {
            start,
            ops: self.current_ops,
            ops_per_sec: self.current_ops as f64 / secs,
            histogram: hist,
        });
        self.current_ops = 0;
        self.current_index += 1;
    }

    /// Number of completed (flushed) windows so far.
    pub fn completed(&self) -> usize {
        self.done.len()
    }

    /// Finishes the series, flushing the in-progress window if non-empty.
    pub fn finish(mut self) -> Vec<Window> {
        if self.current_ops > 0 {
            self.flush_current();
        }
        self.done
    }
}

/// One timeline sample of a set of named gauges.
#[derive(Debug, Clone, PartialEq)]
pub struct GaugePoint {
    /// Sample instant (virtual time).
    pub at: Nanos,
    /// One value per gauge, in [`GaugeSeries::names`] order.
    pub values: Vec<f64>,
}

/// Windowed timeline of named gauge values over virtual time.
///
/// Unlike [`WindowedSeries`], which *counts* events per window, a gauge
/// series *samples* instantaneous values (hit ratio, device busy
/// fraction, queue depth) at most once per window. Callers poll
/// [`GaugeSeries::due`] on their hot path — a single comparison — and
/// only compute the gauge values when a window boundary has passed, so
/// the timeline costs nothing between samples.
///
/// # Examples
///
/// ```
/// use rb_stats::timeseries::GaugeSeries;
/// use rb_simcore::time::Nanos;
///
/// let mut g = GaugeSeries::new(Nanos::from_secs(1), &["hit_ratio"]);
/// assert!(g.due(Nanos::from_secs(1)));
/// g.sample(Nanos::from_secs(1), &[0.75]);
/// assert!(!g.due(Nanos::from_millis(1500)));
/// assert_eq!(g.points().len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GaugeSeries {
    width: Nanos,
    next: Nanos,
    names: Vec<&'static str>,
    points: Vec<GaugePoint>,
}

impl GaugeSeries {
    /// Creates a gauge timeline sampling once per `width` window.
    ///
    /// A zero width is coerced to 1 ns to keep the series well-defined.
    pub fn new(width: Nanos, names: &[&'static str]) -> Self {
        let width = if width.is_zero() {
            Nanos::from_nanos(1)
        } else {
            width
        };
        GaugeSeries {
            width,
            next: width,
            names: names.to_vec(),
            points: Vec::new(),
        }
    }

    /// Gauge names, in the order `sample` expects values.
    pub fn names(&self) -> &[&'static str] {
        &self.names
    }

    /// Returns true when the next window boundary has been reached and
    /// a sample should be taken.
    #[inline]
    pub fn due(&self, at: Nanos) -> bool {
        at >= self.next
    }

    /// Records one sample at `at`; advances the schedule past `at` so
    /// at most one sample lands per window even if completions cluster.
    ///
    /// Panics if `values` does not match the gauge count.
    pub fn sample(&mut self, at: Nanos, values: &[f64]) {
        assert_eq!(values.len(), self.names.len(), "gauge arity mismatch");
        self.points.push(GaugePoint {
            at,
            values: values.to_vec(),
        });
        while self.next <= at {
            self.next += self.width;
        }
    }

    /// The recorded timeline.
    pub fn points(&self) -> &[GaugePoint] {
        &self.points
    }
}

/// Mean throughput over the final `tail` windows of a series — the
/// "steady-state, last minute only" reporting style of Section 3.1,
/// exposed as an explicit, named choice.
pub fn tail_mean_ops_per_sec(windows: &[Window], tail: usize) -> Option<f64> {
    if windows.is_empty() || tail == 0 {
        return None;
    }
    let take = tail.min(windows.len());
    let slice = &windows[windows.len() - take..];
    Some(slice.iter().map(|w| w.ops_per_sec).sum::<f64>() / take as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_partition_time() {
        let mut s = WindowedSeries::new(Nanos::from_secs(10));
        for sec in 0..35 {
            s.record(Nanos::from_secs(sec), Nanos::from_micros(5));
        }
        let w = s.finish();
        assert_eq!(w.len(), 4);
        assert_eq!(w[0].ops, 10);
        assert_eq!(w[1].ops, 10);
        assert_eq!(w[2].ops, 10);
        assert_eq!(w[3].ops, 5);
        assert_eq!(w[1].start, Nanos::from_secs(10));
    }

    #[test]
    fn empty_gap_windows_are_emitted() {
        let mut s = WindowedSeries::new(Nanos::from_secs(1));
        s.record(Nanos::from_secs(0), Nanos::from_micros(1));
        s.record(Nanos::from_secs(5), Nanos::from_micros(1));
        let w = s.finish();
        assert_eq!(w.len(), 6);
        assert_eq!(w[3].ops, 0);
        assert_eq!(w[3].ops_per_sec, 0.0);
    }

    #[test]
    fn ops_per_sec_math() {
        let mut s = WindowedSeries::new(Nanos::from_millis(500));
        for i in 0..100 {
            s.record(Nanos::from_millis(i * 4), Nanos::from_micros(1));
        }
        let w = s.finish();
        // All 100 ops land in the first 500 ms window: 100 / 0.5 s = 200/s.
        assert_eq!(w.len(), 1);
        assert!((w[0].ops_per_sec - 200.0).abs() < 1e-9);
    }

    #[test]
    fn histograms_attach_to_windows() {
        let mut s = WindowedSeries::new(Nanos::from_secs(10));
        // Disk-bound first window, memory-bound second: the Figure 4 shape.
        for i in 0..10 {
            s.record(Nanos::from_secs(i), Nanos::from_millis(8));
        }
        for i in 10..20 {
            s.record(Nanos::from_secs(i), Nanos::from_nanos(2048));
        }
        let w = s.finish();
        assert_eq!(w[0].histogram.mode_bucket(), Some(22));
        assert_eq!(w[1].histogram.mode_bucket(), Some(11));
    }

    #[test]
    fn tail_mean_last_minute() {
        // 20 windows; last 6 (the "last minute" of 10 s windows) at 100/s.
        let mut windows = Vec::new();
        for i in 0..20 {
            let ops = if i < 14 { 10 } else { 1000 };
            windows.push(Window {
                start: Nanos::from_secs(i * 10),
                ops,
                ops_per_sec: ops as f64 / 10.0,
                histogram: Log2Histogram::new(),
            });
        }
        let m = tail_mean_ops_per_sec(&windows, 6).unwrap();
        assert!((m - 100.0).abs() < 1e-9);
        assert!(tail_mean_ops_per_sec(&[], 6).is_none());
        assert!(tail_mean_ops_per_sec(&windows, 0).is_none());
    }

    #[test]
    fn zero_width_is_coerced() {
        let s = WindowedSeries::new(Nanos::ZERO);
        assert_eq!(s.width(), Nanos::from_nanos(1));
    }

    #[test]
    fn gauge_series_samples_once_per_window() {
        let mut g = GaugeSeries::new(Nanos::from_secs(1), &["a", "b"]);
        assert!(!g.due(Nanos::from_millis(999)));
        assert!(g.due(Nanos::from_secs(1)));
        g.sample(Nanos::from_secs(1), &[0.5, 2.0]);
        // Same window: not due again.
        assert!(!g.due(Nanos::from_millis(1900)));
        // A late sample (clustered completions) skips intervening windows.
        assert!(g.due(Nanos::from_secs(5)));
        g.sample(Nanos::from_millis(5500), &[0.6, 3.0]);
        assert!(!g.due(Nanos::from_millis(5900)));
        assert!(g.due(Nanos::from_secs(6)));
        let pts = g.points();
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0].values, vec![0.5, 2.0]);
        assert_eq!(pts[1].at, Nanos::from_millis(5500));
        assert_eq!(g.names(), &["a", "b"]);
    }
}
