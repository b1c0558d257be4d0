//! End-of-run metrics snapshots and the explain-your-number report.
//!
//! The layer simulators keep cheap always-on counters
//! ([`CacheStats`], [`StackStats`], [`DeviceStats`]); the engine
//! captures them before and after a run and hands the deltas here.
//! [`MetricsSnapshot`] adds the scheduler-side latency decomposition
//! (think / cpu / core wait / device queue wait / device service, an
//! exact integer partition of total latency) and a windowed gauge
//! timeline, and knows how to render it all as a per-layer breakdown.

use rb_simcache::page::CacheStats;
use rb_simcore::time::Nanos;
use rb_simdisk::device::DeviceStats;
use rb_simfs::stack::StackStats;
use rb_stats::timeseries::GaugeSeries;

/// Field-wise delta of two [`CacheStats`] captures.
pub fn cache_delta(before: &CacheStats, after: &CacheStats) -> CacheStats {
    CacheStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        insertions: after.insertions - before.insertions,
        evicted_clean: after.evicted_clean - before.evicted_clean,
        evicted_dirty: after.evicted_dirty - before.evicted_dirty,
        prefetched: after.prefetched - before.prefetched,
        prefetch_hits: after.prefetch_hits - before.prefetch_hits,
        writeback_flushed: after.writeback_flushed - before.writeback_flushed,
    }
}

/// Field-wise delta of two [`StackStats`] captures.
pub fn stack_delta(before: &StackStats, after: &StackStats) -> StackStats {
    StackStats {
        reads: after.reads - before.reads,
        writes: after.writes - before.writes,
        meta_ops: after.meta_ops - before.meta_ops,
        fsyncs: after.fsyncs - before.fsyncs,
        allocations: after.allocations - before.allocations,
        journal_commits: after.journal_commits - before.journal_commits,
    }
}

/// Delta of the scalar fields of two [`DeviceStats`] captures (the
/// latency histogram is deliberately dropped — the run's own histogram
/// already covers distribution shape).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskDelta {
    /// Read requests completed during the run.
    pub reads: u64,
    /// Write requests completed during the run.
    pub writes: u64,
    /// Blocks transferred by reads.
    pub blocks_read: u64,
    /// Blocks transferred by writes.
    pub blocks_written: u64,
    /// Device service time consumed.
    pub busy: Nanos,
    /// Requests that moved the head.
    pub seeks: u64,
    /// Cylinders traversed, summed over seeking requests.
    pub seek_distance: u64,
}

impl DiskDelta {
    /// Delta between two captures.
    pub fn between(before: &DeviceStats, after: &DeviceStats) -> DiskDelta {
        DiskDelta {
            reads: after.reads - before.reads,
            writes: after.writes - before.writes,
            blocks_read: after.blocks_read - before.blocks_read,
            blocks_written: after.blocks_written - before.blocks_written,
            busy: after.busy - before.busy,
            seeks: after.seeks - before.seeks,
            seek_distance: after.seek_distance - before.seek_distance,
        }
    }
}

/// Fault-injection and retry counters for one run, present only when a
/// fault plan was armed — metrics-off and healthy snapshots carry
/// `None` and stay byte-identical. Plain integers so rb-obs stays
/// dependency-free; the engine translates from its fault layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultDelta {
    /// Device errors injected (transient + sticky).
    pub injected_errors: u64,
    /// Distinct blocks gone sticky-bad.
    pub bad_blocks: u64,
    /// Requests delayed by a stall window.
    pub stall_hits: u64,
    /// Allocations rejected by the ENOSPC gate.
    pub enospc_rejections: u64,
    /// Injected errors absorbed by background writeback.
    pub absorbed_errors: u64,
    /// Degraded-mode device time, in microseconds.
    pub degraded_us: u64,
    /// Retry attempts the engine issued.
    pub retries: u64,
    /// Ops abandoned after exhausting the retry policy.
    pub gave_up: u64,
}

/// Scheduler-side accounting for one run.
///
/// The five duration fields are an exact integer partition of
/// `latency`: for every completed op,
/// `latency = core_wait + think + cpu + queue_wait + device`
/// by construction of the discrete-event pumps, so the totals sum
/// exactly too. All zeros (except `completed`/`latency`) for the
/// serial engine, which has no contention to decompose.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SchedMetrics {
    /// Simulated processes (workers for open-loop runs).
    pub processes: u32,
    /// Cores in the [`rb_simcore::events::CoreSet`].
    pub cores: u32,
    /// Ops that completed inside the measured duration.
    pub completed: u64,
    /// Total time ops waited for a free core.
    pub core_wait: Nanos,
    /// Total on-core think time.
    pub think: Nanos,
    /// Total stack CPU time.
    pub cpu: Nanos,
    /// Total time spent queued behind the shared device.
    pub queue_wait: Nanos,
    /// Total device service time inside op latency.
    pub device: Nanos,
    /// Total op latency (arrive → done).
    pub latency: Nanos,
    /// Busy time per core (token occupancy), indexed by core id.
    pub core_busy: Vec<Nanos>,
}

impl SchedMetrics {
    /// True when the run produced a contention decomposition (the
    /// scheduled engines); false for the serial loop.
    pub fn decomposed(&self) -> bool {
        !(self.core_wait.is_zero()
            && self.think.is_zero()
            && self.cpu.is_zero()
            && self.queue_wait.is_zero()
            && self.device.is_zero())
    }

    /// Sum of the five decomposition parts; equals `latency` exactly
    /// when [`SchedMetrics::decomposed`].
    pub fn parts_total(&self) -> Nanos {
        self.core_wait + self.think + self.cpu + self.queue_wait + self.device
    }

    /// Queue-wait share of total latency in `[0, 1]`.
    pub fn queue_wait_share(&self) -> f64 {
        if self.latency.is_zero() {
            0.0
        } else {
            self.queue_wait.as_secs_f64() / self.latency.as_secs_f64()
        }
    }
}

/// The flight recorder's end-of-run snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Measured run duration (virtual time).
    pub duration: Nanos,
    /// Active cache eviction policy, when the target exposes one.
    pub policy: Option<&'static str>,
    /// Page-cache counter deltas, when the target exposes them.
    pub cache: Option<CacheStats>,
    /// Storage-stack counter deltas, when the target exposes them.
    pub fs: Option<StackStats>,
    /// Device counter deltas, when the target exposes them.
    pub disk: Option<DiskDelta>,
    /// Fault-injection and retry counters, when a fault plan was armed.
    pub faults: Option<FaultDelta>,
    /// Scheduler accounting and latency decomposition.
    pub sched: SchedMetrics,
    /// Windowed gauge timeline (hit ratio, device busy fraction).
    pub timeline: GaugeSeries,
}

impl MetricsSnapshot {
    /// Cache hit ratio over the run, if cache stats were captured and
    /// any lookup happened.
    pub fn hit_ratio(&self) -> Option<f64> {
        let c = self.cache.as_ref()?;
        if c.hits + c.misses == 0 {
            None
        } else {
            Some(c.hit_ratio())
        }
    }

    /// Fraction of the run the device spent busy, if disk stats were
    /// captured.
    pub fn device_busy_frac(&self) -> Option<f64> {
        let d = self.disk.as_ref()?;
        if self.duration.is_zero() {
            None
        } else {
            Some(d.busy.as_secs_f64() / self.duration.as_secs_f64())
        }
    }

    /// Per-core utilization (busy / duration), indexed by core id.
    pub fn utilization(&self) -> Vec<f64> {
        let dur = self.duration.as_secs_f64();
        self.sched
            .core_busy
            .iter()
            .map(|b| {
                if dur > 0.0 {
                    b.as_secs_f64() / dur
                } else {
                    0.0
                }
            })
            .collect()
    }

    /// Flattens every captured counter into `(name, value)` pairs in a
    /// fixed order: the deterministic flat form used by the `--metrics`
    /// sweep columns and the determinism tests.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        let mut flat = Vec::new();
        if let Some(c) = &self.cache {
            flat.extend([
                ("cache.hits", c.hits),
                ("cache.misses", c.misses),
                ("cache.insertions", c.insertions),
                ("cache.evicted_clean", c.evicted_clean),
                ("cache.evicted_dirty", c.evicted_dirty),
                ("cache.prefetched", c.prefetched),
                ("cache.prefetch_hits", c.prefetch_hits),
                ("cache.writeback_flushed", c.writeback_flushed),
            ]);
        }
        if let Some(d) = &self.disk {
            flat.extend([
                ("disk.reads", d.reads),
                ("disk.writes", d.writes),
                ("disk.blocks_read", d.blocks_read),
                ("disk.blocks_written", d.blocks_written),
                ("disk.busy_us", d.busy.as_micros()),
                ("disk.seeks", d.seeks),
                ("disk.seek_distance", d.seek_distance),
            ]);
        }
        if let Some(f) = &self.fs {
            flat.extend([
                ("fs.reads", f.reads),
                ("fs.writes", f.writes),
                ("fs.meta_ops", f.meta_ops),
                ("fs.fsyncs", f.fsyncs),
                ("fs.allocations", f.allocations),
                ("fs.journal_commits", f.journal_commits),
            ]);
        }
        if let Some(f) = &self.faults {
            flat.extend([
                ("faults.injected_errors", f.injected_errors),
                ("faults.bad_blocks", f.bad_blocks),
                ("faults.stall_hits", f.stall_hits),
                ("faults.enospc_rejections", f.enospc_rejections),
                ("faults.absorbed_errors", f.absorbed_errors),
                ("faults.degraded_us", f.degraded_us),
                ("faults.retries", f.retries),
                ("faults.gave_up", f.gave_up),
            ]);
        }
        let s = &self.sched;
        flat.extend([
            ("sched.completed", s.completed),
            ("sched.core_wait_us", s.core_wait.as_micros()),
            ("sched.think_us", s.think.as_micros()),
            ("sched.cpu_us", s.cpu.as_micros()),
            ("sched.queue_wait_us", s.queue_wait.as_micros()),
            ("sched.device_us", s.device.as_micros()),
            ("sched.latency_us", s.latency.as_micros()),
        ]);
        flat
    }

    /// Renders the explain-your-number report: per-layer breakdown plus
    /// the latency decomposition, with an explicit consistency check
    /// line showing the parts summing back to the recorded total.
    pub fn render_explain(&self) -> String {
        let mut out = String::new();
        let secs = |n: Nanos| format!("{:.3} s", n.as_secs_f64());
        let pct = |x: f64| format!("{:.1}%", x * 100.0);
        out.push_str(&format!(
            "run: {} virtual, {} process(es) x {} core(s), {} ops completed\n",
            secs(self.duration),
            self.sched.processes.max(1),
            self.sched.cores.max(1),
            self.sched.completed,
        ));
        if let Some(c) = &self.cache {
            let lookups = c.hits + c.misses;
            out.push_str(&format!(
                "\ncache ({}):\n  {} hits / {} lookups -> hit ratio {}\n",
                self.policy.unwrap_or("?"),
                c.hits,
                lookups,
                pct(self.hit_ratio().unwrap_or(0.0)),
            ));
            out.push_str(&format!(
                "  {} insertions, {} evicted clean + {} dirty, {} writeback flushed\n",
                c.insertions, c.evicted_clean, c.evicted_dirty, c.writeback_flushed,
            ));
            if c.prefetched > 0 {
                out.push_str(&format!(
                    "  readahead: {} prefetched, {} later read ({} useful)\n",
                    c.prefetched,
                    c.prefetch_hits,
                    pct(c.prefetch_hits as f64 / c.prefetched as f64),
                ));
            }
        }
        if let Some(d) = &self.disk {
            out.push_str(&format!(
                "\ndisk:\n  busy {} -> {} of run\n  {} reads ({} blocks), {} writes ({} blocks)\n",
                secs(d.busy),
                pct(self.device_busy_frac().unwrap_or(0.0)),
                d.reads,
                d.blocks_read,
                d.writes,
                d.blocks_written,
            ));
            if d.seeks > 0 {
                out.push_str(&format!(
                    "  {} seeks, mean distance {:.1} cylinders\n",
                    d.seeks,
                    d.seek_distance as f64 / d.seeks as f64,
                ));
            }
        }
        if let Some(f) = &self.fs {
            out.push_str(&format!(
                "\nfs:\n  {} data reads, {} data writes, {} metadata ops\n  \
                 {} fsyncs, {} allocations, {} journal commits\n",
                f.reads, f.writes, f.meta_ops, f.fsyncs, f.allocations, f.journal_commits,
            ));
        }
        let s = &self.sched;
        if s.decomposed() {
            out.push_str(&format!(
                "\nlatency decomposition (sums over {} ops):\n",
                s.completed
            ));
            let share = |n: Nanos| {
                if s.latency.is_zero() {
                    0.0
                } else {
                    n.as_secs_f64() / s.latency.as_secs_f64()
                }
            };
            for (label, n) in [
                ("core wait", s.core_wait),
                ("think", s.think),
                ("cpu", s.cpu),
                ("queue wait", s.queue_wait),
                ("device", s.device),
            ] {
                out.push_str(&format!(
                    "  {:<11} {:>14}  ({:>5})\n",
                    label,
                    secs(n),
                    pct(share(n))
                ));
            }
            let total = s.parts_total();
            out.push_str(&format!(
                "  {:<11} {:>14}  ({:>5})  [recorded total {}: {}]\n",
                "sum",
                secs(total),
                pct(share(total)),
                secs(s.latency),
                if total == s.latency {
                    "exact match"
                } else {
                    "MISMATCH"
                },
            ));
            if !s.core_busy.is_empty() {
                let util = self.utilization();
                out.push_str("\ncore utilization (token occupancy):\n");
                for (i, u) in util.iter().enumerate() {
                    out.push_str(&format!("  core {i}: {}\n", pct(*u)));
                }
            }
        } else {
            out.push_str(
                "\nlatency decomposition: n/a (serial engine — no contention to decompose)\n",
            );
        }
        if !self.timeline.points().is_empty() {
            out.push_str(&format!(
                "\ntimeline: {} samples of {:?}\n",
                self.timeline.points().len(),
                self.timeline.names(),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> MetricsSnapshot {
        MetricsSnapshot {
            duration: Nanos::from_secs(10),
            policy: Some("lru"),
            cache: Some(CacheStats {
                hits: 75,
                misses: 25,
                insertions: 25,
                evicted_clean: 3,
                evicted_dirty: 1,
                prefetched: 10,
                prefetch_hits: 8,
                writeback_flushed: 4,
            }),
            fs: Some(StackStats {
                reads: 80,
                writes: 20,
                meta_ops: 7,
                fsyncs: 2,
                allocations: 3,
                journal_commits: 5,
            }),
            disk: Some(DiskDelta {
                reads: 25,
                writes: 5,
                blocks_read: 100,
                blocks_written: 20,
                busy: Nanos::from_secs(2),
                seeks: 12,
                seek_distance: 600,
            }),
            faults: None,
            sched: SchedMetrics {
                processes: 4,
                cores: 2,
                completed: 100,
                core_wait: Nanos::from_millis(100),
                think: Nanos::from_millis(200),
                cpu: Nanos::from_millis(300),
                queue_wait: Nanos::from_millis(150),
                device: Nanos::from_millis(250),
                latency: Nanos::from_millis(1000),
                core_busy: vec![Nanos::from_secs(3), Nanos::from_secs(1)],
            },
            timeline: GaugeSeries::new(Nanos::from_secs(1), &["hit_ratio"]),
        }
    }

    #[test]
    fn derived_fractions() {
        let m = sample_snapshot();
        assert!((m.hit_ratio().unwrap() - 0.75).abs() < 1e-12);
        assert!((m.device_busy_frac().unwrap() - 0.2).abs() < 1e-12);
        assert!((m.sched.queue_wait_share() - 0.15).abs() < 1e-12);
        let util = m.utilization();
        assert!((util[0] - 0.3).abs() < 1e-12);
        assert!((util[1] - 0.1).abs() < 1e-12);
    }

    #[test]
    fn decomposition_is_exact_partition() {
        let m = sample_snapshot();
        assert!(m.sched.decomposed());
        assert_eq!(m.sched.parts_total(), m.sched.latency);
        let report = m.render_explain();
        assert!(report.contains("exact match"), "{report}");
        assert!(report.contains("hit ratio 75.0%"), "{report}");
        assert!(report.contains("20.0% of run"), "{report}");
    }

    #[test]
    fn counters_are_flat_and_ordered() {
        let m = sample_snapshot();
        let flat = m.counters();
        assert_eq!(flat[0], ("cache.hits", 75));
        let names: Vec<&str> = flat.iter().map(|(n, _)| *n).collect();
        assert!(names.contains(&"disk.seeks"));
        assert!(names.contains(&"fs.journal_commits"));
        assert!(names.contains(&"sched.queue_wait_us"));
        // Healthy snapshots expose no fault counters at all.
        assert!(!names.iter().any(|n| n.starts_with("faults.")));
        // Deterministic order: two snapshots agree.
        assert_eq!(flat, sample_snapshot().counters());
    }

    #[test]
    fn fault_counters_appear_only_when_armed() {
        let mut m = sample_snapshot();
        m.faults = Some(FaultDelta {
            injected_errors: 9,
            bad_blocks: 2,
            stall_hits: 4,
            enospc_rejections: 1,
            absorbed_errors: 3,
            degraded_us: 1500,
            retries: 12,
            gave_up: 5,
        });
        let flat = m.counters();
        let get = |name: &str| {
            flat.iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| *v)
                .unwrap()
        };
        assert_eq!(get("faults.injected_errors"), 9);
        assert_eq!(get("faults.degraded_us"), 1500);
        assert_eq!(get("faults.retries"), 12);
        assert_eq!(get("faults.gave_up"), 5);
        // The section slots between fs.* and sched.* deterministically.
        let names: Vec<&str> = flat.iter().map(|(n, _)| *n).collect();
        let fi = names.iter().position(|n| *n == "faults.injected_errors");
        let si = names.iter().position(|n| *n == "sched.completed");
        assert!(fi < si);
    }

    #[test]
    fn serial_runs_have_no_decomposition() {
        let mut m = sample_snapshot();
        m.sched = SchedMetrics {
            processes: 1,
            cores: 1,
            completed: 10,
            latency: Nanos::from_millis(5),
            ..SchedMetrics::default()
        };
        assert!(!m.sched.decomposed());
        assert!(m.render_explain().contains("serial engine"));
    }

    #[test]
    fn deltas_subtract_fieldwise() {
        let before = CacheStats {
            hits: 10,
            misses: 5,
            ..CacheStats::default()
        };
        let after = CacheStats {
            hits: 30,
            misses: 9,
            writeback_flushed: 2,
            ..CacheStats::default()
        };
        let d = cache_delta(&before, &after);
        assert_eq!((d.hits, d.misses, d.writeback_flushed), (20, 4, 2));

        let dev_after = DeviceStats {
            reads: 7,
            seeks: 3,
            busy: Nanos::from_millis(4),
            ..DeviceStats::default()
        };
        let dd = DiskDelta::between(&DeviceStats::default(), &dev_after);
        assert_eq!((dd.reads, dd.seeks), (7, 3));
        assert_eq!(dd.busy, Nanos::from_millis(4));

        let sd = stack_delta(
            &StackStats::default(),
            &StackStats {
                reads: 1,
                writes: 2,
                meta_ops: 3,
                fsyncs: 4,
                allocations: 5,
                journal_commits: 6,
            },
        );
        assert_eq!(sd.allocations, 5);
        assert_eq!(sd.journal_commits, 6);
    }
}
