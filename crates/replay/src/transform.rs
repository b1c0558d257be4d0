//! Trace transformations: one captured trace, many scenarios.
//!
//! FBench's argument (Zhu et al.) is that *transformable* workload
//! descriptions are what make "what-if" exploration possible: a trace
//! that can only be replayed verbatim answers one question. This module
//! provides the composable transformations:
//!
//! * [`Transform::KeepOps`] — filter by operation kind;
//! * [`Transform::KeepPrefix`] — filter by path prefix;
//! * [`Transform::Remap`] — move a namespace prefix;
//! * [`Transform::Scale`] — spatial scaling: clone every stream onto a
//!   disjoint namespace, multiplying the offered load;
//! * [`merge`] — combine traces into one multi-stream trace.
//!
//! (Temporal scaling is a *replay* concern, not a trace rewrite: see
//! [`Timing::Scaled`](crate::Timing::Scaled).)
//!
//! All transformations preserve timestamps and per-stream program
//! order, and promote the result to v2 whenever it carries information
//! v1 cannot represent.

use crate::model::{Trace, TraceEntry, TraceOp};
use rb_simcore::error::{SimError, SimResult};
use rb_simcore::time::Nanos;
use std::collections::HashMap;

/// One trace rewrite.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Transform {
    /// Keep only operations whose verb is listed (e.g. `read`, `write`).
    KeepOps(Vec<String>),
    /// Keep only operations whose path starts with the prefix.
    KeepPrefix(String),
    /// Rewrite paths under `from` to live under `to` instead.
    Remap {
        /// Prefix to match.
        from: String,
        /// Replacement prefix.
        to: String,
    },
    /// Spatial scaling: emit `clones` copies of the trace, each on a
    /// disjoint namespace (`/cloneK/...`) with its own stream ids, so
    /// the result offers `clones ×` the original load to the target.
    Scale {
        /// Total number of copies (1 = identity).
        clones: u32,
    },
}

impl Transform {
    /// Applies this transformation to a trace.
    pub fn apply(&self, trace: &Trace) -> SimResult<Trace> {
        let mut out = match self {
            Transform::KeepOps(verbs) => {
                for v in verbs {
                    if !TraceOp::VERBS.contains(&v.as_str()) {
                        return Err(SimError::BadConfig(format!(
                            "unknown op kind {v:?}; known: {}",
                            TraceOp::VERBS.join(",")
                        )));
                    }
                }
                Trace {
                    version: trace.version,
                    entries: trace
                        .entries
                        .iter()
                        .filter(|e| verbs.iter().any(|v| v == e.op.verb()))
                        .cloned()
                        .collect(),
                }
            }
            Transform::KeepPrefix(prefix) => Trace {
                version: trace.version,
                entries: trace
                    .entries
                    .iter()
                    .filter(|e| e.op.path().starts_with(prefix.as_str()))
                    .cloned()
                    .collect(),
            },
            Transform::Remap { from, to } => {
                if from.is_empty() {
                    return Err(SimError::BadConfig("remap needs a non-empty prefix".into()));
                }
                Trace {
                    version: trace.version,
                    entries: trace
                        .entries
                        .iter()
                        .map(|e| {
                            let path = e.op.path();
                            let op = match path.strip_prefix(from.as_str()) {
                                Some(rest) => e.op.with_path(format!("{to}{rest}")),
                                None => e.op.clone(),
                            };
                            TraceEntry { op, ..e.clone() }
                        })
                        .collect(),
                }
            }
            Transform::Scale { clones } => {
                if *clones == 0 {
                    return Err(SimError::BadConfig("scale needs at least one clone".into()));
                }
                let ids = trace.stream_ids();
                let first = ids.first().copied().unwrap_or(0);
                let top = ids.last().copied().unwrap_or(0);
                // Clone k moves every stream up by k strides, so the top
                // stream's last clone holds the largest id.
                let stride = u64::from(top) + 1;
                if u64::from(top) + u64::from(clones - 1) * stride > u64::from(u32::MAX) {
                    return Err(SimError::BadConfig(format!(
                        "cannot scale by {clones}: stream id {top} leaves no room for \
                         {} more clones below the largest stream id {}",
                        clones - 1,
                        u32::MAX
                    )));
                }
                // In range for every stream and clone, by the check above.
                let clone_id =
                    |stream: u32, k: u32| (u64::from(stream) + u64::from(k) * stride) as u32;
                let mut entries =
                    Vec::with_capacity(trace.len() * *clones as usize + *clones as usize);
                // Each clone namespace needs its root directory before
                // any cloned op lands in it; the dependency graph then
                // orders every clone's creates behind its mkdir.
                for k in 1..*clones {
                    entries.push(TraceEntry {
                        at: trace.entries.first().map(|e| e.at).unwrap_or_default(),
                        stream: clone_id(first, k),
                        op: TraceOp::Mkdir(format!("/clone{k}")),
                    });
                }
                // Entry-major emission keeps each clone's program order
                // and, for timestamped traces, keeps the global order
                // sorted by arrival time.
                for e in &trace.entries {
                    for k in 0..*clones {
                        let op = if k == 0 {
                            e.op.clone()
                        } else {
                            e.op.with_path(format!("/clone{k}{}", e.op.path()))
                        };
                        entries.push(TraceEntry {
                            at: e.at,
                            stream: clone_id(e.stream, k),
                            op,
                        });
                    }
                }
                Trace {
                    version: trace.version,
                    entries,
                }
            }
        };
        out.normalize_version();
        Ok(out)
    }
}

/// Applies a pipeline of transformations left to right.
pub fn apply(trace: &Trace, transforms: &[Transform]) -> SimResult<Trace> {
    let mut t = trace.clone();
    for step in transforms {
        t = step.apply(&t)?;
    }
    Ok(t)
}

/// Merges traces into one multi-stream trace.
///
/// Each input keeps its internal order and timestamps but gets a
/// disjoint range of stream ids, so previously separate traces become
/// concurrent streams for the dependency-aware replayer. Entries are
/// interleaved by arrival time, and the result is v2 — stream identity
/// is now meaningful.
///
/// Trace order is the ground truth, timestamps are advisory: an input
/// whose timestamps run backwards within a stream still merges in its
/// own program order (entries sort by the running per-stream maximum
/// of `at`, which is monotone by construction; ties keep input order).
///
/// Fails when the renumbered stream ids run past `u32::MAX`.
pub fn merge(traces: &[Trace]) -> SimResult<Trace> {
    let mut keyed: Vec<(Nanos, TraceEntry)> = Vec::new();
    let mut offset = 0u64;
    for (n, t) in traces.iter().enumerate() {
        let top = t.stream_ids().last().copied().unwrap_or(0);
        let renumbered = u64::from(top) + offset;
        if renumbered > u64::from(u32::MAX) {
            return Err(SimError::BadConfig(format!(
                "cannot merge: stream id {top} of trace {} would be renumbered to \
                 {renumbered}, past the largest stream id {}",
                n + 1,
                u32::MAX
            )));
        }
        let mut seen: HashMap<u32, Nanos> = HashMap::new();
        for e in &t.entries {
            let key = seen
                .entry(e.stream)
                .and_modify(|m| *m = (*m).max(e.at))
                .or_insert(e.at);
            keyed.push((
                *key,
                TraceEntry {
                    at: e.at,
                    // In range, by the check above.
                    stream: (u64::from(e.stream) + offset) as u32,
                    op: e.op.clone(),
                },
            ));
        }
        offset += u64::from(top) + 1;
    }
    keyed.sort_by_key(|(key, _)| *key);
    let mut out = Trace {
        version: crate::model::TraceVersion::V2,
        entries: keyed.into_iter().map(|(_, e)| e).collect(),
    };
    out.normalize_version();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::TraceVersion;
    use rb_simcore::time::Nanos;

    fn sample() -> Trace {
        Trace::from_text(
            "# rocketbench-trace v2\n\
             0 0 mkdir /mail\n\
             0 100 create /mail/a\n\
             0 200 write /mail/a 0 4096\n\
             0 300 read /mail/a 0 4096\n\
             0 400 stat /logs/x\n",
        )
        .unwrap()
    }

    #[test]
    fn keep_ops_filters_by_verb() {
        let t = Transform::KeepOps(vec!["read".into(), "write".into()])
            .apply(&sample())
            .unwrap();
        assert_eq!(t.len(), 2);
        assert!(t.ops().all(|o| o.verb() == "read" || o.verb() == "write"));
        // Timestamps survive.
        assert_eq!(t.entries[0].at, Nanos::from_nanos(200));
        // Unknown verbs are a config error.
        assert!(Transform::KeepOps(vec!["explode".into()])
            .apply(&sample())
            .is_err());
    }

    #[test]
    fn keep_prefix_filters_by_namespace() {
        let t = Transform::KeepPrefix("/mail".into())
            .apply(&sample())
            .unwrap();
        assert_eq!(t.len(), 4);
        assert!(t.ops().all(|o| o.path().starts_with("/mail")));
    }

    #[test]
    fn remap_moves_a_prefix() {
        let t = Transform::Remap {
            from: "/mail".into(),
            to: "/spool/mail".into(),
        }
        .apply(&sample())
        .unwrap();
        assert_eq!(t.entries[1].op.path(), "/spool/mail/a");
        // Paths outside the prefix are untouched.
        assert_eq!(t.entries[4].op.path(), "/logs/x");
        assert!(Transform::Remap {
            from: "".into(),
            to: "/x".into()
        }
        .apply(&sample())
        .is_err());
    }

    #[test]
    fn scale_clones_onto_disjoint_namespaces() {
        let t = Transform::Scale { clones: 3 }.apply(&sample()).unwrap();
        // 5 ops x 3 clones, plus a root mkdir per new clone.
        assert_eq!(t.len(), 17);
        assert_eq!(t.version, TraceVersion::V2);
        assert_eq!(t.stream_ids(), vec![0, 1, 2]);
        // Clone 0 is the original namespace; clones 1.. are prefixed
        // and rooted by their own mkdir.
        assert!(t.ops().any(|o| o.path() == "/mail/a"));
        assert!(t.ops().any(|o| o.path() == "/clone1/mail/a"));
        assert!(t.ops().any(|o| o.path() == "/clone2/mail/a"));
        assert!(t
            .ops()
            .any(|o| o.verb() == "mkdir" && o.path() == "/clone1"));
        assert!(t
            .ops()
            .any(|o| o.verb() == "mkdir" && o.path() == "/clone2"));
        // Identity scale is the identity.
        let id = Transform::Scale { clones: 1 }.apply(&sample()).unwrap();
        assert_eq!(id, sample());
        assert!(Transform::Scale { clones: 0 }.apply(&sample()).is_err());
    }

    #[test]
    fn scale_rejects_stream_ids_it_cannot_renumber() {
        let wide =
            Trace::from_text("# rocketbench-trace v2\n0 0 mkdir /a\n4294967295 1 create /b\n")
                .unwrap();
        let err = Transform::Scale { clones: 3 }.apply(&wide).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("stream id 4294967295"), "{msg}");
        assert!(!msg.contains('\n'), "one line: {msg}");
        // The identity scale renumbers nothing, so the top id is fine.
        assert_eq!(Transform::Scale { clones: 1 }.apply(&wide).unwrap(), wide);
        // The last clone may land exactly on the largest id.
        let half = Trace::from_text("# rocketbench-trace v2\n2147483647 0 stat /a\n").unwrap();
        let t = Transform::Scale { clones: 2 }.apply(&half).unwrap();
        assert_eq!(t.stream_ids(), vec![2147483647, u32::MAX]);
        assert!(Transform::Scale { clones: 3 }.apply(&half).is_err());
    }

    #[test]
    fn merge_rejects_stream_ids_it_cannot_renumber() {
        let wide = Trace::from_text("# rocketbench-trace v2\n4000000000 0 stat /a\n").unwrap();
        let err = merge(&[wide.clone(), wide.clone()]).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("stream id 4000000000 of trace 2"), "{msg}");
        assert!(!msg.contains('\n'), "one line: {msg}");
        // One such trace alone keeps its ids.
        assert_eq!(merge(&[wide]).unwrap().stream_ids(), vec![4000000000]);
    }

    #[test]
    fn scaled_v1_trace_becomes_v2() {
        let v1 = Trace::from_text("create /a\nstat /a\n").unwrap();
        let t = Transform::Scale { clones: 2 }.apply(&v1).unwrap();
        assert_eq!(t.version, TraceVersion::V2, "streams need v2 to serialize");
        assert!(t.to_text().unwrap().starts_with("# rocketbench-trace v2"));
    }

    #[test]
    fn merge_renumbers_streams_and_sorts_by_time() {
        let a = Trace::from_text("create /a\nstat /a\n").unwrap();
        let b =
            Trace::from_text("# rocketbench-trace v2\n0 50 create /b\n1 150 stat /b\n").unwrap();
        let m = merge(&[a, b]).unwrap();
        assert_eq!(m.version, TraceVersion::V2);
        assert_eq!(m.len(), 4);
        // First input keeps stream 0; second is offset past it (0,1 -> 1,2).
        assert_eq!(m.stream_ids(), vec![0, 1, 2]);
        // Stable sort by time: the t=0 ops of input a come first.
        assert_eq!(m.entries[0].op.path(), "/a");
        assert_eq!(m.entries[2].op.path(), "/b");
        // Program order inside each original trace survives.
        let a_ops: Vec<&str> = m
            .entries
            .iter()
            .filter(|e| e.stream == 0)
            .map(|e| e.op.verb())
            .collect();
        assert_eq!(a_ops, vec!["create", "stat"]);
    }

    #[test]
    fn merge_never_reorders_a_stream_with_backward_timestamps() {
        // Trace order is ground truth; timestamps are advisory. An
        // input whose clock runs backwards must still merge in program
        // order, or the merged trace would replay the write before the
        // create exists.
        let weird =
            Trace::from_text("# rocketbench-trace v2\n0 100 create /a\n0 50 write /a 0 4096\n")
                .unwrap();
        let other = Trace::from_text("# rocketbench-trace v2\n0 75 stat /b\n").unwrap();
        let m = merge(&[weird, other]).unwrap();
        let stream0: Vec<&str> = m
            .entries
            .iter()
            .filter(|e| e.stream == 0)
            .map(|e| e.op.verb())
            .collect();
        assert_eq!(stream0, vec!["create", "write"]);
        // The other input still interleaves by time (75 sorts between
        // the running-max keys 100 and 100... i.e. before both).
        assert_eq!(m.entries[0].op.verb(), "stat");
    }

    #[test]
    fn pipeline_composes_left_to_right() {
        let t = apply(
            &sample(),
            &[
                Transform::KeepPrefix("/mail".into()),
                Transform::Remap {
                    from: "/mail".into(),
                    to: "/m2".into(),
                },
                Transform::Scale { clones: 2 },
            ],
        )
        .unwrap();
        assert_eq!(t.len(), 9);
        assert!(t.ops().all(|o| o.path().starts_with("/m2")
            || o.path().starts_with("/clone1/m2")
            || o.path() == "/clone1"));
    }
}
