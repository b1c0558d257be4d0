//! Timing policies: *when* replayed operations are issued.
//!
//! The replay-taxonomy literature (Kahanwal & Singh's survey of file
//! system performance evaluation techniques) distinguishes replay by
//! its timing discipline, because the discipline changes what is being
//! measured:
//!
//! | policy                | issues ops…                       | measures                            |
//! |-----------------------|-----------------------------------|-------------------------------------|
//! | [`Timing::Afap`]      | back to back, as fast as possible | peak service capacity               |
//! | [`Timing::Faithful`]  | at their recorded arrival times   | behaviour under the original load   |
//! | [`Timing::Scaled`]    | at recorded times ÷ `factor`      | what-if: the original load × factor |
//!
//! `Afap` reproduces the pre-v2 replay behaviour byte for byte; the
//! timed policies honour recorded inter-arrival gaps through the
//! target's clock ([`Target::advance`](crate::Target::advance)), so on
//! the simulated stack they are deterministic and free. A real target's
//! clock is the host's, which `advance` leaves alone, so there a timed
//! policy would issue every op at once: `rocketbench trace replay`
//! refuses any policy but `afap` on a `real:` target.

use rb_simcore::time::Nanos;

/// When to issue each replayed operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Timing {
    /// As fast as possible: ignore recorded timestamps entirely (the
    /// classic, and previously only, behaviour).
    Afap,
    /// Honour recorded inter-arrival gaps: an operation is not issued
    /// before its recorded arrival time (relative to replay start).
    Faithful,
    /// Temporal scaling: recorded arrival times are divided by
    /// `factor`, so `factor > 1` accelerates the workload (`scaled=10`
    /// replays at ten times the recorded rate) and `factor < 1` slows
    /// it down.
    Scaled {
        /// Speed multiplier applied to the recorded timeline.
        factor: f64,
    },
}

impl Timing {
    /// Parses a CLI spelling: `afap`, `faithful`, or `scaled=N` (N a
    /// positive factor, e.g. `scaled=10` or `scaled=0.5`).
    pub fn parse(s: &str) -> Result<Timing, String> {
        let s = s.trim();
        match s {
            "afap" => Ok(Timing::Afap),
            "faithful" => Ok(Timing::Faithful),
            _ => match s.strip_prefix("scaled=") {
                Some(digits) => {
                    let factor = digits
                        .parse::<f64>()
                        .map_err(|e| format!("bad timing {s:?}: {e}"))?;
                    if !(factor.is_finite() && factor > 0.0) {
                        return Err(format!(
                            "bad timing {s:?}: factor must be a positive finite number"
                        ));
                    }
                    Ok(Timing::Scaled { factor })
                }
                None => Err(format!(
                    "unknown timing {s:?}; use afap, faithful or scaled=N"
                )),
            },
        }
    }

    /// Canonical label (`afap` / `faithful` / `scaled=N`); parses back
    /// via [`Timing::parse`].
    pub fn label(&self) -> String {
        match self {
            Timing::Afap => "afap".into(),
            Timing::Faithful => "faithful".into(),
            Timing::Scaled { factor } => format!("scaled={factor}"),
        }
    }

    /// The replay-relative instant an operation recorded at `at` is due,
    /// or `None` when the policy ignores timestamps.
    pub fn due(&self, at: Nanos) -> Option<Nanos> {
        match *self {
            Timing::Afap => None,
            Timing::Faithful => Some(at),
            Timing::Scaled { factor } => Some(at.mul_f64(1.0 / factor)),
        }
    }
}

impl std::fmt::Display for Timing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_label_roundtrip() {
        for spec in ["afap", "faithful", "scaled=10", "scaled=0.5"] {
            let t = Timing::parse(spec).unwrap();
            assert_eq!(t.label(), spec);
            assert_eq!(Timing::parse(&t.label()).unwrap(), t);
        }
        assert!(Timing::parse("warp").is_err());
        assert!(Timing::parse("scaled=0").is_err());
        assert!(Timing::parse("scaled=-2").is_err());
        assert!(Timing::parse("scaled=inf").is_err());
        assert!(Timing::parse("scaled=x").is_err());
    }

    #[test]
    fn due_times_follow_the_policy() {
        let at = Nanos::from_micros(100);
        assert_eq!(Timing::Afap.due(at), None);
        assert_eq!(Timing::Faithful.due(at), Some(at));
        assert_eq!(
            Timing::Scaled { factor: 10.0 }.due(at),
            Some(Nanos::from_micros(10))
        );
        assert_eq!(
            Timing::Scaled { factor: 0.5 }.due(at),
            Some(Nanos::from_micros(200))
        );
    }
}
