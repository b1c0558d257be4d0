//! The file-system benchmarking dimensions (paper Section 2).
//!
//! The paper's central taxonomy: a file system must be evaluated along
//! *multiple* dimensions — raw device I/O, on-disk layout, caching,
//! meta-data operations and scaling — and a benchmark is only
//! interpretable if you know which dimensions it exercises and whether it
//! *isolates* any of them. This module encodes that taxonomy as data so
//! the survey table, the nano-benchmark suite and experiment reports all
//! speak the same language.

use std::fmt;

/// One axis of file-system behaviour (Table 1's columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Dimension {
    /// Raw device bandwidth/latency characterization.
    Io,
    /// Efficacy of on-disk data and meta-data layout.
    OnDisk,
    /// Cache behaviour: warm-up, eviction, prefetching.
    Caching,
    /// Meta-data operation performance.
    Metadata,
    /// Behaviour under increasing load.
    Scaling,
}

impl Dimension {
    /// All dimensions in Table 1 column order, which is declaration
    /// order: `d as usize` is `d`'s index here.
    pub const ALL: [Dimension; 5] = [
        Dimension::Io,
        Dimension::OnDisk,
        Dimension::Caching,
        Dimension::Metadata,
        Dimension::Scaling,
    ];

    /// Column header used in Table 1.
    pub fn label(self) -> &'static str {
        match self {
            Dimension::Io => "I/O",
            Dimension::OnDisk => "On-disk",
            Dimension::Caching => "Caching",
            Dimension::Metadata => "Meta-data",
            Dimension::Scaling => "Scaling",
        }
    }
}

impl fmt::Display for Dimension {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// How a benchmark relates to a dimension (Table 1's cell markers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Coverage {
    /// Not exercised.
    None,
    /// Exercised but *not* isolated from other dimensions ("◦").
    Exercises,
    /// Measured in isolation ("•").
    Isolates,
    /// Depends on the trace / production workload used ("⋆").
    Depends,
}

impl Coverage {
    /// The paper's table glyph.
    pub fn glyph(self) -> &'static str {
        match self {
            Coverage::None => " ",
            Coverage::Exercises => "o",
            Coverage::Isolates => "*",
            Coverage::Depends => "?",
        }
    }

    /// How much a cell marker tells you, for combining profiles:
    /// isolation beats trace-dependence beats mere exercise beats nothing.
    pub fn strength(self) -> u8 {
        match self {
            Coverage::None => 0,
            Coverage::Exercises => 1,
            Coverage::Depends => 2,
            Coverage::Isolates => 3,
        }
    }

    /// The stronger of two markers (by [`Coverage::strength`]).
    pub fn stronger(self, other: Coverage) -> Coverage {
        if other.strength() > self.strength() {
            other
        } else {
            self
        }
    }
}

/// A profile: coverage across all five dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoverageProfile {
    /// Coverage per dimension, in [`Dimension::ALL`] order.
    pub cells: [Coverage; 5],
}

impl CoverageProfile {
    /// The profile covering nothing — the identity for [`union`].
    ///
    /// [`union`]: CoverageProfile::union
    pub const EMPTY: CoverageProfile = CoverageProfile {
        cells: [Coverage::None; 5],
    };

    /// Builds a profile from per-dimension pairs; unlisted dimensions get
    /// [`Coverage::None`].
    pub fn new(pairs: &[(Dimension, Coverage)]) -> Self {
        let mut cells = [Coverage::None; 5];
        for &(d, c) in pairs {
            cells[d as usize] = c;
        }
        CoverageProfile { cells }
    }

    /// Coverage for one dimension.
    pub fn get(&self, d: Dimension) -> Coverage {
        self.cells[d as usize]
    }

    /// Dimensions measured in isolation.
    pub fn isolated(&self) -> Vec<Dimension> {
        Dimension::ALL
            .iter()
            .copied()
            .filter(|&d| self.get(d) == Coverage::Isolates)
            .collect()
    }

    /// Dimensions exercised at all (any non-None coverage).
    pub fn exercised(&self) -> Vec<Dimension> {
        Dimension::ALL
            .iter()
            .copied()
            .filter(|&d| self.get(d) != Coverage::None)
            .collect()
    }

    /// True if the benchmark touches several dimensions but isolates
    /// none — the paper's definition of an uninterpretable benchmark.
    pub fn is_conflated(&self) -> bool {
        self.exercised().len() >= 2 && self.isolated().is_empty()
    }

    /// Combines two profiles cell-wise, keeping the stronger marker.
    ///
    /// A campaign covering several benchmarks covers, per dimension, the
    /// best any member achieves; this is how a sweep's aggregate coverage
    /// row is computed.
    pub fn union(&self, other: &CoverageProfile) -> CoverageProfile {
        let mut cells = [Coverage::None; 5];
        for (i, cell) in cells.iter_mut().enumerate() {
            *cell = self.cells[i].stronger(other.cells[i]);
        }
        CoverageProfile { cells }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper_columns() {
        let labels: Vec<&str> = Dimension::ALL.iter().map(|d| d.label()).collect();
        assert_eq!(
            labels,
            vec!["I/O", "On-disk", "Caching", "Meta-data", "Scaling"]
        );
        assert!(Dimension::ALL
            .iter()
            .enumerate()
            .all(|(i, &d)| d as usize == i));
    }

    #[test]
    fn profile_roundtrip() {
        let p = CoverageProfile::new(&[
            (Dimension::Io, Coverage::Isolates),
            (Dimension::Caching, Coverage::Exercises),
        ]);
        assert_eq!(p.get(Dimension::Io), Coverage::Isolates);
        assert_eq!(p.get(Dimension::Caching), Coverage::Exercises);
        assert_eq!(p.get(Dimension::Scaling), Coverage::None);
        assert_eq!(p.isolated(), vec![Dimension::Io]);
        assert_eq!(p.exercised(), vec![Dimension::Io, Dimension::Caching]);
    }

    #[test]
    fn conflation_definition() {
        // Postmark-like: exercises several dimensions, isolates none but
        // meta-data... the paper marks meta-data as isolated for nothing;
        // here: o o o with no * is conflated.
        let conflated = CoverageProfile::new(&[
            (Dimension::OnDisk, Coverage::Exercises),
            (Dimension::Caching, Coverage::Exercises),
            (Dimension::Metadata, Coverage::Exercises),
        ]);
        assert!(conflated.is_conflated());
        // IOmeter: isolates I/O: not conflated.
        let iometer = CoverageProfile::new(&[(Dimension::Io, Coverage::Isolates)]);
        assert!(!iometer.is_conflated());
        // Single-dimension exercise is not conflated either.
        let single = CoverageProfile::new(&[(Dimension::Caching, Coverage::Exercises)]);
        assert!(!single.is_conflated());
    }

    #[test]
    fn union_keeps_strongest_marker() {
        let a = CoverageProfile::new(&[
            (Dimension::Io, Coverage::Exercises),
            (Dimension::Caching, Coverage::Isolates),
        ]);
        let b = CoverageProfile::new(&[
            (Dimension::Io, Coverage::Isolates),
            (Dimension::Metadata, Coverage::Depends),
        ]);
        let u = a.union(&b);
        assert_eq!(u.get(Dimension::Io), Coverage::Isolates);
        assert_eq!(u.get(Dimension::Caching), Coverage::Isolates);
        assert_eq!(u.get(Dimension::Metadata), Coverage::Depends);
        assert_eq!(u.get(Dimension::OnDisk), Coverage::None);
        assert_eq!(CoverageProfile::EMPTY.union(&a), a);
        assert_eq!(a.union(&CoverageProfile::EMPTY), a);
    }

    #[test]
    fn glyphs_are_distinct() {
        use std::collections::HashSet;
        let set: HashSet<&str> = [
            Coverage::None,
            Coverage::Exercises,
            Coverage::Isolates,
            Coverage::Depends,
        ]
        .iter()
        .map(|c| c.glyph())
        .collect();
        assert_eq!(set.len(), 4);
    }
}
