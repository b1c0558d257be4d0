//! Block allocators: bitmap block-groups (ext2-style) and free-extent
//! trees (xfs-style).
//!
//! Allocation policy *is* on-disk layout policy: where an allocator puts
//! blocks determines seek distances and transfer contiguity, which is the
//! paper's "on-disk" benchmarking dimension. Both allocators expose the
//! same goal-directed interface so file systems differ only in policy.

use rb_simcore::error::{SimError, SimResult};
use rb_simcore::units::BlockNo;
use std::collections::BTreeMap;

/// A contiguous run of allocated blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Run {
    /// First block of the run.
    pub start: BlockNo,
    /// Length in blocks.
    pub len: u64,
}

/// Bitmap allocator over fixed-size block groups (the ext2 scheme).
///
/// Allocation walks from a *goal* block: first within the goal's group,
/// then spilling to subsequent groups. Files allocated with goals near
/// their inode's group stay clustered; a fragmented bitmap spreads them.
///
/// # Examples
///
/// ```
/// use rb_simfs::alloc::BitmapAllocator;
///
/// let mut a = BitmapAllocator::new(1024, 256);
/// let runs = a.alloc(10, 0).unwrap();
/// assert_eq!(runs.iter().map(|r| r.len).sum::<u64>(), 10);
/// ```
#[derive(Debug, Clone)]
pub struct BitmapAllocator {
    bits: Vec<bool>,
    group_size: u64,
    free: u64,
    /// Per-group scan accelerator: every block of group `g` below
    /// `first_free_hint[g]` is allocated, so `alloc` may start its walk
    /// there instead of at the group boundary. The hint is a lower
    /// bound, never a promise that the hinted block is free; the runs
    /// found are identical to a full from-the-start scan.
    first_free_hint: Vec<u64>,
}

impl BitmapAllocator {
    /// Creates an allocator of `total` blocks in groups of `group_size`.
    pub fn new(total: u64, group_size: u64) -> Self {
        let group_size = group_size.max(1);
        let groups = total.div_ceil(group_size) as usize;
        BitmapAllocator {
            bits: vec![false; total as usize],
            group_size,
            free: total,
            first_free_hint: (0..groups as u64).map(|g| g * group_size).collect(),
        }
    }

    /// Total blocks managed.
    pub fn total(&self) -> u64 {
        self.bits.len() as u64
    }

    /// Free blocks remaining.
    pub fn free_blocks(&self) -> u64 {
        self.free
    }

    /// Number of block groups.
    pub fn groups(&self) -> u64 {
        self.total().div_ceil(self.group_size)
    }

    /// Returns true if `block` is allocated.
    pub fn is_allocated(&self, block: BlockNo) -> bool {
        self.bits.get(block as usize).copied().unwrap_or(false)
    }

    /// Marks a specific block allocated (used by mkfs for metadata areas).
    ///
    /// Returns an error if already allocated or out of range.
    pub fn reserve(&mut self, block: BlockNo) -> SimResult<()> {
        let i = block as usize;
        if i >= self.bits.len() {
            return Err(SimError::OutOfBounds {
                offset: block,
                size: self.total(),
            });
        }
        if self.bits[i] {
            return Err(SimError::AlreadyExists(format!("block {block}")));
        }
        self.bits[i] = true;
        self.free -= 1;
        Ok(())
    }

    /// Allocates `count` blocks near `goal`, returning the runs found.
    ///
    /// Greedy: take the longest contiguous runs available starting from
    /// the goal's group, then wrap through the remaining groups.
    pub fn alloc(&mut self, count: u64, goal: BlockNo) -> SimResult<Vec<Run>> {
        if count == 0 {
            return Ok(Vec::new());
        }
        if count > self.free {
            return Err(SimError::NoSpace);
        }
        let mut runs: Vec<Run> = Vec::new();
        let mut left = count;
        let goal_group = (goal.min(self.total() - 1)) / self.group_size;
        let groups = self.groups();
        for gi in 0..groups {
            let g = (goal_group + gi) % groups;
            let start = g * self.group_size;
            let end = (start + self.group_size).min(self.total());
            let mut b = start.max(self.first_free_hint[g as usize]);
            while b < end && left > 0 {
                if !self.bits[b as usize] {
                    // Extend the run as far as it goes.
                    let run_start = b;
                    while b < end && left > 0 && !self.bits[b as usize] {
                        self.bits[b as usize] = true;
                        self.free -= 1;
                        left -= 1;
                        b += 1;
                    }
                    let run = Run {
                        start: run_start,
                        len: b - run_start,
                    };
                    match runs.last_mut() {
                        Some(last) if last.start + last.len == run.start => {
                            last.len += run.len;
                        }
                        _ => runs.push(run),
                    }
                } else {
                    b += 1;
                }
            }
            // Everything below `b` in this group is now allocated: the
            // pre-hint prefix by the invariant, the scanned stretch
            // because the walk claims every free block it passes.
            self.first_free_hint[g as usize] = b;
            if left == 0 {
                break;
            }
        }
        debug_assert_eq!(left, 0, "free counter out of sync");
        Ok(runs)
    }

    /// Frees a run of blocks. Double frees are reported as errors.
    pub fn free(&mut self, run: Run) -> SimResult<()> {
        if run.start + run.len > self.total() {
            return Err(SimError::OutOfBounds {
                offset: run.start + run.len,
                size: self.total(),
            });
        }
        for b in run.start..run.start + run.len {
            if !self.bits[b as usize] {
                return Err(SimError::InvalidOperation(format!(
                    "double free of block {b}"
                )));
            }
            self.bits[b as usize] = false;
            self.free += 1;
            let g = (b / self.group_size) as usize;
            if self.first_free_hint[g] > b {
                self.first_free_hint[g] = b;
            }
        }
        Ok(())
    }

    /// Fraction of free space in runs shorter than `threshold` blocks —
    /// a simple external-fragmentation metric.
    pub fn fragmentation(&self, threshold: u64) -> f64 {
        let mut short = 0u64;
        let mut total_free = 0u64;
        let mut i = 0usize;
        while i < self.bits.len() {
            if !self.bits[i] {
                let start = i;
                while i < self.bits.len() && !self.bits[i] {
                    i += 1;
                }
                let len = (i - start) as u64;
                total_free += len;
                if len < threshold {
                    short += len;
                }
            } else {
                i += 1;
            }
        }
        if total_free == 0 {
            0.0
        } else {
            short as f64 / total_free as f64
        }
    }
}

/// Free-extent allocator with best-fit selection (the xfs scheme).
///
/// Free space is kept as a set of extents indexed by start; allocation
/// prefers an extent at/after the goal that can satisfy the request in
/// one piece, falling back to the largest available extent.
#[derive(Debug, Clone)]
pub struct ExtentAllocator {
    /// start -> len of each free extent.
    by_start: BTreeMap<BlockNo, u64>,
    free: u64,
    total: u64,
}

impl ExtentAllocator {
    /// Creates an allocator with the whole device free.
    pub fn new(total: u64) -> Self {
        let mut by_start = BTreeMap::new();
        if total > 0 {
            by_start.insert(0, total);
        }
        ExtentAllocator {
            by_start,
            free: total,
            total,
        }
    }

    /// Total blocks managed.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Free blocks remaining.
    pub fn free_blocks(&self) -> u64 {
        self.free
    }

    /// Number of free extents (fragmentation proxy).
    pub fn free_extents(&self) -> usize {
        self.by_start.len()
    }

    /// Reserves an explicit range (mkfs metadata).
    pub fn reserve(&mut self, start: BlockNo, len: u64) -> SimResult<()> {
        // Find the free extent containing [start, start+len).
        let (&estart, &elen) = self
            .by_start
            .range(..=start)
            .next_back()
            .ok_or(SimError::NoSpace)?;
        if start + len > estart + elen {
            return Err(SimError::InvalidOperation(format!(
                "range {start}+{len} not free"
            )));
        }
        self.by_start.remove(&estart);
        if start > estart {
            self.by_start.insert(estart, start - estart);
        }
        if estart + elen > start + len {
            self.by_start
                .insert(start + len, (estart + elen) - (start + len));
        }
        self.free -= len;
        Ok(())
    }

    /// Allocates `count` blocks near `goal`, preferring a single extent.
    pub fn alloc(&mut self, count: u64, goal: BlockNo) -> SimResult<Vec<Run>> {
        if count == 0 {
            return Ok(Vec::new());
        }
        if count > self.free {
            return Err(SimError::NoSpace);
        }
        let mut runs = Vec::new();
        let mut left = count;
        while left > 0 {
            // Preference order: (1) the free extent containing the goal,
            // split at the goal, if enough room remains past it; (2) the
            // first extent at/after the goal that fits the remainder
            // whole; (3) the largest extent anywhere.
            let containing = self
                .by_start
                .range(..=goal)
                .next_back()
                .filter(|(&s, &len)| goal < s + len && s + len - goal >= left)
                .map(|(&s, &len)| (s, len));
            if let Some((s, len)) = containing {
                self.by_start.remove(&s);
                if goal > s {
                    self.by_start.insert(s, goal - s);
                }
                let tail = (s + len) - (goal + left);
                if tail > 0 {
                    self.by_start.insert(goal + left, tail);
                }
                self.free -= left;
                runs.push(Run {
                    start: goal,
                    len: left,
                });
                left = 0;
                continue;
            }
            let fit_after = self
                .by_start
                .range(goal..)
                .find(|(_, &len)| len >= left)
                .map(|(&s, _)| s);
            let chosen = fit_after.or_else(|| {
                self.by_start
                    .iter()
                    .max_by_key(|(_, &len)| len)
                    .map(|(&s, _)| s)
            });
            let Some(start) = chosen else {
                return Err(SimError::NoSpace);
            };
            let len = self.by_start[&start];
            let take = len.min(left);
            self.by_start.remove(&start);
            if take < len {
                self.by_start.insert(start + take, len - take);
            }
            self.free -= take;
            left -= take;
            runs.push(Run { start, len: take });
        }
        Ok(runs)
    }

    /// Frees a run, coalescing with neighbours.
    pub fn free(&mut self, run: Run) -> SimResult<()> {
        if run.len == 0 {
            return Ok(());
        }
        if run.start + run.len > self.total {
            return Err(SimError::OutOfBounds {
                offset: run.start + run.len,
                size: self.total,
            });
        }
        // Overlap checks against predecessor and successor.
        if let Some((&ps, &pl)) = self.by_start.range(..=run.start).next_back() {
            if ps + pl > run.start {
                return Err(SimError::InvalidOperation(format!(
                    "double free at block {}",
                    run.start
                )));
            }
        }
        if let Some((&ns, _)) = self.by_start.range(run.start..).next() {
            if run.start + run.len > ns {
                return Err(SimError::InvalidOperation(format!(
                    "double free at block {ns}"
                )));
            }
        }
        let mut start = run.start;
        let mut len = run.len;
        // Coalesce with predecessor.
        if let Some((&ps, &pl)) = self.by_start.range(..start).next_back() {
            if ps + pl == start {
                self.by_start.remove(&ps);
                start = ps;
                len += pl;
            }
        }
        // Coalesce with successor.
        if let Some((&ns, &nl)) = self.by_start.range(start + len..).next() {
            if start + len == ns {
                self.by_start.remove(&ns);
                len += nl;
            }
        }
        self.by_start.insert(start, len);
        self.free += run.len;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitmap_allocates_contiguously_when_fresh() {
        let mut a = BitmapAllocator::new(1000, 100);
        let runs = a.alloc(50, 0).unwrap();
        assert_eq!(runs, vec![Run { start: 0, len: 50 }]);
        assert_eq!(a.free_blocks(), 950);
    }

    #[test]
    fn bitmap_goal_directs_placement() {
        let mut a = BitmapAllocator::new(1000, 100);
        let runs = a.alloc(10, 550).unwrap();
        assert_eq!(runs[0].start, 500, "allocation should start in goal group");
    }

    #[test]
    fn bitmap_spills_across_groups() {
        let mut a = BitmapAllocator::new(300, 100);
        // Fill group 2 completely, then ask for more than one group from
        // a goal inside it.
        a.alloc(100, 250).unwrap();
        let runs = a.alloc(150, 250).unwrap();
        let total: u64 = runs.iter().map(|r| r.len).sum();
        assert_eq!(total, 150);
        // Spill wrapped to group 0.
        assert!(runs.iter().any(|r| r.start < 100));
    }

    #[test]
    fn bitmap_free_and_refill() {
        let mut a = BitmapAllocator::new(100, 50);
        let runs = a.alloc(100, 0).unwrap();
        assert!(a.alloc(1, 0).is_err());
        for r in runs {
            a.free(r).unwrap();
        }
        assert_eq!(a.free_blocks(), 100);
        assert!(a.alloc(100, 0).is_ok());
    }

    #[test]
    fn bitmap_double_free_detected() {
        let mut a = BitmapAllocator::new(100, 50);
        let runs = a.alloc(10, 0).unwrap();
        a.free(runs[0]).unwrap();
        assert!(a.free(runs[0]).is_err());
    }

    #[test]
    fn bitmap_fragmentation_metric() {
        let mut a = BitmapAllocator::new(100, 100);
        assert_eq!(a.fragmentation(8), 0.0);
        // Allocate every other pair of blocks: free space in runs of 2.
        for i in 0..25u64 {
            a.reserve(i * 4).unwrap();
            a.reserve(i * 4 + 1).unwrap();
        }
        let f = a.fragmentation(8);
        assert!(f > 0.9, "fragmentation {f}");
    }

    #[test]
    fn extent_prefers_single_run() {
        let mut a = ExtentAllocator::new(1000);
        let runs = a.alloc(300, 0).unwrap();
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0], Run { start: 0, len: 300 });
    }

    #[test]
    fn extent_goal_seeks_forward() {
        let mut a = ExtentAllocator::new(1000);
        a.reserve(0, 100).unwrap();
        let runs = a.alloc(50, 600).unwrap();
        assert_eq!(runs[0].start, 600);
    }

    #[test]
    fn extent_falls_back_to_largest() {
        let mut a = ExtentAllocator::new(100);
        // Free space: [10, 20) and [50, 90): largest is 40 blocks.
        a.reserve(0, 10).unwrap();
        a.reserve(20, 30).unwrap();
        a.reserve(90, 10).unwrap();
        let runs = a.alloc(45, 95).unwrap();
        assert_eq!(runs[0].start, 50, "should pick the largest extent first");
        assert_eq!(runs.len(), 2);
    }

    #[test]
    fn extent_free_coalesces() {
        let mut a = ExtentAllocator::new(100);
        let r = a.alloc(100, 0).unwrap();
        assert_eq!(a.free_extents(), 0);
        assert_eq!(r.len(), 1);
        a.free(Run { start: 0, len: 30 }).unwrap();
        a.free(Run { start: 60, len: 40 }).unwrap();
        assert_eq!(a.free_extents(), 2);
        a.free(Run { start: 30, len: 30 }).unwrap();
        // Everything merges back into one extent.
        assert_eq!(a.free_extents(), 1);
        assert_eq!(a.free_blocks(), 100);
    }

    #[test]
    fn extent_double_free_detected() {
        let mut a = ExtentAllocator::new(100);
        a.alloc(10, 0).unwrap();
        a.free(Run { start: 0, len: 10 }).unwrap();
        assert!(a.free(Run { start: 0, len: 10 }).is_err());
        assert!(a.free(Run { start: 5, len: 2 }).is_err());
    }

    #[test]
    fn extent_reserve_splits() {
        let mut a = ExtentAllocator::new(100);
        a.reserve(40, 20).unwrap();
        assert_eq!(a.free_extents(), 2);
        assert_eq!(a.free_blocks(), 80);
        assert!(a.reserve(45, 5).is_err(), "overlapping reserve must fail");
    }

    #[test]
    fn allocators_report_no_space() {
        let mut b = BitmapAllocator::new(10, 10);
        assert!(matches!(b.alloc(11, 0), Err(SimError::NoSpace)));
        let mut e = ExtentAllocator::new(10);
        assert!(matches!(e.alloc(11, 0), Err(SimError::NoSpace)));
    }

    /// Seeded sequences of up to 119 allocations (1-63 blocks at a
    /// random goal) and frees of the newest live run on a 1024-block
    /// device: no block is handed out twice, and the free count stays
    /// exact. A failure names its seed; `Rng::new(seed)` replays it.
    fn check_disjoint_runs<A>(
        new: impl Fn() -> A,
        alloc: impl Fn(&mut A, u64, BlockNo) -> SimResult<Vec<Run>>,
        free: impl Fn(&mut A, Run) -> SimResult<()>,
        free_blocks: impl Fn(&A) -> u64,
    ) {
        use rb_simcore::rng::Rng;
        const TOTAL: u64 = 1024;
        for seed in 0..64 {
            let mut rng = Rng::new(seed);
            let mut a = new();
            let mut live: Vec<Run> = Vec::new();
            let mut occupied = vec![false; TOTAL as usize];
            for _ in 0..1 + rng.below(119) {
                let (count, goal) = (1 + rng.below(63), rng.below(TOTAL));
                if rng.below(2) == 0 && !live.is_empty() {
                    let r = live.pop().unwrap();
                    free(&mut a, r).unwrap();
                    for b in r.start..r.start + r.len {
                        occupied[b as usize] = false;
                    }
                } else if let Ok(runs) = alloc(&mut a, count, goal) {
                    for r in runs {
                        for b in r.start..r.start + r.len {
                            assert!(!occupied[b as usize], "seed {seed}: {b} allocated twice");
                            occupied[b as usize] = true;
                        }
                        live.push(r);
                    }
                }
                let used = occupied.iter().filter(|&&x| x).count() as u64;
                assert_eq!(free_blocks(&a), TOTAL - used, "seed {seed}: free count");
            }
        }
    }

    #[test]
    fn bitmap_allocator_disjoint_runs() {
        check_disjoint_runs(
            || BitmapAllocator::new(1024, 128),
            BitmapAllocator::alloc,
            BitmapAllocator::free,
            BitmapAllocator::free_blocks,
        );
    }

    #[test]
    fn extent_allocator_disjoint_runs() {
        check_disjoint_runs(
            || ExtentAllocator::new(1024),
            ExtentAllocator::alloc,
            ExtentAllocator::free,
            ExtentAllocator::free_blocks,
        );
    }
}
