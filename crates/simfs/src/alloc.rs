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
/// The bitmap holds one bit per block in `u64` words (32 KiB for a
/// 1 GiB device of 4 KiB blocks), and every walk moves a word at a
/// time: the next free or next allocated block is a `trailing_zeros`
/// away, and a run is claimed with one mask per word it covers.
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
    /// Block `b` is allocated when bit `b % 64` of `words[b / 64]` is
    /// set. Bits past `total` stay clear, and no walk reaches them.
    words: Vec<u64>,
    total: u64,
    group_size: u64,
    free: u64,
    /// Per-group scan accelerator: every block of group `g` below
    /// `first_free_hint[g]` is allocated, so `alloc` may start its walk
    /// there instead of at the group boundary. The hint is a lower
    /// bound, never a promise that the hinted block is free; the runs
    /// found are identical to a full from-the-start scan.
    first_free_hint: Vec<u64>,
}

/// Bits `lo..hi` of a word, for `lo < hi <= 64`.
fn mask(lo: u64, hi: u64) -> u64 {
    (u64::MAX >> (64 - (hi - lo))) << lo
}

impl BitmapAllocator {
    /// Creates an allocator of `total` blocks in groups of `group_size`.
    pub fn new(total: u64, group_size: u64) -> Self {
        let group_size = group_size.max(1);
        let groups = total.div_ceil(group_size) as usize;
        BitmapAllocator {
            words: vec![0; total.div_ceil(64) as usize],
            total,
            group_size,
            free: total,
            first_free_hint: (0..groups as u64).map(|g| g * group_size).collect(),
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

    /// Number of block groups.
    pub fn groups(&self) -> u64 {
        self.total().div_ceil(self.group_size)
    }

    /// Returns true if `block` is allocated.
    pub fn is_allocated(&self, block: BlockNo) -> bool {
        block < self.total && self.words[(block / 64) as usize] & (1 << (block % 64)) != 0
    }

    /// The first block in `from..end` whose bit, flipped by `flip`
    /// (all ones to look for a free block, zero for an allocated one),
    /// is set; `end` if there is none, `from` if the range is empty.
    fn next_with(&self, flip: u64, from: u64, end: u64) -> u64 {
        let mut b = from;
        while b < end {
            let word = (self.words[(b / 64) as usize] ^ flip) >> (b % 64);
            if word != 0 {
                return (b + u64::from(word.trailing_zeros())).min(end);
            }
            b = (b / 64 + 1) * 64;
        }
        from.max(end)
    }

    /// The first free block in `from..end` (see [`Self::next_with`]).
    pub(crate) fn next_free(&self, from: u64, end: u64) -> u64 {
        self.next_with(u64::MAX, from, end)
    }

    /// The first allocated block in `from..end` (see [`Self::next_with`]).
    fn next_allocated(&self, from: u64, end: u64) -> u64 {
        self.next_with(0, from, end)
    }

    /// Sets (`allocate`) or clears the bits of blocks `start..end`.
    fn mark(&mut self, start: u64, end: u64, allocate: bool) {
        let mut b = start;
        while b < end {
            let base = b / 64 * 64;
            let m = mask(b - base, (end - base).min(64));
            let word = &mut self.words[(base / 64) as usize];
            if allocate {
                *word |= m;
            } else {
                *word &= !m;
            }
            b = base + 64;
        }
    }

    /// Marks a specific block allocated (used by mkfs for metadata areas).
    ///
    /// Returns an error if already allocated or out of range.
    pub fn reserve(&mut self, block: BlockNo) -> SimResult<()> {
        if block >= self.total {
            return Err(SimError::OutOfBounds {
                offset: block,
                size: self.total(),
            });
        }
        if self.is_allocated(block) {
            return Err(SimError::AlreadyExists(format!("block {block}")));
        }
        self.mark(block, block + 1, true);
        self.free -= 1;
        Ok(())
    }

    /// Marks every free block of `start..end` allocated (mkfs metadata
    /// and journals), a word at a time, returning how many it took.
    /// Blocks past the device are ignored.
    pub(crate) fn reserve_free(&mut self, start: BlockNo, end: BlockNo) -> u64 {
        let end = end.min(self.total);
        let mut taken = 0;
        let mut b = self.next_free(start, end);
        while b < end {
            let run_end = self.next_allocated(b, end);
            self.mark(b, run_end, true);
            taken += run_end - b;
            b = self.next_free(run_end, end);
        }
        self.free -= taken;
        taken
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
            while left > 0 {
                b = self.next_free(b, end);
                if b >= end {
                    break;
                }
                // Extend the run as far as it goes, up to what is
                // still wanted.
                let run_end = self.next_allocated(b, end.min(b + left));
                self.mark(b, run_end, true);
                let run = Run {
                    start: b,
                    len: run_end - b,
                };
                self.free -= run.len;
                left -= run.len;
                b = run_end;
                match runs.last_mut() {
                    Some(last) if last.start + last.len == run.start => {
                        last.len += run.len;
                    }
                    _ => runs.push(run),
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

    /// Frees a run of blocks. Double frees are reported as errors; the
    /// blocks of the run before the first free one are freed even then.
    pub fn free(&mut self, run: Run) -> SimResult<()> {
        let end = run.start + run.len;
        if end > self.total() {
            return Err(SimError::OutOfBounds {
                offset: end,
                size: self.total(),
            });
        }
        let freed_end = self.next_free(run.start, end);
        if freed_end > run.start {
            self.mark(run.start, freed_end, false);
            self.free += freed_end - run.start;
            let (g0, g1) = (
                run.start / self.group_size,
                (freed_end - 1) / self.group_size,
            );
            for g in g0..=g1 {
                let first = run.start.max(g * self.group_size);
                let hint = &mut self.first_free_hint[g as usize];
                *hint = (*hint).min(first);
            }
        }
        if freed_end < end {
            return Err(SimError::InvalidOperation(format!(
                "double free of block {freed_end}"
            )));
        }
        Ok(())
    }

    /// Fraction of free space in runs shorter than `threshold` blocks —
    /// a simple external-fragmentation metric.
    pub fn fragmentation(&self, threshold: u64) -> f64 {
        let mut short = 0u64;
        let mut total_free = 0u64;
        let mut i = self.next_free(0, self.total);
        while i < self.total {
            let end = self.next_allocated(i, self.total);
            let len = end - i;
            total_free += len;
            if len < threshold {
                short += len;
            }
            i = self.next_free(end, self.total);
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
    #[cfg(test)]
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

    /// Seeded histories of up to 299 ops on the word bitmap and on the
    /// byte-per-block bitmap it replaced (`crate::oracle::ByteBitmap`),
    /// compared return value for return value after every op:
    /// reservations of a block and of every free block in a range (the
    /// oracle reserving them one by one), allocations of 0-99 blocks at
    /// any goal, frees of
    /// live runs, of random runs (double frees, which still free the
    /// blocks before the first free one, and runs past the end), the
    /// fragmentation metric, the counts and every block's bit. Devices
    /// of 1-3,000 blocks in groups of 1-700 blocks put word and group
    /// edges anywhere. A failure names its seed and step.
    #[test]
    fn bitmap_matches_the_byte_oracle() {
        use crate::oracle::ByteBitmap;
        use rb_simcore::rng::Rng;
        for seed in 0..300 {
            let mut rng = Rng::new(seed);
            let (total, group) = (1 + rng.below(3000), 1 + rng.below(700));
            let mut new = BitmapAllocator::new(total, group);
            let mut old = ByteBitmap::new(total, group);
            let mut live: Vec<Run> = Vec::new();
            for step in 0..1 + rng.below(300) {
                let at = format!("seed {seed} ({total} blocks, groups of {group}) step {step}");
                match rng.below(8) {
                    0 => {
                        let b = rng.below(total + 2);
                        assert_eq!(new.reserve(b), old.reserve(b), "{at}: reserve {b}");
                    }
                    7 => {
                        let start = rng.below(total + 2);
                        let end = start + rng.below(200);
                        let mut free_in_range = 0;
                        for b in start..end.min(total) {
                            if !old.is_allocated(b) {
                                old.reserve(b).unwrap();
                                free_in_range += 1;
                            }
                        }
                        assert_eq!(
                            new.reserve_free(start, end),
                            free_in_range,
                            "{at}: reserve the free blocks of {start}..{end}"
                        );
                    }
                    1..=3 => {
                        let (count, goal) = (rng.below(100), rng.below(total + 10));
                        let runs = new.alloc(count, goal);
                        assert_eq!(
                            runs,
                            old.alloc(count, goal),
                            "{at}: alloc {count} at {goal}"
                        );
                        live.extend(runs.unwrap_or_default());
                    }
                    4 if !live.is_empty() => {
                        let run = live.swap_remove(rng.below(live.len() as u64) as usize);
                        assert_eq!(new.free(run), old.free(run), "{at}: free {run:?}");
                    }
                    4 | 5 => {
                        let run = Run {
                            start: rng.below(total + 5),
                            len: rng.below(20),
                        };
                        assert_eq!(new.free(run), old.free(run), "{at}: free {run:?}");
                    }
                    _ => {
                        let t = rng.below(10);
                        assert_eq!(
                            new.fragmentation(t).to_bits(),
                            old.fragmentation(t).to_bits(),
                            "{at}: fragmentation below {t}"
                        );
                    }
                }
                assert_eq!(
                    (new.free_blocks(), new.total(), new.groups()),
                    (old.free_blocks(), old.total(), old.groups()),
                    "{at}: counts"
                );
                for b in 0..total + 2 {
                    assert_eq!(new.is_allocated(b), old.is_allocated(b), "{at}: block {b}");
                }
            }
        }
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
