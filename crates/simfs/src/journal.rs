//! The journal ring that ext3 and xfs log their metadata through.
//!
//! Both journaling models write a mutation the same way: before its
//! metadata blocks go out in place, a copy of each plus a small frame
//! (ext3: a descriptor and a commit block; xfs: a commit record) is
//! written at the ring's head, which wraps at the end of the region. A
//! read-only op writes nothing there. Crash recovery scans the region
//! and replays about half of it.

use crate::vfs::MetaIo;
use rb_faults::RecoveryPlan;
use rb_simcore::units::BlockNo;

/// A circular journal of `blocks` blocks from block `start`.
#[derive(Debug, Clone)]
pub(crate) struct Journal {
    /// First block of the ring.
    pub(crate) start: BlockNo,
    /// Ring length in blocks (at least one).
    pub(crate) blocks: u64,
    /// Ring position the next transaction starts at.
    head: u64,
    /// Blocks a transaction writes besides its metadata copies.
    frame: u64,
}

impl Journal {
    /// An empty ring of `blocks` blocks (at least one) from `start`,
    /// whose transactions each write `frame` blocks of their own.
    pub(crate) fn new(start: BlockNo, blocks: u64, frame: u64) -> Journal {
        Journal {
            start,
            blocks: blocks.max(1),
            head: 0,
            frame,
        }
    }

    /// Logs a mutation: when `meta` writes metadata, appends the ring
    /// positions of its transaction (one copy per metadata write, then
    /// the frame) to `meta.journal_writes` and moves the head past them.
    pub(crate) fn commit(&mut self, meta: &mut MetaIo) {
        if meta.writes.is_empty() {
            return;
        }
        let count = meta.writes.len() as u64 + self.frame;
        for i in 0..count {
            let pos = (self.head + i) % self.blocks;
            meta.journal_writes.push(self.start + pos);
        }
        self.head = (self.head + count) % self.blocks;
    }

    /// Crash recovery: scan the whole ring, then rewrite the journaled
    /// copies in place. Each transaction's frame is small next to its
    /// copies, so about half the scanned blocks replay.
    pub(crate) fn recovery_plan(&self) -> RecoveryPlan {
        RecoveryPlan {
            scan_start: self.start,
            scan_blocks: self.blocks,
            replay_writes: self.blocks / 2,
            mechanism: "journal-replay",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transactions_are_framed_and_wrap() {
        let mut j = Journal::new(100, 5, 2);
        let mut meta = MetaIo::default();
        meta.writes.extend_from_slice(&[7, 8]);
        j.commit(&mut meta);
        assert_eq!(meta.journal_writes, vec![100, 101, 102, 103]);
        let mut next = MetaIo::default();
        next.writes.push(9);
        j.commit(&mut next);
        assert_eq!(next.journal_writes, vec![104, 100, 101]);
        let mut read_only = MetaIo::default();
        j.commit(&mut read_only);
        assert!(read_only.journal_writes.is_empty());
        assert_eq!(j.recovery_plan().scan_blocks, 5);
        assert_eq!(j.recovery_plan().replay_writes, 2);
    }
}
