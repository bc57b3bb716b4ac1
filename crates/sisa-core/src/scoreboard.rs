//! The set-ID scoreboard: hazard tracking for the issue queue.
//!
//! SISA instructions name *sets*, not registers, so the dependences that
//! decide whether two instructions may overlap are dependences on set IDs:
//!
//! * **RAW** — an instruction reading a set must wait for the last write to
//!   that set to complete;
//! * **WAW** — an instruction writing a set must wait for the previous write
//!   to complete (results must land in program order);
//! * **WAR** — an instruction writing a set must wait for every earlier
//!   reader to drain (the write would otherwise clobber an operand that is
//!   still streaming out of a vault).
//!
//! [`Scoreboard`] keeps, per set ID, the completion time of the last write
//! and the latest completion time over all reads, on the issue queue's
//! virtual clock. [`Scoreboard::ready_at`] folds the three hazard rules into
//! the earliest cycle an instruction's operands allow it to start, and
//! [`Scoreboard::record`] publishes an issued instruction's completion time.
//!
//! The scoreboard serves two masters:
//!
//! * The **in-order issue queue** indexes it by *logical* set ID. Set IDs are
//!   reused after deletion (the slot allocator is LIFO) and the stale times
//!   are deliberately kept: a `sisa.new` that recycles the ID *writes* it, so
//!   the WAW/WAR rules serialise the new set's creation behind every use of
//!   its predecessor — exactly the conservative behaviour a real SCU tracking
//!   physical set slots would exhibit. (Those are the *false* dependences the
//!   renaming layer in [`crate::rename`] removes.)
//! * The **renamed out-of-order path** indexes it by *physical tag*: every
//!   write gets a fresh tag, so only the RAW rule ever fires, and a tag's
//!   entry is [released](Scoreboard::release) when the tag is reclaimed.
//!
//! Entries whose recorded times can no longer influence any future schedule
//! are pruned by [`Scoreboard::prune_completed`], so a scoreboard driven
//! across a long program tracks only the *in-flight* operand footprint
//! instead of every set ID the program ever touched.
//!
//! # Storage
//!
//! Operand IDs are dense: logical IDs are slot indices from the runtime's
//! LIFO allocator and physical tags come from the bounded rename pool. The
//! scoreboard therefore stores its times in a flat vector indexed by raw ID,
//! with a list of the IDs that currently carry state. A lookup is one index,
//! a release is a swap-remove from the live list, and pruning walks only the
//! live entries. The vector is as long as the largest ID ever recorded, so
//! its memory is bounded by the peak number of live sets (logical IDs) or by
//! the tag pool plus its spills (physical tags) — callers must not feed it
//! sparse or unbounded IDs.

use sisa_isa::SetId;

/// Position marker of an ID that carries no hazard state.
const UNTRACKED: u32 = u32::MAX;

/// Completion times recorded for one set ID, plus its place in the live list.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct SetTimes {
    /// Cycle at which the last write to the set completes.
    write_done: u64,
    /// Latest cycle at which any read of the set completes.
    reads_done: u64,
    /// Index of this ID in [`Scoreboard::live`], or [`UNTRACKED`].
    live_at: u32,
}

impl Default for SetTimes {
    fn default() -> Self {
        Self {
            write_done: 0,
            reads_done: 0,
            live_at: UNTRACKED,
        }
    }
}

/// Tracks RAW/WAW/WAR hazards on operand sets for the issue queue.
///
/// Operand IDs must be dense slot indices or rename tags: storage grows to
/// the largest ID recorded (see the [module docs](self)).
#[derive(Clone, Debug, Default)]
pub struct Scoreboard {
    /// Times per raw ID; untracked IDs hold all-zero times.
    times: Vec<SetTimes>,
    /// The IDs currently carrying hazard state, in no particular order.
    live: Vec<u32>,
}

impl Scoreboard {
    /// Creates an empty scoreboard.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn entry(&self, id: SetId) -> SetTimes {
        self.times
            .get(id.raw() as usize)
            .copied()
            .unwrap_or_default()
    }

    /// The entry of `id`, tracking it first if it carries no state yet.
    fn entry_mut(&mut self, id: SetId) -> &mut SetTimes {
        let raw = id.raw() as usize;
        if raw >= self.times.len() {
            self.times.resize(raw + 1, SetTimes::default());
        }
        let t = &mut self.times[raw];
        if t.live_at == UNTRACKED {
            t.live_at = self.live.len() as u32;
            self.live.push(id.raw());
        }
        t
    }

    /// Drops the entry at position `at` of the live list, resetting its
    /// times so the ID reads as untracked again.
    fn untrack_at(&mut self, at: usize) {
        let raw = self.live.swap_remove(at);
        self.times[raw as usize] = SetTimes::default();
        if let Some(&moved) = self.live.get(at) {
            self.times[moved as usize].live_at = at as u32;
        }
    }

    /// The earliest cycle at which an instruction reading `reads` and writing
    /// `writes` may start, honouring RAW, WAW and WAR hazards.
    #[must_use]
    pub fn ready_at(&self, reads: &[SetId], writes: &[SetId]) -> u64 {
        let mut ready = 0;
        for &r in reads {
            // RAW: the operand must have been produced.
            ready = ready.max(self.entry(r).write_done);
        }
        for &w in writes {
            let t = self.entry(w);
            // WAW: writes to a set complete in program order.
            // WAR: earlier readers drain before the set is overwritten.
            ready = ready.max(t.write_done).max(t.reads_done);
        }
        ready
    }

    /// The earliest cycle the *producer* of each of `reads` allows a reader
    /// to start — the RAW rule alone, ignoring WAW/WAR. This is the readiness
    /// rule of the renamed pipeline, whose fresh-tag-per-write discipline
    /// makes the write-side hazards structurally impossible.
    #[must_use]
    pub fn raw_ready_at(&self, reads: &[SetId]) -> u64 {
        reads
            .iter()
            .map(|&r| self.entry(r).write_done)
            .max()
            .unwrap_or(0)
    }

    /// Publishes an issued instruction's completion time against its operands.
    pub fn record(&mut self, reads: &[SetId], writes: &[SetId], finish: u64) {
        for &r in reads {
            let t = self.entry_mut(r);
            t.reads_done = t.reads_done.max(finish);
        }
        for &w in writes {
            let t = self.entry_mut(w);
            t.write_done = t.write_done.max(finish);
        }
    }

    /// The last write completion and latest read completion recorded for
    /// `id` (both 0 when the ID carries no hazard state). The renamed
    /// pipeline uses this to price when a superseded physical tag's storage
    /// has drained and can be reclaimed.
    #[must_use]
    pub fn times_of(&self, id: SetId) -> (u64, u64) {
        let t = self.entry(id);
        (t.write_done, t.reads_done)
    }

    /// Forgets the hazard state of one ID (a reclaimed physical tag: the next
    /// binding of the tag starts with a clean slate instead of inheriting its
    /// predecessor's times).
    pub fn release(&mut self, id: SetId) {
        if let Some(&t) = self.times.get(id.raw() as usize) {
            if t.live_at != UNTRACKED {
                self.untrack_at(t.live_at as usize);
            }
        }
    }

    /// Prunes every entry whose recorded times have fully retired: once the
    /// issue queue can prove that no future instruction will start before
    /// `horizon`, an entry with both times `<= horizon` can never again bind
    /// a `ready_at` result (the start-time max is dominated by the queue's
    /// structural/resource floor), so dropping it changes no schedule.
    /// Returns the number of entries dropped.
    pub fn prune_completed(&mut self, horizon: u64) -> usize {
        let before = self.live.len();
        let mut at = 0;
        while at < self.live.len() {
            let t = self.times[self.live[at] as usize];
            if t.write_done > horizon || t.reads_done > horizon {
                at += 1;
            } else {
                // The swapped-in last entry is examined next, at the same spot.
                self.untrack_at(at);
            }
        }
        before - self.live.len()
    }

    /// Forgets every recorded time (the timeline restarts at cycle 0).
    pub fn clear(&mut self) {
        self.times.clear();
        self.live.clear();
    }

    /// Number of set IDs with recorded hazard state (capacity telemetry).
    #[must_use]
    pub fn tracked(&self) -> usize {
        self.live.len()
    }

    /// Length of the ID-indexed storage: one past the largest ID recorded
    /// since the last [`Scoreboard::clear`] (the boundedness tests check it).
    #[cfg(test)]
    pub(crate) fn footprint(&self) -> usize {
        self.times.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn independent_sets_are_always_ready() {
        let mut sb = Scoreboard::new();
        sb.record(&[], &[SetId(0)], 100);
        assert_eq!(sb.ready_at(&[SetId(1)], &[SetId(2)]), 0);
    }

    #[test]
    fn raw_waits_for_the_producing_write() {
        let mut sb = Scoreboard::new();
        sb.record(&[], &[SetId(3)], 40);
        assert_eq!(sb.ready_at(&[SetId(3)], &[]), 40);
        // Reads do not gate later reads.
        sb.record(&[SetId(3)], &[], 90);
        assert_eq!(sb.ready_at(&[SetId(3)], &[]), 40);
    }

    #[test]
    fn waw_and_war_gate_writes() {
        let mut sb = Scoreboard::new();
        sb.record(&[], &[SetId(5)], 30); // write at 30
        sb.record(&[SetId(5)], &[], 70); // read drains at 70
                                         // A new write must wait for both the prior write and the reader.
        assert_eq!(sb.ready_at(&[], &[SetId(5)]), 70);
    }

    #[test]
    fn raw_only_readiness_ignores_readers() {
        let mut sb = Scoreboard::new();
        sb.record(&[], &[SetId(5)], 30);
        sb.record(&[SetId(5)], &[], 70);
        // The RAW-only rule sees the producer, never the drained readers.
        assert_eq!(sb.raw_ready_at(&[SetId(5)]), 30);
        assert_eq!(sb.raw_ready_at(&[SetId(9)]), 0);
        assert_eq!(sb.raw_ready_at(&[]), 0);
    }

    #[test]
    fn clear_restarts_the_timeline() {
        let mut sb = Scoreboard::new();
        sb.record(&[], &[SetId(9)], 500);
        assert!(sb.tracked() > 0);
        sb.clear();
        assert_eq!(sb.ready_at(&[SetId(9)], &[SetId(9)]), 0);
        assert_eq!(sb.tracked(), 0);
    }

    #[test]
    fn recycled_ids_serialise_behind_their_predecessor() {
        let mut sb = Scoreboard::new();
        sb.record(&[SetId(2)], &[], 80); // old set still being read until 80
        sb.record(&[], &[SetId(2)], 50); // delete completes at 50
                                         // Creating a new set in the recycled slot is a write: WAR against the
                                         // old reader keeps it ordered.
        assert_eq!(sb.ready_at(&[], &[SetId(2)]), 80);
    }

    #[test]
    fn release_forgets_one_id() {
        let mut sb = Scoreboard::new();
        sb.record(&[], &[SetId(7)], 100);
        sb.record(&[], &[SetId(8)], 100);
        sb.release(SetId(7));
        assert_eq!(sb.ready_at(&[SetId(7)], &[SetId(7)]), 0);
        assert_eq!(sb.ready_at(&[SetId(8)], &[]), 100);
        assert_eq!(sb.tracked(), 1);
    }

    #[test]
    fn pruning_drops_only_retired_entries() {
        let mut sb = Scoreboard::new();
        sb.record(&[], &[SetId(1)], 50);
        sb.record(&[SetId(2)], &[], 200);
        sb.record(&[], &[SetId(3)], 120);
        // Horizon 100: only set 1 (both times <= 100) is prunable.
        assert_eq!(sb.prune_completed(100), 1);
        assert_eq!(sb.tracked(), 2);
        // The surviving entries still constrain schedules.
        assert_eq!(sb.ready_at(&[], &[SetId(2)]), 200);
        assert_eq!(sb.ready_at(&[SetId(3)], &[]), 120);
        // And the pruned one no longer does (which is safe: the queue only
        // prunes once every future start is provably >= the horizon).
        assert_eq!(sb.ready_at(&[SetId(1)], &[SetId(1)]), 0);
    }

    #[test]
    fn pruning_a_long_id_stream_keeps_the_scoreboard_bounded() {
        // Regression for the unbounded-growth bug: a scoreboard fed an
        // ever-growing stream of distinct IDs used to retain one entry per ID
        // forever. Pruning at the retire horizon keeps it at the in-flight
        // footprint.
        let mut sb = Scoreboard::new();
        for i in 0..10_000u32 {
            let t = u64::from(i) * 10;
            sb.record(&[SetId(i)], &[SetId(i)], t + 10);
            if i % 64 == 0 {
                // Everything finishing at or before `t` has retired.
                sb.prune_completed(t);
            }
        }
        sb.prune_completed(u64::MAX);
        assert_eq!(sb.tracked(), 0);
    }
}
