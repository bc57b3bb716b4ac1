//! Set-ID renaming: the register-renaming analogue for SISA's logical sets.
//!
//! The SISA runtime recycles logical set IDs through a LIFO slot allocator,
//! so the dependence chains graph-mining kernels build — materialise a
//! temporary, recurse on it, delete it, and immediately create the next
//! temporary in the recycled slot — serialise on *false* WAR/WAW hazards:
//! the new set's creation has nothing to do with the old set's readers, yet
//! a scoreboard keyed on logical IDs must conservatively order them. This is
//! exactly the problem register renaming solves in out-of-order cores, and
//! the fix is the same: [`RenameMap`] assigns every *write* of a logical set
//! ID a fresh **physical tag**, so the hazard scoreboard tracks tags instead
//! of IDs and only true read-after-write dependences remain.
//!
//! The tag pool is bounded (a real SCU has a finite physical set-slot table,
//! [`sisa_pim::PimPlatform::rename_tag_slots`]): a superseded or deleted
//! version's tag returns to the pool only once its storage has drained —
//! every in-flight read finished and the superseding write completed. When
//! the pool runs dry, allocation waits for the earliest pending reclaim and
//! the wait surfaces as a *structural* stall on the issue timeline (free-list
//! pressure), never as a dependence stall. A pool too small to hold the
//! program's live versions grows on demand (an architectural spill, counted
//! in [`RenameMap::spills`]) rather than deadlocking the analytic pipeline.
//!
//! # Storage
//!
//! Logical IDs are dense slot indices, so the logical → physical binding is
//! a flat vector indexed by raw logical ID (an unbound ID holds a sentinel)
//! with a counter of bound IDs. Its length is one past the largest logical
//! ID written or read since the last [`RenameMap::clear`], which the runtime
//! bounds by its peak number of live sets. Physical tags never exceed the
//! pool capacity plus spills plus lazy binds.

use sisa_isa::SetId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Binding of a logical ID that currently has no physical tag.
const UNBOUND: u32 = u32::MAX;

/// The outcome of allocating a fresh physical tag for one logical write.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TagAlloc {
    /// The fresh physical tag now bound to the logical ID.
    pub tag: SetId,
    /// The cycle at which the tag becomes usable (0 for a free tag; the
    /// earliest pending reclaim time under free-list pressure).
    pub available_at: u64,
    /// The physical tag this write superseded (the logical ID's previous
    /// binding), if any. The caller prices its reclaim time — the scoreboard
    /// knows when the old version's readers drain — and hands the tag back
    /// through [`RenameMap::reclaim`].
    pub superseded: Option<SetId>,
}

/// Maps logical set IDs to physical tags, a fresh tag per write.
#[derive(Clone, Debug, Default)]
pub struct RenameMap {
    /// Current logical → physical binding, indexed by raw logical ID
    /// ([`UNBOUND`] where there is none).
    current: Vec<u32>,
    /// Number of logical IDs in `current` holding a tag.
    bound: usize,
    /// Tags returned to the pool and immediately reusable.
    free: Vec<u32>,
    /// Tags whose storage is still draining: usable from the recorded cycle.
    pending: BinaryHeap<Reverse<(u64, u32)>>,
    /// Next never-used tag (the pool is materialised lazily).
    next_tag: u32,
    /// Configured pool capacity; allocation beyond it spills.
    capacity: usize,
    /// Fresh-tag allocations performed.
    allocations: u64,
    /// Allocations that had to grow the pool past `capacity` because nothing
    /// was free or pending (more live set versions than physical slots).
    spills: u64,
}

impl RenameMap {
    /// Creates a map backed by a pool of `capacity` physical tags (clamped to
    /// at least 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            ..Self::default()
        }
    }

    /// The configured pool capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Fresh-tag allocations performed since the last reset.
    #[must_use]
    pub fn allocations(&self) -> u64 {
        self.allocations
    }

    /// Allocations that grew the pool past its capacity.
    #[must_use]
    pub fn spills(&self) -> u64 {
        self.spills
    }

    /// Number of logical IDs currently bound to a tag.
    #[must_use]
    pub fn bound(&self) -> usize {
        self.bound
    }

    /// Length of the logical-ID-indexed binding table: one past the largest
    /// logical ID seen since the last [`RenameMap::clear`] (the
    /// boundedness tests check it).
    #[cfg(test)]
    pub(crate) fn footprint(&self) -> usize {
        self.current.len()
    }

    /// Binds `tag` to `logical`, returning the previous binding.
    fn bind(&mut self, logical: SetId, tag: u32) -> Option<SetId> {
        let raw = logical.raw() as usize;
        if raw >= self.current.len() {
            self.current.resize(raw + 1, UNBOUND);
        }
        let old = std::mem::replace(&mut self.current[raw], tag);
        if old == UNBOUND {
            self.bound += 1;
            None
        } else {
            Some(SetId(old))
        }
    }

    /// Tags allocatable right now without waiting: the freed tags plus the
    /// never-used remainder of the configured pool. Versions still draining
    /// towards a pending reclaim are not counted — they cost a structural
    /// wait. This is the free-tag-pool sample telemetry collectors record.
    #[must_use]
    pub fn available(&self) -> usize {
        self.free.len() + self.capacity.saturating_sub(self.next_tag as usize)
    }

    /// The tag a *read* of `logical` consumes: the current binding, or a
    /// fresh binding for a set that predates the rename map (e.g. created
    /// before a statistics reset re-armed the timeline — architecturally,
    /// state loaded before the measured region). A lazy bind takes a clean
    /// tag (freed, or grown past the capacity if none is free) and never
    /// pops a still-draining pending reclaim: pre-loaded state occupied its
    /// slot before the measured region, so it neither waits nor counts as an
    /// allocation or a spill.
    pub fn read_tag(&mut self, logical: SetId) -> SetId {
        match self.current.get(logical.raw() as usize) {
            Some(&tag) if tag != UNBOUND => return SetId(tag),
            _ => {}
        }
        let tag = self.free.pop().unwrap_or_else(|| {
            let fresh = self.next_tag;
            self.next_tag += 1;
            fresh
        });
        self.bind(logical, tag);
        SetId(tag)
    }

    /// Binds a fresh tag to `logical` for a *write*, returning the tag, the
    /// cycle free-list pressure delays it to, and the superseded binding.
    pub fn write_tag(&mut self, logical: SetId) -> TagAlloc {
        let (tag, available_at) = self.take_tag();
        self.allocations += 1;
        let superseded = self.bind(logical, tag);
        TagAlloc {
            tag: SetId(tag),
            available_at,
            superseded,
        }
    }

    /// Unbinds `logical` (a `sisa.del`), returning the tag whose storage the
    /// caller must price for reclaim.
    pub fn release(&mut self, logical: SetId) -> Option<SetId> {
        let slot = self.current.get_mut(logical.raw() as usize)?;
        let tag = std::mem::replace(slot, UNBOUND);
        if tag == UNBOUND {
            return None;
        }
        self.bound -= 1;
        Some(SetId(tag))
    }

    /// Hands a superseded/deleted tag back to the pool, usable once its
    /// storage has drained at cycle `available_at`.
    pub fn reclaim(&mut self, tag: SetId, available_at: u64) {
        if available_at == 0 {
            self.free.push(tag.raw());
        } else {
            self.pending.push(Reverse((available_at, tag.raw())));
        }
    }

    /// Pops the cheapest usable tag: a never-used or freed tag at cycle 0,
    /// else the earliest pending reclaim, else a spill past the capacity.
    fn take_tag(&mut self) -> (u32, u64) {
        if let Some(tag) = self.free.pop() {
            return (tag, 0);
        }
        if (self.next_tag as usize) < self.capacity {
            let tag = self.next_tag;
            self.next_tag += 1;
            return (tag, 0);
        }
        if let Some(Reverse((at, tag))) = self.pending.pop() {
            return (tag, at);
        }
        // Nothing free, nothing draining: the program holds more live set
        // versions than the pool has slots. Grow rather than deadlock.
        let tag = self.next_tag;
        self.next_tag += 1;
        self.spills += 1;
        (tag, 0)
    }

    /// Forgets all bindings and pool state (the timeline restarted).
    pub fn clear(&mut self) {
        self.current.clear();
        self.bound = 0;
        self.free.clear();
        self.pending.clear();
        self.next_tag = 0;
        self.allocations = 0;
        self.spills = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_write_gets_a_fresh_tag() {
        let mut rm = RenameMap::new(16);
        let a = rm.write_tag(SetId(3));
        let b = rm.write_tag(SetId(3));
        assert_ne!(a.tag, b.tag, "a new write must not reuse the live tag");
        assert_eq!(a.superseded, None);
        assert_eq!(b.superseded, Some(a.tag), "the old binding is superseded");
        assert_eq!(rm.read_tag(SetId(3)), b.tag, "reads see the latest write");
        assert_eq!(rm.allocations(), 2);
    }

    #[test]
    fn distinct_logicals_get_distinct_tags() {
        let mut rm = RenameMap::new(16);
        let a = rm.write_tag(SetId(0)).tag;
        let b = rm.write_tag(SetId(1)).tag;
        assert_ne!(a, b);
        assert_eq!(rm.bound(), 2);
    }

    #[test]
    fn reads_of_unbound_logicals_bind_without_pressure() {
        let mut rm = RenameMap::new(4);
        let t = rm.read_tag(SetId(9));
        assert_eq!(rm.read_tag(SetId(9)), t, "the lazy binding is stable");
        assert_eq!(rm.allocations(), 0, "a lazy bind is not a write");
        assert_eq!(rm.spills(), 0, "a lazy bind is not pool pressure");
    }

    #[test]
    fn lazy_binds_never_steal_a_draining_tag() {
        // Regression: with the pool at capacity and a version still
        // draining, a lazy read bind must not pop the pending reclaim (that
        // would rebind a physical slot whose storage has not drained and
        // push the next write onto a later reclaim). It grows the pool —
        // pre-loaded state held its slot before the measured region — and
        // counts neither as an allocation nor as a spill.
        let mut rm = RenameMap::new(1);
        let v1 = rm.write_tag(SetId(0));
        let freed = rm.release(SetId(0)).unwrap();
        rm.reclaim(freed, 500); // still draining until cycle 500
        let lazy = rm.read_tag(SetId(7));
        assert_ne!(lazy, v1.tag, "the draining tag must stay pending");
        assert_eq!(rm.spills(), 0);
        // The next write still finds the pending reclaim where it left it.
        let w = rm.write_tag(SetId(8));
        assert_eq!((w.tag, w.available_at), (v1.tag, 500));
    }

    #[test]
    fn released_then_reclaimed_tags_cycle_through_the_pool() {
        let mut rm = RenameMap::new(2);
        let a = rm.write_tag(SetId(0)).tag;
        let released = rm.release(SetId(0)).expect("was bound");
        assert_eq!(released, a);
        rm.reclaim(a, 0);
        // The freed tag is preferred over pool growth.
        assert_eq!(rm.write_tag(SetId(1)).tag, a);
        assert_eq!(rm.spills(), 0);
    }

    #[test]
    fn pressure_waits_for_the_earliest_pending_reclaim() {
        let mut rm = RenameMap::new(2);
        let a = rm.write_tag(SetId(0));
        let b = rm.write_tag(SetId(1));
        assert_eq!((a.available_at, b.available_at), (0, 0));
        // Both tags drain at known times; the pool is now empty.
        let t0 = rm.release(SetId(0)).unwrap();
        rm.reclaim(t0, 300);
        let t1 = rm.release(SetId(1)).unwrap();
        rm.reclaim(t1, 100);
        let c = rm.write_tag(SetId(2));
        assert_eq!(c.available_at, 100, "pressure picks the earliest reclaim");
        let d = rm.write_tag(SetId(3));
        assert_eq!(d.available_at, 300);
        assert_eq!(rm.spills(), 0);
    }

    #[test]
    fn exhaustion_spills_instead_of_deadlocking() {
        let mut rm = RenameMap::new(1);
        let a = rm.write_tag(SetId(0));
        let b = rm.write_tag(SetId(1)); // pool empty, nothing pending
        assert_ne!(a.tag, b.tag);
        assert_eq!(b.available_at, 0);
        assert_eq!(rm.spills(), 1);
    }

    #[test]
    fn available_counts_free_and_unused_tags_only() {
        let mut rm = RenameMap::new(4);
        assert_eq!(rm.available(), 4);
        let a = rm.write_tag(SetId(0));
        assert_eq!(rm.available(), 3, "one tag live");
        let t = rm.release(SetId(0)).unwrap();
        rm.reclaim(t, 0);
        assert_eq!(rm.available(), 4, "an immediate reclaim is available");
        let b = rm.write_tag(SetId(1));
        assert_eq!(b.tag, a.tag, "the freed tag is reused");
        let t = rm.release(SetId(1)).unwrap();
        rm.reclaim(t, 500);
        assert_eq!(rm.available(), 3, "a draining reclaim is not available");
    }

    #[test]
    fn clear_resets_pool_and_bindings() {
        let mut rm = RenameMap::new(4);
        let _ = rm.write_tag(SetId(0));
        rm.reclaim(SetId(99), 1_000);
        rm.clear();
        assert_eq!(rm.bound(), 0);
        assert_eq!(rm.allocations(), 0);
        assert_eq!(rm.write_tag(SetId(0)).tag, SetId(0), "tags restart at 0");
    }
}
