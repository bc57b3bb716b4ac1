//! The scoreboarded issue queue: overlapping independent SISA instructions
//! across virtual vault lanes, in order or — with set-ID renaming — out of
//! order.
//!
//! The paper's performance story (§8.4 "Harnessing Parallelism") rests on
//! hundreds of vault cores executing set operations concurrently. A serial
//! cost model — issue, dispatch, retire, one instruction at a time — makes a
//! 16-cube/512-vault machine behave like a single in-order core. This module
//! adds the missing axis as an analytic event-timed pipeline:
//!
//! * an [`IssueQueue`] of bounded `depth` holds in-flight instructions; a new
//!   instruction cannot issue until the instruction `depth` positions ahead
//!   of it has retired (in program order), so depth 1 degenerates to today's
//!   fully serial execution;
//! * a [`crate::Scoreboard`] tracks RAW/WAW/WAR hazards on operand *sets*:
//!   instructions with disjoint live operand sets may overlap, dependent ones
//!   stall, and the stall is attributed to [`IssueOutcome::dep_stall`];
//! * work executes on interchangeable **virtual vault lanes** (a lane stands
//!   for a group of vaults; the count derives from the PNM cube/vault
//!   geometry via [`sisa_pim::PnmConfig::issue_lanes`]) plus a single serial
//!   **host** resource for the scalar loop-control work algorithms report.
//!
//! # The renamed out-of-order path
//!
//! Graph-mining kernels recycle set IDs aggressively (materialise a
//! temporary, recurse, delete it, create the next one in the recycled slot),
//! so a scoreboard keyed on *logical* IDs serialises on **false** WAR/WAW
//! hazards — the reason k-clique counting floors near 1.17x overlap while
//! triangle counting reaches 16x. [`IssueQueue::with_ooo`] arms the
//! register-renaming analogue:
//!
//! * every logical-set *write* allocates a fresh **physical tag** from the
//!   bounded [`crate::rename::RenameMap`] pool, so the hazard scoreboard
//!   tracks tags and only true RAW dependences remain; free-list pressure
//!   (no tag drained yet) delays the write as a *structural* stall;
//! * a bounded **reorder window** of `ooo_window` in-flight instructions lets
//!   ready instructions start while program-earlier ones are still stalled
//!   (counted as [`IssueOutcome::bypassed`]), with retirement kept in program
//!   order — a full window waits for the oldest in-flight retire;
//! * a **shadow in-order queue** (the exact rename-off pipeline at the
//!   configured `depth` × lanes) runs alongside and decomposes every
//!   dependence stall it exposes into its true-RAW component (reported as
//!   [`IssueOutcome::dep_stall`]) and the false WAR/WAW remainder renaming
//!   removed ([`IssueOutcome::false_dep_removed`]). The two therefore sum,
//!   per instruction and per opcode, to exactly the stall the rename-off run
//!   reports on the same program — the accounting invariant the differential
//!   tests pin.
//!
//! The queue prices *time*, not *work*: per-unit cycle and energy counters in
//! [`crate::ExecStats`] stay the serial work totals regardless of depth (they
//! are conserved quantities, and every existing figure reports them), while
//! the queue computes [`IssueQueue::makespan_cycles`] — the completion time
//! of the overlapped schedule — and the dependence-stall cycles. Overlap
//! speedup is then simply `work / makespan`, and a depth-1 queue reproduces
//! the serial totals cycle-for-cycle: with one slot in flight every item
//! starts exactly when its predecessor finishes, so the makespan equals the
//! sum of all charged cycles and no dependence stall is ever exposed.
//!
//! # Per-instruction state
//!
//! Every table the queue consults per item — both scoreboards, the rename
//! binding and the shadow last-producer times — is a flat vector indexed by
//! raw set ID or physical tag, never an ordered or hashed map. Operand IDs
//! must therefore be dense: slot indices from the runtime's LIFO allocator
//! (bounded by the peak number of live sets) or tags from the rename pool
//! (bounded by its capacity plus spills). Each vector grows to one past the
//! largest ID it has seen and is emptied by [`IssueQueue::reset`].

use crate::rename::RenameMap;
use crate::scoreboard::Scoreboard;
use sisa_isa::SetId;
use std::collections::VecDeque;

/// How often (in issued items) the queue prunes retired scoreboard entries.
const PRUNE_INTERVAL: u64 = 64;

/// The execution resource a timed work item occupies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LaneKind {
    /// A virtual vault lane (set instructions, PNM/PUM execution, link
    /// transfers absorbed from a sharded wrapper).
    Vault,
    /// The single serial host core (scalar loop-control work, result
    /// hand-off). Host items overlap vault work but never each other.
    Host,
}

/// What an item's `writes` operands mean to the renaming layer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum WriteIntent {
    /// The item produces a new value for each written set: renaming binds a
    /// fresh physical tag (creates, materialising/in-place binary ops,
    /// element updates, absorbed transfers).
    #[default]
    Produce,
    /// The item kills the written sets (`sisa.del`): renaming *reads* the
    /// dying version's tag — so the delete orders only behind the producer,
    /// never behind the version's readers — and schedules the tag's reclaim
    /// once its storage drains.
    Release,
}

/// Where one issued item landed on the virtual timeline.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IssueOutcome {
    /// Cycle at which the item started executing.
    pub start: u64,
    /// Cycle at which the item completes.
    pub finish: u64,
    /// Cycles the item stalled on operand hazards *beyond* what the issue
    /// window and lane availability already imposed. On the in-order path
    /// this is the full RAW/WAW/WAR cost; on the renamed path it is the
    /// true-RAW component of the in-order reference schedule (the part
    /// renaming cannot remove).
    pub dep_stall: u64,
    /// False WAR/WAW stall cycles of the in-order reference schedule that
    /// renaming removed for this item (always 0 when renaming is off).
    /// `dep_stall + false_dep_removed` equals the stall a rename-off run
    /// reports for the same instruction.
    pub false_dep_removed: u64,
    /// Whether the item started ahead of a program-earlier instruction still
    /// in the reorder window (an out-of-order bypass; always `false` on the
    /// in-order path).
    pub bypassed: bool,
    /// The vault lane the item executed on (`None` for host items).
    pub lane: Option<usize>,
    /// The physical tag renaming bound to the item's first written set
    /// (`None` when renaming is off, for read-only items, and for releases —
    /// a delete consumes a version, it does not produce one).
    pub phys_tag: Option<SetId>,
}

/// One instruction in flight in the reorder window.
#[derive(Clone, Copy, Debug)]
struct InFlight {
    start: u64,
    retire: u64,
}

/// State of the renamed out-of-order scheduler (absent on the in-order path).
#[derive(Clone, Debug)]
struct OooState {
    /// Reorder-window capacity: in-flight (issued, unretired) instructions.
    window: usize,
    /// Busy-until time per virtual vault lane of the out-of-order schedule.
    lanes: Vec<u64>,
    /// Busy-until time of the serial host resource.
    host_busy: u64,
    /// The in-flight instructions, oldest first.
    inflight: VecDeque<InFlight>,
    /// Retire time of the youngest in-flight instruction (retirement is in
    /// program order, so retire times are non-decreasing).
    last_retire: u64,
    /// Hazard state keyed by physical tag (renaming on) or logical set ID
    /// (renaming off).
    board: Scoreboard,
    /// The renaming table, when `rename_tags > 0`.
    rename: Option<RenameMap>,
    /// Shadow decomposition state: per raw logical ID, the finish time of
    /// its last producer *in the shadow in-order schedule* — the RAW
    /// component a renamed machine cannot remove (0 = never written). It is
    /// never pruned: a retired entry is at most the prune horizon, which
    /// bounds every later shadow `base` from below, so it cannot contribute
    /// to a true-RAW stall.
    last_write: Vec<u64>,
    /// Completion time of the out-of-order schedule.
    makespan: u64,
    /// Items that started ahead of a program-earlier in-flight instruction.
    bypasses: u64,
    /// Cycles write allocations waited on tag free-list pressure.
    pressure_cycles: u64,
    /// Scratch operand buffers, reused across issues.
    reads_buf: Vec<SetId>,
    writes_buf: Vec<SetId>,
    reclaim_buf: Vec<SetId>,
}

impl OooState {
    fn new(window: usize, lanes: usize, rename_tags: usize) -> Self {
        Self {
            window: window.max(1),
            lanes: vec![0; lanes.max(1)],
            host_busy: 0,
            inflight: VecDeque::new(),
            last_retire: 0,
            board: Scoreboard::new(),
            rename: (rename_tags > 0).then(|| RenameMap::new(rename_tags)),
            last_write: Vec::new(),
            makespan: 0,
            bypasses: 0,
            pressure_cycles: 0,
            reads_buf: Vec::new(),
            writes_buf: Vec::new(),
            reclaim_buf: Vec::new(),
        }
    }

    /// Issues one item on the out-of-order timeline. Returns
    /// `(start, finish, lane, bypassed, exposed_dep_stall)` — the exposed
    /// stall is only meaningful when renaming is off (with renaming on the
    /// caller reports the shadow decomposition instead).
    fn issue(
        &mut self,
        kind: LaneKind,
        cycles: u64,
        reads: &[SetId],
        writes: &[SetId],
        intent: WriteIntent,
    ) -> (u64, u64, Option<usize>, bool, u64) {
        // Operand translation: logical IDs, or physical tags under renaming.
        // Read tags resolve before write tags bind, so an item that reads and
        // rewrites the same set (an element update, an in-place binary op)
        // depends on the previous version and produces the next one.
        self.reads_buf.clear();
        self.writes_buf.clear();
        self.reclaim_buf.clear();
        let mut tag_avail = 0u64;
        let renaming = self.rename.is_some();
        if let Some(rm) = self.rename.as_mut() {
            for &r in reads {
                self.reads_buf.push(rm.read_tag(r));
            }
            match intent {
                WriteIntent::Produce => {
                    for &w in writes {
                        let alloc = rm.write_tag(w);
                        tag_avail = tag_avail.max(alloc.available_at);
                        if let Some(old) = alloc.superseded {
                            self.reclaim_buf.push(old);
                        }
                        self.writes_buf.push(alloc.tag);
                    }
                }
                WriteIntent::Release => {
                    for &w in writes {
                        // The delete consumes the dying version: RAW on its
                        // producer only, then the tag drains back to the pool.
                        let tag = rm.read_tag(w);
                        rm.release(w);
                        self.reads_buf.push(tag);
                        self.reclaim_buf.push(tag);
                    }
                }
            }
        } else {
            self.reads_buf.extend_from_slice(reads);
            self.writes_buf.extend_from_slice(writes);
        }

        // Structural constraint: a full reorder window frees its oldest slot
        // at that instruction's in-order retire time.
        let structural = if self.inflight.len() >= self.window {
            self.inflight.pop_front().map_or(0, |f| f.retire)
        } else {
            0
        };
        // Resource constraint: the earliest-free vault lane, or the host.
        let (resource, lane) = match kind {
            LaneKind::Vault => {
                let (idx, &busy) = self
                    .lanes
                    .iter()
                    .enumerate()
                    .min_by_key(|&(i, &busy)| (busy, i))
                    .expect("at least one lane");
                (busy, Some(idx))
            }
            LaneKind::Host => (self.host_busy, None),
        };
        // Operand constraint: true RAW on tags under renaming, the full
        // RAW/WAW/WAR rules on logical IDs otherwise.
        let ready = if renaming {
            self.board.raw_ready_at(&self.reads_buf)
        } else {
            self.board.ready_at(&self.reads_buf, &self.writes_buf)
        };

        let floor = structural.max(resource);
        // Free-list pressure surfaces as a structural stall, not a
        // dependence stall.
        self.pressure_cycles += tag_avail.saturating_sub(floor.max(ready));
        let base = floor.max(tag_avail);
        let start = base.max(ready);
        let exposed_dep = ready.saturating_sub(base);
        let finish = start + cycles;

        match lane {
            Some(idx) => self.lanes[idx] = finish,
            None => self.host_busy = finish,
        }
        // Bypass: the item starts while a program-earlier instruction in the
        // window has not even started yet.
        let bypassed = self.inflight.iter().any(|f| f.start > start);
        if bypassed {
            self.bypasses += 1;
        }
        // In-order retirement: an item cannot retire before its predecessor.
        let retire = self.last_retire.max(finish);
        self.inflight.push_back(InFlight { start, retire });
        self.last_retire = retire;

        self.board.record(&self.reads_buf, &self.writes_buf, finish);
        // Superseded / deleted versions drain once their last recorded use
        // and the superseding item complete; then the tag returns to the pool
        // with a clean hazard slate.
        if let Some(rm) = &mut self.rename {
            for &old in &self.reclaim_buf {
                let (w, r) = self.board.times_of(old);
                self.board.release(old);
                rm.reclaim(old, w.max(r).max(finish));
            }
        }
        self.makespan = self.makespan.max(finish);
        (start, finish, lane, bypassed, exposed_dep)
    }

    /// Drops hazard state that can no longer bind any future start time: on
    /// the out-of-order timeline every vault item starts at or after the
    /// earliest-free lane, and with a full window at or after the oldest
    /// in-flight retire.
    fn prune(&mut self) {
        let mut horizon = self.lanes.iter().copied().min().unwrap_or(0);
        if self.inflight.len() >= self.window {
            horizon = horizon.max(self.inflight.front().map_or(0, |f| f.retire));
        }
        self.board.prune_completed(horizon);
    }

    fn reset(&mut self) {
        for lane in &mut self.lanes {
            *lane = 0;
        }
        self.host_busy = 0;
        self.inflight.clear();
        self.last_retire = 0;
        self.board.clear();
        if let Some(rm) = &mut self.rename {
            rm.clear();
        }
        self.last_write.clear();
        self.makespan = 0;
        self.bypasses = 0;
        self.pressure_cycles = 0;
    }
}

/// A bounded, scoreboarded issue queue over virtual vault lanes.
///
/// The queue is *analytic*: it never simulates cycle-by-cycle, it computes
/// each item's start time as the maximum of its three constraints
/// (issue-window slot, operand readiness, resource availability) and
/// advances the affected timelines. All times are on a virtual clock that
/// starts at 0 and is reset by [`IssueQueue::reset`].
///
/// [`IssueQueue::new`] builds the in-order queue; [`IssueQueue::with_ooo`]
/// adds the renamed out-of-order scheduler on top, in which case the in-order
/// state keeps advancing as the *shadow reference schedule* that prices what
/// the same program costs without renaming (the stall-decomposition baseline
/// and [`IssueQueue::shadow_makespan_cycles`]).
///
/// Operand IDs must be dense slot indices (or physical tags): the hazard
/// tables are vectors indexed by raw ID, so their memory follows the largest
/// ID issued, not the number of IDs in flight.
#[derive(Clone, Debug)]
pub struct IssueQueue {
    depth: usize,
    /// Busy-until time per virtual vault lane.
    lanes: Vec<u64>,
    /// Busy-until time of the serial host resource.
    host_busy: u64,
    /// Retire times of the last `depth` issued items, in program order.
    /// Retirement is in order, so the deque is kept non-decreasing.
    window: VecDeque<u64>,
    scoreboard: Scoreboard,
    makespan: u64,
    issued: u64,
    /// The renamed out-of-order scheduler, when armed.
    ooo: Option<Box<OooState>>,
}

impl IssueQueue {
    /// Creates an in-order queue with `depth` in-flight slots over `lanes`
    /// vault lanes. Both are clamped to at least 1.
    #[must_use]
    pub fn new(depth: usize, lanes: usize) -> Self {
        Self {
            depth: depth.max(1),
            lanes: vec![0; lanes.max(1)],
            host_busy: 0,
            window: VecDeque::new(),
            scoreboard: Scoreboard::new(),
            makespan: 0,
            issued: 0,
            ooo: None,
        }
    }

    /// Creates a queue whose items execute on the renamed out-of-order
    /// scheduler: a reorder window of `ooo_window` in-flight instructions
    /// (0 falls back to `depth`) over the same `lanes`, with set-ID renaming
    /// through a pool of `rename_tags` physical tags (0 disables renaming —
    /// the window then reorders under the full logical-ID hazard rules).
    /// The in-order state of `depth` × `lanes` keeps running as the shadow
    /// reference schedule.
    #[must_use]
    pub fn with_ooo(depth: usize, lanes: usize, ooo_window: usize, rename_tags: usize) -> Self {
        let mut queue = Self::new(depth, lanes);
        let window = if ooo_window == 0 {
            queue.depth
        } else {
            ooo_window
        };
        queue.ooo = Some(Box::new(OooState::new(
            window,
            queue.lanes.len(),
            rename_tags,
        )));
        queue
    }

    /// The configured issue-window depth (the in-order window; the shadow
    /// reference window when the out-of-order scheduler is armed).
    #[must_use]
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// The reorder-window capacity, when the out-of-order scheduler is armed.
    #[must_use]
    pub fn ooo_window(&self) -> Option<usize> {
        self.ooo.as_ref().map(|o| o.window)
    }

    /// Whether set-ID renaming is armed.
    #[must_use]
    pub fn renaming(&self) -> bool {
        self.ooo.as_ref().is_some_and(|o| o.rename.is_some())
    }

    /// The number of virtual vault lanes.
    #[must_use]
    pub fn lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// Completion time of the overlapped schedule so far (the out-of-order
    /// schedule when armed, the in-order schedule otherwise).
    #[must_use]
    pub fn makespan_cycles(&self) -> u64 {
        self.ooo.as_ref().map_or(self.makespan, |o| o.makespan)
    }

    /// Completion time of the shadow in-order reference schedule, when the
    /// out-of-order scheduler is armed: what the same program costs at
    /// `depth` × lanes without renaming.
    #[must_use]
    pub fn shadow_makespan_cycles(&self) -> Option<u64> {
        self.ooo.as_ref().map(|_| self.makespan)
    }

    /// Number of items issued since the last reset.
    #[must_use]
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Items that started ahead of a program-earlier in-flight instruction
    /// (0 on the in-order path).
    #[must_use]
    pub fn bypasses(&self) -> u64 {
        self.ooo.as_ref().map_or(0, |o| o.bypasses)
    }

    /// Cycles write allocations waited on renaming free-list pressure (the
    /// structural stall of an exhausted physical-tag pool).
    #[must_use]
    pub fn rename_pressure_cycles(&self) -> u64 {
        self.ooo.as_ref().map_or(0, |o| o.pressure_cycles)
    }

    /// Allocations that grew the tag pool past its configured capacity
    /// (more live set versions than physical slots).
    #[must_use]
    pub fn rename_spills(&self) -> u64 {
        self.ooo
            .as_ref()
            .and_then(|o| o.rename.as_ref())
            .map_or(0, RenameMap::spills)
    }

    /// Items currently occupying the active issue window (the reorder window
    /// when the out-of-order scheduler is armed, the in-order window
    /// otherwise) — the queue-depth sample telemetry collectors record.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.ooo
            .as_ref()
            .map_or(self.window.len(), |o| o.inflight.len())
    }

    /// Physical tags still allocatable from the renaming pool (`None` when
    /// renaming is off) — the free-tag-pool sample telemetry collectors
    /// record. Versions still draining towards a pending reclaim are not
    /// counted.
    #[must_use]
    pub fn free_tags(&self) -> Option<usize> {
        self.ooo
            .as_ref()
            .and_then(|o| o.rename.as_ref())
            .map(RenameMap::available)
    }

    /// Number of operand IDs (or physical tags) currently carrying hazard
    /// state, across the active and shadow scoreboards (capacity telemetry;
    /// pruning keeps this bounded by the in-flight footprint).
    #[must_use]
    pub fn tracked_operands(&self) -> usize {
        self.scoreboard.tracked() + self.ooo.as_ref().map_or(0, |o| o.board.tracked())
    }

    /// Length of the longest ID-indexed table the queue holds — both
    /// scoreboards, the rename binding and the shadow last-producer times —
    /// since the last [`IssueQueue::reset`]. With dense operand IDs it is at
    /// most the peak number of live sets plus, under renaming, the tag
    /// pool's capacity and spills.
    #[cfg(test)]
    pub(crate) fn footprint(&self) -> usize {
        let ooo = self.ooo.as_ref().map_or(0, |o| {
            let rename = o.rename.as_ref().map_or(0, RenameMap::footprint);
            o.board.footprint().max(o.last_write.len()).max(rename)
        });
        self.scoreboard.footprint().max(ooo)
    }

    /// Issues one timed work item producing its written sets: `cycles` of
    /// execution on `kind`, reading `reads` and writing `writes`. Returns
    /// where it landed on the timeline.
    pub fn issue(
        &mut self,
        kind: LaneKind,
        cycles: u64,
        reads: &[SetId],
        writes: &[SetId],
    ) -> IssueOutcome {
        self.issue_op(kind, cycles, reads, writes, WriteIntent::Produce)
    }

    /// Issues one timed work item, with `intent` telling the renaming layer
    /// whether the written sets are produced or killed ([`WriteIntent`]).
    pub fn issue_op(
        &mut self,
        kind: LaneKind,
        cycles: u64,
        reads: &[SetId],
        writes: &[SetId],
        intent: WriteIntent,
    ) -> IssueOutcome {
        // Host items model the serial scalar resource and must not name
        // operand sets: the retire-horizon pruning proof covers vault items
        // only (a host item with hazards could start below the lane-derived
        // horizon and read pruned state). The runtime never issues one.
        assert!(
            kind != LaneKind::Host || (reads.is_empty() && writes.is_empty()),
            "host items must not carry operand sets"
        );
        // The in-order schedule: the only schedule without the out-of-order
        // scheduler, the shadow reference schedule with it.
        let shadow = self.issue_in_order(kind, cycles, reads, writes);
        let outcome = if let Some(ooo) = self.ooo.as_mut() {
            // Decompose the shadow's stall into the true-RAW component (the
            // producer dependence a renamed machine keeps) and the false
            // WAR/WAW remainder, *before* the shadow's finish times are
            // published to the last-producer map.
            let renaming = ooo.rename.is_some();
            let (s_true, s_false) = if renaming {
                let base = shadow.start - shadow.dep_stall;
                let produced = |id: &SetId| ooo.last_write.get(id.raw() as usize).copied();
                let mut ready_true = reads.iter().filter_map(produced).max().unwrap_or(0);
                if intent == WriteIntent::Release {
                    // A renamed delete still consumes the dying version.
                    let consumed = writes.iter().filter_map(produced).max().unwrap_or(0);
                    ready_true = ready_true.max(consumed);
                }
                let s_true = ready_true.saturating_sub(base);
                debug_assert!(s_true <= shadow.dep_stall);
                (s_true, shadow.dep_stall - s_true)
            } else {
                (0, 0)
            };
            if renaming {
                // The last-producer times only feed the decomposition above.
                for &w in writes {
                    let raw = w.raw() as usize;
                    if raw >= ooo.last_write.len() {
                        ooo.last_write.resize(raw + 1, 0);
                    }
                    ooo.last_write[raw] = shadow.finish;
                }
            }
            let (start, finish, lane, bypassed, exposed_dep) =
                ooo.issue(kind, cycles, reads, writes, intent);
            // The scratch write buffer still holds the physical tags the
            // issue just bound (it is cleared only on the next issue).
            let phys_tag = (renaming && intent == WriteIntent::Produce)
                .then(|| ooo.writes_buf.first().copied())
                .flatten();
            IssueOutcome {
                start,
                finish,
                // With renaming on, report the shadow decomposition (it sums
                // with `false_dep_removed` to the rename-off stall); without
                // renaming the reordered schedule's own exposed stall is the
                // full hazard cost.
                dep_stall: if renaming { s_true } else { exposed_dep },
                false_dep_removed: s_false,
                bypassed,
                lane,
                phys_tag,
            }
        } else {
            shadow
        };
        self.issued += 1;
        if self.issued.is_multiple_of(PRUNE_INTERVAL) {
            self.prune();
        }
        outcome
    }

    /// The in-order scheduling rule: issue-window slot, earliest-free lane,
    /// full RAW/WAW/WAR readiness on logical set IDs.
    fn issue_in_order(
        &mut self,
        kind: LaneKind,
        cycles: u64,
        reads: &[SetId],
        writes: &[SetId],
    ) -> IssueOutcome {
        // Structural constraint: with the window full, the oldest in-flight
        // item must retire (in program order) to free a slot.
        let structural = if self.window.len() >= self.depth {
            self.window.pop_front().unwrap_or(0)
        } else {
            0
        };
        // Resource constraint: the earliest-free vault lane, or the host.
        let (resource_free, lane) = match kind {
            LaneKind::Vault => {
                let (idx, &busy) = self
                    .lanes
                    .iter()
                    .enumerate()
                    .min_by_key(|&(i, &busy)| (busy, i))
                    .expect("at least one lane");
                (busy, Some(idx))
            }
            LaneKind::Host => (self.host_busy, None),
        };
        // Operand constraint: RAW/WAW/WAR hazards on the named sets.
        let ready = self.scoreboard.ready_at(reads, writes);

        let base = structural.max(resource_free);
        let start = base.max(ready);
        let dep_stall = ready.saturating_sub(base);
        let finish = start + cycles;

        match lane {
            Some(idx) => self.lanes[idx] = finish,
            None => self.host_busy = finish,
        }
        // In-order retirement: an item cannot retire before its predecessor.
        let retire = self.window.back().map_or(finish, |&r| r.max(finish));
        self.window.push_back(retire);
        self.scoreboard.record(reads, writes, finish);
        self.makespan = self.makespan.max(finish);
        IssueOutcome {
            start,
            finish,
            dep_stall,
            false_dep_removed: 0,
            bypassed: false,
            lane,
            phys_tag: None,
        }
    }

    /// Prunes retired hazard state from both scoreboards. Safe because every
    /// future vault item starts at or after the earliest-free lane (and the
    /// oldest in-flight retire once the window is full), so entries at or
    /// below that horizon can never again bind a start time.
    fn prune(&mut self) {
        let mut horizon = self.lanes.iter().copied().min().unwrap_or(0);
        if self.window.len() >= self.depth {
            horizon = horizon.max(self.window.front().copied().unwrap_or(0));
        }
        self.scoreboard.prune_completed(horizon);
        if let Some(ooo) = &mut self.ooo {
            ooo.prune();
        }
    }

    /// Restarts the virtual clock at 0 and forgets all in-flight state (the
    /// load/measure boundary: statistics resets re-zero the timeline too).
    pub fn reset(&mut self) {
        for lane in &mut self.lanes {
            *lane = 0;
        }
        self.host_busy = 0;
        self.window.clear();
        self.scoreboard.clear();
        self.makespan = 0;
        self.issued = 0;
        if let Some(ooo) = &mut self.ooo {
            ooo.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(raw: &[u32]) -> Vec<SetId> {
        raw.iter().map(|&r| SetId(r)).collect()
    }

    #[test]
    fn depth_one_serialises_everything() {
        let mut q = IssueQueue::new(1, 8);
        let costs = [10u64, 7, 23, 5];
        let mut expected = 0;
        for (i, &c) in costs.iter().enumerate() {
            // Items touch disjoint sets — only the window can serialise them.
            let out = q.issue(LaneKind::Vault, c, &ids(&[i as u32]), &[]);
            assert_eq!(out.start, expected, "item {i} must wait for {expected}");
            assert_eq!(out.dep_stall, 0);
            expected += c;
        }
        assert_eq!(q.makespan_cycles(), costs.iter().sum::<u64>());
    }

    #[test]
    fn independent_items_overlap_across_lanes() {
        let mut q = IssueQueue::new(8, 4);
        for i in 0..4u32 {
            let out = q.issue(LaneKind::Vault, 100, &ids(&[i]), &[]);
            assert_eq!(out.start, 0, "lane {i} should start immediately");
        }
        assert_eq!(q.makespan_cycles(), 100);
        // A fifth item waits for the earliest lane to free up.
        let out = q.issue(LaneKind::Vault, 10, &ids(&[9]), &[]);
        assert_eq!(out.start, 100);
        assert_eq!(out.dep_stall, 0);
    }

    #[test]
    fn raw_dependences_stall_and_are_attributed() {
        let mut q = IssueQueue::new(8, 4);
        let w = q.issue(LaneKind::Vault, 50, &[], &ids(&[1]));
        assert_eq!(w.finish, 50);
        // Reader of set 1 must wait for the write even though lanes are free.
        let r = q.issue(LaneKind::Vault, 10, &ids(&[1]), &[]);
        assert_eq!(r.start, 50);
        assert_eq!(r.dep_stall, 50);
        // An unrelated item overlaps with both.
        let free = q.issue(LaneKind::Vault, 10, &ids(&[2]), &[]);
        assert_eq!(free.start, 0);
    }

    #[test]
    fn host_items_serialise_on_the_host_but_overlap_lane_work() {
        let mut q = IssueQueue::new(8, 4);
        let lane = q.issue(LaneKind::Vault, 100, &ids(&[1]), &[]);
        assert_eq!(lane.start, 0);
        let h1 = q.issue(LaneKind::Host, 30, &[], &[]);
        let h2 = q.issue(LaneKind::Host, 30, &[], &[]);
        assert_eq!(h1.start, 0, "host work overlaps vault work");
        assert_eq!(h2.start, 30, "host work never overlaps itself");
        assert!(h1.lane.is_none() && h2.lane.is_none());
    }

    #[test]
    #[should_panic(expected = "host items must not carry operand sets")]
    fn host_items_with_operands_are_rejected() {
        // The retire-horizon pruning proof covers vault items only; a host
        // item naming sets would be able to start below the lane-derived
        // horizon, so the queue rejects the combination outright.
        let mut q = IssueQueue::new(4, 2);
        q.issue(LaneKind::Host, 10, &ids(&[1]), &[]);
    }

    #[test]
    fn the_window_bounds_in_flight_items() {
        let mut q = IssueQueue::new(2, 16);
        // Three independent long items on 16 free lanes: the third must wait
        // for the first to retire (window depth 2).
        let a = q.issue(LaneKind::Vault, 100, &ids(&[1]), &[]);
        let b = q.issue(LaneKind::Vault, 100, &ids(&[2]), &[]);
        let c = q.issue(LaneKind::Vault, 100, &ids(&[3]), &[]);
        assert_eq!((a.start, b.start), (0, 0));
        assert_eq!(c.start, 100);
        assert_eq!(c.dep_stall, 0, "a structural wait is not a dep stall");
    }

    #[test]
    fn retirement_is_in_program_order() {
        let mut q = IssueQueue::new(2, 16);
        // A long item followed by a short one: the short item finishes first
        // but retires after its predecessor, so the window frees at 100, not
        // at 10.
        q.issue(LaneKind::Vault, 100, &ids(&[1]), &[]);
        q.issue(LaneKind::Vault, 10, &ids(&[2]), &[]);
        let third = q.issue(LaneKind::Vault, 1, &ids(&[3]), &[]);
        assert_eq!(third.start, 100);
    }

    #[test]
    fn reset_restarts_the_clock() {
        let mut q = IssueQueue::new(4, 2);
        q.issue(LaneKind::Vault, 500, &[], &ids(&[1]));
        q.issue(LaneKind::Host, 40, &[], &[]);
        assert!(q.makespan_cycles() > 0);
        q.reset();
        assert_eq!(q.makespan_cycles(), 0);
        assert_eq!(q.issued(), 0);
        let out = q.issue(LaneKind::Vault, 5, &ids(&[1]), &[]);
        assert_eq!(out.start, 0);
    }

    #[test]
    fn degenerate_configurations_are_clamped() {
        let q = IssueQueue::new(0, 0);
        assert_eq!(q.depth(), 1);
        assert_eq!(q.lane_count(), 1);
        let oq = IssueQueue::with_ooo(0, 0, 0, 0);
        assert_eq!(oq.ooo_window(), Some(1), "window falls back to the depth");
        assert!(!oq.renaming());
    }

    #[test]
    fn more_lanes_never_slow_a_schedule_down() {
        // A mixed dependent/independent workload, replayed at increasing lane
        // counts: the makespan must be non-increasing (the property the
        // pipeline_overlap figure's schema check rests on).
        let items: Vec<(u64, Vec<SetId>, Vec<SetId>)> = (0..40u32)
            .map(|i| {
                let cost = 5 + u64::from(i % 7) * 11;
                let reads = ids(&[i % 5, (i * 3) % 11]);
                let writes = if i % 3 == 0 {
                    ids(&[i % 4 + 20])
                } else {
                    vec![]
                };
                (cost, reads, writes)
            })
            .collect();
        let mut last = u64::MAX;
        for lanes in [1usize, 2, 4, 8, 16] {
            let mut q = IssueQueue::new(8, lanes);
            for (cost, reads, writes) in &items {
                q.issue(LaneKind::Vault, *cost, reads, writes);
            }
            assert!(
                q.makespan_cycles() <= last,
                "makespan grew from {last} to {} at {lanes} lanes",
                q.makespan_cycles()
            );
            last = q.makespan_cycles();
        }
    }

    // -----------------------------------------------------------------------
    // The renamed out-of-order path
    // -----------------------------------------------------------------------

    /// A delete/recreate chain over one recycled logical ID: the classic
    /// false-dependence pattern (materialise → read → delete → recreate).
    fn recycled_chain(q: &mut IssueQueue) {
        for _ in 0..8 {
            q.issue(LaneKind::Vault, 10, &[], &ids(&[1])); // create / produce
            q.issue(LaneKind::Vault, 100, &ids(&[1]), &[]); // long read
            q.issue_op(LaneKind::Vault, 5, &[], &ids(&[1]), WriteIntent::Release);
        }
    }

    #[test]
    fn renaming_removes_war_waw_hazards_on_recycled_ids() {
        let mut inorder = IssueQueue::new(8, 8);
        recycled_chain(&mut inorder);
        let mut renamed = IssueQueue::with_ooo(8, 8, 8, 64);
        recycled_chain(&mut renamed);
        assert!(renamed.renaming());
        // In order, every recreate WAR-waits for the previous long read; with
        // renaming the chains run on distinct tags and overlap across lanes.
        assert!(
            renamed.makespan_cycles() < inorder.makespan_cycles(),
            "renamed {} !< in-order {}",
            renamed.makespan_cycles(),
            inorder.makespan_cycles()
        );
        // The shadow reference reproduces the in-order schedule exactly.
        assert_eq!(
            renamed.shadow_makespan_cycles(),
            Some(inorder.makespan_cycles())
        );
        assert!(renamed.bypasses() > 0, "later chains bypass stalled ones");
    }

    #[test]
    fn stall_decomposition_sums_to_the_in_order_stall() {
        // For every item: dep_stall + false_dep_removed (renamed run) equals
        // the in-order run's dep_stall, exactly.
        let items: Vec<(u64, Vec<SetId>, Vec<SetId>, WriteIntent)> = (0..60u32)
            .map(|i| {
                let cost = 3 + u64::from(i % 9) * 7;
                let reads = ids(&[i % 4]);
                let writes = ids(&[(i + 1) % 4]);
                let intent = if i % 5 == 4 {
                    WriteIntent::Release
                } else {
                    WriteIntent::Produce
                };
                (cost, reads, writes, intent)
            })
            .collect();
        let mut inorder = IssueQueue::new(6, 3);
        let mut renamed = IssueQueue::with_ooo(6, 3, 12, 32);
        for (cost, reads, writes, intent) in &items {
            let a = inorder.issue_op(LaneKind::Vault, *cost, reads, writes, *intent);
            let b = renamed.issue_op(LaneKind::Vault, *cost, reads, writes, *intent);
            assert_eq!(
                b.dep_stall + b.false_dep_removed,
                a.dep_stall,
                "decomposition must sum to the in-order stall"
            );
        }
    }

    #[test]
    fn reordering_without_renaming_matches_the_in_order_queue() {
        // With renaming off, the reorder window obeys the same full-hazard
        // rules and the same window arithmetic as an in-order queue of that
        // depth: the two schedules must coincide cycle-for-cycle.
        let items: Vec<(u64, Vec<SetId>, Vec<SetId>)> = (0..50u32)
            .map(|i| (2 + u64::from(i % 6) * 9, ids(&[i % 7]), ids(&[(i * 5) % 9])))
            .collect();
        let mut inorder = IssueQueue::new(5, 4);
        let mut windowed = IssueQueue::with_ooo(1, 4, 5, 0);
        for (cost, reads, writes) in &items {
            let a = inorder.issue(LaneKind::Vault, *cost, reads, writes);
            let b = windowed.issue(LaneKind::Vault, *cost, reads, writes);
            assert_eq!(
                (a.start, a.finish, a.dep_stall),
                (b.start, b.finish, b.dep_stall)
            );
        }
        assert_eq!(inorder.makespan_cycles(), windowed.makespan_cycles());
    }

    #[test]
    fn tag_pressure_is_a_structural_stall() {
        // Two tags, three live versions in flight: the third write waits for
        // the earliest reclaim without charging a dependence stall.
        let mut q = IssueQueue::with_ooo(8, 8, 8, 2);
        q.issue(LaneKind::Vault, 100, &[], &ids(&[0]));
        q.issue(LaneKind::Vault, 100, &[], &ids(&[1]));
        let third = q.issue(LaneKind::Vault, 10, &[], &ids(&[2]));
        assert_eq!(third.dep_stall, 0, "pool pressure is not a dependence");
        assert!(
            q.rename_pressure_cycles() == 0 && q.rename_spills() > 0,
            "no version has a pending reclaim yet: the pool spills"
        );
        // Now versions drain: a pool of two over one logical alternates, and
        // the third write waits for the first version's pending reclaim.
        let mut tight = IssueQueue::with_ooo(8, 8, 8, 2);
        tight.issue(LaneKind::Vault, 100, &[], &ids(&[0])); // tag A, drains at 100
        tight.issue(LaneKind::Vault, 100, &[], &ids(&[0])); // tag B supersedes A
        let third = tight.issue(LaneKind::Vault, 10, &[], &ids(&[0]));
        assert_eq!(third.start, 100, "waits for the first version to drain");
        assert_eq!(third.dep_stall, 0);
        assert_eq!(tight.rename_pressure_cycles(), 100);
        assert_eq!(tight.rename_spills(), 0);
    }

    #[test]
    fn window_growth_never_slows_the_renamed_schedule() {
        let items: Vec<(u64, Vec<SetId>, Vec<SetId>, WriteIntent)> = (0..80u32)
            .map(|i| {
                let cost = 4 + u64::from(i % 5) * 13;
                let reads = ids(&[i % 6, (i * 7) % 11]);
                let writes = ids(&[i % 3]);
                let intent = if i % 7 == 6 {
                    WriteIntent::Release
                } else {
                    WriteIntent::Produce
                };
                (cost, reads, writes, intent)
            })
            .collect();
        let mut last = u64::MAX;
        for window in [1usize, 2, 4, 8, 16, 64] {
            let mut q = IssueQueue::with_ooo(4, 4, window, 128);
            for (cost, reads, writes, intent) in &items {
                q.issue_op(LaneKind::Vault, *cost, reads, writes, *intent);
            }
            assert!(
                q.makespan_cycles() <= last,
                "makespan grew from {last} to {} at window {window}",
                q.makespan_cycles()
            );
            last = q.makespan_cycles();
        }
    }

    #[test]
    fn pruning_keeps_hazard_state_bounded_across_long_programs() {
        // Regression for the scoreboard-growth bug: a queue fed an unbounded
        // stream of distinct operand IDs used to retain hazard state for
        // every ID it ever saw.
        let mut q = IssueQueue::new(4, 2);
        for i in 0..10_000u32 {
            q.issue(LaneKind::Vault, 3, &ids(&[i]), &ids(&[i + 100_000]));
        }
        assert!(
            q.tracked_operands() <= 4 * PRUNE_INTERVAL as usize,
            "in-order hazard state must stay near the in-flight footprint, \
             got {}",
            q.tracked_operands()
        );
        let mut oq = IssueQueue::with_ooo(4, 2, 8, 64);
        for i in 0..10_000u32 {
            oq.issue(LaneKind::Vault, 3, &ids(&[i]), &ids(&[i + 100_000]));
        }
        assert!(
            oq.tracked_operands() <= 8 * PRUNE_INTERVAL as usize,
            "renamed hazard state must stay near the tag-pool footprint, \
             got {}",
            oq.tracked_operands()
        );
    }

    #[test]
    fn pruning_never_changes_the_schedule() {
        // The same dependent workload issued twice, once short enough that no
        // prune fires and once padded past the prune interval with
        // independent filler: the shared prefix must land identically.
        let build = |pad: usize| {
            let mut q = IssueQueue::new(8, 4);
            let mut outcomes = Vec::new();
            for i in 0..pad {
                q.issue(LaneKind::Vault, 1, &ids(&[1_000 + i as u32]), &[]);
            }
            for i in 0..30u32 {
                outcomes.push(q.issue(LaneKind::Vault, 7, &ids(&[i % 3]), &ids(&[(i + 1) % 3])));
            }
            outcomes
                .iter()
                .map(|o| (o.start - outcomes[0].start, o.dep_stall))
                .collect::<Vec<_>>()
        };
        assert_eq!(build(0), build(200), "pruning must be schedule-invariant");
    }

    #[test]
    fn telemetry_getters_expose_tags_and_occupancy() {
        let mut q = IssueQueue::new(4, 2);
        assert_eq!(q.in_flight(), 0);
        assert_eq!(q.free_tags(), None);
        let out = q.issue(LaneKind::Vault, 5, &[], &ids(&[1]));
        assert_eq!(out.phys_tag, None, "no renaming, no tag");
        assert_eq!(q.in_flight(), 1);

        let mut rq = IssueQueue::with_ooo(4, 2, 4, 8);
        assert_eq!(rq.free_tags(), Some(8));
        let w = rq.issue(LaneKind::Vault, 5, &[], &ids(&[1]));
        assert_eq!(w.phys_tag, Some(SetId(0)), "the bound tag is reported");
        assert_eq!(rq.free_tags(), Some(7));
        assert_eq!(rq.in_flight(), 1);
        let r = rq.issue(LaneKind::Vault, 5, &ids(&[1]), &[]);
        assert_eq!(r.phys_tag, None, "read-only items bind no tag");
        let d = rq.issue_op(LaneKind::Vault, 1, &[], &ids(&[1]), WriteIntent::Release);
        assert_eq!(d.phys_tag, None, "a release consumes, it does not produce");
    }

    #[test]
    fn reset_rearms_the_ooo_state() {
        let mut q = IssueQueue::with_ooo(4, 4, 8, 16);
        recycled_chain(&mut q);
        assert!(q.makespan_cycles() > 0);
        q.reset();
        assert_eq!(q.makespan_cycles(), 0);
        assert_eq!(q.bypasses(), 0);
        assert_eq!(q.rename_pressure_cycles(), 0);
        assert_eq!(q.shadow_makespan_cycles(), Some(0));
        let out = q.issue(LaneKind::Vault, 5, &ids(&[1]), &[]);
        assert_eq!(out.start, 0);
    }
}
