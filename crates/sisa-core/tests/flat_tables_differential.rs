//! Differential property tests for the slot-indexed pricing tables.
//!
//! [`Scoreboard`], [`RenameMap`], [`SmbCache`] and [`SetMetadataTable`] store
//! their state in flat vectors indexed by raw set ID or physical tag. This
//! file keeps the earlier ordered-map and hash-map implementations as
//! reference models and drives each flat table and its model with the same
//! random operation sequence, asserting identical return values and
//! identical counts (`tracked`, `bound`, `available`, `len`, ...) after
//! every operation.

use proptest::prelude::*;
use sisa_core::{RenameMap, Scoreboard, SetMetadata, SetMetadataTable, SmbCache};
use sisa_isa::SetId;
use sisa_sets::RepresentationKind;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};

/// Map-based reference models, as the tables were before the flat rewrite.
mod reference {
    use super::*;

    #[derive(Clone, Copy, Default)]
    struct SetTimes {
        write_done: u64,
        reads_done: u64,
    }

    #[derive(Default)]
    pub struct Scoreboard {
        times: BTreeMap<u32, SetTimes>,
    }

    impl Scoreboard {
        fn entry(&self, id: SetId) -> SetTimes {
            self.times.get(&id.raw()).copied().unwrap_or_default()
        }

        pub fn ready_at(&self, reads: &[SetId], writes: &[SetId]) -> u64 {
            let mut ready = 0;
            for &r in reads {
                ready = ready.max(self.entry(r).write_done);
            }
            for &w in writes {
                let t = self.entry(w);
                ready = ready.max(t.write_done).max(t.reads_done);
            }
            ready
        }

        pub fn raw_ready_at(&self, reads: &[SetId]) -> u64 {
            reads
                .iter()
                .map(|&r| self.entry(r).write_done)
                .max()
                .unwrap_or(0)
        }

        pub fn record(&mut self, reads: &[SetId], writes: &[SetId], finish: u64) {
            for &r in reads {
                let t = self.times.entry(r.raw()).or_default();
                t.reads_done = t.reads_done.max(finish);
            }
            for &w in writes {
                let t = self.times.entry(w.raw()).or_default();
                t.write_done = t.write_done.max(finish);
            }
        }

        pub fn times_of(&self, id: SetId) -> (u64, u64) {
            let t = self.entry(id);
            (t.write_done, t.reads_done)
        }

        pub fn release(&mut self, id: SetId) {
            self.times.remove(&id.raw());
        }

        pub fn prune_completed(&mut self, horizon: u64) -> usize {
            let before = self.times.len();
            self.times
                .retain(|_, t| t.write_done > horizon || t.reads_done > horizon);
            before - self.times.len()
        }

        pub fn clear(&mut self) {
            self.times.clear();
        }

        pub fn tracked(&self) -> usize {
            self.times.len()
        }
    }

    #[derive(Default)]
    pub struct RenameMap {
        current: BTreeMap<u32, u32>,
        free: Vec<u32>,
        pending: BinaryHeap<Reverse<(u64, u32)>>,
        next_tag: u32,
        capacity: usize,
        allocations: u64,
        spills: u64,
    }

    impl RenameMap {
        pub fn new(capacity: usize) -> Self {
            Self {
                capacity: capacity.max(1),
                ..Self::default()
            }
        }

        pub fn allocations(&self) -> u64 {
            self.allocations
        }

        pub fn spills(&self) -> u64 {
            self.spills
        }

        pub fn bound(&self) -> usize {
            self.current.len()
        }

        pub fn available(&self) -> usize {
            self.free.len() + self.capacity.saturating_sub(self.next_tag as usize)
        }

        pub fn read_tag(&mut self, logical: SetId) -> SetId {
            if let Some(&tag) = self.current.get(&logical.raw()) {
                return SetId(tag);
            }
            let tag = self.free.pop().unwrap_or_else(|| {
                let fresh = self.next_tag;
                self.next_tag += 1;
                fresh
            });
            self.current.insert(logical.raw(), tag);
            SetId(tag)
        }

        /// `(tag, available_at, superseded)`.
        pub fn write_tag(&mut self, logical: SetId) -> (SetId, u64, Option<SetId>) {
            let (tag, available_at) = self.take_tag();
            self.allocations += 1;
            let superseded = self.current.insert(logical.raw(), tag).map(SetId);
            (SetId(tag), available_at, superseded)
        }

        pub fn release(&mut self, logical: SetId) -> Option<SetId> {
            self.current.remove(&logical.raw()).map(SetId)
        }

        pub fn reclaim(&mut self, tag: SetId, available_at: u64) {
            if available_at == 0 {
                self.free.push(tag.raw());
            } else {
                self.pending.push(Reverse((available_at, tag.raw())));
            }
        }

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
            let tag = self.next_tag;
            self.next_tag += 1;
            self.spills += 1;
            (tag, 0)
        }

        pub fn clear(&mut self) {
            self.current.clear();
            self.free.clear();
            self.pending.clear();
            self.next_tag = 0;
            self.allocations = 0;
            self.spills = 0;
        }
    }

    pub struct SmbCache {
        capacity: usize,
        stamps: HashMap<SetId, u64>,
        clock: u64,
    }

    impl SmbCache {
        pub fn new(capacity: usize) -> Self {
            Self {
                capacity: capacity.max(1),
                stamps: HashMap::new(),
                clock: 0,
            }
        }

        pub fn lookup(&mut self, id: SetId) -> bool {
            self.clock += 1;
            if let Some(stamp) = self.stamps.get_mut(&id) {
                *stamp = self.clock;
                return true;
            }
            if self.stamps.len() >= self.capacity {
                if let Some((&victim, _)) = self.stamps.iter().min_by_key(|(_, &s)| s) {
                    self.stamps.remove(&victim);
                }
            }
            self.stamps.insert(id, self.clock);
            false
        }

        pub fn prime(&mut self, id: SetId) {
            self.clock += 1;
            if self.stamps.len() >= self.capacity && !self.stamps.contains_key(&id) {
                if let Some((&victim, _)) = self.stamps.iter().min_by_key(|(_, &s)| s) {
                    self.stamps.remove(&victim);
                }
            }
            self.stamps.insert(id, self.clock);
        }

        pub fn invalidate(&mut self, id: SetId) {
            self.stamps.remove(&id);
        }

        pub fn len(&self) -> usize {
            self.stamps.len()
        }
    }

    pub struct SetMetadataTable {
        entries: HashMap<SetId, SetMetadata>,
        next_address: u64,
    }

    impl SetMetadataTable {
        pub fn new() -> Self {
            Self {
                entries: HashMap::new(),
                next_address: 0x4000_0000,
            }
        }

        pub fn register(
            &mut self,
            id: SetId,
            kind: RepresentationKind,
            cardinality: usize,
            universe: usize,
        ) {
            let bits = match kind {
                RepresentationKind::DenseBitvector => universe,
                _ => cardinality * 32,
            };
            let address = self.next_address;
            self.next_address += (bits as u64 / 8).max(64) + 64;
            self.entries.insert(
                id,
                SetMetadata {
                    kind,
                    cardinality,
                    universe,
                    address,
                },
            );
        }

        pub fn get(&self, id: SetId) -> Option<&SetMetadata> {
            self.entries.get(&id)
        }

        pub fn update(&mut self, id: SetId, kind: RepresentationKind, cardinality: usize) {
            let entry = self.entries.get_mut(&id).expect("registered");
            entry.kind = kind;
            entry.cardinality = cardinality;
        }

        pub fn remove(&mut self, id: SetId) {
            self.entries.remove(&id);
        }

        pub fn len(&self) -> usize {
            self.entries.len()
        }
    }
}

/// Random raw draws; each test decodes one draw into one operation (the
/// vendored proptest shim has no `prop_oneof`).
fn draws(max_len: usize) -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(0u64..u64::MAX, 1..max_len)
}

/// Splits a draw into a small operation selector and independent fields.
fn field(raw: u64, shift: u32, modulus: u64) -> u64 {
    (raw >> shift) % modulus
}

fn ids(raw: u64, shift: u32, count: u64, universe: u64) -> Vec<SetId> {
    (0..field(raw, shift, count + 1))
        .map(|i| SetId(field(raw, shift + 4 + 6 * i as u32, universe) as u32))
        .collect()
}

const KINDS: [RepresentationKind; 3] = [
    RepresentationKind::SortedArray,
    RepresentationKind::DenseBitvector,
    RepresentationKind::UnsortedArray,
];

proptest! {
    /// The flat scoreboard answers every hazard query like the ordered map,
    /// and tracks the same number of entries after records, releases,
    /// prunes and clears.
    #[test]
    fn scoreboard_matches_the_map_model(ops in draws(200)) {
        let mut flat = Scoreboard::new();
        let mut model = reference::Scoreboard::default();
        let mut clock = 0u64;
        for raw in ops {
            let reads = ids(raw, 8, 3, 40);
            let writes = ids(raw, 30, 2, 40);
            let id = SetId(field(raw, 50, 40) as u32);
            match raw % 16 {
                0..=6 => {
                    clock += field(raw, 4, 7);
                    let finish = clock + field(raw, 56, 50);
                    flat.record(&reads, &writes, finish);
                    model.record(&reads, &writes, finish);
                }
                7 | 8 => prop_assert_eq!(
                    flat.ready_at(&reads, &writes),
                    model.ready_at(&reads, &writes)
                ),
                9 => prop_assert_eq!(flat.raw_ready_at(&reads), model.raw_ready_at(&reads)),
                10 | 11 => prop_assert_eq!(flat.times_of(id), model.times_of(id)),
                12 | 13 => {
                    flat.release(id);
                    model.release(id);
                }
                14 => {
                    let horizon = clock.saturating_sub(field(raw, 4, 40));
                    prop_assert_eq!(
                        flat.prune_completed(horizon),
                        model.prune_completed(horizon)
                    );
                }
                _ => {
                    if field(raw, 4, 8) == 0 {
                        flat.clear();
                        model.clear();
                        clock = 0;
                    }
                }
            }
            prop_assert_eq!(flat.tracked(), model.tracked());
            for probe in 0..40 {
                prop_assert_eq!(flat.times_of(SetId(probe)), model.times_of(SetId(probe)));
            }
        }
    }

    /// The flat rename table binds, supersedes, releases and reclaims tags
    /// exactly like the ordered map: same tags, same pressure delays, same
    /// spills and lazy binds, same counts.
    #[test]
    fn rename_map_matches_the_map_model(
        capacity in 1usize..10,
        ops in draws(200),
    ) {
        let mut flat = RenameMap::new(capacity);
        let mut model = reference::RenameMap::new(capacity);
        // Tags handed back by writes and releases, awaiting their reclaim.
        let mut outstanding: Vec<SetId> = Vec::new();
        let mut clock = 0u64;
        for raw in ops {
            let logical = SetId(field(raw, 8, 24) as u32);
            match raw % 10 {
                0 | 1 => prop_assert_eq!(flat.read_tag(logical), model.read_tag(logical)),
                2..=4 => {
                    let a = flat.write_tag(logical);
                    let (tag, at, superseded) = model.write_tag(logical);
                    prop_assert_eq!((a.tag, a.available_at, a.superseded), (tag, at, superseded));
                    outstanding.extend(superseded);
                }
                5 | 6 => {
                    let released = flat.release(logical);
                    prop_assert_eq!(released, model.release(logical));
                    outstanding.extend(released);
                }
                7 | 8 => {
                    if !outstanding.is_empty() {
                        let tag = outstanding.swap_remove(field(raw, 16, outstanding.len() as u64) as usize);
                        clock += field(raw, 32, 5);
                        // Half the reclaims are immediate, half still draining.
                        let at = if field(raw, 40, 2) == 0 { 0 } else { clock + field(raw, 44, 30) };
                        flat.reclaim(tag, at);
                        model.reclaim(tag, at);
                    }
                }
                _ => {
                    if field(raw, 4, 10) == 0 {
                        flat.clear();
                        model.clear();
                        outstanding.clear();
                    }
                }
            }
            prop_assert_eq!(flat.bound(), model.bound());
            prop_assert_eq!(flat.available(), model.available());
            prop_assert_eq!(flat.allocations(), model.allocations());
            prop_assert_eq!(flat.spills(), model.spills());
        }
    }

    /// The flat SMB evicts the same least-recently-used victim as the hash
    /// map at every capacity, including a full buffer hit by primes and
    /// invalidations.
    #[test]
    fn smb_matches_the_map_model(
        capacity in 1usize..8,
        ops in draws(300),
    ) {
        let mut flat = SmbCache::new(capacity);
        let mut model = reference::SmbCache::new(capacity);
        for raw in ops {
            let id = SetId(field(raw, 8, 20) as u32);
            match raw % 8 {
                0..=4 => prop_assert_eq!(flat.lookup(id), model.lookup(id)),
                5 | 6 => {
                    flat.prime(id);
                    model.prime(id);
                }
                _ => {
                    flat.invalidate(id);
                    model.invalidate(id);
                }
            }
            prop_assert_eq!(flat.len(), model.len());
        }
    }

    /// The flat metadata table registers (and re-registers), updates and
    /// removes entries like the hash map, down to the synthetic addresses.
    #[test]
    fn metadata_table_matches_the_map_model(ops in draws(200)) {
        let mut flat = SetMetadataTable::new();
        let mut model = reference::SetMetadataTable::new();
        for raw in ops {
            let id = SetId(field(raw, 8, 30) as u32);
            let kind = KINDS[field(raw, 16, 3) as usize];
            let cardinality = field(raw, 20, 500) as usize;
            let universe = field(raw, 32, 5_000) as usize;
            match raw % 6 {
                0 | 1 => {
                    flat.register(id, kind, cardinality, universe);
                    model.register(id, kind, cardinality, universe);
                }
                2 | 3 => {
                    if model.get(id).is_some() {
                        flat.update(id, kind, cardinality);
                        model.update(id, kind, cardinality);
                    }
                }
                _ => {
                    flat.remove(id);
                    model.remove(id);
                }
            }
            prop_assert_eq!(flat.len(), model.len());
            prop_assert_eq!(flat.is_empty(), model.len() == 0);
            for probe in 0..30 {
                prop_assert_eq!(flat.get(SetId(probe)), model.get(SetId(probe)));
            }
        }
    }
}
