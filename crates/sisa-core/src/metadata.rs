//! Set metadata (SM) and the Set-Metadata Buffer (SMB).
//!
//! The paper's SCU "maintains set metadata (SM) using a dedicated in-memory SM
//! structure. SM contains mappings between logical set IDs and set addresses,
//! and the type of the representation as well as the cardinality of a given
//! set" (§3). Metadata lookups normally go through a small cache, the SMB;
//! when the entry is not cached, "there is a single additional memory access
//! for one set operation" (§8.4).
//!
//! # Storage
//!
//! Logical set IDs are dense slot indices (the runtime's LIFO allocator
//! reuses freed IDs first), so both structures are flat vectors indexed by
//! raw set ID rather than hash maps: the SM table holds an
//! `Option<SetMetadata>` per ID plus a live count, and the SMB threads its
//! resident IDs through per-ID links into a least-to-most recently used
//! list, so a hit, a miss and an eviction each cost O(1) and the victim is
//! always the least recently used entry. Each vector's length is one past
//! the largest set ID registered or looked up, which the runtime bounds by
//! its peak number of live sets.

use crate::SetId;
use sisa_sets::RepresentationKind;

/// One SM entry: everything the SCU needs to know about a set to pick an
/// instruction variant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SetMetadata {
    /// Physical representation of the set.
    pub kind: RepresentationKind,
    /// Current cardinality (kept up to date on every mutation, giving `O(1)`
    /// cardinality instructions, §6.2.3).
    pub cardinality: usize,
    /// Universe size for dense bitvectors (and the graph's `n` in general).
    pub universe: usize,
    /// Synthetic physical base address of the set's storage.
    pub address: u64,
}

/// The in-memory SM structure: metadata entries indexed by set ID.
#[derive(Clone, Debug, Default)]
pub struct SetMetadataTable {
    /// Entry per raw set ID (`None` for unregistered IDs).
    entries: Vec<Option<SetMetadata>>,
    /// Number of `Some` entries.
    live: usize,
    next_address: u64,
}

impl SetMetadataTable {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> Self {
        Self {
            entries: Vec::new(),
            live: 0,
            next_address: 0x4000_0000,
        }
    }

    /// Registers a new set and assigns it a synthetic storage address.
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
        let raw = id.raw() as usize;
        if raw >= self.entries.len() {
            self.entries.resize(raw + 1, None);
        }
        let previous = self.entries[raw].replace(SetMetadata {
            kind,
            cardinality,
            universe,
            address,
        });
        if previous.is_none() {
            self.live += 1;
        }
    }

    /// Looks an entry up.
    #[must_use]
    pub fn get(&self, id: SetId) -> Option<&SetMetadata> {
        self.entries.get(id.raw() as usize)?.as_ref()
    }

    /// Updates the representation and cardinality of an existing entry.
    ///
    /// # Panics
    ///
    /// Panics if the set was never registered.
    pub fn update(&mut self, id: SetId, kind: RepresentationKind, cardinality: usize) {
        let entry = self
            .entries
            .get_mut(id.raw() as usize)
            .and_then(Option::as_mut)
            .unwrap_or_else(|| panic!("set {id} has no metadata entry"));
        entry.kind = kind;
        entry.cardinality = cardinality;
    }

    /// Removes an entry (set deletion).
    pub fn remove(&mut self, id: SetId) {
        if let Some(slot) = self.entries.get_mut(id.raw() as usize) {
            if slot.take().is_some() {
                self.live -= 1;
            }
        }
    }

    /// Number of live entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the table is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Length of the ID-indexed storage: one past the largest set ID ever
    /// registered (the boundedness tests check it).
    #[cfg(test)]
    pub(crate) fn footprint(&self) -> usize {
        self.entries.len()
    }
}

/// End marker of the SMB recency list.
const NIL: u32 = u32::MAX;

/// One set ID's place in the SMB recency list.
#[derive(Clone, Copy, Debug)]
struct Recency {
    /// Next less recently used resident ID, or [`NIL`].
    older: u32,
    /// Next more recently used resident ID, or [`NIL`].
    newer: u32,
    resident: bool,
}

impl Default for Recency {
    fn default() -> Self {
        Self {
            older: NIL,
            newer: NIL,
            resident: false,
        }
    }
}

/// The Set-Metadata Buffer: a small LRU cache of SM entries held by the SCU.
///
/// Only presence is modelled (the actual metadata lives in
/// [`SetMetadataTable`]); the SCU charges the hit latency or the SM-miss
/// memory access depending on the outcome reported here, and the runtime
/// counts the outcomes in [`crate::ExecStats`].
#[derive(Clone, Debug)]
pub struct SmbCache {
    capacity: usize,
    /// Recency links per raw set ID, threading the resident IDs from least
    /// to most recently used, so a touch and an eviction are O(1).
    links: Vec<Recency>,
    /// Least recently used resident ID (the next victim), or [`NIL`].
    oldest: u32,
    /// Most recently used resident ID, or [`NIL`].
    newest: u32,
    /// Number of resident IDs.
    resident: usize,
}

impl SmbCache {
    /// Creates an SMB with room for `capacity` entries.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            links: Vec::new(),
            oldest: NIL,
            newest: NIL,
            resident: 0,
        }
    }

    /// Removes resident `raw` from the recency list.
    fn unlink(&mut self, raw: u32) {
        let Recency { older, newer, .. } = self.links[raw as usize];
        match older {
            NIL => self.oldest = newer,
            o => self.links[o as usize].newer = newer,
        }
        match newer {
            NIL => self.newest = older,
            n => self.links[n as usize].older = older,
        }
    }

    /// Appends `raw` to the recency list as the most recently used ID.
    fn push_newest(&mut self, raw: u32) {
        self.links[raw as usize] = Recency {
            older: self.newest,
            newer: NIL,
            resident: true,
        };
        match self.newest {
            NIL => self.oldest = raw,
            n => self.links[n as usize].newer = raw,
        }
        self.newest = raw;
    }

    /// Marks `id` as just used, making room for it first if it is not
    /// resident and the buffer is full. Returns whether it was resident.
    fn touch(&mut self, id: SetId) -> bool {
        let raw = id.raw();
        if raw as usize >= self.links.len() {
            self.links.resize(raw as usize + 1, Recency::default());
        }
        let was_resident = self.links[raw as usize].resident;
        if was_resident {
            self.unlink(raw);
        } else {
            if self.resident >= self.capacity {
                let victim = self.oldest;
                self.unlink(victim);
                self.links[victim as usize] = Recency::default();
                self.resident -= 1;
            }
            self.resident += 1;
        }
        self.push_newest(raw);
        was_resident
    }

    /// Performs a lookup for `id`; returns `true` on hit. Misses install the
    /// entry, evicting the least recently used one if the buffer is full.
    pub fn lookup(&mut self, id: SetId) -> bool {
        self.touch(id)
    }

    /// Installs `id` without counting a hit or a miss — used when the SCU has
    /// just written the entry itself (set creation), so the metadata is
    /// necessarily resident.
    pub fn prime(&mut self, id: SetId) {
        self.touch(id);
    }

    /// Drops a set from the buffer (set deletion).
    pub fn invalidate(&mut self, id: SetId) {
        let raw = id.raw();
        if self.links.get(raw as usize).is_some_and(|l| l.resident) {
            self.unlink(raw);
            self.links[raw as usize] = Recency::default();
            self.resident -= 1;
        }
    }

    /// Number of resident entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.resident
    }

    /// Whether no entry is resident.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.resident == 0
    }

    /// Length of the ID-indexed recency table: one past the largest set ID
    /// looked up or primed (the boundedness tests check it).
    #[cfg(test)]
    pub(crate) fn footprint(&self) -> usize {
        self.links.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sisa_isa::SetId;

    #[test]
    fn register_get_update_remove() {
        let mut table = SetMetadataTable::new();
        let id = SetId(7);
        table.register(id, RepresentationKind::SortedArray, 10, 1000);
        let entry = *table.get(id).unwrap();
        assert_eq!(entry.cardinality, 10);
        assert_eq!(entry.kind, RepresentationKind::SortedArray);
        table.update(id, RepresentationKind::DenseBitvector, 25);
        assert_eq!(table.get(id).unwrap().cardinality, 25);
        assert_eq!(
            table.get(id).unwrap().kind,
            RepresentationKind::DenseBitvector
        );
        assert_eq!(table.len(), 1);
        table.remove(id);
        assert!(table.is_empty());
        assert!(table.get(id).is_none());
    }

    #[test]
    fn addresses_are_distinct() {
        let mut table = SetMetadataTable::new();
        table.register(SetId(1), RepresentationKind::SortedArray, 100, 1000);
        table.register(SetId(2), RepresentationKind::DenseBitvector, 5, 1000);
        let a1 = table.get(SetId(1)).unwrap().address;
        let a2 = table.get(SetId(2)).unwrap().address;
        assert_ne!(a1, a2);
    }

    #[test]
    #[should_panic(expected = "no metadata entry")]
    fn updating_unknown_set_panics() {
        let mut table = SetMetadataTable::new();
        table.update(SetId(3), RepresentationKind::SortedArray, 1);
    }

    #[test]
    fn smb_caches_recent_ids() {
        let mut smb = SmbCache::new(2);
        assert!(!smb.lookup(SetId(1)));
        assert!(!smb.lookup(SetId(2)));
        assert!(smb.lookup(SetId(1)));
        // Inserting a third entry evicts the LRU (SetId 2).
        assert!(!smb.lookup(SetId(3)));
        assert!(!smb.lookup(SetId(2)));
        assert_eq!(smb.len(), 2);
    }

    #[test]
    fn smb_invalidation() {
        let mut smb = SmbCache::new(4);
        smb.lookup(SetId(1));
        smb.invalidate(SetId(1));
        assert!(!smb.lookup(SetId(1)));
    }
}
