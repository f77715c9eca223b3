//! Dense struct-of-arrays storage for per-UE hot state.
//!
//! The per-subframe loops of [`crate::cell::Cell`] and
//! [`crate::shard::ShardedNetwork`] touch several pieces of state for
//! every attached UE, every millisecond.  Keyed `HashMap`s pay a hash per
//! touch; this module replaces them with *slabs*: one sorted id vector
//! ([`UeSlots`]) shared by any number of parallel value lanes (`Vec<T>`
//! indexed by slot).  Iteration runs over dense memory in UeId order — the
//! order every determinism invariant in the workspace is stated in — and a
//! by-id lookup is a branch-free binary search over a handful of cache
//! lines.
//!
//! Owners (the cell keeps queues, HARQ entities, RNTIs, counters) embed one
//! `UeSlots` and keep their lanes in lock-step through the slot returned by
//! [`UeSlots::insert`]/[`UeSlots::remove`].

use crate::config::UeId;

/// The sorted dense index: UeId → slot.
#[derive(Debug, Clone, Default)]
pub struct UeSlots {
    ids: Vec<UeId>,
}

/// Result of [`UeSlots::insert`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotInsert {
    /// The id was new; every lane must `insert(slot, value)` at this slot.
    Inserted(usize),
    /// The id was already present at this slot; lanes stay untouched.
    Present(usize),
}

impl UeSlots {
    /// Empty index.
    pub fn new() -> Self {
        UeSlots::default()
    }

    /// Number of ids.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True if no ids are stored.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The ids in sorted order; the position of an id is its slot.
    pub fn ids(&self) -> &[UeId] {
        &self.ids
    }

    /// Slot of an id, if present.
    #[inline]
    pub fn slot_of(&self, ue: UeId) -> Option<usize> {
        self.ids.binary_search(&ue).ok()
    }

    /// Insert an id, keeping the vector sorted.  Returns where it landed and
    /// whether lanes must shift.
    pub fn insert(&mut self, ue: UeId) -> SlotInsert {
        match self.ids.binary_search(&ue) {
            Ok(slot) => SlotInsert::Present(slot),
            Err(slot) => {
                self.ids.insert(slot, ue);
                SlotInsert::Inserted(slot)
            }
        }
    }

    /// Remove an id, returning the slot it occupied (lanes must `remove` the
    /// same slot to stay parallel).
    pub fn remove(&mut self, ue: UeId) -> Option<usize> {
        match self.ids.binary_search(&ue) {
            Ok(slot) => {
                self.ids.remove(slot);
                Some(slot)
            }
            Err(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_insert_remove_keep_sorted_order() {
        let mut slots = UeSlots::new();
        assert_eq!(slots.insert(UeId(5)), SlotInsert::Inserted(0));
        assert_eq!(slots.insert(UeId(2)), SlotInsert::Inserted(0));
        assert_eq!(slots.insert(UeId(9)), SlotInsert::Inserted(2));
        assert_eq!(slots.insert(UeId(5)), SlotInsert::Present(1));
        assert_eq!(slots.ids(), &[UeId(2), UeId(5), UeId(9)]);
        assert_eq!(slots.slot_of(UeId(9)), Some(2));
        assert_eq!(slots.remove(UeId(5)), Some(1));
        assert_eq!(slots.remove(UeId(5)), None);
        assert_eq!(slots.ids(), &[UeId(2), UeId(9)]);
        assert_eq!(slots.len(), 2);
        assert!(!slots.is_empty());
    }
}
