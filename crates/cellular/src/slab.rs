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
//! [`UeSlab`] bundles one [`UeSlots`] index with a single value lane for
//! map-like use; multi-lane owners (the cell keeps queues, HARQ entities,
//! RNTIs, counters) embed one `UeSlots` and keep their lanes in lock-step
//! through the slot returned by [`UeSlots::insert`]/[`UeSlots::remove`].

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

    /// True if the id is present.
    #[inline]
    pub fn contains(&self, ue: UeId) -> bool {
        self.slot_of(ue).is_some()
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

/// A single-lane slab: a sorted map UeId → T backed by two parallel vectors.
///
/// Matches the semantics of `HashMap<UeId, T>` plus sorted iteration —
/// the shape the per-UE loops want.  The property tests in
/// `tests/slab_properties.rs` pin this equivalence.
#[derive(Debug, Clone, Default)]
pub struct UeSlab<T> {
    slots: UeSlots,
    values: Vec<T>,
}

impl<T> UeSlab<T> {
    /// Empty slab.
    pub fn new() -> Self {
        UeSlab {
            slots: UeSlots::new(),
            values: Vec::new(),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Sorted ids; position = slot.
    pub fn ids(&self) -> &[UeId] {
        self.slots.ids()
    }

    /// Slot of an id.
    #[inline]
    pub fn slot_of(&self, ue: UeId) -> Option<usize> {
        self.slots.slot_of(ue)
    }

    /// True if the id is present.
    pub fn contains(&self, ue: UeId) -> bool {
        self.slots.contains(ue)
    }

    /// Insert or replace; returns the previous value if the id was present.
    pub fn insert(&mut self, ue: UeId, value: T) -> Option<T> {
        match self.slots.insert(ue) {
            SlotInsert::Inserted(slot) => {
                self.values.insert(slot, value);
                None
            }
            SlotInsert::Present(slot) => Some(std::mem::replace(&mut self.values[slot], value)),
        }
    }

    /// Remove an id, returning its value.
    pub fn remove(&mut self, ue: UeId) -> Option<T> {
        self.slots.remove(ue).map(|slot| self.values.remove(slot))
    }

    /// Value of an id.
    #[inline]
    pub fn get(&self, ue: UeId) -> Option<&T> {
        self.slot_of(ue).map(|slot| &self.values[slot])
    }

    /// Mutable value of an id.
    #[inline]
    pub fn get_mut(&mut self, ue: UeId) -> Option<&mut T> {
        self.slot_of(ue).map(move |slot| &mut self.values[slot])
    }

    /// Value at a slot (dense access for loops that carry the slot).
    #[inline]
    pub fn value_at(&self, slot: usize) -> &T {
        &self.values[slot]
    }

    /// Iterate `(id, &value)` in sorted id order.
    pub fn iter(&self) -> impl Iterator<Item = (UeId, &T)> {
        self.slots.ids().iter().copied().zip(self.values.iter())
    }

    /// Iterate `(id, &mut value)` in sorted id order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (UeId, &mut T)> {
        self.slots.ids().iter().copied().zip(self.values.iter_mut())
    }

    /// The value lane, parallel to [`UeSlab::ids`].
    pub fn values(&self) -> &[T] {
        &self.values
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

    #[test]
    fn slab_behaves_like_a_sorted_map() {
        let mut slab: UeSlab<u64> = UeSlab::new();
        assert!(slab.is_empty());
        assert_eq!(slab.insert(UeId(3), 30), None);
        assert_eq!(slab.insert(UeId(1), 10), None);
        assert_eq!(slab.insert(UeId(3), 33), Some(30));
        assert_eq!(slab.get(UeId(3)), Some(&33));
        assert_eq!(slab.get(UeId(2)), None);
        *slab.get_mut(UeId(1)).unwrap() += 1;
        assert_eq!(
            slab.iter().collect::<Vec<_>>(),
            vec![(UeId(1), &11), (UeId(3), &33)]
        );
        assert_eq!(slab.remove(UeId(1)), Some(11));
        assert_eq!(slab.remove(UeId(1)), None);
        assert_eq!(slab.len(), 1);
        assert_eq!(slab.value_at(0), &33);
    }
}
