//! Property tests pinning the struct-of-arrays slot index to map semantics.
//!
//! The cell and the shard keep per-UE state in value lanes indexed by one
//! [`UeSlots`] index instead of per-UE `HashMap`s.  Correctness of that
//! rests on one claim: lanes kept in lock-step through the slots, under any
//! interleaving of insert / remove, behave exactly like per-key
//! `HashMap<UeId, T>`s read in sorted key order — the iteration order the
//! simulator's determinism invariants are stated in.  The property drives
//! both with the same random operation sequences and requires identical
//! observable behaviour at every step.

use pbe_cellular::config::UeId;
use pbe_cellular::slab::{SlotInsert, UeSlots};
use proptest::prelude::*;
use std::collections::HashMap;

proptest! {
    /// Multi-lane use: lanes kept in lock-step through `UeSlots` slots stay
    /// consistent with per-key maps under random interleavings, as the
    /// cell's queue/HARQ/counter lanes rely on.
    #[test]
    fn lanes_in_lockstep_match_per_key_maps(
        ops in proptest::collection::vec((0u8..2, 0u32..16, (0u64..100, 0u64..100)), 0..150),
    ) {
        let mut slots = UeSlots::new();
        let mut lane_a: Vec<u64> = Vec::new();
        let mut lane_b: Vec<u64> = Vec::new();
        let mut model_a: HashMap<UeId, u64> = HashMap::new();
        let mut model_b: HashMap<UeId, u64> = HashMap::new();
        for (op, id, (a, b)) in ops {
            let ue = UeId(id);
            if op == 0 {
                match slots.insert(ue) {
                    SlotInsert::Inserted(slot) => {
                        lane_a.insert(slot, a);
                        lane_b.insert(slot, b);
                        prop_assert!(!model_a.contains_key(&ue));
                        model_a.insert(ue, a);
                        model_b.insert(ue, b);
                    }
                    SlotInsert::Present(slot) => {
                        // Lanes untouched on re-insert: the id keeps its state.
                        prop_assert_eq!(lane_a[slot], model_a[&ue]);
                        prop_assert_eq!(lane_b[slot], model_b[&ue]);
                    }
                }
            } else {
                match slots.remove(ue) {
                    Some(slot) => {
                        prop_assert_eq!(lane_a.remove(slot), model_a.remove(&ue).unwrap());
                        prop_assert_eq!(lane_b.remove(slot), model_b.remove(&ue).unwrap());
                    }
                    None => prop_assert!(!model_a.contains_key(&ue)),
                }
            }
            prop_assert_eq!(slots.len(), model_a.len());
            prop_assert_eq!(lane_a.len(), slots.len());
            prop_assert_eq!(lane_b.len(), slots.len());
            for (slot, ue) in slots.ids().iter().enumerate() {
                prop_assert_eq!(lane_a[slot], model_a[ue]);
                prop_assert_eq!(lane_b[slot], model_b[ue]);
            }
            // Sorted order is maintained throughout.
            prop_assert!(slots.ids().windows(2).all(|w| w[0] < w[1]));
        }
    }
}
