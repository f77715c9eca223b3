//! Per-subframe eNodeB downlink scheduler.
//!
//! The paper relies on two properties of the base station's allocation
//! policy (§4.3): backlogged users receive an equal share of the cell's PRBs
//! (the "cell tower's fairness policy"), and every user has its own downlink
//! queue so one flow's backlog cannot crowd out another's.  The scheduler
//! here implements exactly that: HARQ retransmissions are served first (they
//! reuse their original allocation size), then control-traffic users get
//! their small fixed grants, and the remaining PRBs are water-filled equally
//! across backlogged data users, capped by each user's actual demand.

use crate::config::{Rnti, UeId};
use crate::prb::PrbAllocation;
use serde::{Deserialize, Serialize};

/// Scheduling priority class of one demand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DemandClass {
    /// A HARQ retransmission: must be served with exactly its PRB count.
    Retransmission,
    /// Control traffic (parameter updates): small fixed grants, served before
    /// data but after retransmissions.
    Control,
    /// Regular downlink data, shares the remaining PRBs equally.
    Data,
}

/// One user's demand for PRBs in one subframe of one cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Demand {
    /// The user (internal id).
    pub ue: UeId,
    /// The RNTI the allocation will be addressed to.
    pub rnti: Rnti,
    /// PRBs the user could consume this subframe (from its queue depth and
    /// current physical rate).
    pub prbs: u16,
    /// Priority class.
    pub class: DemandClass,
}

/// Result of scheduling one subframe.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ScheduleResult {
    /// Per-user allocations, contiguously placed from PRB 0 upward.
    pub allocations: Vec<PrbAllocation>,
    /// PRBs left idle.
    pub idle_prbs: u16,
}

impl ScheduleResult {
    /// Allocation granted to a user (0 if none).
    #[cfg(test)]
    fn granted_to(&self, ue: UeId) -> u16 {
        self.allocations
            .iter()
            .filter(|a| a.ue == ue)
            .map(|a| a.num_prbs)
            .sum()
    }

    /// Convert into a [`PrbUsage`] record for a cell with `total` PRBs.
    #[cfg(test)]
    fn to_usage(&self, total: u16) -> crate::prb::PrbUsage {
        crate::prb::PrbUsage {
            total,
            allocations: self.allocations.clone(),
        }
    }
}

/// Equal-share (water-filling) scheduler.
#[derive(Debug, Clone, Default)]
pub struct EqualShareScheduler {
    /// Round-robin rotation offset so that ties in the remainder distribution
    /// do not systematically favour low-numbered users.
    rotation: usize,
    /// Scratch: `(demand, granted)` pairs, reused across subframes.
    granted: Vec<(Demand, u16)>,
    /// Scratch: data demands and their running grants.
    data: Vec<(Demand, u16)>,
    /// Scratch: indices into `data` still below their demand.
    unsatisfied: Vec<usize>,
}

impl EqualShareScheduler {
    /// New scheduler.
    pub fn new() -> Self {
        EqualShareScheduler::default()
    }

    /// Allocate the `total_prbs` of one subframe among the given demands.
    ///
    /// Demands with zero PRBs are ignored.  Multiple demands for the same UE
    /// are allowed (e.g. a retransmission plus new data) and produce separate
    /// allocations.
    pub fn schedule(&mut self, total_prbs: u16, demands: &[Demand]) -> ScheduleResult {
        let mut result = ScheduleResult::default();
        self.schedule_into(total_prbs, demands, &mut result);
        result
    }

    /// Allocate into a caller-owned result, reusing the scheduler's scratch
    /// buffers — the allocation-free variant the per-subframe tick uses.
    pub fn schedule_into(
        &mut self,
        total_prbs: u16,
        demands: &[Demand],
        result: &mut ScheduleResult,
    ) {
        let mut remaining = total_prbs;
        self.granted.clear();

        // Pass 1: retransmissions get exactly what they ask for (clipped at
        // what is left, in arrival order).
        for d in demands
            .iter()
            .filter(|d| d.class == DemandClass::Retransmission && d.prbs > 0)
        {
            let g = d.prbs.min(remaining);
            remaining -= g;
            self.granted.push((*d, g));
        }

        // Pass 2: control traffic (small fixed grants).
        for d in demands
            .iter()
            .filter(|d| d.class == DemandClass::Control && d.prbs > 0)
        {
            let g = d.prbs.min(remaining);
            remaining -= g;
            self.granted.push((*d, g));
        }

        // Pass 3: equal-share water-filling among data users.
        self.data.clear();
        self.data.extend(
            demands
                .iter()
                .filter(|d| d.class == DemandClass::Data && d.prbs > 0)
                .map(|d| (*d, 0u16)),
        );
        if !self.data.is_empty() && remaining > 0 {
            // Iteratively hand out the fair share; users whose demand is
            // satisfied release their unused share to the others.
            loop {
                self.unsatisfied.clear();
                self.unsatisfied.extend(
                    self.data
                        .iter()
                        .enumerate()
                        .filter(|(_, (d, got))| *got < d.prbs)
                        .map(|(idx, _)| idx),
                );
                if self.unsatisfied.is_empty() || remaining == 0 {
                    break;
                }
                let share = remaining / self.unsatisfied.len() as u16;
                if share == 0 {
                    // Fewer PRBs than users: hand the rest out one by one,
                    // starting at the rotation offset for long-run fairness.
                    let n = self.unsatisfied.len();
                    for k in 0..n {
                        if remaining == 0 {
                            break;
                        }
                        let idx = self.unsatisfied[(k + self.rotation) % n];
                        self.data[idx].1 += 1;
                        remaining -= 1;
                    }
                    break;
                }
                let mut progress = false;
                for &idx in &self.unsatisfied {
                    let want = self.data[idx].0.prbs - self.data[idx].1;
                    let give = want.min(share);
                    if give > 0 {
                        self.data[idx].1 += give;
                        remaining -= give;
                        progress = true;
                    }
                }
                if !progress {
                    break;
                }
            }
            self.rotation = self.rotation.wrapping_add(1);
        }
        for (d, got) in &self.data {
            if *got > 0 {
                self.granted.push((*d, *got));
            }
        }

        // Lay the allocations out contiguously from PRB 0.
        result.allocations.clear();
        let mut cursor = 0u16;
        for (d, g) in self.granted.iter().filter(|(_, g)| *g > 0) {
            result.allocations.push(PrbAllocation {
                ue: d.ue,
                rnti: d.rnti,
                first_prb: cursor,
                num_prbs: *g,
            });
            cursor += g;
        }
        result.idle_prbs = total_prbs - cursor;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn data(ue: u32, prbs: u16) -> Demand {
        Demand {
            ue: UeId(ue),
            rnti: Rnti(0x100 + ue as u16),
            prbs,
            class: DemandClass::Data,
        }
    }

    fn retx(ue: u32, prbs: u16) -> Demand {
        Demand {
            class: DemandClass::Retransmission,
            ..data(ue, prbs)
        }
    }

    fn ctrl(ue: u32, prbs: u16) -> Demand {
        Demand {
            class: DemandClass::Control,
            ..data(ue, prbs)
        }
    }

    #[test]
    fn single_user_takes_whole_cell_up_to_demand() {
        let mut s = EqualShareScheduler::new();
        let r = s.schedule(100, &[data(1, 200)]);
        assert_eq!(r.granted_to(UeId(1)), 100);
        assert_eq!(r.idle_prbs, 0);
        let r = s.schedule(100, &[data(1, 30)]);
        assert_eq!(r.granted_to(UeId(1)), 30);
        assert_eq!(r.idle_prbs, 70);
    }

    #[test]
    fn two_backlogged_users_split_equally() {
        let mut s = EqualShareScheduler::new();
        let r = s.schedule(100, &[data(1, 500), data(2, 500)]);
        assert_eq!(r.granted_to(UeId(1)), 50);
        assert_eq!(r.granted_to(UeId(2)), 50);
        assert_eq!(r.idle_prbs, 0);
    }

    #[test]
    fn water_filling_redistributes_unused_share() {
        // User 2 only wants 10 PRBs; user 1 should get the rest.
        let mut s = EqualShareScheduler::new();
        let r = s.schedule(100, &[data(1, 500), data(2, 10)]);
        assert_eq!(r.granted_to(UeId(2)), 10);
        assert_eq!(r.granted_to(UeId(1)), 90);
    }

    #[test]
    fn three_users_one_limited() {
        let mut s = EqualShareScheduler::new();
        let r = s.schedule(99, &[data(1, 500), data(2, 500), data(3, 9)]);
        assert_eq!(r.granted_to(UeId(3)), 9);
        assert_eq!(r.granted_to(UeId(1)), 45);
        assert_eq!(r.granted_to(UeId(2)), 45);
    }

    #[test]
    fn retransmissions_and_control_served_first() {
        let mut s = EqualShareScheduler::new();
        let r = s.schedule(100, &[data(1, 500), retx(2, 40), ctrl(3, 4), data(4, 500)]);
        assert_eq!(r.granted_to(UeId(2)), 40);
        assert_eq!(r.granted_to(UeId(3)), 4);
        assert_eq!(r.granted_to(UeId(1)), 28);
        assert_eq!(r.granted_to(UeId(4)), 28);
        assert_eq!(r.idle_prbs, 0);
    }

    #[test]
    fn overload_clips_at_cell_capacity() {
        let mut s = EqualShareScheduler::new();
        let r = s.schedule(50, &[retx(1, 40), retx(2, 40), ctrl(3, 4)]);
        assert_eq!(r.granted_to(UeId(1)), 40);
        assert_eq!(r.granted_to(UeId(2)), 10);
        assert_eq!(r.granted_to(UeId(3)), 0);
        let usage = r.to_usage(50);
        assert!(usage.is_consistent());
    }

    #[test]
    fn fewer_prbs_than_users_rotates_fairly() {
        let mut s = EqualShareScheduler::new();
        let demands: Vec<Demand> = (0..10).map(|i| data(i, 100)).collect();
        let mut totals = vec![0u32; 10];
        for _ in 0..100 {
            let r = s.schedule(3, &demands);
            for (i, t) in totals.iter_mut().enumerate() {
                *t += u32::from(r.granted_to(UeId(i as u32)));
            }
        }
        let min = *totals.iter().min().unwrap();
        let max = *totals.iter().max().unwrap();
        assert!(
            max - min <= 10,
            "rotation keeps long-run shares close: {totals:?}"
        );
    }

    #[test]
    fn zero_demands_leave_cell_idle() {
        let mut s = EqualShareScheduler::new();
        let r = s.schedule(100, &[]);
        assert_eq!(r.idle_prbs, 100);
        let r = s.schedule(100, &[data(1, 0)]);
        assert_eq!(r.idle_prbs, 100);
        assert!(r.allocations.is_empty());
    }

    proptest! {
        #[test]
        fn never_over_allocates_and_stays_consistent(
            total in 1u16..=100,
            demands in proptest::collection::vec((1u32..20, 0u16..200, 0u8..3), 0..20),
        ) {
            let demands: Vec<Demand> = demands
                .into_iter()
                .map(|(ue, prbs, class)| Demand {
                    ue: UeId(ue),
                    rnti: Rnti(0x100 + ue as u16),
                    prbs,
                    class: match class {
                        0 => DemandClass::Retransmission,
                        1 => DemandClass::Control,
                        _ => DemandClass::Data,
                    },
                })
                .collect();
            let mut s = EqualShareScheduler::new();
            let r = s.schedule(total, &demands);
            let usage = r.to_usage(total);
            prop_assert!(usage.is_consistent());
            prop_assert_eq!(usage.allocated() + r.idle_prbs, total);
        }

        #[test]
        fn equal_backlogged_users_get_equal_shares(total in 10u16..=100, n in 1usize..8) {
            let demands: Vec<Demand> = (0..n as u32).map(|i| data(i, 500)).collect();
            let mut s = EqualShareScheduler::new();
            let r = s.schedule(total, &demands);
            let grants: Vec<u16> = (0..n as u32).map(|i| r.granted_to(UeId(i))).collect();
            let min = *grants.iter().min().unwrap();
            let max = *grants.iter().max().unwrap();
            prop_assert!(max - min <= 1, "grants {grants:?}");
        }
    }
}
