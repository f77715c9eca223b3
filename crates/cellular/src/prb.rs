//! Physical resource blocks and per-subframe allocation bookkeeping.
//!
//! A PRB is 180 kHz × 0.5 ms, the smallest unit the eNodeB can allocate to a
//! user (paper §3, Fig. 1).  LTE groups two 0.5 ms slots into a 1 ms subframe
//! and uses the same allocation in both slots, so this crate accounts PRBs at
//! subframe granularity: "one PRB" here means one 180 kHz chunk for the whole
//! 1 ms subframe (i.e. a PRB pair in 3GPP terms), which is also the unit the
//! paper's equations use.

use crate::config::{Rnti, UeId};
use serde::{Deserialize, Serialize};

/// Width of one PRB in kHz.
pub const PRB_BANDWIDTH_KHZ: f64 = 180.0;
/// Resource elements available for data in one PRB pair per subframe, after
/// subtracting cell-specific reference signals and the control region
/// (12 subcarriers × 14 OFDM symbols = 168 REs, of which ~150 carry data).
pub const DATA_RES_PER_PRB: f64 = 150.0;

/// The PRBs allocated to one user within one subframe of one cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PrbAllocation {
    /// The user the allocation belongs to.
    pub ue: UeId,
    /// The RNTI the allocation was addressed to on the control channel.
    pub rnti: Rnti,
    /// First allocated PRB index (contiguous type-2 allocation).
    pub first_prb: u16,
    /// Number of allocated PRBs.
    pub num_prbs: u16,
}

impl PrbAllocation {
    /// One past the last allocated PRB index.
    fn end_prb(&self) -> u16 {
        self.first_prb + self.num_prbs
    }

    /// True if this allocation overlaps another.
    fn overlaps(&self, other: &PrbAllocation) -> bool {
        self.first_prb < other.end_prb() && other.first_prb < self.end_prb()
    }
}

/// Accounting of how the PRBs of one cell were used in one subframe.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PrbUsage {
    /// Total PRBs in the cell.
    pub total: u16,
    /// Per-user allocations (at most one per user per subframe).
    pub allocations: Vec<PrbAllocation>,
}

impl PrbUsage {
    /// New usage record for a cell with `total` PRBs.
    pub fn new(total: u16) -> Self {
        PrbUsage {
            total,
            allocations: Vec::new(),
        }
    }

    /// Total PRBs allocated to any user in this subframe.
    pub fn allocated(&self) -> u16 {
        self.allocations.iter().map(|a| a.num_prbs).sum()
    }

    /// PRBs left idle in this subframe.
    pub fn idle(&self) -> u16 {
        self.total.saturating_sub(self.allocated())
    }

    /// PRBs allocated to a specific user.
    pub fn allocated_to(&self, ue: UeId) -> u16 {
        self.allocations
            .iter()
            .filter(|a| a.ue == ue)
            .map(|a| a.num_prbs)
            .sum()
    }

    /// Number of distinct users with a non-zero allocation.
    pub fn active_users(&self) -> usize {
        self.allocations.iter().filter(|a| a.num_prbs > 0).count()
    }

    /// True if no allocation overlaps another and nothing exceeds the cell.
    pub fn is_consistent(&self) -> bool {
        if self.allocated() > self.total {
            return false;
        }
        for (i, a) in self.allocations.iter().enumerate() {
            if a.end_prb() > self.total {
                return false;
            }
            for b in &self.allocations[i + 1..] {
                if a.overlaps(b) {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alloc(ue: u32, first: u16, num: u16) -> PrbAllocation {
        PrbAllocation {
            ue: UeId(ue),
            rnti: Rnti(0x100 + ue as u16),
            first_prb: first,
            num_prbs: num,
        }
    }

    #[test]
    fn allocation_overlap_detection() {
        let a = alloc(1, 0, 10);
        let b = alloc(2, 10, 5);
        let c = alloc(3, 9, 2);
        assert!(!a.overlaps(&b));
        assert!(a.overlaps(&c));
        assert!(b.overlaps(&c));
        assert_eq!(a.end_prb(), 10);
    }

    #[test]
    fn usage_accounting() {
        let mut usage = PrbUsage::new(100);
        usage.allocations.push(alloc(1, 0, 60));
        usage.allocations.push(alloc(2, 60, 20));
        assert_eq!(usage.allocated(), 80);
        assert_eq!(usage.idle(), 20);
        assert_eq!(usage.allocated_to(UeId(1)), 60);
        assert_eq!(usage.allocated_to(UeId(3)), 0);
        assert_eq!(usage.active_users(), 2);
        assert!(usage.is_consistent());
    }

    #[test]
    fn inconsistent_usage_is_detected() {
        let mut usage = PrbUsage::new(50);
        usage.allocations.push(alloc(1, 0, 30));
        usage.allocations.push(alloc(2, 20, 20));
        assert!(!usage.is_consistent());

        let mut beyond = PrbUsage::new(50);
        beyond.allocations.push(alloc(1, 40, 20));
        assert!(!beyond.is_consistent());
    }

    #[test]
    fn empty_usage_is_idle() {
        let usage = PrbUsage::new(25);
        assert_eq!(usage.allocated(), 0);
        assert_eq!(usage.idle(), 25);
        assert_eq!(usage.active_users(), 0);
        assert!(usage.is_consistent());
    }
}
