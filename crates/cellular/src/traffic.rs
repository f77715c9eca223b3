//! Background traffic: the other users of the cell.
//!
//! PBE-CC's capacity estimate hinges on what the *other* users of each cell
//! are doing: how many are actively receiving data (the `N` of Eqns. 1–3),
//! how many are merely exchanging control traffic (filtered out with the
//! `Ta > 1, Pa > 4` rule), and how many PRBs they occupy (which determines
//! the idle PRBs of Eqn. 4).  The paper measures these distributions on a
//! live cell (Figs. 7 and 11); this module generates synthetic background
//! users calibrated to those measurements:
//!
//! * ~68 % of detected users are control-traffic users that occupy exactly
//!   4 PRBs for exactly one subframe (Fig. 7b).
//! * A busy cell sees on average ~15.8 and at most ~28 active users per
//!   40 ms window before filtering, and ~1.3 (max 7) after filtering
//!   (Fig. 7a).
//! * The number of users with data activity per hour follows a diurnal
//!   profile peaking in the afternoon (Fig. 11a), and most users have a
//!   physical data rate well below the 1.8 Mbit/s/PRB maximum (Fig. 11b).

use crate::config::Rnti;
use crate::config::UeId;
use crate::mcs::Cqi;
use crate::scheduler::{Demand, DemandClass};
use pbe_stats::DetRng;
use serde::{Deserialize, Serialize};

/// Reserved UE-id range for background users (foreground UEs use small ids).
pub const BACKGROUND_UE_BASE: u32 = 1_000_000;

/// Load profile of one cell's background traffic.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CellLoadProfile {
    /// Mean control-traffic user arrivals per subframe (each occupies 4 PRBs
    /// for exactly one subframe).
    pub control_arrivals_per_subframe: f64,
    /// Mean data-session arrivals per subframe.
    pub data_arrivals_per_subframe: f64,
    /// Mean duration of a data session in subframes (exponentially
    /// distributed).
    pub data_duration_subframes: f64,
    /// Mean PRB demand of a data session per subframe while active.
    pub data_prbs_mean: f64,
    /// Mean CQI of background users (their physical rate distribution —
    /// the paper observes most users well below the maximum rate).
    pub mean_cqi: f64,
}

impl CellLoadProfile {
    /// A busy daytime cell (paper's "busy hours"): matches Fig. 7's ~15.8
    /// active users per 40 ms window before filtering and ~1.3 after.
    pub fn busy() -> Self {
        CellLoadProfile {
            control_arrivals_per_subframe: 0.38,
            data_arrivals_per_subframe: 0.010,
            data_duration_subframes: 130.0,
            data_prbs_mean: 18.0,
            mean_cqi: 9.0,
        }
    }

    /// A late-night idle cell: essentially no competing traffic.
    pub fn idle() -> Self {
        CellLoadProfile {
            control_arrivals_per_subframe: 0.02,
            data_arrivals_per_subframe: 0.0004,
            data_duration_subframes: 80.0,
            data_prbs_mean: 10.0,
            mean_cqi: 9.0,
        }
    }

    /// No background traffic at all (controlled experiments).
    pub fn none() -> Self {
        CellLoadProfile {
            control_arrivals_per_subframe: 0.0,
            data_arrivals_per_subframe: 0.0,
            data_duration_subframes: 1.0,
            data_prbs_mean: 0.0,
            mean_cqi: 9.0,
        }
    }

    /// Scale both arrival rates by a factor (used by the diurnal profile).
    pub fn scaled(self, factor: f64) -> Self {
        CellLoadProfile {
            control_arrivals_per_subframe: self.control_arrivals_per_subframe * factor,
            data_arrivals_per_subframe: self.data_arrivals_per_subframe * factor,
            ..self
        }
    }

    /// Diurnal activity factor for a given hour of day (0..24), normalised so
    /// that the 12:00–20:00 peak is ~1.0 and the 03:00 trough is ~0.06,
    /// mirroring the shape of the paper's Fig. 11a.
    pub fn diurnal_factor(hour: f64) -> f64 {
        let h = hour.rem_euclid(24.0);
        // Smooth double-peaked day: minimum around 03:30, broad afternoon peak.
        let x = (h - 3.5) / 24.0 * std::f64::consts::TAU;
        let base = 0.53 - 0.47 * x.cos();
        base.clamp(0.05, 1.0)
    }
}

/// One active background data session.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct DataSession {
    rnti: Rnti,
    ue: UeId,
    remaining_subframes: u64,
    prbs_per_subframe: u16,
    cqi: Cqi,
}

/// Summary of one background user's grant in one subframe (what the PDCCH
/// monitor will observe via the user's DCI message).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BackgroundGrant {
    /// RNTI of the background user.
    pub rnti: Rnti,
    /// Pseudo UE id of the background user.
    pub ue: UeId,
    /// PRBs requested this subframe.
    pub prbs: u16,
    /// CQI of the background user (determines the physical rate of its DCI).
    pub cqi: Cqi,
    /// True if this is a one-subframe control-traffic grant.
    pub is_control: bool,
}

/// Generator of background demand for one cell.
#[derive(Debug, Clone)]
pub struct BackgroundTraffic {
    profile: CellLoadProfile,
    rng: DetRng,
    sessions: Vec<DataSession>,
    next_rnti: u16,
    next_ue: u32,
    /// Total number of distinct background users that have appeared.
    pub distinct_users: u64,
    /// Distinct users that were data sessions (not pure control traffic).
    pub distinct_data_users: u64,
}

impl BackgroundTraffic {
    /// New generator with the given profile.
    pub fn new(profile: CellLoadProfile, rng: DetRng) -> Self {
        BackgroundTraffic {
            profile,
            rng,
            sessions: Vec::new(),
            next_rnti: 0x2000,
            next_ue: BACKGROUND_UE_BASE,
            distinct_users: 0,
            distinct_data_users: 0,
        }
    }

    /// Currently active data sessions.
    pub fn active_data_sessions(&self) -> usize {
        self.sessions.len()
    }

    fn fresh_rnti(&mut self) -> Rnti {
        let r = Rnti(self.next_rnti);
        // Wrap within the C-RNTI range, skipping the low reserved values.
        self.next_rnti = if self.next_rnti >= 0xFFF0 {
            0x2000
        } else {
            self.next_rnti + 1
        };
        self.distinct_users += 1;
        r
    }

    fn fresh_ue(&mut self) -> UeId {
        let u = UeId(self.next_ue);
        self.next_ue += 1;
        u
    }

    fn sample_cqi(&mut self) -> Cqi {
        // Skewed towards low rates: the paper observes 70–77 % of users below
        // half the maximum rate.  A truncated normal around the profile mean
        // with a long lower tail reproduces that skew.
        let mean = self.profile.mean_cqi;
        let v = self.rng.normal(mean, 3.5);
        Cqi::clamped(v.round().clamp(1.0, 15.0) as u8)
    }

    /// Generate the background grants for one subframe.
    pub fn tick(&mut self, subframe: u64) -> Vec<BackgroundGrant> {
        let mut grants = Vec::new();
        self.tick_into(subframe, &mut grants);
        grants
    }

    /// Generate the background grants for one subframe into a caller-owned
    /// buffer (cleared first) — the allocation-free variant used by the
    /// per-subframe cell tick.
    pub fn tick_into(&mut self, _subframe: u64, grants: &mut Vec<BackgroundGrant>) {
        grants.clear();

        // Control-traffic users: appear for exactly one subframe, 4 PRBs.
        let control_count = self.rng.poisson(self.profile.control_arrivals_per_subframe);
        for _ in 0..control_count {
            let rnti = self.fresh_rnti();
            let ue = self.fresh_ue();
            let cqi = self.sample_cqi();
            grants.push(BackgroundGrant {
                rnti,
                ue,
                prbs: 4,
                cqi,
                is_control: true,
            });
        }

        // New data sessions.
        let new_sessions = self.rng.poisson(self.profile.data_arrivals_per_subframe);
        for _ in 0..new_sessions {
            let rnti = self.fresh_rnti();
            let ue = self.fresh_ue();
            self.distinct_data_users += 1;
            let duration = self
                .rng
                .exponential(self.profile.data_duration_subframes)
                .max(2.0) as u64;
            let prbs = self
                .rng
                .normal(
                    self.profile.data_prbs_mean,
                    self.profile.data_prbs_mean * 0.4,
                )
                .clamp(5.0, 100.0) as u16;
            let cqi = self.sample_cqi();
            self.sessions.push(DataSession {
                rnti,
                ue,
                remaining_subframes: duration,
                prbs_per_subframe: prbs,
                cqi,
            });
        }

        // Ongoing data sessions request their per-subframe demand.
        for s in &mut self.sessions {
            grants.push(BackgroundGrant {
                rnti: s.rnti,
                ue: s.ue,
                prbs: s.prbs_per_subframe,
                cqi: s.cqi,
                is_control: false,
            });
            s.remaining_subframes -= 1;
        }
        self.sessions.retain(|s| s.remaining_subframes > 0);
    }

    /// Convert grants into scheduler demands.
    pub fn to_demands(grants: &[BackgroundGrant]) -> Vec<Demand> {
        let mut demands = Vec::with_capacity(grants.len());
        BackgroundTraffic::append_demands(grants, &mut demands);
        demands
    }

    /// Append the demands for a slice of grants to a caller-owned buffer.
    pub fn append_demands(grants: &[BackgroundGrant], demands: &mut Vec<Demand>) {
        demands.extend(grants.iter().map(|g| Demand {
            ue: g.ue,
            rnti: g.rnti,
            prbs: g.prbs,
            class: if g.is_control {
                DemandClass::Control
            } else {
                DemandClass::Data
            },
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_profile_generates_almost_nothing() {
        let mut bg = BackgroundTraffic::new(CellLoadProfile::idle(), DetRng::new(1));
        let mut total_grants = 0usize;
        for sf in 0..10_000 {
            total_grants += bg.tick(sf).len();
        }
        // ~0.02 control/subframe + a handful of data sessions.
        assert!(
            total_grants < 1500,
            "idle cell produced {total_grants} grants"
        );
    }

    #[test]
    fn none_profile_generates_nothing() {
        let mut bg = BackgroundTraffic::new(CellLoadProfile::none(), DetRng::new(2));
        for sf in 0..1000 {
            assert!(bg.tick(sf).is_empty());
        }
        assert_eq!(bg.distinct_users, 0);
    }

    #[test]
    fn busy_profile_matches_paper_user_counts() {
        // Paper Fig. 7a: ~15.8 users on average per 40 ms window before
        // filtering, at most ~28; after filtering (data users only) ~1.3.
        let mut bg = BackgroundTraffic::new(CellLoadProfile::busy(), DetRng::new(3));
        let windows = 500usize;
        let mut per_window_users = Vec::new();
        let mut per_window_data_users = Vec::new();
        for w in 0..windows {
            let mut rntis = std::collections::HashSet::new();
            let mut data_rntis = std::collections::HashSet::new();
            for sf in 0..40u64 {
                for g in bg.tick(w as u64 * 40 + sf) {
                    rntis.insert(g.rnti);
                    if !g.is_control {
                        data_rntis.insert(g.rnti);
                    }
                }
            }
            per_window_users.push(rntis.len() as f64);
            per_window_data_users.push(data_rntis.len() as f64);
        }
        let avg = per_window_users.iter().sum::<f64>() / windows as f64;
        let max = per_window_users.iter().cloned().fold(0.0, f64::max);
        let avg_data = per_window_data_users.iter().sum::<f64>() / windows as f64;
        assert!(
            (12.0..20.0).contains(&avg),
            "avg users per 40 ms window = {avg}"
        );
        assert!(max <= 35.0, "max users = {max}");
        assert!(
            (0.8..2.5).contains(&avg_data),
            "avg data users = {avg_data}"
        );
    }

    #[test]
    fn control_users_occupy_four_prbs_for_one_subframe() {
        let mut bg = BackgroundTraffic::new(CellLoadProfile::busy(), DetRng::new(4));
        let mut control_seen = std::collections::HashMap::new();
        for sf in 0..2000u64 {
            for g in bg.tick(sf) {
                if g.is_control {
                    assert_eq!(g.prbs, 4);
                    *control_seen.entry(g.rnti).or_insert(0u32) += 1;
                }
            }
        }
        assert!(!control_seen.is_empty());
        // Each control RNTI appears exactly once (active for one subframe).
        assert!(control_seen.values().all(|&c| c == 1));
    }

    #[test]
    fn majority_of_users_are_control_traffic() {
        // Paper Fig. 7b: most detected users (68.2 %) are active for exactly
        // one subframe with 4 PRBs — i.e. control traffic dominates the raw
        // user count, which is why the Ta/Pa filter matters.  The synthetic
        // generator reproduces (and slightly exaggerates) that skew.
        let mut bg = BackgroundTraffic::new(CellLoadProfile::busy(), DetRng::new(5));
        let mut control = 0u64;
        let mut data = std::collections::HashSet::new();
        for sf in 0..20_000u64 {
            for g in bg.tick(sf) {
                if g.is_control {
                    control += 1;
                } else {
                    data.insert(g.rnti);
                }
            }
        }
        let total = control + data.len() as u64;
        let frac = control as f64 / total as f64;
        assert!(frac > 0.6, "control fraction = {frac}");
        assert!(!data.is_empty(), "some data sessions exist");
    }

    #[test]
    fn cqi_distribution_is_skewed_low() {
        // Paper Fig. 11b: ~70 % of users have a physical rate below half the
        // maximum (CQI below ~11 roughly corresponds to that).
        let mut bg = BackgroundTraffic::new(CellLoadProfile::busy(), DetRng::new(6));
        let mut cqis = Vec::new();
        for sf in 0..20_000u64 {
            for g in bg.tick(sf) {
                cqis.push(f64::from(g.cqi.0));
            }
        }
        let below = cqis.iter().filter(|c| **c <= 11.0).count() as f64 / cqis.len() as f64;
        assert!(below > 0.6, "fraction of low-rate users = {below}");
    }

    #[test]
    fn diurnal_factor_shape() {
        let trough = CellLoadProfile::diurnal_factor(3.5);
        let peak = CellLoadProfile::diurnal_factor(15.5);
        let evening = CellLoadProfile::diurnal_factor(20.0);
        assert!(trough < 0.1);
        assert!(peak > 0.9);
        assert!(evening > 0.5);
        assert_eq!(
            CellLoadProfile::diurnal_factor(25.0),
            CellLoadProfile::diurnal_factor(1.0)
        );
        let scaled = CellLoadProfile::busy().scaled(0.5);
        assert!((scaled.control_arrivals_per_subframe - 0.19).abs() < 1e-12);
    }

    #[test]
    fn demands_conversion_preserves_class() {
        let grants = vec![
            BackgroundGrant {
                rnti: Rnti(0x2000),
                ue: UeId(BACKGROUND_UE_BASE),
                prbs: 4,
                cqi: Cqi(7),
                is_control: true,
            },
            BackgroundGrant {
                rnti: Rnti(0x2001),
                ue: UeId(BACKGROUND_UE_BASE + 1),
                prbs: 20,
                cqi: Cqi(10),
                is_control: false,
            },
        ];
        let demands = BackgroundTraffic::to_demands(&grants);
        assert_eq!(demands.len(), 2);
        assert_eq!(demands[0].class, DemandClass::Control);
        assert_eq!(demands[1].class, DemandClass::Data);
        assert_eq!(demands[1].prbs, 20);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed: u64| {
            let mut bg = BackgroundTraffic::new(CellLoadProfile::busy(), DetRng::new(seed));
            (0..500u64).map(|sf| bg.tick(sf).len()).collect::<Vec<_>>()
        };
        assert_eq!(run(77), run(77));
        assert_ne!(run(77), run(78));
    }
}
