//! The figure registry: every figure and table of the evaluation as data.
//!
//! A [`FigureSpec`] is the whole figure reduced to three facts: a name, a
//! grid builder and a renderer.  The registry is what lets one command
//! (`pbe-bench artifact --all`, or `--figure NAME` for one) enumerate the
//! paper's evaluation, with the result store, the worker pool and the
//! failure containment behind every figure alike.

use super::figures;
use crate::sweep::{ReportWriter, SweepGrid, SweepReport};
use std::io;

/// One registered figure: its identity, default duration, grid and renderer.
#[derive(Clone, Copy)]
pub struct FigureSpec {
    /// Registry name — what `--figure` selects, and the manifest label of
    /// the figure's stored points.
    pub name: &'static str,
    /// One-line description shown by `pbe-bench artifact --list`.
    pub title: &'static str,
    /// The `seconds` passed to grid and renderer when `--seconds` is not
    /// given: simulated seconds per scenario, unless the title says the
    /// figure reads it otherwise.
    pub default_seconds: u64,
    /// Build the figure's sweep grid for a per-scenario duration.
    pub grid: fn(u64) -> SweepGrid,
    /// Render the executed report as the figure's tables.
    pub render: fn(&SweepReport, u64, &ReportWriter) -> io::Result<()>,
}

impl std::fmt::Debug for FigureSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FigureSpec")
            .field("name", &self.name)
            .field("default_seconds", &self.default_seconds)
            .finish()
    }
}

/// Every figure, in paper order, then the ones beyond the paper.
pub fn registry() -> Vec<FigureSpec> {
    vec![
        FigureSpec {
            name: "fig2_carrier_aggregation",
            title: "Fig 2: carrier (de)activation under a 40 -> 6 Mbit/s load step \
(fixed 5 s; ignores --seconds)",
            default_seconds: 5,
            grid: figures::load_step_grid,
            render: figures::render_load_step,
        },
        FigureSpec {
            name: "fig6_overhead",
            title: "Fig 6: retransmission overhead and TB error rate \
(analytic, no simulation; ignores --seconds)",
            default_seconds: 0,
            grid: figures::no_simulation_grid,
            render: figures::render_overhead,
        },
        FigureSpec {
            name: "fig7_active_users",
            title: "Fig 7: active users per 40 ms window on a busy cell \
(no simulation; seconds x 25 windows)",
            default_seconds: 80,
            grid: figures::no_simulation_grid,
            render: figures::render_active_users,
        },
        FigureSpec {
            name: "fig8_retransmission_delay",
            title: "Fig 8: per-packet one-way delay vs offered load",
            default_seconds: 4,
            grid: figures::retransmission_grid,
            render: figures::render_retransmission,
        },
        FigureSpec {
            name: "fig11_cell_status",
            title: "Fig 11: users per hour and physical-rate CDF over a day \
(no simulation; seconds x 1000 subframes per hour)",
            default_seconds: 60,
            grid: figures::no_simulation_grid,
            render: figures::render_cell_status,
        },
        FigureSpec {
            name: "fig12_location_cdf",
            title: "Fig 12: throughput and p95-delay CDFs across 8 locations x 4 schemes",
            default_seconds: 8,
            grid: figures::location_cdf_grid,
            render: figures::render_location_cdf,
        },
        FigureSpec {
            name: "table1",
            title: "Table 1: PBE-CC speedup and delay reduction vs BBR/Verus/Copa, 8 locations",
            default_seconds: 8,
            grid: figures::table1_grid,
            render: figures::render_table1,
        },
        FigureSpec {
            name: "fig13_14_stationary",
            title: "Figs 13/14: six stationary locations x eight schemes",
            default_seconds: 8,
            grid: figures::stationary_grid,
            render: figures::render_stationary,
        },
        FigureSpec {
            name: "fig15_ca_trigger",
            title: "Fig 15: carrier-aggregation triggers, 6 CA-capable locations x 8 schemes",
            default_seconds: 8,
            grid: figures::ca_trigger_grid,
            render: figures::render_ca_trigger,
        },
        FigureSpec {
            name: "fig16_17_mobility",
            title: "Figs 16/17: mobility walk -85 -> -105 -> -85 dBm",
            default_seconds: 40,
            grid: figures::mobility_grid,
            render: figures::render_mobility,
        },
        FigureSpec {
            name: "fig18_19_competition",
            title: "Figs 18/19: on-off 60 Mbit/s competitor",
            default_seconds: 24,
            grid: figures::competition_grid,
            render: figures::render_competition,
        },
        FigureSpec {
            name: "fig20_multi_connection",
            title: "Fig 20: two concurrent connections from one device",
            default_seconds: 12,
            grid: figures::multi_connection_grid,
            render: figures::render_multi_connection,
        },
        FigureSpec {
            name: "fig21_fairness",
            title: "Fig 21: fairness of staggered flows at one cell",
            default_seconds: 18,
            grid: figures::fairness_grid,
            render: figures::render_fairness,
        },
        FigureSpec {
            name: "fig_handover",
            title: "Handover: a cell crossing x eight schemes, city-scale PBE vs BBR",
            default_seconds: 12,
            grid: figures::handover_grid,
            render: figures::render_handover,
        },
        FigureSpec {
            name: "fig_fanout",
            title: "Fan-out: 64 flows behind one undersized aggregation link",
            default_seconds: 2,
            grid: figures::fanout_grid,
            render: figures::render_fanout,
        },
        FigureSpec {
            name: "fig_faults",
            title: "Fault injection: outage/decode-loss recovery metrics",
            default_seconds: 6,
            grid: figures::faults_grid,
            render: figures::render_faults,
        },
    ]
}

/// Look a figure up by registry name.
pub fn find(name: &str) -> Option<FigureSpec> {
    registry().into_iter().find(|f| f.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// The figures that compute in their renderer and expand no grid.
    const NO_SIMULATION: [&str; 3] = ["fig6_overhead", "fig7_active_users", "fig11_cell_status"];

    fn keys(name: &str, seconds: u64) -> BTreeSet<String> {
        (find(name).unwrap().grid)(seconds)
            .expand()
            .iter()
            .map(|s| s.content_key())
            .collect()
    }

    #[test]
    fn registry_names_are_unique_and_findable() {
        let figures = registry();
        assert_eq!(figures.len(), 16);
        for fig in &figures {
            assert_eq!(find(fig.name).unwrap().default_seconds, fig.default_seconds);
        }
        let mut names: Vec<&str> = figures.iter().map(|f| f.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 16, "registry names are unique");
        assert!(find("fig99_nonexistent").is_none());
    }

    #[test]
    fn every_grid_expands_to_a_nonempty_deterministic_spec_list() {
        for fig in registry() {
            let a = (fig.grid)(2).expand();
            let b = (fig.grid)(2).expand();
            if NO_SIMULATION.contains(&fig.name) {
                assert!(a.is_empty(), "{} runs no simulation", fig.name);
                continue;
            }
            assert!(!a.is_empty(), "{} expands to at least one point", fig.name);
            let keys_a: Vec<String> = a.iter().map(|s| s.content_key()).collect();
            let keys_b: Vec<String> = b.iter().map(|s| s.content_key()).collect();
            assert_eq!(keys_a, keys_b, "{} grid is deterministic", fig.name);
            // Content keys address points, so they must be pairwise distinct.
            let mut sorted = keys_a.clone();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted.len(), keys_a.len(), "{} keys are distinct", fig.name);
        }
    }

    #[test]
    fn table1_and_fig12_share_their_pbe_bbr_and_verus_points() {
        // 8 locations × {PBE, BBR, Verus}: a store simulates them once.
        let shared = keys("table1", 2)
            .intersection(&keys("fig12_location_cdf", 2))
            .count();
        assert_eq!(shared, 24);
    }
}
