//! The figure registry: every sweep-backed figure as data.
//!
//! A [`FigureSpec`] is the whole figure reduced to three facts: a name, a
//! grid builder and a renderer.  The registry is what lets one command
//! (`pbe-bench artifact --all`) enumerate the paper's evaluation instead of
//! invoking five binaries, and what guarantees the artifact pipeline and the
//! standalone `fig*` binaries run the *same* grid — both sides call the same
//! function pointer.

use super::figures;
use crate::sweep::{ReportWriter, SweepGrid, SweepReport};
use std::io;

/// One registered figure: its identity, default duration, grid and renderer.
#[derive(Clone, Copy)]
pub struct FigureSpec {
    /// Registry name — also the `fig*` binary name and the stem of the
    /// figure's report files.
    pub name: &'static str,
    /// One-line description shown by `pbe-bench artifact --list`.
    pub title: &'static str,
    /// Simulated seconds per scenario when `--seconds` is not given (each
    /// figure keeps the default its binary always had).
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

/// Every sweep-backed figure, in paper order.
pub fn registry() -> Vec<FigureSpec> {
    vec![
        FigureSpec {
            name: "fig13_14_stationary",
            title: "Figs 13/14: six stationary locations x eight schemes",
            default_seconds: 8,
            grid: figures::stationary_grid,
            render: figures::render_stationary,
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

    #[test]
    fn registry_names_are_unique_and_findable() {
        let figures = registry();
        assert_eq!(figures.len(), 6);
        for fig in &figures {
            assert_eq!(find(fig.name).unwrap().default_seconds, fig.default_seconds);
        }
        let mut names: Vec<&str> = figures.iter().map(|f| f.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 6, "registry names are unique");
        assert!(find("fig99_nonexistent").is_none());
    }

    #[test]
    fn every_grid_expands_to_a_nonempty_deterministic_spec_list() {
        for fig in registry() {
            let a = (fig.grid)(2).expand();
            let b = (fig.grid)(2).expand();
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
}
