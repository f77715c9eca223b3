//! The `fanout` scenario family: one server, many cells, one shared
//! aggregation link.
//!
//! The paper's topology gives every flow a private wired path, so the only
//! contention is on the radio.  A deployed CDN edge looks different: one
//! server fans out to hundreds or thousands of flows whose cells all hang
//! off the same metro aggregation link, and when that link is undersized the
//! bottleneck migrates from the radio into the backhaul.  [`Fanout`]
//! generates that regime deterministically: a grid of cells, stationary UEs
//! round-robined across them (one bulk flow each), and a
//! [`BackhaulConfig::shared_aggregation`] topology whose aggregation link is
//! sized relative to the offered load.
//!
//! ```
//! use pbe_bench::sweep::Fanout;
//!
//! let result = Fanout::new(2, 4).millis(400).scenario().run();
//! assert_eq!(result.flows.len(), 4);
//! assert_eq!(result.backhaul_links.len(), 3);
//! ```

use super::spec::ScenarioSpec;
use pbe_cellular::channel::MobilityTrace;
use pbe_cellular::config::{Bandwidth, CellConfig, CellId, CellularConfig, UeConfig, UeId};
use pbe_cellular::traffic::CellLoadProfile;
use pbe_netsim::{BackhaulConfig, BackhaulLinkSpec, FlowConfig, SchemeChoice};
use pbe_stats::time::Duration;

/// Declarative generator of one fan-out scenario.
#[derive(Debug, Clone)]
pub struct Fanout {
    /// Scenario label carried into reports.
    pub label: String,
    /// Number of cells (each gets its own backhaul link off the shared
    /// aggregation link).
    pub cells: u16,
    /// Number of UEs/flows, assigned to cells round-robin.
    pub flows: u32,
    /// Simulated duration.
    pub duration: Duration,
    /// Experiment seed.
    pub seed: u64,
    /// Background load applied to every cell.
    pub load: CellLoadProfile,
    /// Scheme driving every flow (sweepable via the grid).
    pub scheme: SchemeChoice,
    /// Shard count handed to the simulator (`None` = one shard, unless
    /// `PBE_FORCE_SHARDS` overrides it).
    pub shards: Option<usize>,
    /// Line rate of the shared aggregation link, bits per second.
    pub agg_rate_bps: f64,
    /// Queue limit of the aggregation link, bytes.
    pub agg_queue_bytes: u64,
    /// ECN marking threshold of the aggregation link, bytes (`None`
    /// disables marking there).
    pub agg_mark_threshold_bytes: Option<u64>,
    /// Line rate of every per-cell backhaul link, bits per second.
    pub cell_rate_bps: f64,
    /// Queue limit of every per-cell backhaul link, bytes.
    pub cell_queue_bytes: u64,
}

impl Fanout {
    /// A fan-out with `flows` stationary UEs round-robined over `cells`
    /// cells, all behind one 200 Mbit/s aggregation link that marks at half
    /// its 500 kB queue.
    pub fn new(cells: u16, flows: u32) -> Self {
        assert!(cells >= 1, "a fan-out needs at least one cell");
        assert!(flows >= 1, "a fan-out needs at least one flow");
        Fanout {
            label: format!("fanout {cells} cells ({flows} flows)"),
            cells,
            flows,
            duration: Duration::from_secs(1),
            seed: 0xFA0,
            load: CellLoadProfile::none(),
            scheme: SchemeChoice::named("CUBIC"),
            shards: None,
            agg_rate_bps: 200e6,
            agg_queue_bytes: 500_000,
            agg_mark_threshold_bytes: Some(250_000),
            cell_rate_bps: 150e6,
            cell_queue_bytes: 250_000,
        }
    }

    /// Set the simulated duration in seconds.
    pub fn seconds(mut self, seconds: u64) -> Self {
        self.duration = Duration::from_secs(seconds);
        self
    }

    /// Set the simulated duration in milliseconds.
    pub fn millis(mut self, millis: u64) -> Self {
        self.duration = Duration::from_millis(millis);
        self
    }

    /// Set the seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the scheme driving every flow.
    pub fn scheme(mut self, scheme: SchemeChoice) -> Self {
        self.scheme = scheme;
        self
    }

    /// Set the background-load profile.
    pub fn load(mut self, load: CellLoadProfile) -> Self {
        self.load = load;
        self
    }

    /// Tick the radio network on this many shards (byte-identical for every
    /// count — the backhaul is stepped in the driver loop either way; only
    /// the wall clock changes).
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = Some(shards);
        self
    }

    /// Size the shared aggregation link: rate, queue limit, and a marking
    /// threshold at half the queue.
    pub fn agg(mut self, rate_bps: f64, queue_bytes: u64) -> Self {
        self.agg_rate_bps = rate_bps;
        self.agg_queue_bytes = queue_bytes;
        self.agg_mark_threshold_bytes = Some(queue_bytes / 2);
        self
    }

    /// Override the aggregation link's marking threshold (`None` disables
    /// ECN marking).
    pub fn mark_threshold(mut self, bytes: Option<u64>) -> Self {
        self.agg_mark_threshold_bytes = bytes;
        self
    }

    /// The cellular network: `cells` 10 MHz cells with the default CA and
    /// handover policies.
    pub fn cellular(&self) -> CellularConfig {
        CellularConfig {
            cells: (0..self.cells)
                .map(|i| CellConfig {
                    id: CellId(i),
                    bandwidth: Bandwidth::Mhz10,
                    carrier_ghz: 1.94,
                    max_spatial_streams: 2,
                })
                .collect(),
            ..CellularConfig::default()
        }
    }

    /// The shared-aggregation backhaul of the fan-out.
    pub fn backhaul(&self) -> BackhaulConfig {
        let cell_ids: Vec<CellId> = (0..self.cells).map(CellId).collect();
        let mut agg = BackhaulLinkSpec::new(
            "agg",
            self.agg_rate_bps,
            Duration::from_millis(2),
            self.agg_queue_bytes,
        );
        agg.mark_threshold_bytes = self.agg_mark_threshold_bytes;
        BackhaulConfig::shared_aggregation(&cell_ids, agg, |cell| {
            BackhaulLinkSpec::new(
                format!("cell-{}", cell.0),
                self.cell_rate_bps,
                Duration::from_millis(1),
                self.cell_queue_bytes,
            )
        })
    }

    /// Compile the scenario: grid cells, stationary UEs round-robined over
    /// them (one bulk flow each), and the shared-aggregation backhaul.
    pub fn scenario(&self) -> ScenarioSpec {
        let mut spec = ScenarioSpec::new(self.label.clone(), self.scheme.clone(), self.duration)
            .cellular(self.cellular())
            .load(self.load)
            .seed(self.seed)
            .backhaul(self.backhaul());
        spec.shards = self.shards;
        for i in 0..self.flows {
            let ue = UeId(i + 1);
            let cell = CellId((i % u32::from(self.cells)) as u16);
            spec = spec
                .ue(
                    UeConfig::new(ue, vec![cell], 1, -85.0),
                    MobilityTrace::stationary(-85.0),
                )
                .flow(FlowConfig::bulk(
                    i + 1,
                    ue,
                    self.scheme.clone(),
                    self.duration,
                ));
        }
        spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_shape_matches_the_fanout() {
        let spec = Fanout::new(6, 20).scenario();
        assert_eq!(spec.cellular.cells.len(), 6);
        assert_eq!(spec.ues.len(), 20);
        assert_eq!(spec.flows.len(), 20);
        assert_eq!(spec.sweep_flows.len(), 20);
        let backhaul = spec.backhaul.as_ref().expect("fan-out has a backhaul");
        // One aggregation link plus one link per cell, every cell routed.
        assert_eq!(backhaul.links.len(), 7);
        assert_eq!(backhaul.routes.len(), 6);
        backhaul.validate().expect("fan-out topology validates");
        // UEs round-robin over the cells.
        for (i, (cfg, _)) in spec.ues.iter().enumerate() {
            assert_eq!(cfg.configured_cells, vec![CellId((i % 6) as u16)]);
        }
    }

    #[test]
    fn generation_is_deterministic_for_a_seed() {
        let a = Fanout::new(3, 9).seconds(1).scenario();
        let b = Fanout::new(3, 9).seconds(1).scenario();
        assert_eq!(
            serde_json::to_string(&a.sim_config()).unwrap(),
            serde_json::to_string(&b.sim_config()).unwrap()
        );
    }

    #[test]
    fn undersized_aggregation_link_marks_and_constrains() {
        // 8 flows behind a 12 Mbit/s aggregation link: the shared queue must
        // mark, and total delivered goodput must track the link, not the
        // (much faster) radio.
        let result = Fanout::new(2, 8)
            .seconds(1)
            .agg(12e6, 90_000)
            .scenario()
            .run();
        let agg = &result.backhaul_links[0];
        assert!(agg.stats.marked_packets > 0, "no marks at the shared link");
        let delivered_mbps: f64 = result
            .flows
            .iter()
            .map(|f| f.summary.avg_throughput_mbps)
            .sum();
        assert!(
            delivered_mbps < 14.0,
            "delivered {delivered_mbps} Mbit/s through a 12 Mbit/s aggregation link"
        );
    }
}
