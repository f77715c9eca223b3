//! Multi-cell message fusion.
//!
//! With carrier aggregation the monitor runs one decoder per aggregated cell
//! (the paper runs one USRP + decoder thread per cell).  The fusion module
//! aligns their outputs on the subframe index and hands the congestion
//! control module one consolidated view per subframe (paper §5: "Our Message
//! Fusion module aligns the decoded control messages from multiple decoders
//! according to their subframe indices").
//!
//! [`MessageFusion`] is the standalone aligner, for decoders that report
//! asynchronously.  The simulator's receiver agent drives all of its
//! decoders for the same subframe in one call, so it gathers their output
//! straight into one reused [`FusedSubframe`] instead.  The aligner stays
//! as the asynchronous API: the repo benchmark's decode replay,
//! `examples/capacity_monitor.rs` and `tests/measurement_pipeline.rs` feed
//! it one decoder at a time.

use pbe_cellular::config::CellId;
use pbe_cellular::dci::DciMessage;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};

/// All control messages decoded for one subframe, grouped by cell.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FusedSubframe {
    /// Subframe index.
    pub subframe: u64,
    /// Decoded messages per cell, at most one entry per cell.  A cell with
    /// no messages is absent or holds an empty `Vec`.  An aggregating
    /// receiver watches a handful of cells, so a linear search beats a map.
    pub per_cell: Vec<(CellId, Vec<DciMessage>)>,
}

impl FusedSubframe {
    /// Messages of one cell.
    pub fn cell_messages(&self, cell: CellId) -> &[DciMessage] {
        self.per_cell
            .iter()
            .find(|(c, _)| *c == cell)
            .map_or(&[], |(_, messages)| messages.as_slice())
    }
}

/// Aligns per-cell decoder outputs on the subframe index.
#[derive(Debug)]
pub struct MessageFusion {
    watched_cells: Vec<CellId>,
    pending: BTreeMap<u64, FusedSubframe>,
    reported: HashMap<u64, Vec<CellId>>,
    /// Subframes already emitted (fusion never re-emits an older subframe).
    emitted_up_to: Option<u64>,
}

impl MessageFusion {
    /// Create a fusion stage for the given set of cells.
    pub fn new(watched_cells: Vec<CellId>) -> Self {
        assert!(!watched_cells.is_empty(), "fusion needs at least one cell");
        MessageFusion {
            watched_cells,
            pending: BTreeMap::new(),
            reported: HashMap::new(),
            emitted_up_to: None,
        }
    }

    /// Change the watched cell set (e.g. when carrier aggregation activates a
    /// new secondary cell and a new decoder is started).
    pub fn set_watched_cells(&mut self, cells: Vec<CellId>) {
        assert!(!cells.is_empty());
        self.watched_cells = cells;
    }

    /// Ingest the messages one cell's decoder produced for one subframe.
    /// Returns every subframe that is now complete (all watched cells have
    /// reported), in order; each lists its cells in the order they first
    /// reported messages.
    pub fn ingest(
        &mut self,
        cell: CellId,
        subframe: u64,
        messages: Vec<DciMessage>,
    ) -> Vec<FusedSubframe> {
        if let Some(done) = self.emitted_up_to {
            if subframe <= done {
                return Vec::new();
            }
        }
        let entry = self
            .pending
            .entry(subframe)
            .or_insert_with(|| FusedSubframe {
                subframe,
                per_cell: Vec::new(),
            });
        if !messages.is_empty() {
            match entry.per_cell.iter_mut().find(|(c, _)| *c == cell) {
                Some((_, seen)) => seen.extend(messages),
                None => entry.per_cell.push((cell, messages)),
            }
        }
        let reporters = self.reported.entry(subframe).or_default();
        if !reporters.contains(&cell) {
            reporters.push(cell);
        }
        self.drain_complete()
    }

    fn drain_complete(&mut self) -> Vec<FusedSubframe> {
        let mut out = Vec::new();
        while let Some((&subframe, _)) = self.pending.iter().next() {
            let complete = self
                .reported
                .get(&subframe)
                .map(|r| self.watched_cells.iter().all(|c| r.contains(c)))
                .unwrap_or(false);
            if !complete {
                break;
            }
            let fused = self.pending.remove(&subframe).expect("present");
            self.reported.remove(&subframe);
            self.emitted_up_to = Some(subframe);
            out.push(fused);
        }
        out
    }

    /// Subframes buffered waiting for a slow decoder.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbe_cellular::config::Rnti;
    use pbe_cellular::dci::DciFormat;
    use pbe_cellular::mcs::McsIndex;

    fn msg(cell: u16, subframe: u64, rnti: u16) -> DciMessage {
        DciMessage {
            cell: CellId(cell),
            subframe,
            rnti: Rnti(rnti),
            format: DciFormat::Format1,
            first_prb: 0,
            num_prbs: 8,
            mcs: McsIndex(10),
            spatial_streams: 1,
            new_data_indicator: true,
            harq_process: 0,
            tbs_bits: 8_000,
        }
    }

    #[test]
    fn single_cell_fusion_is_pass_through() {
        let mut fusion = MessageFusion::new(vec![CellId(0)]);
        let fused = fusion.ingest(CellId(0), 3, vec![msg(0, 3, 0x100)]);
        assert_eq!(fused.len(), 1);
        assert_eq!(fused[0].subframe, 3);
        assert_eq!(fused[0].cell_messages(CellId(0)).len(), 1);
    }

    #[test]
    fn waits_for_all_watched_cells() {
        let mut fusion = MessageFusion::new(vec![CellId(0), CellId(1)]);
        assert!(fusion
            .ingest(CellId(0), 7, vec![msg(0, 7, 0x100)])
            .is_empty());
        assert_eq!(fusion.pending_count(), 1);
        let fused = fusion.ingest(CellId(1), 7, vec![msg(1, 7, 0x200)]);
        assert_eq!(fused.len(), 1);
        assert_eq!(fused[0].per_cell.len(), 2);
        assert_eq!(fusion.pending_count(), 0);
    }

    #[test]
    fn all_messages_follow_the_order_cells_reported_in() {
        let mut fusion = MessageFusion::new(vec![CellId(0), CellId(1)]);
        assert!(fusion
            .ingest(CellId(1), 7, vec![msg(1, 7, 0x200)])
            .is_empty());
        let fused = fusion.ingest(CellId(0), 7, vec![msg(0, 7, 0x100), msg(0, 7, 0x101)]);
        let cells: Vec<CellId> = fused[0].per_cell.iter().map(|(c, _)| *c).collect();
        assert_eq!(cells, vec![CellId(1), CellId(0)]);
        let rntis = |cell| -> Vec<u16> {
            fused[0]
                .cell_messages(cell)
                .iter()
                .map(|m| m.rnti.0)
                .collect()
        };
        assert_eq!(rntis(CellId(1)), vec![0x200]);
        assert_eq!(rntis(CellId(0)), vec![0x100, 0x101]);
        assert!(fused[0].cell_messages(CellId(2)).is_empty());
    }

    #[test]
    fn empty_subframes_still_complete() {
        let mut fusion = MessageFusion::new(vec![CellId(0), CellId(1)]);
        assert!(fusion.ingest(CellId(0), 7, vec![]).is_empty());
        let fused = fusion.ingest(CellId(1), 7, vec![]);
        assert_eq!(fused.len(), 1);
        assert!(fused[0].cell_messages(CellId(0)).is_empty());
    }

    #[test]
    fn subframes_are_released_in_order() {
        let mut fusion = MessageFusion::new(vec![CellId(0), CellId(1)]);
        // Cell 1 runs ahead: reports subframes 1 and 2 before cell 0 reports 1.
        assert!(fusion
            .ingest(CellId(1), 1, vec![msg(1, 1, 0x200)])
            .is_empty());
        assert!(fusion
            .ingest(CellId(1), 2, vec![msg(1, 2, 0x200)])
            .is_empty());
        let fused = fusion.ingest(CellId(0), 1, vec![msg(0, 1, 0x100)]);
        assert_eq!(fused.len(), 1);
        assert_eq!(fused[0].subframe, 1);
        let fused = fusion.ingest(CellId(0), 2, vec![]);
        assert_eq!(fused.len(), 1);
        assert_eq!(fused[0].subframe, 2);
    }

    #[test]
    fn stale_reports_are_ignored() {
        let mut fusion = MessageFusion::new(vec![CellId(0)]);
        assert_eq!(fusion.ingest(CellId(0), 5, vec![]).len(), 1);
        // A duplicate / late report for an already-emitted subframe is dropped.
        assert!(fusion
            .ingest(CellId(0), 5, vec![msg(0, 5, 0x100)])
            .is_empty());
        assert!(fusion
            .ingest(CellId(0), 4, vec![msg(0, 4, 0x100)])
            .is_empty());
    }

    #[test]
    fn watched_cell_set_can_grow() {
        let mut fusion = MessageFusion::new(vec![CellId(0)]);
        assert_eq!(fusion.ingest(CellId(0), 8, vec![]).len(), 1);
        fusion.set_watched_cells(vec![CellId(0), CellId(1)]);
        assert!(fusion.ingest(CellId(0), 9, vec![]).is_empty());
        assert_eq!(fusion.ingest(CellId(1), 9, vec![]).len(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one cell")]
    fn empty_watch_list_panics() {
        MessageFusion::new(vec![]);
    }
}
