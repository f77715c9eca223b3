//! The built-in metrics observer: from the event stream to [`SimResult`].
//!
//! Everything the simulator reports — per-flow summaries, throughput/delay
//! timelines, the primary-cell PRB fairness timeline, carrier-aggregation
//! events — is derived purely from the [`SimEvent`] stream.  The engine
//! registers one [`MetricsCollector`] for every run; experiments that need a
//! different cut of the same telemetry register their own observers beside
//! it.

use crate::backhaul::BackhaulLinkResult;
use crate::faults::{FaultKind, FaultRecoveryRecord};
use crate::flow::{FlowConfig, FlowResult};
use crate::observer::{Observer, SimEvent};
use crate::sim::{PrbInterval, SimResult};
use pbe_cellular::carrier::CaEvent;
use pbe_cellular::config::{CellId, UeId};
use pbe_cellular::handover::HandoverEvent;
use pbe_stats::summary::FlowSummaryBuilder;
use std::collections::HashMap;

/// One fault whose window is still open: recovery metrics accumulate here
/// until the matching end event (or the end of the run) closes it.
struct OpenFault {
    kind: FaultKind,
    target: String,
    start_ms: u64,
    /// Known up front only for decode-loss bursts (their end rides on the
    /// start event); outages and flaps close on their end events.
    end_ms: Option<u64>,
    affected_ues: Vec<u32>,
    reconnect_ms: Vec<(u32, u64)>,
    packets_stranded: u64,
    /// Restrict estimate-error accounting to one flow (decode loss); `None`
    /// accumulates over every flow.
    flow_filter: Option<u32>,
    /// Last capacity estimate per flow just before the fault hit.
    baseline: HashMap<u32, f64>,
    err_sum: f64,
    err_count: u64,
}

impl OpenFault {
    fn close(self, end_ms: u64) -> FaultRecoveryRecord {
        FaultRecoveryRecord {
            kind: self.kind,
            target: self.target,
            start_ms: self.start_ms,
            end_ms: self.end_ms.unwrap_or(end_ms),
            affected_ues: self.affected_ues,
            reconnect_ms: self.reconnect_ms,
            packets_stranded: self.packets_stranded,
            estimate_error: if self.err_count > 0 {
                self.err_sum / self.err_count as f64
            } else {
                0.0
            },
        }
    }
}

struct FlowMetrics {
    id: u32,
    scheme: String,
    summary: FlowSummaryBuilder,
    delivered: u64,
    lost: u64,
    internet_bottleneck_fraction: f64,
    carrier_aggregation_triggered: bool,
}

/// Accumulates the standard [`SimResult`] from the event stream.
pub struct MetricsCollector {
    flows: Vec<FlowMetrics>,
    index_of: HashMap<u32, usize>,
    /// UE → flow id used for the primary-cell PRB timeline.
    flow_of_ue: HashMap<UeId, u32>,
    primary_cell: CellId,
    ca_events: Vec<CaEvent>,
    handovers: Vec<HandoverEvent>,
    prb_timeline: Vec<PrbInterval>,
    prb_accum: HashMap<u32, f64>,
    prb_accum_start_ms: u64,
    /// Per-link 100 ms maximum-occupancy windows (empty without a backhaul).
    bh_timeline: Vec<Vec<u64>>,
    /// Current window's maximum occupancy per link.
    bh_accum: Vec<u64>,
    /// Samples taken since the last window closed (0 = nothing to flush).
    bh_samples_since_close: u64,
    bh_links: Vec<BackhaulLinkResult>,
    /// Last capacity estimate seen per flow (baseline for fault error).
    last_capacity: HashMap<u32, f64>,
    open_faults: Vec<OpenFault>,
    fault_records: Vec<FaultRecoveryRecord>,
    /// Newest subframe time seen, for closing still-open faults at the end.
    last_subframe_ms: u64,
}

impl MetricsCollector {
    /// Set up collection for the given flows and primary cell.
    pub fn new(flows: &[FlowConfig], primary_cell: CellId) -> Self {
        let mut flow_of_ue = HashMap::new();
        for f in flows {
            // The first configured flow of a UE owns the PRB attribution,
            // mirroring the historical accounting.
            flow_of_ue.entry(f.ue).or_insert(f.id);
        }
        MetricsCollector {
            flows: flows
                .iter()
                .map(|f| FlowMetrics {
                    id: f.id,
                    scheme: f.scheme.to_string(),
                    summary: FlowSummaryBuilder::new(f.scheme.to_string()),
                    delivered: 0,
                    lost: 0,
                    internet_bottleneck_fraction: 0.0,
                    carrier_aggregation_triggered: false,
                })
                .collect(),
            index_of: flows.iter().enumerate().map(|(i, f)| (f.id, i)).collect(),
            flow_of_ue,
            primary_cell,
            ca_events: Vec::new(),
            handovers: Vec::new(),
            prb_timeline: Vec::new(),
            prb_accum: HashMap::new(),
            prb_accum_start_ms: 0,
            bh_timeline: Vec::new(),
            bh_accum: Vec::new(),
            bh_samples_since_close: 0,
            bh_links: Vec::new(),
            last_capacity: HashMap::new(),
            open_faults: Vec::new(),
            fault_records: Vec::new(),
            last_subframe_ms: 0,
        }
    }

    fn open_fault(&mut self, kind: FaultKind, target: String, start_ms: u64) -> &mut OpenFault {
        self.open_faults.push(OpenFault {
            kind,
            target,
            start_ms,
            end_ms: None,
            affected_ues: Vec::new(),
            reconnect_ms: Vec::new(),
            packets_stranded: 0,
            flow_filter: None,
            baseline: self.last_capacity.clone(),
            err_sum: 0.0,
            err_count: 0,
        });
        self.open_faults.last_mut().expect("just pushed")
    }

    /// Close the newest open fault matching `kind` and `target`.
    fn close_fault(&mut self, kind: FaultKind, target: &str, end_ms: u64) {
        if let Some(pos) = self
            .open_faults
            .iter()
            .rposition(|f| f.kind == kind && f.target == target)
        {
            let fault = self.open_faults.remove(pos);
            self.fault_records.push(fault.close(end_ms));
        }
    }

    /// Finish collection and assemble the result.
    pub fn finish(mut self) -> SimResult {
        let flows = self
            .flows
            .iter_mut()
            .map(|m| {
                m.summary
                    .set_internet_bottleneck_fraction(m.internet_bottleneck_fraction);
                m.summary
                    .set_carrier_aggregation_triggered(m.carrier_aggregation_triggered);
                let windows = m.summary.windows().windows();
                FlowResult {
                    id: m.id,
                    scheme: m.scheme.clone(),
                    summary: m.summary.build(),
                    throughput_timeline_mbps: windows.iter().map(|w| w.throughput_mbps).collect(),
                    delay_timeline_ms: windows.iter().map(|w| w.mean_delay_ms).collect(),
                    packets_lost: m.lost,
                    packets_delivered: m.delivered,
                }
            })
            .collect();
        // Flush the final (possibly partial) backhaul sampling window and
        // pair each link summary with its timeline.
        if self.bh_samples_since_close > 0 {
            if self.bh_timeline.len() < self.bh_accum.len() {
                self.bh_timeline.resize_with(self.bh_accum.len(), Vec::new);
            }
            for (link, &max) in self.bh_accum.iter().enumerate() {
                self.bh_timeline[link].push(max);
            }
        }
        for (link, result) in self.bh_links.iter_mut().enumerate() {
            if let Some(windows) = self.bh_timeline.get(link) {
                result.queue_timeline_bytes = windows.clone();
            }
        }
        // Faults still open when the run ends close at the final subframe.
        let end_ms = self.last_subframe_ms + 1;
        for fault in self.open_faults.drain(..) {
            self.fault_records.push(fault.close(end_ms));
        }
        SimResult {
            flows,
            primary_prb_timeline: self.prb_timeline,
            ca_events: self.ca_events,
            handovers: self.handovers,
            backhaul_links: self.bh_links,
            fault_recovery: self.fault_records,
        }
    }
}

impl Observer for MetricsCollector {
    fn on_event(&mut self, event: &SimEvent<'_>) {
        match event {
            SimEvent::PacketDelivered {
                flow,
                at,
                bytes,
                one_way,
                delivered,
                ..
            } => {
                let Some(&idx) = self.index_of.get(flow) else {
                    return;
                };
                let m = &mut self.flows[idx];
                if *delivered {
                    m.delivered += 1;
                    m.summary.record_packet(*at, *bytes, *one_way);
                } else {
                    m.lost += 1;
                }
            }
            SimEvent::SubframeScheduled { now, report } => {
                for cr in &report.cell_reports {
                    if cr.cell != self.primary_cell {
                        continue;
                    }
                    // Every tracked flow owns an interval entry even when it
                    // was never scheduled (intervals report explicit zeros);
                    // refill once after each interval's drain.
                    if self.prb_accum.len() != self.flow_of_ue.len() {
                        for flow_id in self.flow_of_ue.values() {
                            self.prb_accum.entry(*flow_id).or_insert(0.0);
                        }
                    }
                    // One pass over the subframe's allocation list instead of
                    // one full `allocated_to` scan per tracked UE.
                    for a in &cr.prb_usage.allocations {
                        if let Some(flow_id) = self.flow_of_ue.get(&a.ue) {
                            if let Some(total) = self.prb_accum.get_mut(flow_id) {
                                *total += f64::from(a.num_prbs);
                            }
                        }
                    }
                }
                let t_ms = now.as_millis();
                self.last_subframe_ms = self.last_subframe_ms.max(t_ms);
                // Decode-loss bursts know their end up front and close on
                // the subframe clock.
                while let Some(pos) = self
                    .open_faults
                    .iter()
                    .position(|f| f.end_ms.is_some_and(|end| t_ms >= end))
                {
                    let fault = self.open_faults.remove(pos);
                    let end = fault.end_ms.expect("checked");
                    self.fault_records.push(fault.close(end));
                }
                if (t_ms + 1) % 100 == 0 {
                    let mut per_ue = HashMap::new();
                    for (flow_id, total) in self.prb_accum.drain() {
                        per_ue.insert(flow_id, total / 100.0);
                    }
                    self.prb_timeline.push(PrbInterval {
                        start_s: self.prb_accum_start_ms as f64 / 1000.0,
                        per_ue,
                    });
                    self.prb_accum_start_ms = t_ms + 1;
                }
            }
            SimEvent::CaTriggered { event } => self.ca_events.push(*event),
            SimEvent::Handover { at, ue, from, to } => self.handovers.push(HandoverEvent {
                ue: *ue,
                from: *from,
                to: *to,
                at: *at,
            }),
            SimEvent::FlowClosed {
                flow,
                internet_bottleneck_fraction,
                carrier_aggregation_triggered,
            } => {
                let Some(&idx) = self.index_of.get(flow) else {
                    return;
                };
                let m = &mut self.flows[idx];
                m.internet_bottleneck_fraction = *internet_bottleneck_fraction;
                m.carrier_aggregation_triggered = *carrier_aggregation_triggered;
            }
            SimEvent::BackhaulSampled { now, queued_bytes } => {
                if self.bh_accum.len() < queued_bytes.len() {
                    self.bh_accum.resize(queued_bytes.len(), 0);
                }
                for (acc, &q) in self.bh_accum.iter_mut().zip(queued_bytes.iter()) {
                    *acc = (*acc).max(q);
                }
                self.bh_samples_since_close += 1;
                // Windows close on the same 100 ms boundaries as the PRB
                // timeline, so the two plots line up sample for sample.
                let t_ms = now.as_millis();
                if (t_ms + 1) % 100 == 0 {
                    if self.bh_timeline.len() < self.bh_accum.len() {
                        self.bh_timeline.resize_with(self.bh_accum.len(), Vec::new);
                    }
                    for (link, acc) in self.bh_accum.iter_mut().enumerate() {
                        self.bh_timeline[link].push(*acc);
                        *acc = 0;
                    }
                    self.bh_samples_since_close = 0;
                }
            }
            SimEvent::BackhaulLinkClosed {
                link,
                name,
                rate_bps,
                stats,
                max_queued_bytes,
                p50_queue_delay_ms,
                p95_queue_delay_ms,
            } => {
                debug_assert_eq!(*link, self.bh_links.len(), "links close in order");
                self.bh_links.push(BackhaulLinkResult {
                    name: (*name).to_string(),
                    rate_bps: *rate_bps,
                    stats: *stats,
                    max_queued_bytes: *max_queued_bytes,
                    p50_queue_delay_ms: *p50_queue_delay_ms,
                    p95_queue_delay_ms: *p95_queue_delay_ms,
                    queue_timeline_bytes: Vec::new(),
                });
            }
            SimEvent::CapacityEstimated { flow, feedback, .. } => {
                let cap = feedback.capacity_bps();
                if cap.is_finite() {
                    for f in &mut self.open_faults {
                        if f.flow_filter.is_some_and(|only| only != *flow) {
                            continue;
                        }
                        if let Some(&base) = f.baseline.get(flow) {
                            if base > 0.0 {
                                f.err_sum += (cap - base).abs() / base;
                                f.err_count += 1;
                            }
                        }
                    }
                    self.last_capacity.insert(*flow, cap);
                }
            }
            SimEvent::FaultCellOutage {
                cell,
                at,
                down,
                residents,
            } => {
                let target = format!("cell-{}", cell.0);
                if *down {
                    let fault = self.open_fault(FaultKind::CellOutage, target, at.as_millis());
                    fault.affected_ues = residents.iter().map(|u| u.0).collect();
                } else {
                    self.close_fault(FaultKind::CellOutage, &target, at.as_millis());
                }
            }
            SimEvent::FaultRlf {
                cell,
                at,
                reconnected,
                stranded_packets,
                ..
            } => {
                let target = format!("cell-{}", cell.0);
                let at_ms = at.as_millis();
                if let Some(fault) = self
                    .open_faults
                    .iter_mut()
                    .rev()
                    .find(|f| f.kind == FaultKind::CellOutage && f.target == target)
                {
                    for (ue, _to) in reconnected.iter() {
                        fault
                            .reconnect_ms
                            .push((ue.0, at_ms.saturating_sub(fault.start_ms)));
                    }
                    fault.packets_stranded += stranded_packets;
                }
            }
            SimEvent::FaultLinkFlap { name, at, down } => {
                if *down {
                    self.open_fault(FaultKind::LinkFlap, (*name).to_string(), at.as_millis());
                } else {
                    self.close_fault(FaultKind::LinkFlap, name, at.as_millis());
                }
            }
            SimEvent::FaultDecodeLoss { flow, at, until_ms } => {
                let fault = self.open_fault(
                    FaultKind::DecodeLoss,
                    format!("flow-{flow}"),
                    at.as_millis(),
                );
                fault.end_ms = Some(*until_ms);
                fault.flow_filter = Some(*flow);
            }
            SimEvent::AckProcessed { .. }
            | SimEvent::StateChanged { .. }
            | SimEvent::BackhaulMark { .. }
            | SimEvent::BackhaulDrop { .. } => {}
        }
    }
}
