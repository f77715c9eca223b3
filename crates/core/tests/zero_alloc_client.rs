//! Regression test: the PBE client's per-subframe and per-packet paths
//! allocate nothing in steady state.
//!
//! The client runs for every received packet and every subframe of every PBE
//! flow.  Once its windows are full, folding a subframe into the monitor
//! (recycled window records, running totals), reading the snapshots into a
//! reused buffer, estimating, and updating the two windowed delay minima must
//! not touch the allocator.  This test installs a counting global allocator
//! and drives `PbeClient` directly, the way `crates/netsim/tests/
//! zero_alloc_observer.rs` drives observer dispatch.

use pbe_cellular::config::{CellId, Rnti};
use pbe_cellular::dci::{DciFormat, DciMessage};
use pbe_cellular::mcs::McsIndex;
use pbe_core::PbeClient;
use pbe_pdcch::fusion::FusedSubframe;
use pbe_stats::time::Instant;

#[global_allocator]
static ALLOC: alloc_counter::CountingAllocator = alloc_counter::CountingAllocator;

const OWN: Rnti = Rnti(0x0100);
const OTHER: Rnti = Rnti(0x0200);

/// One-way delays (ms) cycled through by the received packets: ties, a
/// spike and a new minimum, so both delay filters pop and push.
const DELAYS_MS: [f64; 6] = [30.0, 31.5, 29.0, 35.0, 29.0, 30.5];

fn dci(rnti: Rnti, num_prbs: u16) -> DciMessage {
    DciMessage {
        cell: CellId(0),
        subframe: 0,
        rnti,
        format: DciFormat::Format1,
        first_prb: 0,
        num_prbs,
        mcs: McsIndex(20),
        spatial_streams: 2,
        new_data_indicator: true,
        harq_process: 0,
        tbs_bits: u32::from(num_prbs) * 1200,
    }
}

/// Drive `subframes` subframes from `start`: one fused subframe each, then
/// three received packets.
fn drive(client: &mut PbeClient, fused: &mut FusedSubframe, start: u64, subframes: u64) {
    for sf in start..start + subframes {
        fused.subframe = sf;
        client.on_subframe(fused);
        for k in 0..3u64 {
            let delay = DELAYS_MS[((sf * 3 + k) % DELAYS_MS.len() as u64) as usize];
            client.on_packet(Instant::from_micros(sf * 1_000 + k * 300), delay);
        }
    }
}

#[test]
fn steady_state_client_allocates_nothing() {
    let mut client = PbeClient::new(OWN, vec![(CellId(0), 100)]);
    let mut fused = FusedSubframe::default();
    fused
        .per_cell
        .push((CellId(0), vec![dci(OWN, 40), dci(OTHER, 30)]));

    // Warm-up: fill the 40-subframe monitor window (and evict past it, so a
    // recycled record is waiting), size the snapshot buffer, and cache the
    // Eqn. 5 lookup-table entry.
    drive(&mut client, &mut fused, 0, 200);
    let estimate = client.capacity();
    assert_eq!(estimate.max_active_users, 2);
    assert!(client.transport_capacity_bps() > 0.0);
    assert_eq!(client.dprop_ms(), 29.0);

    let before = alloc_counter::allocation_count();
    drive(&mut client, &mut fused, 200, 100);
    let allocations = alloc_counter::allocation_count() - before;
    assert_eq!(
        allocations, 0,
        "100 steady-state subframes of the client allocated {allocations} times"
    );
    assert_eq!(client.capacity(), estimate);
}
