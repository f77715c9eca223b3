//! Regression test: the PBE receiver agent's per-subframe and per-packet
//! paths allocate nothing in steady state.
//!
//! Every PBE flow runs one `PbeReceiverAgent`, which blind-decodes each
//! watched cell's control channel every subframe and folds the result into
//! its client.  Once the decoders' buffers, the gathered subframe and the
//! client's windows have reached their working size, decoding, gathering
//! and estimating must not touch the allocator.  This test installs a
//! counting global allocator and drives the agent the way the simulator
//! does: one `DciBatcher` batch per subframe, then the packets received in
//! it, with a secondary cell brought in by a carrier activation.

use pbe_cellular::carrier::CaEvent;
use pbe_cellular::config::{CellId, Rnti, UeId};
use pbe_cellular::dci::{DciFormat, DciMessage};
use pbe_cellular::mcs::McsIndex;
use pbe_core::receiver::{PbeReceiverAgent, ReceiverAgent, ReceiverCtx};
use pbe_pdcch::batch::DciBatcher;
use pbe_stats::time::Instant;
use pbe_stats::DetRng;

#[global_allocator]
static ALLOC: alloc_counter::CountingAllocator = alloc_counter::CountingAllocator;

const OWN: Rnti = Rnti(0x0100);
const OTHER: Rnti = Rnti(0x0200);

/// One-way delays (ms) cycled through by the received packets.
const DELAYS_MS: [f64; 6] = [30.0, 31.5, 29.0, 35.0, 29.0, 30.5];

fn dci(cell: CellId, rnti: Rnti, num_prbs: u16) -> DciMessage {
    DciMessage {
        cell,
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

/// Drive `subframes` subframes from `start`: the cells' grants through the
/// batcher, then three received packets.
fn drive(
    agent: &mut PbeReceiverAgent,
    batcher: &mut DciBatcher,
    stream: &mut [DciMessage],
    start: u64,
    subframes: u64,
) {
    for sf in start..start + subframes {
        for m in stream.iter_mut() {
            m.subframe = sf;
        }
        agent.on_subframe(&batcher.batch(sf, stream));
        for k in 0..3u64 {
            let delay = DELAYS_MS[((sf * 3 + k) % DELAYS_MS.len() as u64) as usize];
            let feedback = agent.on_packet(Instant::from_micros(sf * 1_000 + k * 300), delay);
            assert!(feedback.is_some());
        }
    }
}

#[test]
fn steady_state_receiver_allocates_nothing() {
    let mut agent = PbeReceiverAgent::new(&ReceiverCtx {
        flow: 1,
        rnti: OWN,
        cells: vec![(CellId(0), 100)],
        rng: DetRng::new(7).split("decoders"),
    });
    agent.on_carrier_event(
        &CaEvent {
            ue: UeId(1),
            cell: CellId(1),
            activated: true,
            at: Instant::from_millis(0),
        },
        50,
    );
    let mut batcher = DciBatcher::new();
    let mut stream = vec![
        dci(CellId(0), OWN, 40),
        dci(CellId(0), OTHER, 30),
        dci(CellId(1), OWN, 20),
        dci(CellId(1), OTHER, 25),
    ];

    // Warm-up: size every decoder's buffer and the batcher's runs, fill the
    // monitor windows of both cells (and evict past them), and size the
    // client's snapshot buffer.
    drive(&mut agent, &mut batcher, &mut stream, 0, 200);
    assert_eq!(agent.client().monitor().cells(), vec![CellId(0), CellId(1)]);
    assert_eq!(agent.client().capacity().cells, 2);
    assert!(agent.client().transport_capacity_bps() > 0.0);

    let before = alloc_counter::allocation_count();
    drive(&mut agent, &mut batcher, &mut stream, 200, 200);
    let allocations = alloc_counter::allocation_count() - before;
    assert_eq!(
        allocations, 0,
        "200 steady-state subframes of the receiver allocated {allocations} times"
    );
}
