//! Per-cell batching of one subframe's DCI stream, and the on-air decode
//! every decoder of a cell shares.
//!
//! The network emits the subframe's DCI messages cell by cell, so the
//! combined stream is a sequence of contiguous per-cell runs.
//! [`DciBatcher`] computes the runs once, and [`DciBatch::cell_messages`]
//! hands each decoder exactly its own cell's slice instead of the whole
//! network's stream.  No message is copied.
//!
//! Several receivers listen to one cell, and the on-air form of a message —
//! its encoding and the CRC-checked blind decode of it — is the same for
//! all of them.  The batch decodes a cell's messages the first time a
//! decoder of that cell asks ([`ControlChannelDecoder::decode_batch`]) and
//! hands the same decodes to every later decoder of the cell in that
//! subframe: each cell is decoded on air at most once per subframe, and
//! only if some decoder reads it, so a network without receivers decodes
//! nothing.  What differs per receiver — the miss and noise draws from its
//! own stream, its plausibility filter, its statistics — stays with each
//! decoder.
//!
//! [`ControlChannelDecoder::decode_batch`]: crate::decoder::ControlChannelDecoder::decode_batch

use crate::decoder::{on_air, OnAirDci};
use pbe_cellular::config::CellId;
use pbe_cellular::dci::DciMessage;
use std::cell::{Ref, RefCell};

/// One subframe's DCI messages, grouped by cell.
///
/// Borrowed view produced by [`DciBatcher::batch`]; valid for the current
/// subframe only.
#[derive(Debug, Clone, Copy)]
pub struct DciBatch<'a> {
    subframe: u64,
    messages: &'a [DciMessage],
    /// `(cell, start, end)` runs over `messages`, in stream order.
    runs: &'a [(CellId, usize, usize)],
    /// The on-air decodes of the cells decoded so far this subframe.
    on_air: &'a RefCell<OnAirDecodes>,
}

/// The on-air decodes of one subframe, filled cell by cell on first read.
#[derive(Debug, Default)]
struct OnAirDecodes {
    /// `(cell, start, end)` spans over `decoded`, one per decoded cell.
    cells: Vec<(CellId, usize, usize)>,
    decoded: Vec<OnAirDci>,
}

impl<'a> DciBatch<'a> {
    /// The subframe these messages were transmitted in.
    pub fn subframe(&self) -> u64 {
        self.subframe
    }

    /// Every message of the subframe, in transmission order.
    pub fn all(&self) -> &'a [DciMessage] {
        self.messages
    }

    /// The messages transmitted by one cell this subframe.
    ///
    /// Returns the cell's contiguous run when there is exactly one (the
    /// normal case: the network appends messages cell by cell).  If the
    /// stream unexpectedly interleaves a cell's messages, the full stream is
    /// returned instead — callers filter by cell anyway, so the result is
    /// identical, just slower.  An empty slice means the cell was silent.
    pub fn cell_messages(&self, cell: CellId) -> &'a [DciMessage] {
        let mut found: Option<(usize, usize)> = None;
        for &(c, start, end) in self.runs {
            if c == cell {
                if found.is_some() {
                    return self.messages;
                }
                found = Some((start, end));
            }
        }
        match found {
            Some((start, end)) => &self.messages[start..end],
            None => &[],
        }
    }

    /// The on-air decodes of `cell`'s messages of this subframe, in stream
    /// order, decoded on the first call for the cell and shared after it.
    pub(crate) fn on_air(&self, cell: CellId) -> Ref<'a, [OnAirDci]> {
        let known = self
            .on_air
            .borrow()
            .cells
            .iter()
            .find(|(c, ..)| *c == cell)
            .copied();
        let (_, start, end) = known.unwrap_or_else(|| {
            let mut decodes = self.on_air.borrow_mut();
            let start = decodes.decoded.len();
            let messages = self.cell_messages(cell);
            decodes
                .decoded
                .extend(on_air(cell, self.subframe, messages));
            let span = (cell, start, decodes.decoded.len());
            decodes.cells.push(span);
            span
        });
        Ref::map(self.on_air.borrow(), |decodes| &decodes.decoded[start..end])
    }
}

/// Reusable scratch that groups a subframe's DCI stream into per-cell runs.
///
/// One batcher per driver loop; [`DciBatcher::batch`] reuses its run and
/// decode vectors, so batching and decoding allocate nothing once they have
/// reached their working size.
#[derive(Debug, Default)]
pub struct DciBatcher {
    runs: Vec<(CellId, usize, usize)>,
    on_air: RefCell<OnAirDecodes>,
}

impl DciBatcher {
    /// New batcher.
    pub fn new() -> Self {
        DciBatcher::default()
    }

    /// Group `messages` (one subframe's combined DCI stream) by cell.
    pub fn batch<'a>(&'a mut self, subframe: u64, messages: &'a [DciMessage]) -> DciBatch<'a> {
        self.runs.clear();
        let decodes = self.on_air.get_mut();
        decodes.cells.clear();
        decodes.decoded.clear();
        for (i, m) in messages.iter().enumerate() {
            match self.runs.last_mut() {
                Some((cell, _, end)) if *cell == m.cell && *end == i => *end = i + 1,
                _ => self.runs.push((m.cell, i, i + 1)),
            }
        }
        DciBatch {
            subframe,
            messages,
            runs: &self.runs,
            on_air: &self.on_air,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoder::{ControlChannelDecoder, DecoderConfig};
    use pbe_cellular::config::Rnti;
    use pbe_cellular::dci::DciFormat;
    use pbe_cellular::mcs::McsIndex;
    use pbe_stats::DetRng;

    fn dci(cell: CellId, rnti: u16) -> DciMessage {
        DciMessage {
            cell,
            subframe: 5,
            rnti: Rnti(rnti),
            format: DciFormat::Format1,
            first_prb: 0,
            num_prbs: 10,
            mcs: McsIndex(20),
            spatial_streams: 1,
            new_data_indicator: true,
            harq_process: 0,
            tbs_bits: 12_000,
        }
    }

    #[test]
    fn contiguous_runs_are_sliced_per_cell() {
        let msgs = vec![
            dci(CellId(0), 1),
            dci(CellId(0), 2),
            dci(CellId(1), 3),
            dci(CellId(2), 4),
        ];
        let mut batcher = DciBatcher::new();
        let batch = batcher.batch(5, &msgs);
        assert_eq!(batch.subframe(), 5);
        assert_eq!(batch.all().len(), 4);
        assert_eq!(batch.cell_messages(CellId(0)).len(), 2);
        assert_eq!(batch.cell_messages(CellId(1)).len(), 1);
        assert_eq!(batch.cell_messages(CellId(1))[0].rnti, Rnti(3));
        assert_eq!(batch.cell_messages(CellId(2)).len(), 1);
        assert!(batch.cell_messages(CellId(3)).is_empty());
    }

    #[test]
    fn interleaved_cells_fall_back_to_the_full_stream() {
        let msgs = vec![dci(CellId(0), 1), dci(CellId(1), 2), dci(CellId(0), 3)];
        let mut batcher = DciBatcher::new();
        let batch = batcher.batch(0, &msgs);
        // Cell 0 appears in two runs: the batch hands back everything and
        // lets the (filtering) decoder sort it out.
        assert_eq!(batch.cell_messages(CellId(0)).len(), 3);
        assert_eq!(batch.cell_messages(CellId(1)).len(), 1);
    }

    #[test]
    fn empty_stream_yields_empty_batches() {
        let mut batcher = DciBatcher::new();
        let batch = batcher.batch(9, &[]);
        assert!(batch.all().is_empty());
        assert!(batch.cell_messages(CellId(0)).is_empty());
    }

    /// Four decoders on two of three cells decode two cells on air, once
    /// each, every subframe; a subframe no decoder reads decodes nothing.
    #[test]
    fn each_read_cell_is_decoded_on_air_once_per_subframe() {
        let msgs = vec![
            dci(CellId(0), 0x100),
            dci(CellId(0), 0x101),
            dci(CellId(1), 0x102),
            dci(CellId(2), 0x103),
        ];
        let mut batcher = DciBatcher::new();
        let mut decoders: Vec<ControlChannelDecoder> = (0..4u64)
            .map(|i| {
                let cell = CellId(i as u16 % 2);
                ControlChannelDecoder::new(cell, DecoderConfig::default(), DetRng::new(i))
            })
            .collect();
        let mut out = Vec::new();
        for _ in 0..3 {
            let batch = batcher.batch(5, &msgs);
            for decoder in &mut decoders {
                decoder.decode_batch(&batch, &mut out);
            }
            let decodes = batcher.on_air.borrow();
            assert_eq!(decodes.cells, [(CellId(0), 0, 2), (CellId(1), 2, 3)]);
            assert_eq!(decodes.decoded.len(), 3);
        }
        batcher.batch(5, &msgs);
        assert!(batcher.on_air.borrow().decoded.is_empty());
    }
}
