//! Downlink control information (DCI) messages and their wire encoding.
//!
//! Every subframe, the eNodeB announces each scheduled user's PRB allocation,
//! MCS, spatial-stream count and new-data indicator in a DCI message carried
//! on the PDCCH.  The CRC of the message is scrambled with the target user's
//! RNTI, which is why a conventional phone only decodes its own grants — and
//! why PBE-CC's monitor performs *blind* decoding: it tries every candidate
//! position/format and recovers the RNTI from the CRC (paper §5).
//!
//! The encoding here is a compact binary layout with a real CRC-16 so the
//! decoder crate exercises the same recover-RNTI-from-CRC logic an
//! over-the-air decoder (OWL, FALCON, srsLTE) performs, including the
//! possibility of false positives on corrupted candidates.

use crate::config::{CellId, Rnti};
use crate::mcs::McsIndex;
use serde::{Deserialize, Serialize};

/// DCI formats relevant to downlink scheduling.  The 3GPP standard defines
/// ten formats; the ones modelled here cover the downlink allocations the
/// monitor must understand (the others are uplink grants / power control and
/// are generated by background control traffic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DciFormat {
    /// Compact downlink assignment (single codeword).
    Format1A,
    /// Downlink assignment with full resource-allocation flexibility.
    Format1,
    /// Downlink assignment for open-loop MIMO (two codewords).
    Format2A,
    /// Downlink assignment for closed-loop MIMO (two codewords).
    Format2,
    /// Uplink grant (treated as control traffic by the monitor).
    Format0,
}

impl DciFormat {
    /// All downlink-assignment formats a blind decoder must try.
    pub const ALL: [DciFormat; 5] = [
        DciFormat::Format1A,
        DciFormat::Format1,
        DciFormat::Format2A,
        DciFormat::Format2,
        DciFormat::Format0,
    ];

    /// Encoded payload length in bits (excluding the 16-bit CRC).  Real
    /// lengths depend on bandwidth; these are representative 20 MHz values —
    /// the paper notes control messages are "less than 70 bits".
    fn payload_bits(self) -> usize {
        match self {
            DciFormat::Format0 => 45,
            DciFormat::Format1A => 47,
            DciFormat::Format1 => 55,
            DciFormat::Format2A => 64,
            DciFormat::Format2 => 67,
        }
    }

    /// True if this format carries a downlink data assignment.
    pub fn is_downlink_assignment(self) -> bool {
        !matches!(self, DciFormat::Format0)
    }

    fn code(self) -> u8 {
        match self {
            DciFormat::Format1A => 0,
            DciFormat::Format1 => 1,
            DciFormat::Format2A => 2,
            DciFormat::Format2 => 3,
            DciFormat::Format0 => 4,
        }
    }

    fn from_code(code: u8) -> Option<DciFormat> {
        Some(match code {
            0 => DciFormat::Format1A,
            1 => DciFormat::Format1,
            2 => DciFormat::Format2A,
            3 => DciFormat::Format2,
            4 => DciFormat::Format0,
            _ => return None,
        })
    }
}

/// One decoded downlink control message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DciMessage {
    /// Cell the message was transmitted in.
    pub cell: CellId,
    /// Subframe index (1 ms ticks since simulation start).
    pub subframe: u64,
    /// RNTI the grant is addressed to.
    pub rnti: Rnti,
    /// DCI format.
    pub format: DciFormat,
    /// First allocated PRB.
    pub first_prb: u16,
    /// Number of allocated PRBs.
    pub num_prbs: u16,
    /// Modulation and coding scheme of the transport block.
    pub mcs: McsIndex,
    /// Number of spatial streams (transmission rank).
    pub spatial_streams: u8,
    /// New-data indicator: `true` for a fresh transport block, `false` for a
    /// HARQ retransmission.  The paper uses this bit to separate
    /// retransmission overhead from goodput (§4.2.1).
    pub new_data_indicator: bool,
    /// HARQ process the transport block occupies (0..8).
    pub harq_process: u8,
    /// Transport block size in bits.
    pub tbs_bits: u32,
}

/// A DCI message as it appears on the control channel: payload bits plus a
/// CRC scrambled by the RNTI.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EncodedDci {
    /// Cell the candidate was found in.
    pub cell: CellId,
    /// Subframe index.
    pub subframe: u64,
    /// Aggregation level (1, 2, 4 or 8 control channel elements) —
    /// determines which search-space candidates the blind decoder must try.
    pub aggregation_level: u8,
    /// Candidate index within the search space.
    pub candidate_index: u8,
    /// Packed payload (format-dependent number of valid bits).
    pub payload: u128,
    /// Number of valid payload bits.
    pub payload_bits: u8,
    /// CRC-16 of the payload, XOR-scrambled with the RNTI.
    pub scrambled_crc: u16,
}

/// CRC-16-CCITT over the little-endian bytes of the payload.
fn crc16(payload: u128, payload_bits: u8) -> u16 {
    let bytes = payload.to_le_bytes();
    let nbytes = usize::from(payload_bits).div_ceil(8);
    let mut crc: u16 = 0xFFFF;
    for &b in bytes.iter().take(nbytes) {
        crc ^= u16::from(b) << 8;
        for _ in 0..8 {
            if crc & 0x8000 != 0 {
                crc = (crc << 1) ^ 0x1021;
            } else {
                crc <<= 1;
            }
        }
    }
    crc
}

impl DciMessage {
    /// Pack the message fields into payload bits (a simplified but lossless
    /// layout: the real 3GPP bit fields differ per format, but every field
    /// the monitor needs is present and the total stays under 70 bits for
    /// the compact formats).
    fn pack(&self) -> u128 {
        let mut v: u128 = 0;
        v |= u128::from(self.format.code()) & 0x7; // 3 bits
        v |= (u128::from(self.first_prb) & 0x7F) << 3; // 7 bits
        v |= (u128::from(self.num_prbs) & 0x7F) << 10; // 7 bits
        v |= (u128::from(self.mcs.0) & 0x1F) << 17; // 5 bits
        v |= (u128::from(self.spatial_streams) & 0x3) << 22; // 2 bits
        v |= (u128::from(self.new_data_indicator as u8) & 0x1) << 24; // 1 bit
        v |= (u128::from(self.harq_process) & 0x7) << 25; // 3 bits
        v |= (u128::from(self.tbs_bits) & 0x3FFFF) << 28; // 18 bits (up to 256 kbit)
        v
    }

    fn unpack(cell: CellId, subframe: u64, rnti: Rnti, payload: u128) -> Option<DciMessage> {
        let format = DciFormat::from_code((payload & 0x7) as u8)?;
        Some(DciMessage {
            cell,
            subframe,
            rnti,
            format,
            first_prb: ((payload >> 3) & 0x7F) as u16,
            num_prbs: ((payload >> 10) & 0x7F) as u16,
            mcs: McsIndex(((payload >> 17) & 0x1F) as u8),
            spatial_streams: ((payload >> 22) & 0x3) as u8,
            new_data_indicator: ((payload >> 24) & 0x1) != 0,
            harq_process: ((payload >> 25) & 0x7) as u8,
            tbs_bits: ((payload >> 28) & 0x3FFFF) as u32,
        })
    }

    /// Encode into the on-air representation: payload + RNTI-scrambled CRC.
    pub fn encode(&self, aggregation_level: u8, candidate_index: u8) -> EncodedDci {
        let payload = self.pack();
        let payload_bits = self.format.payload_bits() as u8;
        let crc = crc16(payload, payload_bits);
        EncodedDci {
            cell: self.cell,
            subframe: self.subframe,
            aggregation_level,
            candidate_index,
            payload,
            payload_bits,
            scrambled_crc: crc ^ self.rnti.0,
        }
    }
}

impl EncodedDci {
    /// Recover the RNTI by descrambling the CRC, then unpack the payload.
    ///
    /// This is the operation a blind decoder performs for every candidate:
    /// the recovered RNTI is only trusted if it falls in the C-RNTI range
    /// (a corrupted candidate usually yields an out-of-range value).
    pub fn blind_decode(&self) -> Option<DciMessage> {
        let crc = crc16(self.payload, self.payload_bits);
        let rnti = Rnti(self.scrambled_crc ^ crc);
        if !rnti.is_c_rnti() {
            return None;
        }
        let msg = DciMessage::unpack(self.cell, self.subframe, rnti, self.payload)?;
        if msg.format.payload_bits() as u8 != self.payload_bits {
            return None;
        }
        Some(msg)
    }

    /// Flip `n` pseudo-random payload bits (models a corrupted candidate the
    /// decoder must reject).
    #[cfg(test)]
    fn corrupted(&self, n: u32, salt: u64) -> EncodedDci {
        let mut payload = self.payload;
        let mut state = salt | 1;
        for _ in 0..n {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let bit = (state >> 33) % u64::from(self.payload_bits.max(1));
            payload ^= 1u128 << bit;
        }
        EncodedDci {
            payload,
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_msg() -> DciMessage {
        DciMessage {
            cell: CellId(0),
            subframe: 1234,
            rnti: Rnti(0x1A2B),
            format: DciFormat::Format2,
            first_prb: 20,
            num_prbs: 60,
            mcs: McsIndex(22),
            spatial_streams: 2,
            new_data_indicator: true,
            harq_process: 5,
            tbs_bits: 45_000,
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let msg = sample_msg();
        let enc = msg.encode(4, 2);
        assert_eq!(enc.aggregation_level, 4);
        let dec = enc.blind_decode().expect("decodes");
        assert_eq!(dec, msg);
    }

    #[test]
    fn retransmission_flag_roundtrips() {
        let msg = DciMessage {
            new_data_indicator: false,
            ..sample_msg()
        };
        let dec = msg.encode(2, 0).blind_decode().unwrap();
        assert!(!dec.new_data_indicator);
    }

    #[test]
    fn corrupted_candidate_usually_rejected() {
        let msg = sample_msg();
        let enc = msg.encode(1, 0);
        let mut rejected = 0;
        let mut wrong_rnti = 0;
        for salt in 0..200u64 {
            let bad = enc.corrupted(3, salt);
            match bad.blind_decode() {
                None => rejected += 1,
                Some(d) if d.rnti != msg.rnti => wrong_rnti += 1,
                Some(_) => {}
            }
        }
        // Corrupting the payload changes the CRC, so the descrambled RNTI is
        // essentially random: most candidates are rejected or decode to a
        // different (false-positive) RNTI, never silently to the right one.
        assert!(
            rejected + wrong_rnti >= 199,
            "rejected={rejected} wrong={wrong_rnti}"
        );
    }

    #[test]
    fn payload_lengths_are_under_70_bits() {
        for f in DciFormat::ALL {
            assert!(f.payload_bits() <= 70);
        }
        assert!(DciFormat::Format0.payload_bits() < DciFormat::Format2.payload_bits());
    }

    #[test]
    fn format_codes_roundtrip() {
        for f in DciFormat::ALL {
            assert_eq!(DciFormat::from_code(f.code()), Some(f));
        }
        assert_eq!(DciFormat::from_code(7), None);
        assert!(DciFormat::Format1A.is_downlink_assignment());
        assert!(!DciFormat::Format0.is_downlink_assignment());
    }

    #[test]
    fn crc_is_stable_and_sensitive() {
        let a = crc16(0xDEADBEEF, 47);
        let b = crc16(0xDEADBEEF, 47);
        let c = crc16(0xDEADBEEE, 47);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    proptest! {
        #[test]
        fn roundtrip_for_arbitrary_fields(
            rnti in Rnti::FIRST_C_RNTI..=Rnti::LAST_C_RNTI,
            first_prb in 0u16..100,
            num_prbs in 0u16..100,
            mcs in 0u8..=28,
            streams in 1u8..=2,
            ndi in any::<bool>(),
            harq in 0u8..8,
            tbs in 0u32..200_000,
            fmt_idx in 0usize..5,
        ) {
            let msg = DciMessage {
                cell: CellId(1),
                subframe: 42,
                rnti: Rnti(rnti),
                format: DciFormat::ALL[fmt_idx],
                first_prb,
                num_prbs,
                mcs: McsIndex(mcs),
                spatial_streams: streams,
                new_data_indicator: ndi,
                harq_process: harq,
                tbs_bits: tbs,
            };
            let dec = msg.encode(8, 1).blind_decode().expect("valid message decodes");
            prop_assert_eq!(dec, msg);
        }
    }
}
