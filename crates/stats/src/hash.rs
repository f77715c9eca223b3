//! Deterministic content hashing (FNV-1a) for result-store keys and digests.
//!
//! The artifact result store addresses every executed grid point by
//! content, where a silent collision would serve one scenario's results as
//! another's, so the repo's one content hash is the 128-bit FNV-1a.  It uses
//! the standard parameters, so hashes are stable across platforms, processes
//! and releases.
//!
//! [`Fnv1a128`] is the hash as an [`io::Write`] sink, so a serializer can
//! render straight into it without building the text it hashes;
//! [`fnv1a_128`] and [`fnv1a_128_hex`] hash one byte string through it.

use std::io;

/// 128-bit FNV-1a offset basis.
const FNV128_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
/// 128-bit FNV-1a prime.
const FNV128_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

/// Streaming 128-bit FNV-1a: bytes written in any number of pieces hash
/// exactly like their concatenation written at once.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a128 {
    hash: u128,
}

impl Default for Fnv1a128 {
    /// A hasher that has seen no bytes.
    fn default() -> Self {
        Fnv1a128 {
            hash: FNV128_OFFSET,
        }
    }
}

impl Fnv1a128 {
    fn update(&mut self, bytes: &[u8]) {
        for byte in bytes {
            self.hash ^= u128::from(*byte);
            self.hash = self.hash.wrapping_mul(FNV128_PRIME);
        }
    }

    /// The hash of every byte written so far.
    fn finish(&self) -> u128 {
        self.hash
    }

    /// The hash of every byte written so far, as 32 lowercase hex digits.
    pub fn finish_hex(&self) -> String {
        format!("{:032x}", self.hash)
    }
}

impl io::Write for Fnv1a128 {
    fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        self.update(bytes);
        Ok(bytes.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// 128-bit FNV-1a over a byte string.
pub fn fnv1a_128(bytes: &[u8]) -> u128 {
    let mut hasher = Fnv1a128::default();
    hasher.update(bytes);
    hasher.finish()
}

/// 128-bit FNV-1a rendered as 32 lowercase hex digits.
pub fn fnv1a_128_hex(bytes: &[u8]) -> String {
    let mut hasher = Fnv1a128::default();
    hasher.update(bytes);
    hasher.finish_hex()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::io::Write;

    #[test]
    fn matches_published_fnv1a_test_vectors() {
        // Empty input hashes to the offset basis.
        assert_eq!(fnv1a_128(b""), FNV128_OFFSET);
        // Classic vectors from the FNV reference code.
        assert_eq!(fnv1a_128(b"a"), 0xd228cb696f1a8caf78912b704e4a8964);
        assert_eq!(fnv1a_128(b"foobar"), 0x343e1662793c64bf6f0d3597ba446f18);
    }

    #[test]
    fn hex_rendering_is_fixed_width() {
        assert_eq!(fnv1a_128_hex(b"").len(), 32);
        assert_eq!(fnv1a_128_hex(b"a"), "d228cb696f1a8caf78912b704e4a8964");
    }

    proptest! {
        #[test]
        fn any_split_into_chunks_hashes_like_the_whole_input(
            bytes in proptest::collection::vec(any::<u8>(), 0..64),
            cuts in proptest::collection::vec(0usize..64, 0..6),
        ) {
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(bytes.len())).collect();
            cuts.sort_unstable();
            let mut hasher = Fnv1a128::default();
            let mut start = 0;
            for cut in cuts.into_iter().chain([bytes.len()]) {
                hasher.write_all(&bytes[start..cut]).unwrap();
                start = cut;
            }
            prop_assert_eq!(hasher.finish(), fnv1a_128(&bytes));
            prop_assert_eq!(hasher.finish_hex(), fnv1a_128_hex(&bytes));
        }
    }
}
