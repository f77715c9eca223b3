//! Deterministic content hashing (FNV-1a) for result-store keys and digests.
//!
//! The artifact result store addresses every executed grid point by
//! content, where a silent collision would serve one scenario's results as
//! another's, so the repo's one content hash is the 128-bit FNV-1a.  It uses
//! the standard parameters, so hashes are stable across platforms, processes
//! and releases.

/// 128-bit FNV-1a offset basis.
const FNV128_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
/// 128-bit FNV-1a prime.
const FNV128_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

/// 128-bit FNV-1a over a byte string.
pub fn fnv1a_128(bytes: &[u8]) -> u128 {
    let mut hash = FNV128_OFFSET;
    for byte in bytes {
        hash ^= u128::from(*byte);
        hash = hash.wrapping_mul(FNV128_PRIME);
    }
    hash
}

/// 128-bit FNV-1a rendered as 32 lowercase hex digits.
pub fn fnv1a_128_hex(bytes: &[u8]) -> String {
    format!("{:032x}", fnv1a_128(bytes))
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
