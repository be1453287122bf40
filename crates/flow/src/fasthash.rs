//! A tiny multiply–rotate hasher for the solver's integer-keyed maps.
//!
//! The cross-event warm-start bookkeeping (the basis memory in
//! [`crate::remap::BasisRemap`]) performs thousands of map operations per
//! *event*, keyed by small packed integers.  `std`'s default SipHash is
//! DoS-resistant but costs tens of nanoseconds per key — measurably more
//! than the pivot work the warm start saves on paper-scale events.  These
//! maps never see attacker-controlled keys (they hold job ids and bin
//! positions of a simulation), so an FxHash-style multiply–rotate mix is
//! the right trade.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Golden-ratio-derived odd multiplier (same constant family as rustc's
/// FxHash).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A non-cryptographic hasher: one rotate–xor–multiply round per word.
#[derive(Default)]
pub struct FxHasher {
    state: u64,
}

impl FxHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.mix(n as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.mix(n as u64);
    }
}

/// [`HashMap`] keyed through [`FxHasher`]: the map type for every
/// integer-keyed warm-start structure in the workspace.
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_roundtrips_packed_keys() {
        let mut m: FastMap<(u64, u64), i8> = FastMap::default();
        for i in 0..1000u64 {
            m.insert((i, i.wrapping_mul(7)), (i % 3) as i8);
        }
        assert_eq!(m.len(), 1000);
        for i in 0..1000u64 {
            assert_eq!(m.get(&(i, i.wrapping_mul(7))), Some(&((i % 3) as i8)));
        }
        assert_eq!(m.get(&(1000, 0)), None);
    }

    #[test]
    fn hashes_spread_sequential_keys() {
        // Sequential packed keys (the common case: job ids, bin positions)
        // must not collapse onto a few buckets.
        let mut seen = std::collections::HashSet::new();
        for i in 0..4096u64 {
            let mut h = FxHasher::default();
            h.write_u64(i);
            seen.insert(h.finish() % 4096);
        }
        assert!(seen.len() > 2048, "only {} distinct buckets", seen.len());
    }
}
