//! One multiplicative hasher for simulator-generated ids.
//!
//! The per-call lookups (a domain's mapping table, the kernel's handle
//! shards, a server's E-stack associations) are all keyed by ids the
//! simulator itself hands out: region, context and handle counters, and
//! A-stack keys built from them. None of those keys comes from outside
//! the program, so the maps need no defence against chosen-key flooding,
//! and SipHash's cost buys nothing. [`IdHasher`] instead multiplies each
//! word into the state by the 64-bit golden-ratio constant (Fibonacci
//! hashing).
//!
//! A product's high bits depend on every bit of the key, its low bits
//! only on the key's low bits. `std`'s `HashMap` takes its bucket from the
//! low bits and a tag from the top seven, so [`IdHasher::finish`] folds
//! the high half into the low half, multiplies once more and folds again.
//! Without the first fold, keys that differ only above their low bits
//! would share buckets; without the second round, strided keys would
//! still crowd: the handle shards hold ids 16 apart, and an E-stack key is
//! `region << 24 | index`.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The golden-ratio multiplier, `2^64 / φ` rounded to odd.
const K: u64 = 0x9E37_79B9_7F4A_7C15;

/// Mixes one word into a hash state.
#[inline]
fn mix(state: u64, word: u64) -> u64 {
    (state ^ word).wrapping_mul(K)
}

/// A [`Hasher`] for simulator-generated ids; see the module docs.
#[derive(Clone, Copy, Default, Debug)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = mix(self.0, n);
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        let h = mix(0, self.0 ^ (self.0 >> 32));
        h ^ (h >> 32)
    }
}

/// A `HashMap` keyed by simulator ids, hashed with [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash<T: Hash>(t: T) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(t)
    }

    #[test]
    fn keys_strided_above_the_low_bits_spread_over_low_bits() {
        // E-stack keys are `region << 24 | index`: keys of one region
        // differ only in their low bits, keys of different regions only
        // above bit 24. Handle ids in one shard are 16 apart. Each family
        // must spread over a 64-bucket table about as well as random keys
        // do (about 40 buckets).
        for keys in [
            (0..64u64).map(|i| 16 * i).collect::<Vec<_>>(),
            (0..64u64).map(|i| (7 << 24) | i).collect(),
            (0..64u64).map(|r| r << 24).collect(),
        ] {
            let mut buckets: Vec<u64> = keys.iter().map(|&k| hash(k) & 63).collect();
            buckets.sort_unstable();
            buckets.dedup();
            assert!(
                buckets.len() >= 32,
                "{} of 64 buckets used by {keys:?}",
                buckets.len()
            );
        }
    }
}
