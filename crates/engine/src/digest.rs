//! Fast non-cryptographic fingerprints.
//!
//! The exploration kernel identifies states by 128-bit digests. SipHash
//! (std's `DefaultHasher`) is keyed and DoS-resistant — properties the
//! model checker does not need — and measurably slow on the hot path,
//! where every generated successor is hashed. [`Fingerprinter`] instead
//! runs two independent multiply-rotate lanes (in the style of FxHash)
//! over the input in a single pass and finalizes each lane with a
//! SplitMix64 avalanche, yielding 128 well-mixed bits.

use std::hash::{Hash, Hasher};

/// A 128-bit state fingerprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Digest(pub u128);

impl Digest {
    /// Truncates the fingerprint to its low `bits` bits (used by the test
    /// suite to force collisions; real explorations use all 128).
    #[must_use]
    pub fn truncated(self, bits: u32) -> Digest {
        if bits >= 128 {
            self
        } else {
            Digest(self.0 & ((1u128 << bits) - 1))
        }
    }
}

/// FxHash's 64-bit multiplier (derived from the golden ratio).
const LANE_A_MUL: u64 = 0x51_7c_c1_b7_27_22_0a_95;
/// An independent odd multiplier for the second lane (SplitMix64's
/// increment constant, forced odd).
const LANE_B_MUL: u64 = 0x9e_37_79_b9_7f_4a_7c_15 | 1;

/// SplitMix64 finalizer: a full-avalanche bijection on `u64`.
fn avalanche(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf_58_47_6d_1c_e4_e5_b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94_d0_49_bb_13_31_11_eb);
    x ^ (x >> 31)
}

/// The word encoding every hasher here shares: an integer is one word
/// (tagged with its width below 64 bits), bytes go in 8 at a time with a
/// short tail's length folded in. `$t` provides `mix(word)`.
macro_rules! word_hasher {
    ($t:ty) => {
        impl Hasher for $t {
            #[inline]
            fn finish(&self) -> u64 {
                self.finish64()
            }

            #[inline]
            fn write(&mut self, bytes: &[u8]) {
                let mut chunks = bytes.chunks_exact(8);
                for chunk in &mut chunks {
                    self.mix(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
                }
                let rem = chunks.remainder();
                if !rem.is_empty() {
                    let mut buf = [0u8; 8];
                    buf[..rem.len()].copy_from_slice(rem);
                    // Fold the length in so "ab" + "" and "a" + "b" differ.
                    self.mix(u64::from_le_bytes(buf) ^ ((rem.len() as u64) << 56));
                }
            }

            #[inline]
            fn write_u8(&mut self, i: u8) {
                self.mix(u64::from(i) | 1 << 8);
            }

            #[inline]
            fn write_u16(&mut self, i: u16) {
                self.mix(u64::from(i) | 1 << 16);
            }

            #[inline]
            fn write_u32(&mut self, i: u32) {
                self.mix(u64::from(i) | 1 << 32);
            }

            #[inline]
            fn write_u64(&mut self, i: u64) {
                self.mix(i);
            }

            #[inline]
            fn write_u128(&mut self, i: u128) {
                self.mix(i as u64);
                self.mix((i >> 64) as u64);
            }

            #[inline]
            fn write_usize(&mut self, i: usize) {
                self.mix(i as u64);
            }
        }
    };
}

/// One-lane single-pass hasher: the 64-bit fold that is
/// [`Fingerprinter`]'s first lane, so its `finish()` equals a
/// [`Fingerprinter`]'s over the same writes in 8 bytes instead of 16.
/// [`digest64_of_iter`] is this fold; a value that keeps such a digest up
/// to date as it grows keeps one of these.
#[derive(Debug, Clone, Copy)]
pub struct Fold64 {
    lane: u64,
}

impl Fold64 {
    /// A fresh fold with the fixed seed of [`Fingerprinter`]'s first lane.
    #[must_use]
    pub const fn new() -> Self {
        Fold64 {
            lane: 0x6a_09_e6_67_f3_bc_c9_08, // frac(sqrt(2))
        }
    }

    #[inline]
    fn mix(&mut self, word: u64) {
        self.lane = (self.lane.rotate_left(5) ^ word).wrapping_mul(LANE_A_MUL);
    }

    #[inline]
    fn finish64(&self) -> u64 {
        avalanche(self.lane)
    }
}

impl Default for Fold64 {
    fn default() -> Self {
        Fold64::new()
    }
}

word_hasher!(Fold64);

/// Two-lane single-pass hasher producing a 128-bit [`Digest`].
///
/// Implements [`std::hash::Hasher`], so any `#[derive(Hash)]` type can be
/// fingerprinted: `finish()` yields the finalized first lane (a plain fast
/// 64-bit hash, the [`Fold64`] of the same writes), [`Fingerprinter::digest`]
/// both lanes.
#[derive(Debug, Clone)]
pub struct Fingerprinter {
    lane_a: Fold64,
    lane_b: u64,
}

impl Fingerprinter {
    /// A fresh fingerprinter with fixed (unkeyed, reproducible) seeds.
    #[must_use]
    pub fn new() -> Self {
        Fingerprinter {
            lane_a: Fold64::new(),
            lane_b: 0xbb_67_ae_85_84_ca_a7_3b, // frac(sqrt(3))
        }
    }

    #[inline]
    fn mix(&mut self, word: u64) {
        self.lane_a.mix(word);
        self.lane_b = (self.lane_b.rotate_left(7) ^ word).wrapping_mul(LANE_B_MUL);
    }

    #[inline]
    fn finish64(&self) -> u64 {
        self.lane_a.finish64()
    }

    /// Finalizes both lanes into the 128-bit digest.
    #[must_use]
    pub fn digest(&self) -> Digest {
        let lane_a = self.lane_a.lane;
        let hi = avalanche(lane_a);
        let lo = avalanche(self.lane_b.rotate_left(32) ^ lane_a);
        Digest(((hi as u128) << 64) | lo as u128)
    }
}

impl Default for Fingerprinter {
    fn default() -> Self {
        Fingerprinter::new()
    }
}

word_hasher!(Fingerprinter);

/// 128-bit fingerprint of any hashable value.
#[must_use]
pub fn digest128_of<T: Hash + ?Sized>(value: &T) -> Digest {
    let mut fp = Fingerprinter::new();
    value.hash(&mut fp);
    fp.digest()
}

/// Fast 64-bit digest of a sequence of hashable items (order-sensitive).
#[must_use]
pub fn digest64_of_iter<I>(items: I) -> u64
where
    I: IntoIterator,
    I::Item: Hash,
{
    let mut fp = Fold64::new();
    for (i, item) in items.into_iter().enumerate() {
        fp.write_usize(i);
        item.hash(&mut fp);
    }
    fp.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digests_are_deterministic() {
        assert_eq!(digest128_of(&42u64), digest128_of(&42u64));
        assert_eq!(
            digest64_of_iter("abc".bytes()),
            digest64_of_iter("abc".bytes())
        );
    }

    #[test]
    fn digests_separate_close_inputs() {
        assert_ne!(digest128_of(&0u64), digest128_of(&1u64));
        assert_ne!(digest128_of(&[0u8, 1]), digest128_of(&[1u8, 0]));
        assert_ne!(digest64_of_iter([1u8, 2]), digest64_of_iter([2u8, 1]));
        // Length folding distinguishes concatenation splits.
        assert_ne!(digest128_of("ab"), digest128_of("a"));
    }

    #[test]
    fn the_one_lane_fold_is_the_first_lane() {
        let mut one = Fold64::new();
        let mut two = Fingerprinter::new();
        for hasher in [&mut one as &mut dyn Hasher, &mut two] {
            hasher.write_u8(7);
            hasher.write_u32(9);
            hasher.write_usize(3);
            hasher.write_u128(u128::MAX / 3);
            hasher.write(b"eleven bytes");
        }
        assert_eq!(one.finish(), two.finish());
        assert_eq!(digest64_of_iter("abc".bytes()), {
            let mut fp = Fingerprinter::new();
            for (i, b) in "abc".bytes().enumerate() {
                fp.write_usize(i);
                b.hash(&mut fp);
            }
            fp.finish()
        });
    }

    #[test]
    fn lanes_are_independent() {
        // The two 64-bit halves of the digest should not be correlated;
        // spot-check that equal top halves don't force equal bottom halves
        // over a small scan.
        let mut seen_hi = std::collections::HashSet::new();
        let mut seen_lo = std::collections::HashSet::new();
        for i in 0u64..1000 {
            let d = digest128_of(&i);
            seen_hi.insert((d.0 >> 64) as u64);
            seen_lo.insert(d.0 as u64);
        }
        assert_eq!(seen_hi.len(), 1000);
        assert_eq!(seen_lo.len(), 1000);
    }

    #[test]
    fn truncation_masks_low_bits() {
        let d = Digest(u128::MAX);
        assert_eq!(d.truncated(8).0, 0xff);
        assert_eq!(d.truncated(128), d);
    }
}
