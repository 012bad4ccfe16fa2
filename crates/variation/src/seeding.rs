//! Deterministic per-sample RNG derivation.
//!
//! Every Monte-Carlo sample `k` gets an RNG seeded by mixing the base seed
//! with `k` through SplitMix64.  Results are therefore bit-identical no
//! matter how samples are distributed over worker threads.
//!
//! The per-sample generator is [`ChipStream`], an in-tree xoshiro256**
//! that produces exactly the outputs of the vendored `rand::rngs::StdRng`
//! for the same seed (pinned by test), and whose state the wide sampling
//! kernels load into vector lanes to run four chips' streams at once.

use rand::{RngCore, SeedableRng};

/// SplitMix64 finalizer — a strong 64-bit mixing function.
#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seed of sample `index`'s stream in a run with seed `base_seed`.
#[inline]
fn sample_seed(base_seed: u64, index: u64) -> u64 {
    splitmix64(base_seed ^ splitmix64(index.wrapping_add(0xA076_1D64_78BD_642F)))
}

/// Derives the RNG for sample `index` of a run with seed `base_seed`.
///
/// ```
/// use rand::RngCore;
/// let mut a = psbi_variation::sample_rng(42, 7);
/// let mut b = psbi_variation::sample_rng(42, 7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
pub fn sample_rng(base_seed: u64, index: u64) -> ChipStream {
    ChipStream::seed_from_u64(sample_seed(base_seed, index))
}

/// One sample's random stream: xoshiro256** (Blackman/Vigna) seeded
/// through SplitMix64 — the same generator, seeding and outputs as the
/// vendored `rand::rngs::StdRng`, kept in-tree so its state can be read.
///
/// [`state`](ChipStream::state) exposes the four state words, which the
/// wide sampling kernels load into vector lanes and step with the same
/// shifts, xors and rotations as [`next_u64`](RngCore::next_u64).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChipStream {
    s: [u64; 4],
}

impl ChipStream {
    /// The generator's state words `s[0..4]`, in xoshiro256** order.
    #[inline]
    pub fn state(&self) -> [u64; 4] {
        self.s
    }
}

impl SeedableRng for ChipStream {
    fn seed_from_u64(seed: u64) -> Self {
        // The four SplitMix64 outputs following `seed` (`splitmix64`
        // steps its argument by the golden-ratio increment first).
        let mut sm = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix64(sm);
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
        }
        // All-zero state would be a fixed point; SplitMix64 cannot
        // produce four zeros from any seed, but guard as `StdRng` does.
        if s == [0; 4] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        Self { s }
    }
}

impl RngCore for ChipStream {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

/// Derives a named sub-stream seed (e.g. separate streams for circuit
/// generation, insertion sampling and yield evaluation).
///
/// ```
/// let a = psbi_variation::seeding::stream_seed(1, "yield");
/// let b = psbi_variation::seeding::stream_seed(1, "insertion");
/// assert_ne!(a, b);
/// ```
pub fn stream_seed(base_seed: u64, label: &str) -> u64 {
    splitmix64(base_seed ^ fnv1a(label.as_bytes()))
}

/// 64-bit FNV-1a digest — the workspace's one shared implementation
/// (stream labelling here, campaign fingerprints in `psbi_fleet`, parity
/// dumps in `psbi-bench`).
///
/// ```
/// // Offset basis: the hash of the empty string.
/// assert_eq!(psbi_variation::seeding::fnv1a(b""), 0xcbf2_9ce4_8422_2325);
/// ```
pub fn fnv1a(bytes: &[u8]) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    for &byte in bytes {
        h ^= u64::from(byte);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;

    #[test]
    fn same_inputs_same_stream() {
        let mut a = sample_rng(7, 123);
        let mut b = sample_rng(7, 123);
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_indices_different_streams() {
        let mut a = sample_rng(7, 0);
        let mut b = sample_rng(7, 1);
        let same = (0..8).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn different_seeds_different_streams() {
        let mut a = sample_rng(1, 5);
        let mut b = sample_rng(2, 5);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn stream_labels_are_distinct() {
        let labels = ["gen", "insert", "yield", "skew"];
        let mut seeds: Vec<u64> = labels.iter().map(|l| stream_seed(9, l)).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), labels.len());
    }

    #[test]
    fn chip_stream_matches_the_vendored_std_rng() {
        // The AVX2 chip lanes step `ChipStream`'s state in vector lanes;
        // the scalar paths and every other consumer of `rand` use `StdRng`.
        // A change to either generator must fail here, not quietly split
        // the scalar reference from the chip lanes.
        let mut checked = 0;
        for base in [0u64, 1, 42, 0x5eed, u64::MAX] {
            for index in [0u64, 1, 2, 63, 64, 1_000_003, u64::MAX] {
                let seed = sample_seed(base, index);
                let mut ours = sample_rng(base, index);
                let mut vendored = StdRng::seed_from_u64(seed);
                assert_eq!(ours, ChipStream::seed_from_u64(seed));
                for k in 0..10_000 {
                    assert_eq!(
                        ours.next_u64(),
                        vendored.next_u64(),
                        "base {base} index {index} output {k}"
                    );
                }
                assert_eq!(ours.next_u32(), vendored.next_u32());
                checked += 1;
            }
        }
        assert_eq!(checked, 35);
    }
}
