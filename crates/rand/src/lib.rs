//! # nn-rand — a deterministic, dependency-free stand-in for `rand`
//!
//! This workspace builds in environments with no access to crates.io, so
//! the subset of the `rand` 0.8 API the repository actually uses is
//! provided locally: the [`Rng`] / [`SeedableRng`] traits and
//! [`rngs::StdRng`]. The generator is xoshiro256++ seeded through
//! SplitMix64 — not `rand`'s ChaCha-based `StdRng`, so the *values* drawn
//! from a given seed differ from upstream `rand`, but every property the
//! simulator relies on holds: identical seeds reproduce identical streams,
//! and the output is statistically uniform.
//!
//! Nothing here is cryptographic. Inside the deterministic simulation
//! this RNG supplies padding bytes, prime-candidate material and even
//! session keys — acceptable for reproducing a protocol's behavior and
//! cost model, and one more reason (alongside the deliberately short
//! 2006-era RSA keys) that this repository must not be mistaken for
//! production cryptography.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Low-level source of random 64-bit words.
pub trait RngCore {
    /// Returns the next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// Types that can be drawn uniformly from an [`RngCore`].
pub trait Standard: Sized {
    /// Draws one value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for u8 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as u8
    }
}

impl Standard for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 uniform mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl<const N: usize> Standard for [u8; N] {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        let mut out = [0u8; N];
        rng.fill_bytes(&mut out);
        out
    }
}

/// The user-facing randomness interface (the `rand::Rng` subset in use).
pub trait Rng: RngCore {
    /// Draws a uniform value of any [`Standard`] type.
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// Fills a byte slice with random data.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let w = self.next_u64().to_le_bytes();
            let n = chunk.len();
            chunk.copy_from_slice(&w[..n]);
        }
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Constructing generators from seeds.
pub trait SeedableRng: Sized {
    /// Builds a generator whose stream is fully determined by `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Concrete generator implementations.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard generator: xoshiro256++ (Blackman/Vigna),
    /// seeded via SplitMix64. Deterministic and fast; not cryptographic.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            StdRng {
                s: [
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                ],
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
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
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let va: Vec<u64> = (0..8).map(|_| a.gen()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.gen()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn f64_stays_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn f64_is_roughly_uniform() {
        let mut rng = StdRng::seed_from_u64(4);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.gen::<f64>()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} far from 0.5");
    }

    #[test]
    fn array_sampling_fills_every_byte() {
        let mut rng = StdRng::seed_from_u64(6);
        // With 256 draws of 16 bytes, every byte position is almost surely
        // non-zero at least once.
        let mut any_nonzero = [false; 16];
        for _ in 0..256 {
            let a: [u8; 16] = rng.gen();
            for (i, &b) in a.iter().enumerate() {
                if b != 0 {
                    any_nonzero[i] = true;
                }
            }
        }
        assert!(any_nonzero.iter().all(|&x| x));
    }
}
