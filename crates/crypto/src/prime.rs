//! Prime generation for one-time RSA keys.
//!
//! The paper's sources mint a fresh 512-bit RSA key per connection (§3.2),
//! so prime generation must be fast for 256-bit primes. Candidate search
//! uses a **windowed incremental sieve**: draw one random odd base, compute
//! `base mod p` once per small prime with a word-level limb scan
//! ([`BigUint::rem_u64`]), mark composite offsets across a whole window of
//! odd candidates, and run Miller–Rabin only on the survivors — with the
//! test itself built on a reusable [`MontCtx`] so every squaring and
//! comparison stays in Montgomery form end to end.

use crate::biguint::BigUint;
use crate::modexp::MontCtx;
use rand::Rng;
use std::sync::OnceLock;

/// Primes below this bound are used for trial division of candidates.
const SIEVE_BOUND: usize = 8192;

/// Number of Miller–Rabin rounds for *arbitrary* (possibly adversarial)
/// inputs to [`is_probable_prime`]: 32 random bases push the worst-case
/// error probability below 4^-32 = 2^-64 regardless of input size.
const MR_ROUNDS: usize = 32;

/// Odd candidates examined per sieve window: `base, base+2, …`.
///
/// At 256 bits a window this wide holds ~11 primes in expectation
/// (2·1024/ln 2^256), so a single sieve pass — one `rem_u64` per small
/// prime — almost always serves the whole search for one prime.
const SIEVE_WINDOW: usize = 1024;

/// Returns all primes below `SIEVE_BOUND`, computed once (Eratosthenes)
/// and cached for the life of the process.
pub fn small_primes() -> &'static [u64] {
    static PRIMES: OnceLock<Vec<u64>> = OnceLock::new();
    PRIMES.get_or_init(|| {
        let mut is_comp = vec![false; SIEVE_BOUND];
        let mut primes = Vec::new();
        for i in 2..SIEVE_BOUND {
            if !is_comp[i] {
                primes.push(i as u64);
                let mut j = i * i;
                while j < SIEVE_BOUND {
                    is_comp[j] = true;
                    j += i;
                }
            }
        }
        primes
    })
}

/// Sieves a window of odd candidates `base + 2k` for `k in 0..count`,
/// returning `true` at offsets that survive trial division by every prime
/// below `SIEVE_BOUND`.
///
/// One `base mod p` limb scan per sieve prime covers the whole window:
/// `base + 2k ≡ 0 (mod p)` at `k ≡ (p - base mod p) · 2^{-1} (mod p)`,
/// and for odd `p` the inverse of 2 is just `(p + 1) / 2`.
///
/// `base` must be odd and at least `SIEVE_BOUND` (so a candidate can
/// never *be* one of the sieve primes); both are asserted.
pub fn sieve_window(base: &BigUint, count: usize) -> Vec<bool> {
    assert!(!base.is_even(), "sieve_window requires an odd base");
    assert!(
        base.bit_len() > 13,
        "sieve_window base must exceed SIEVE_BOUND"
    );
    let mut survives = vec![true; count];
    for &p in small_primes() {
        if p == 2 {
            continue; // every candidate is odd
        }
        let r = base.rem_u64(p);
        let inv2 = p.div_ceil(2);
        let mut k = (((p - r) % p) * inv2 % p) as usize;
        while k < count {
            survives[k] = false;
            k += p as usize;
        }
    }
    survives
}

/// Miller–Rabin core with `rounds` random bases over one shared
/// Montgomery workspace.
///
/// `n` must be odd and greater than every sieve prime; callers are
/// expected to have already trial-divided it. All squarings and
/// comparisons (against `1` and `n - 1`) happen in Montgomery form —
/// CIOS output is fully reduced, so in-domain `==` is sound.
fn miller_rabin<R: Rng + ?Sized>(n: &BigUint, rounds: usize, rng: &mut R) -> bool {
    // Write n - 1 = d * 2^s with d odd.
    let n_minus_1 = n.sub(&BigUint::one());
    let mut d = n_minus_1.clone();
    let mut s = 0usize;
    while d.is_even() {
        d = d.shr(1);
        s += 1;
    }
    let mut ctx = MontCtx::new(n);
    let one_m = ctx.to_mont(&BigUint::one());
    let nm1_m = ctx.to_mont(&n_minus_1);
    'witness: for _ in 0..rounds {
        // Base in [2, n-2].
        let a = loop {
            let a = BigUint::random_below(rng, &n_minus_1);
            if !a.is_zero() && !a.is_one() {
                break a;
            }
        };
        let mut x = ctx.pow_mont(&a, &d);
        if x == one_m || x == nm1_m {
            continue 'witness;
        }
        for _ in 0..s - 1 {
            ctx.square_in_place(&mut x);
            if x == nm1_m {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// Miller–Rabin rounds needed for error < 2^-80 on a *uniformly random*
/// sieved candidate of the given bit length.
///
/// For random odd `n` the probability that a composite survives `t`
/// rounds is far below the worst-case 4^-t — Damgård–Landrock–Pomerance
/// bound it explicitly, tabulated as HAC Table 4.4. [`gen_prime`] draws
/// candidates uniformly, so these reduced counts apply; adversarially
/// *chosen* inputs (the [`is_probable_prime`] API) still get the full
/// [`MR_ROUNDS`].
fn mr_rounds_random(bits: usize) -> usize {
    match bits {
        0..=99 => MR_ROUNDS,
        100..=149 => 27,
        150..=199 => 18,
        200..=249 => 15,
        250..=299 => 12,
        300..=349 => 9,
        350..=399 => 8,
        400..=449 => 7,
        _ => 6,
    }
}

/// Miller–Rabin probabilistic primality test with random bases.
pub fn is_probable_prime<R: Rng + ?Sized>(n: &BigUint, rng: &mut R) -> bool {
    if n.is_zero() || n.is_one() {
        return false;
    }
    if n.is_even() {
        return *n == BigUint::from_u64(2);
    }
    // Trial division by small primes — one word-level limb scan each.
    for &p in small_primes() {
        if n.rem_u64(p) == 0 {
            // Divisible by p: prime only if n *is* p (single-limb check;
            // every sieve prime fits in 13 bits).
            return n.bit_len() <= 13 && n.limbs()[0] == p;
        }
    }
    miller_rabin(n, MR_ROUNDS, rng)
}

/// Generates a random prime with exactly `bits` bits.
///
/// When `two_top_bits` is set, the two most significant bits are forced to
/// one so that the product of two such primes always has full `2*bits`
/// length (the RSA key-generation case).
///
/// When `coprime_to` is given, candidates with `gcd(p - 1, e) != 1` are
/// rejected so that `e` is usable as an RSA public exponent.
pub fn gen_prime<R: Rng + ?Sized>(
    rng: &mut R,
    bits: usize,
    two_top_bits: bool,
    coprime_to: Option<&BigUint>,
) -> BigUint {
    assert!(bits >= 16, "refusing to generate toy primes below 16 bits");
    let rounds = mr_rounds_random(bits);
    loop {
        // One odd base per window; random_bits already forces the top bit,
        // and OR-ing in the second-top / low bits cannot carry, so the
        // base always has exactly `bits` bits.
        let mut base = BigUint::random_bits(rng, bits);
        if two_top_bits && !base.bit(bits - 2) {
            base = base.add(&BigUint::one().shl(bits - 2));
        }
        if base.is_even() {
            base = base.add(&BigUint::one());
        }
        let survives = sieve_window(&base, SIEVE_WINDOW);
        for (k, _) in survives.iter().enumerate().filter(|(_, &ok)| ok) {
            let candidate = base.add(&BigUint::from_u64(2 * k as u64));
            if candidate.bit_len() != bits {
                break; // window ran past 2^bits; redraw
            }
            if let Some(e) = coprime_to {
                if !candidate.sub(&BigUint::one()).gcd(e).is_one() {
                    continue;
                }
            }
            if miller_rabin(&candidate, rounds, rng) {
                return candidate;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn big(v: u128) -> BigUint {
        BigUint::from_u128(v)
    }

    #[test]
    fn sieve_front_matches_known_primes() {
        let primes = small_primes();
        assert_eq!(&primes[..10], &[2, 3, 5, 7, 11, 13, 17, 19, 23, 29]);
        assert!(primes.iter().all(|&p| (p as usize) < SIEVE_BOUND));
        // The cache hands back the same allocation every time.
        assert!(std::ptr::eq(primes, small_primes()));
    }

    #[test]
    fn known_primes_accepted() {
        let mut rng = StdRng::seed_from_u64(1);
        for p in [2u128, 3, 5, 104729, 1_000_000_007, 0xffff_ffff_ffff_ffc5] {
            assert!(is_probable_prime(&big(p), &mut rng), "{p} should be prime");
        }
        // 2^127 - 1 (Mersenne).
        let m127 = BigUint::one().shl(127).sub(&BigUint::one());
        assert!(is_probable_prime(&m127, &mut rng));
    }

    #[test]
    fn known_composites_rejected() {
        let mut rng = StdRng::seed_from_u64(2);
        for c in [0u128, 1, 4, 100, 561, 41041, 825265, 1_000_000_006] {
            assert!(!is_probable_prime(&big(c), &mut rng), "{c} is not prime");
        }
        // Carmichael number with large factors: 101*151*251.
        assert!(!is_probable_prime(&big(101 * 151 * 251), &mut rng));
        // Product of two 64-bit primes.
        let p = big(0xffff_ffff_ffff_ffc5);
        assert!(!is_probable_prime(&p.mul(&p), &mut rng));
    }

    #[test]
    fn generated_prime_has_requested_shape() {
        let mut rng = StdRng::seed_from_u64(3);
        let p = gen_prime(&mut rng, 64, true, None);
        assert_eq!(p.bit_len(), 64);
        assert!(p.bit(62), "second-highest bit must be set");
        assert!(is_probable_prime(&p, &mut rng));
    }

    #[test]
    fn coprime_constraint_respected() {
        let mut rng = StdRng::seed_from_u64(4);
        let e = big(3);
        for _ in 0..5 {
            let p = gen_prime(&mut rng, 48, false, Some(&e));
            assert!(p.sub(&BigUint::one()).gcd(&e).is_one());
        }
    }

    #[test]
    fn rsa_sized_prime_generation_terminates() {
        let mut rng = StdRng::seed_from_u64(5);
        let p = gen_prime(&mut rng, 256, true, Some(&big(3)));
        assert_eq!(p.bit_len(), 256);
        assert!(is_probable_prime(&p, &mut rng));
    }

    #[test]
    fn gen_prime_is_deterministic_per_seed() {
        let a = gen_prime(&mut StdRng::seed_from_u64(42), 128, true, None);
        let b = gen_prime(&mut StdRng::seed_from_u64(42), 128, true, None);
        assert_eq!(a, b);
    }

    #[test]
    fn reduced_rounds_table_is_sane() {
        // Monotone non-increasing in bits, never below the HAC floor,
        // and worst-case for sizes the table doesn't cover.
        assert_eq!(mr_rounds_random(64), MR_ROUNDS);
        let mut last = MR_ROUNDS;
        for bits in (100..=600).step_by(10) {
            let r = mr_rounds_random(bits);
            assert!(r <= last, "rounds must not grow with bits");
            assert!(r >= 6, "never below the 2^-80 table floor");
            last = r;
        }
    }

    #[test]
    fn sieve_window_rejects_known_composite_offsets() {
        // base = 2^20 + 1 is odd and > SIEVE_BOUND; check a handful of
        // offsets against naive divisibility.
        let base = BigUint::one().shl(20).add(&BigUint::one());
        let survives = sieve_window(&base, 64);
        for (k, &ok) in survives.iter().enumerate() {
            let candidate = (1u64 << 20) + 1 + 2 * k as u64;
            let divisible = small_primes()
                .iter()
                .any(|&p| p != 2 && candidate.is_multiple_of(p));
            assert_eq!(ok, !divisible, "offset {k} (candidate {candidate})");
        }
    }

    proptest! {
        // Satellite: windowed-sieve survivors exactly equal naive
        // per-candidate trial division over the same window.
        #[test]
        fn prop_sieve_window_matches_trial_division(
            seed in any::<u64>(),
            bits in 14usize..200,
            count in 1usize..300,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut base = BigUint::random_bits(&mut rng, bits);
            if base.is_even() {
                base = base.add(&BigUint::one());
            }
            let survives = sieve_window(&base, count);
            for (k, &ok) in survives.iter().enumerate() {
                let candidate = base.add(&BigUint::from_u64(2 * k as u64));
                let divisible = small_primes()
                    .iter()
                    .any(|&p| p != 2 && candidate.rem_u64(p) == 0);
                prop_assert_eq!(ok, !divisible, "offset {}", k);
            }
        }
    }
}
