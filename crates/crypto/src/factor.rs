//! Factoring machinery for the security-window experiment (E6).
//!
//! §3.2: "A 512-bit RSA key is only as secure as a 56-bit symmetric key. To
//! improve security, we let a source use a short RSA key only once, and
//! expire the symmetric Ks key quickly... As long as a discriminatory ISP
//! does not factor the short RSA key before K's is returned to the source
//! (which takes two round trip times), the discriminatory ISP cannot
//! decrypt the destination address."
//!
//! This module makes that argument measurable on hardware we actually have:
//! Pollard's rho (Brent variant) factors *scaled-down* semiprimes, giving a
//! measured cost curve versus modulus size, and an explicit cost model
//! scales it to 512 bits for comparison against the 2-RTT rollover window.

use crate::error::{CryptoError, Result};

/// Deterministic Miller–Rabin for u128 (sufficient witness set for < 2^64;
/// extended set keeps the error negligible for our < 2^100 scaled moduli).
pub fn is_prime_u128(n: u128) -> bool {
    if n < 2 {
        return false;
    }
    for p in [2u128, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        if n.is_multiple_of(p) {
            return n == p;
        }
    }
    let mut d = n - 1;
    let mut s = 0;
    while d.is_multiple_of(2) {
        d /= 2;
        s += 1;
    }
    'witness: for a in [2u128, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        let mut x = pow_mod_u128(a, d, n);
        if x == 1 || x == n - 1 {
            continue;
        }
        for _ in 0..s - 1 {
            x = mul_mod_u128(x, x, n);
            if x == n - 1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// `a * b mod n` without overflow for n < 2^127.
fn mul_mod_u128(a: u128, b: u128, n: u128) -> u128 {
    // Russian-peasant multiplication; operands stay below 2^127.
    let mut result = 0u128;
    let mut a = a % n;
    let mut b = b % n;
    while b > 0 {
        if b & 1 == 1 {
            result = (result + a) % n;
        }
        a = (a << 1) % n;
        b >>= 1;
    }
    result
}

fn pow_mod_u128(mut base: u128, mut exp: u128, n: u128) -> u128 {
    let mut acc = 1u128;
    base %= n;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mul_mod_u128(acc, base, n);
        }
        base = mul_mod_u128(base, base, n);
        exp >>= 1;
    }
    acc
}

/// Pollard's rho with Brent's cycle detection. Returns a non-trivial
/// factor of composite `n`, or an error if the iteration budget runs out.
pub fn pollard_rho(n: u128, max_iters: u64) -> Result<u128> {
    if n.is_multiple_of(2) {
        return Ok(2);
    }
    if n < 4 {
        return Err(CryptoError::NotSemiprime);
    }
    let gcd = |mut a: u128, mut b: u128| {
        while b != 0 {
            let t = a % b;
            a = b;
            b = t;
        }
        a
    };
    // Deterministic restart schedule keeps the experiment reproducible.
    for c in 1u128..64 {
        let mut iters = 0u64;
        let f = |x: u128| (mul_mod_u128(x, x, n) + c) % n;
        let mut x = 2u128;
        let mut y = 2u128;
        let mut d = 1u128;
        while d == 1 {
            x = f(x);
            y = f(f(y));
            d = gcd(x.abs_diff(y), n);
            iters += 1;
            if iters > max_iters {
                return Err(CryptoError::FactorBudgetExhausted);
            }
        }
        if d != n {
            return Ok(d);
        }
        // Cycle collapsed onto n itself; retry with the next polynomial.
    }
    Err(CryptoError::FactorBudgetExhausted)
}

/// Fully factors a semiprime `n = p * q` with both factors prime.
pub fn factor_semiprime(n: u128, max_iters: u64) -> Result<(u128, u128)> {
    if is_prime_u128(n) {
        return Err(CryptoError::NotSemiprime);
    }
    let p = pollard_rho(n, max_iters)?;
    let q = n / p;
    if p * q != n || !is_prime_u128(p) || !is_prime_u128(q) {
        return Err(CryptoError::NotSemiprime);
    }
    Ok((p.min(q), p.max(q)))
}

/// Relative cost model for factoring a `bits`-bit modulus.
///
/// Pollard rho costs ~2^(bits/4) modular operations (it finds the smaller
/// prime, ~bits/2 bits, in O(p^(1/2))). The general number field sieve is
/// asymptotically better for large moduli, so at 512 bits this overstates
/// a real attacker's cost; it is the model the measured rho curve scales
/// by, for the *comparison the paper makes* — "far longer than two
/// round-trips".
pub fn rho_ops_estimate(bits: u32) -> f64 {
    2f64.powf(bits as f64 / 4.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prime_test_known_values() {
        assert!(is_prime_u128(2));
        assert!(is_prime_u128(3));
        assert!(is_prime_u128(1_000_000_007));
        assert!(is_prime_u128((1u128 << 89) - 1)); // Mersenne prime
        assert!(!is_prime_u128(1));
        assert!(!is_prime_u128(561)); // Carmichael
        assert!(!is_prime_u128((1u128 << 89) + 1));
    }

    #[test]
    fn mul_mod_no_overflow() {
        let n = (1u128 << 100) + 7;
        let a = n - 1;
        assert_eq!(mul_mod_u128(a, a, n), 1); // (-1)^2 = 1 mod n
    }

    #[test]
    fn rho_factors_small_semiprime() {
        let f = pollard_rho(101 * 103, 1_000_000).unwrap();
        assert!(f == 101 || f == 103);
    }

    #[test]
    fn semiprime_full_factorization() {
        let (p, q) = factor_semiprime(1_000_003u128 * 1_000_033, 10_000_000).unwrap();
        assert_eq!((p, q), (1_000_003, 1_000_033));
    }

    #[test]
    fn prime_input_rejected() {
        assert_eq!(
            factor_semiprime(1_000_000_007, 1000),
            Err(CryptoError::NotSemiprime)
        );
    }

    #[test]
    fn budget_exhaustion_reported() {
        // Two ~31-bit primes: rho needs ~2^16 iterations, budget of 10 is
        // far too small.
        let n = 2_147_483_647u128 * 2_147_483_629;
        assert_eq!(pollard_rho(n, 10), Err(CryptoError::FactorBudgetExhausted));
    }

    #[test]
    fn cost_models_monotone() {
        assert!(rho_ops_estimate(64) < rho_ops_estimate(128));
        assert_eq!(rho_ops_estimate(512), 2f64.powi(128));
    }
}
