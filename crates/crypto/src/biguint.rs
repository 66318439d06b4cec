//! Arbitrary-precision unsigned integers sized for RSA moduli.
//!
//! The neutralizer protocol needs 512-bit one-time RSA keys (§3.2 of the
//! paper) and 1024-bit end-to-end keys, so intermediates reach 2048 bits.
//! Limbs are little-endian `u64`; the representation is always normalized
//! (no trailing zero limbs; zero is the empty limb vector).
//!
//! Division is Knuth's Algorithm D; modular exponentiation uses Montgomery
//! reduction for odd moduli (every modulus in this crate is odd) with a
//! plain multiply-and-reduce fallback for even moduli.

use core::cmp::Ordering;
use core::fmt;

use rand::Rng;

/// An arbitrary-precision unsigned integer.
///
/// Invariant: `limbs` never ends with a zero limb, so every value has a
/// unique representation and equality is limb-vector equality.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BigUint {
    limbs: Vec<u64>,
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigUint(0x{})", self.to_hex())
    }
}

impl fmt::Display for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{}", self.to_hex())
    }
}

impl BigUint {
    /// The value zero.
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// The value one.
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// Builds a value from a single limb.
    pub fn from_u64(v: u64) -> Self {
        if v == 0 {
            Self::zero()
        } else {
            BigUint { limbs: vec![v] }
        }
    }

    /// Builds a value from a `u128`.
    pub fn from_u128(v: u128) -> Self {
        let lo = v as u64;
        let hi = (v >> 64) as u64;
        let mut limbs = vec![lo, hi];
        while limbs.last() == Some(&0) {
            limbs.pop();
        }
        BigUint { limbs }
    }

    /// Interprets big-endian bytes as an unsigned integer.
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len() / 8 + 1);
        let mut iter = bytes.rchunks(8);
        for chunk in &mut iter {
            let mut limb = 0u64;
            for &b in chunk {
                limb = (limb << 8) | b as u64;
            }
            limbs.push(limb);
        }
        while limbs.last() == Some(&0) {
            limbs.pop();
        }
        BigUint { limbs }
    }

    /// Serializes to minimal big-endian bytes (empty for zero).
    pub fn to_bytes_be(&self) -> Vec<u8> {
        if self.is_zero() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        for (i, &limb) in self.limbs.iter().enumerate().rev() {
            let bytes = limb.to_be_bytes();
            if i == self.limbs.len() - 1 {
                // Skip leading zero bytes of the most significant limb.
                let skip = (limb.leading_zeros() / 8) as usize;
                out.extend_from_slice(&bytes[skip.min(7)..]);
            } else {
                out.extend_from_slice(&bytes);
            }
        }
        out
    }

    /// Serializes to exactly `len` big-endian bytes, left-padding with zeros.
    ///
    /// Returns `None` if the value does not fit.
    pub fn to_bytes_be_padded(&self, len: usize) -> Option<Vec<u8>> {
        let raw = self.to_bytes_be();
        if raw.len() > len {
            return None;
        }
        let mut out = vec![0u8; len - raw.len()];
        out.extend_from_slice(&raw);
        Some(out)
    }

    fn to_hex(&self) -> String {
        if self.is_zero() {
            return "0".to_string();
        }
        let mut s = String::new();
        for (i, &limb) in self.limbs.iter().enumerate().rev() {
            if i == self.limbs.len() - 1 {
                s.push_str(&format!("{limb:x}"));
            } else {
                s.push_str(&format!("{limb:016x}"));
            }
        }
        s
    }

    /// True when the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// True when the value is one.
    pub fn is_one(&self) -> bool {
        self.limbs == [1]
    }

    /// True when the value is even (zero counts as even).
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l & 1 == 0)
    }

    /// Number of significant bits (zero has zero bits).
    pub fn bit_len(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(&top) => self.limbs.len() * 64 - top.leading_zeros() as usize,
        }
    }

    /// Returns bit `i` (little-endian bit order).
    pub fn bit(&self, i: usize) -> bool {
        let limb = i / 64;
        let off = i % 64;
        self.limbs.get(limb).is_some_and(|l| (l >> off) & 1 == 1)
    }

    /// Exposes the little-endian limbs (for Montgomery internals).
    pub(crate) fn limbs(&self) -> &[u64] {
        &self.limbs
    }

    pub(crate) fn into_limbs(self) -> Vec<u64> {
        self.limbs
    }

    pub(crate) fn from_limbs(mut limbs: Vec<u64>) -> Self {
        while limbs.last() == Some(&0) {
            limbs.pop();
        }
        BigUint { limbs }
    }

    /// Addition.
    pub fn add(&self, other: &BigUint) -> BigUint {
        let (a, b) = if self.limbs.len() >= other.limbs.len() {
            (&self.limbs, &other.limbs)
        } else {
            (&other.limbs, &self.limbs)
        };
        let mut out = Vec::with_capacity(a.len() + 1);
        let mut carry = 0u64;
        for (i, &ai) in a.iter().enumerate() {
            let bi = b.get(i).copied().unwrap_or(0);
            let (s1, c1) = ai.overflowing_add(bi);
            let (s2, c2) = s1.overflowing_add(carry);
            out.push(s2);
            carry = (c1 as u64) + (c2 as u64);
        }
        if carry != 0 {
            out.push(carry);
        }
        BigUint::from_limbs(out)
    }

    /// Subtraction; `None` if `other > self`.
    pub fn checked_sub(&self, other: &BigUint) -> Option<BigUint> {
        if self < other {
            return None;
        }
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let bi = other.limbs.get(i).copied().unwrap_or(0);
            let (d1, b1) = self.limbs[i].overflowing_sub(bi);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = (b1 as u64) + (b2 as u64);
        }
        debug_assert_eq!(borrow, 0);
        Some(BigUint::from_limbs(out))
    }

    /// Subtraction; panics if `other > self` (internal arithmetic only).
    pub fn sub(&self, other: &BigUint) -> BigUint {
        self.checked_sub(other)
            .expect("BigUint::sub underflow: subtrahend larger than minuend")
    }

    /// Schoolbook multiplication. Operand sizes in this crate top out around
    /// 32 limbs (2048 bits), where schoolbook is still competitive with
    /// Karatsuba and much simpler to verify.
    pub fn mul(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return BigUint::zero();
        }
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &b) in other.limbs.iter().enumerate() {
                let t = a as u128 * b as u128 + out[i + j] as u128 + carry;
                out[i + j] = t as u64;
                carry = t >> 64;
            }
            let mut k = i + other.limbs.len();
            while carry != 0 {
                let t = out[k] as u128 + carry;
                out[k] = t as u64;
                carry = t >> 64;
                k += 1;
            }
        }
        BigUint::from_limbs(out)
    }

    /// Left shift by `bits`.
    pub fn shl(&self, bits: usize) -> BigUint {
        if self.is_zero() || bits == 0 {
            return self.clone();
        }
        let limb_shift = bits / 64;
        let bit_shift = bits % 64;
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (64 - bit_shift);
            }
            if carry != 0 {
                out.push(carry);
            }
        }
        BigUint::from_limbs(out)
    }

    /// Right shift by `bits`.
    pub fn shr(&self, bits: usize) -> BigUint {
        let limb_shift = bits / 64;
        if limb_shift >= self.limbs.len() {
            return BigUint::zero();
        }
        let bit_shift = bits % 64;
        let src = &self.limbs[limb_shift..];
        let mut out = Vec::with_capacity(src.len());
        if bit_shift == 0 {
            out.extend_from_slice(src);
        } else {
            for i in 0..src.len() {
                let hi = src.get(i + 1).copied().unwrap_or(0);
                out.push((src[i] >> bit_shift) | (hi << (64 - bit_shift)));
            }
        }
        BigUint::from_limbs(out)
    }

    /// Quotient and remainder. Panics on division by zero.
    pub fn div_rem(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        assert!(!divisor.is_zero(), "BigUint division by zero");
        match self.cmp(divisor) {
            Ordering::Less => return (BigUint::zero(), self.clone()),
            Ordering::Equal => return (BigUint::one(), BigUint::zero()),
            Ordering::Greater => {}
        }
        if divisor.limbs.len() == 1 {
            let (q, r) = div_rem_single(&self.limbs, divisor.limbs[0]);
            return (BigUint::from_limbs(q), BigUint::from_u64(r));
        }
        let (q, r) = div_rem_knuth(&self.limbs, &divisor.limbs);
        (BigUint::from_limbs(q), BigUint::from_limbs(r))
    }

    /// Remainder only.
    pub fn rem(&self, modulus: &BigUint) -> BigUint {
        self.div_rem(modulus).1
    }

    /// Remainder by a single word: a top-down limb scan folding each
    /// limb into a 128-bit accumulator — no quotient, no allocation.
    ///
    /// This is what makes windowed prime sieving cheap: one `rem_u64`
    /// per small prime per *window*, instead of a full multi-limb
    /// division per small prime per *candidate*. Panics on `m == 0`.
    pub fn rem_u64(&self, m: u64) -> u64 {
        assert!(m != 0, "BigUint::rem_u64 division by zero");
        let mut rem: u128 = 0;
        for &limb in self.limbs.iter().rev() {
            rem = ((rem << 64) | limb as u128) % m as u128;
        }
        rem as u64
    }

    /// Modular multiplication `self * other mod m`.
    pub fn mul_mod(&self, other: &BigUint, m: &BigUint) -> BigUint {
        self.mul(other).rem(m)
    }

    /// Greatest common divisor (binary GCD).
    pub fn gcd(&self, other: &BigUint) -> BigUint {
        let mut a = self.clone();
        let mut b = other.clone();
        if a.is_zero() {
            return b;
        }
        if b.is_zero() {
            return a;
        }
        let mut shift = 0usize;
        while a.is_even() && b.is_even() {
            a = a.shr(1);
            b = b.shr(1);
            shift += 1;
        }
        while a.is_even() {
            a = a.shr(1);
        }
        loop {
            while b.is_even() {
                b = b.shr(1);
            }
            if a > b {
                core::mem::swap(&mut a, &mut b);
            }
            b = b.sub(&a);
            if b.is_zero() {
                break;
            }
        }
        a.shl(shift)
    }

    /// Modular inverse of `self` modulo `m`, if it exists.
    ///
    /// Extended Euclid with an explicit sign on the Bézout coefficient;
    /// works for any modulus `m > 1` (φ(n) is even, so we cannot assume an
    /// odd modulus here).
    pub fn mod_inverse(&self, m: &BigUint) -> Option<BigUint> {
        if m.is_zero() || m.is_one() {
            return None;
        }
        let a = self.rem(m);
        if a.is_zero() {
            return None;
        }
        // Invariants: old_r = old_sign*old_s*a (mod m), r = sign*s*a (mod m).
        let mut old_r = a;
        let mut r = m.clone();
        let mut old_s = BigUint::one();
        let mut s = BigUint::zero();
        let mut old_sign = false; // false = positive
        let mut sign = false;
        while !r.is_zero() {
            let (q, rem) = old_r.div_rem(&r);
            // new_s = old_s - q * s  (in signed arithmetic)
            let qs = q.mul(&s);
            let (new_s, new_sign) = signed_sub((old_s, old_sign), (qs, sign));
            old_r = core::mem::replace(&mut r, rem);
            old_s = core::mem::replace(&mut s, new_s);
            old_sign = core::mem::replace(&mut sign, new_sign);
        }
        if !old_r.is_one() {
            return None; // not coprime
        }
        let inv = old_s.rem(m);
        if old_sign && !inv.is_zero() {
            Some(m.sub(&inv))
        } else {
            Some(inv)
        }
    }

    /// Uniformly random integer with exactly `bits` bits (top bit set).
    pub fn random_bits<R: Rng + ?Sized>(rng: &mut R, bits: usize) -> BigUint {
        assert!(bits > 0, "random_bits needs at least one bit");
        let limbs_needed = bits.div_ceil(64);
        let mut limbs: Vec<u64> = (0..limbs_needed).map(|_| rng.gen()).collect();
        let top_bits = bits - (limbs_needed - 1) * 64;
        let top = &mut limbs[limbs_needed - 1];
        if top_bits < 64 {
            *top &= (1u64 << top_bits) - 1;
        }
        *top |= 1u64 << (top_bits - 1);
        BigUint::from_limbs(limbs)
    }

    /// Uniformly random integer in `[0, bound)` by rejection sampling.
    pub fn random_below<R: Rng + ?Sized>(rng: &mut R, bound: &BigUint) -> BigUint {
        assert!(!bound.is_zero(), "random_below with zero bound");
        let bits = bound.bit_len();
        let limbs_needed = bits.div_ceil(64);
        let top_bits = bits - (limbs_needed - 1) * 64;
        let mask = if top_bits == 64 {
            u64::MAX
        } else {
            (1u64 << top_bits) - 1
        };
        loop {
            let mut limbs: Vec<u64> = (0..limbs_needed).map(|_| rng.gen()).collect();
            limbs[limbs_needed - 1] &= mask;
            let candidate = BigUint::from_limbs(limbs);
            if &candidate < bound {
                return candidate;
            }
        }
    }
}

/// Signed subtraction on (magnitude, sign) pairs; sign `true` = negative.
fn signed_sub(a: (BigUint, bool), b: (BigUint, bool)) -> (BigUint, bool) {
    let (am, asign) = a;
    let (bm, bsign) = b;
    if asign == bsign {
        // Same sign: magnitude subtraction, sign flips when |b| > |a|.
        if am >= bm {
            (am.sub(&bm), asign)
        } else {
            (bm.sub(&am), !asign)
        }
    } else {
        // a - (-b) = a + b, keeping a's sign.
        (am.add(&bm), asign)
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        if self.limbs.len() != other.limbs.len() {
            return self.limbs.len().cmp(&other.limbs.len());
        }
        for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
            match a.cmp(b) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }
}

/// Division by a single limb.
fn div_rem_single(u: &[u64], v: u64) -> (Vec<u64>, u64) {
    let mut q = vec![0u64; u.len()];
    let mut rem = 0u128;
    for i in (0..u.len()).rev() {
        let acc = (rem << 64) | u[i] as u128;
        q[i] = (acc / v as u128) as u64;
        rem = acc % v as u128;
    }
    (q, rem as u64)
}

/// Knuth Algorithm D (TAOCP 4.3.1) over 64-bit limbs, following the
/// structure of Hacker's Delight `divmnu64`. Requires `v.len() >= 2`,
/// `u >= v` (checked by the caller) and a normalized divisor top limb.
fn div_rem_knuth(u: &[u64], v: &[u64]) -> (Vec<u64>, Vec<u64>) {
    let n = v.len();
    let m = u.len();
    debug_assert!(n >= 2 && m >= n);

    let s = v[n - 1].leading_zeros() as usize;
    let shl = |hi: u64, lo: u64| -> u64 {
        if s == 0 {
            hi
        } else {
            (hi << s) | (lo >> (64 - s))
        }
    };

    // Normalized divisor.
    let mut vn = vec![0u64; n];
    for i in (1..n).rev() {
        vn[i] = shl(v[i], v[i - 1]);
    }
    vn[0] = v[0] << s;

    // Normalized dividend with one extra limb.
    let mut un = vec![0u64; m + 1];
    un[m] = if s == 0 { 0 } else { u[m - 1] >> (64 - s) };
    for i in (1..m).rev() {
        un[i] = shl(u[i], u[i - 1]);
    }
    un[0] = u[0] << s;

    let mut q = vec![0u64; m - n + 1];
    for j in (0..=m - n).rev() {
        // Estimate the quotient digit from the top two dividend limbs.
        let num = ((un[j + n] as u128) << 64) | un[j + n - 1] as u128;
        let mut qhat = num / vn[n - 1] as u128;
        let mut rhat = num % vn[n - 1] as u128;
        while qhat >= 1u128 << 64
            || qhat * vn[n - 2] as u128 > ((rhat << 64) | un[j + n - 2] as u128)
        {
            qhat -= 1;
            rhat += vn[n - 1] as u128;
            if rhat >= 1u128 << 64 {
                break;
            }
        }

        // Multiply-and-subtract qhat * vn from un[j..j+n+1].
        let mut borrow: i128 = 0;
        let mut carry: u128 = 0;
        for i in 0..n {
            let p = qhat * vn[i] as u128 + carry;
            carry = p >> 64;
            let t = un[i + j] as i128 - borrow - (p as u64) as i128;
            un[i + j] = t as u64;
            borrow = -(t >> 64);
        }
        let t = un[j + n] as i128 - borrow - carry as i128;
        un[j + n] = t as u64;

        if t < 0 {
            // qhat was one too large: add the divisor back.
            qhat -= 1;
            let mut c: u128 = 0;
            for i in 0..n {
                let sum = un[i + j] as u128 + vn[i] as u128 + c;
                un[i + j] = sum as u64;
                c = sum >> 64;
            }
            un[j + n] = un[j + n].wrapping_add(c as u64);
        }
        q[j] = qhat as u64;
    }

    // Denormalize the remainder.
    let mut r = vec![0u64; n];
    if s == 0 {
        r.copy_from_slice(&un[..n]);
    } else {
        for i in 0..n {
            let hi = if i + 1 < n + 1 { un[i + 1] } else { 0 };
            r[i] = (un[i] >> s) | (hi << (64 - s));
        }
    }
    (q, r)
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
    fn zero_and_one_basics() {
        assert!(BigUint::zero().is_zero());
        assert!(BigUint::one().is_one());
        assert_eq!(BigUint::zero().bit_len(), 0);
        assert_eq!(BigUint::one().bit_len(), 1);
        assert!(BigUint::zero().is_even());
        assert!(!BigUint::one().is_even());
    }

    #[test]
    fn bytes_roundtrip() {
        let cases: &[&[u8]] = &[
            &[],
            &[0x01],
            &[0xff, 0xee, 0xdd, 0xcc, 0xbb, 0xaa, 0x99, 0x88, 0x77],
            &[0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00],
        ];
        for &c in cases {
            let v = BigUint::from_bytes_be(c);
            let back = v.to_bytes_be();
            // Leading zeros are not preserved; compare trimmed.
            let trimmed: Vec<u8> = c.iter().copied().skip_while(|&b| b == 0).collect();
            assert_eq!(back, trimmed);
        }
    }

    #[test]
    fn leading_zero_bytes_ignored() {
        let a = BigUint::from_bytes_be(&[0, 0, 0, 5, 6]);
        let b = BigUint::from_bytes_be(&[5, 6]);
        assert_eq!(a, b);
    }

    #[test]
    fn padded_serialization() {
        let v = big(0xabcd);
        assert_eq!(v.to_bytes_be_padded(4).unwrap(), vec![0, 0, 0xab, 0xcd]);
        assert_eq!(v.to_bytes_be_padded(2).unwrap(), vec![0xab, 0xcd]);
        assert!(v.to_bytes_be_padded(1).is_none());
        assert_eq!(
            BigUint::zero().to_bytes_be_padded(3).unwrap(),
            vec![0, 0, 0]
        );
    }

    #[test]
    fn add_carries_across_limbs() {
        let a = big(u128::MAX);
        let b = BigUint::one();
        let sum = a.add(&b);
        assert_eq!(sum.bit_len(), 129);
        assert_eq!(sum.shr(128), BigUint::one());
    }

    #[test]
    fn sub_borrows_across_limbs() {
        let a = BigUint::one().shl(128);
        let b = BigUint::one();
        let d = a.sub(&b);
        assert_eq!(d, big(u128::MAX));
        assert!(b.checked_sub(&a).is_none());
    }

    #[test]
    fn mul_known_values() {
        assert_eq!(big(0).mul(&big(12345)), big(0));
        assert_eq!(big(1 << 40).mul(&big(1 << 50)), BigUint::one().shl(90));
        assert_eq!(
            big(0xffff_ffff_ffff_ffff).mul(&big(0xffff_ffff_ffff_ffff)),
            big(0xffff_ffff_ffff_fffe_0000_0000_0000_0001)
        );
    }

    #[test]
    fn div_rem_small_divisor() {
        let a = BigUint::from_bytes_be(&[0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc, 0xde, 0xf0, 0x11]);
        let (q, r) = a.div_rem(&big(1000));
        assert_eq!(q.mul(&big(1000)).add(&r), a);
        assert!(r < big(1000));
    }

    #[test]
    fn div_rem_equal_and_smaller() {
        let a = big(777);
        assert_eq!(a.div_rem(&a), (BigUint::one(), BigUint::zero()));
        assert_eq!(big(5).div_rem(&big(9)), (BigUint::zero(), big(5)));
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        let _ = big(1).div_rem(&BigUint::zero());
    }

    #[test]
    fn knuth_add_back_case() {
        // Exercise the rare "add back" branch with a crafted dividend:
        // u = b^2 * (b/2) and v = b*(b/2)+1 style values force qhat
        // overestimation (b = 2^64).
        let b_half = 1u64 << 63;
        let u = BigUint::from_limbs(vec![0, 0, 0, b_half]);
        let v = BigUint::from_limbs(vec![1, b_half]);
        let (q, r) = u.div_rem(&v);
        assert_eq!(q.mul(&v).add(&r), u);
        assert!(r < v);
    }

    #[test]
    fn shifts_roundtrip() {
        let v = BigUint::from_bytes_be(&[0xde, 0xad, 0xbe, 0xef, 0x01, 0x02, 0x03]);
        for s in [0usize, 1, 7, 63, 64, 65, 127, 200] {
            assert_eq!(v.shl(s).shr(s), v, "shift {s}");
        }
        assert_eq!(v.shr(1000), BigUint::zero());
    }

    #[test]
    fn gcd_known() {
        assert_eq!(big(48).gcd(&big(18)), big(6));
        assert_eq!(big(17).gcd(&big(31)), big(1));
        assert_eq!(big(0).gcd(&big(5)), big(5));
        assert_eq!(big(5).gcd(&big(0)), big(5));
    }

    #[test]
    fn mod_inverse_known() {
        // 3 * 7 = 21 = 1 mod 10.
        assert_eq!(big(3).mod_inverse(&big(10)), Some(big(7)));
        // Not coprime.
        assert_eq!(big(4).mod_inverse(&big(10)), None);
        assert_eq!(big(0).mod_inverse(&big(10)), None);
        assert_eq!(big(3).mod_inverse(&BigUint::one()), None);
    }

    #[test]
    fn mod_inverse_even_modulus() {
        // d = 3^-1 mod phi with even phi, the RSA key-generation case.
        let phi = big(3120); // phi for p=61, q=53
        let e = big(17);
        let d = e.mod_inverse(&phi).unwrap();
        assert_eq!(e.mul_mod(&d, &phi), BigUint::one());
    }

    #[test]
    fn random_bits_has_exact_length() {
        let mut rng = StdRng::seed_from_u64(7);
        for bits in [1usize, 5, 63, 64, 65, 256, 512] {
            let v = BigUint::random_bits(&mut rng, bits);
            assert_eq!(v.bit_len(), bits, "bits={bits}");
        }
    }

    #[test]
    fn rem_u64_known_values() {
        assert_eq!(BigUint::zero().rem_u64(7), 0);
        assert_eq!(big(u128::MAX).rem_u64(1), 0);
        assert_eq!(
            big(u128::MAX).rem_u64(u64::MAX),
            (u128::MAX % u64::MAX as u128) as u64
        );
        // Three-limb value against a 13-bit modulus (the sieve case).
        let v = BigUint::one().shl(191).add(&big(12345));
        assert_eq!(BigUint::from_u64(v.rem_u64(8191)), v.rem(&big(8191)));
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn rem_u64_zero_modulus_panics() {
        let _ = big(5).rem_u64(0);
    }

    #[test]
    fn random_below_in_range() {
        let mut rng = StdRng::seed_from_u64(9);
        let bound = big(1_000_003);
        for _ in 0..200 {
            let v = BigUint::random_below(&mut rng, &bound);
            assert!(v < bound);
        }
    }

    proptest! {
        #[test]
        fn prop_add_sub_roundtrip(a in any::<u128>(), b in any::<u128>()) {
            let (ba, bb) = (big(a), big(b));
            prop_assert_eq!(ba.add(&bb).sub(&bb), ba);
        }

        #[test]
        fn prop_mul_matches_u128(a in any::<u64>(), b in any::<u64>()) {
            let expect = big(a as u128 * b as u128);
            prop_assert_eq!(big(a as u128).mul(&big(b as u128)), expect);
        }

        #[test]
        fn prop_div_rem_identity_u128(a in any::<u128>(), b in 1u128..) {
            let (ba, bb) = (big(a), big(b));
            let (q, r) = ba.div_rem(&bb);
            prop_assert_eq!(q.mul(&bb).add(&r), ba.clone());
            prop_assert!(r < bb);
            prop_assert_eq!(q, big(a / b));
            prop_assert_eq!(ba.rem(&bb), big(a % b));
        }

        #[test]
        fn prop_div_rem_identity_wide(
            a in proptest::collection::vec(any::<u8>(), 1..96),
            b in proptest::collection::vec(any::<u8>(), 1..40),
        ) {
            let ba = BigUint::from_bytes_be(&a);
            let bb = BigUint::from_bytes_be(&b);
            prop_assume!(!bb.is_zero());
            let (q, r) = ba.div_rem(&bb);
            prop_assert_eq!(q.mul(&bb).add(&r), ba);
            prop_assert!(r < bb);
        }

        #[test]
        fn prop_rem_u64_matches_rem(
            a in proptest::collection::vec(any::<u8>(), 0..96),
            m in 1u64..,
        ) {
            let ba = BigUint::from_bytes_be(&a);
            let expect = ba.rem(&BigUint::from_u64(m));
            prop_assert_eq!(BigUint::from_u64(ba.rem_u64(m)), expect);
        }

        #[test]
        fn prop_bytes_roundtrip(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
            let v = BigUint::from_bytes_be(&bytes);
            let back = BigUint::from_bytes_be(&v.to_bytes_be());
            prop_assert_eq!(v, back);
        }

        #[test]
        fn prop_gcd_divides_both(a in any::<u64>(), b in any::<u64>()) {
            let g = big(a as u128).gcd(&big(b as u128));
            if !g.is_zero() {
                prop_assert!(big(a as u128).rem(&g).is_zero());
                prop_assert!(big(b as u128).rem(&g).is_zero());
            }
        }

        #[test]
        fn prop_mod_inverse_valid(a in 1u64.., m in 2u64..) {
            let (ba, bm) = (big(a as u128), big(m as u128));
            match ba.mod_inverse(&bm) {
                Some(inv) => {
                    prop_assert!(inv < bm);
                    prop_assert_eq!(ba.mul_mod(&inv, &bm), BigUint::one());
                }
                None => {
                    let g = ba.gcd(&bm);
                    prop_assert!(!g.is_one());
                }
            }
        }
    }
}
