//! GHASH, the universal hash that authenticates AES-GCM (NIST SP 800-38D
//! §6.4), for a message with no additional data.
//!
//! [`Ghash::sum`] hashes the ciphertext zero-padded to whole blocks, then
//! the length block `[0]₆₄ ‖ [8·len]₆₄`. Each block is folded in as
//! `Y = (Y ⊕ X) · H` in GF(2¹²⁸), where `H = E_K(0¹²⁸)`.
//!
//! On an x86_64 CPU with `PCLMULQDQ` and SSSE3, the product runs on
//! carry-less multiplies, as in Gueron and Kounavis's Intel white paper
//! on CLMUL and GCM: operands are byte-reflected with `PSHUFB`, each
//! 128×128-bit product takes four `PCLMULQDQ`, and the 256-bit result is
//! shifted left one bit and reduced with shifts and XORs. Blocks are
//! aggregated eight at a time against the precomputed powers H¹…H⁸,
//! `Y = (Y ⊕ X₁)·H⁸ ⊕ X₂·H⁷ ⊕ … ⊕ X₈·H`, and since the shift and the
//! reduction are linear, the eight unreduced products are summed and
//! reduced once. The backend is chosen at run time, once per key, by
//! `is_x86_feature_detected!`, as [`Aes128`](crate::aes::Aes128) picks
//! AES-NI. Everywhere else, SP 800-38D's bitwise Algorithm 1 runs; it is
//! also the reference the tests hold the carry-less path to.

/// GHASH under one hash key `H`.
#[derive(Clone)]
pub(crate) struct Ghash {
    /// `H` read big-endian: bit 127 is the block's first bit, the
    /// coefficient of x⁰.
    h: u128,
    /// H¹…H⁸ for the carry-less path; `Some` only on a CPU with
    /// `PCLMULQDQ` and SSSE3, which is what makes those calls sound.
    #[cfg(target_arch = "x86_64")]
    clmul: Option<clmul::Powers>,
}

impl Ghash {
    /// Precomputes the hash key's powers for the hardware path when the
    /// CPU has it.
    pub(crate) fn new(h: &[u8; 16]) -> Self {
        Ghash {
            h: u128::from_be_bytes(*h),
            #[cfg(target_arch = "x86_64")]
            clmul: clmul::Powers::new(h),
        }
    }

    /// The bitwise path only, whatever the CPU: the tests' reference.
    #[cfg(test)]
    pub(crate) fn portable(h: &[u8; 16]) -> Self {
        Ghash {
            h: u128::from_be_bytes(*h),
            #[cfg(target_arch = "x86_64")]
            clmul: None,
        }
    }

    /// GHASH over `data` zero-padded to whole blocks, then the length
    /// block `[0]₆₄ ‖ [8·len(data)]₆₄`: GCM's `S` for a message with
    /// no additional data.
    pub(crate) fn sum(&self, data: &[u8]) -> [u8; 16] {
        #[cfg(target_arch = "x86_64")]
        if let Some(powers) = &self.clmul {
            // SAFETY: `powers` exists only if `is_x86_feature_detected!`
            // returned true for `pclmulqdq` and `ssse3`, the two features
            // the callee enables.
            #[allow(unsafe_code)]
            return unsafe { clmul::sum(powers, data) };
        }
        self.bitwise_sum(data)
    }

    /// [`sum`](Self::sum) on SP 800-38D's Algorithm 1, block by block.
    fn bitwise_sum(&self, data: &[u8]) -> [u8; 16] {
        let mut y = 0u128;
        for chunk in data.chunks(16) {
            let mut block = [0u8; 16];
            block[..chunk.len()].copy_from_slice(chunk);
            y = gf_mul(y ^ u128::from_be_bytes(block), self.h);
        }
        let bits = 8 * data.len() as u64;
        gf_mul(y ^ u128::from(bits), self.h).to_be_bytes()
    }
}

/// `x · y` in GF(2¹²⁸) by SP 800-38D's Algorithm 1, on blocks read
/// big-endian: bit 127 is the coefficient of x⁰, bit 0 that of x¹²⁷, and
/// the field polynomial is x¹²⁸ + x⁷ + x² + x + 1. Masks stand in for
/// the algorithm's two branches.
fn gf_mul(x: u128, y: u128) -> u128 {
    const R: u128 = 0xe1 << 120;
    let (mut z, mut v) = (0u128, y);
    for i in (0..128).rev() {
        z ^= v & ((x >> i) & 1).wrapping_neg();
        v = (v >> 1) ^ (R & (v & 1).wrapping_neg());
    }
    z
}

/// The carry-less backend. Registers hold byte-reflected blocks, in which
/// bit `i` is the coefficient of x¹²⁷⁻ⁱ.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use core::arch::x86_64::{
        __m128i, _mm_clmulepi64_si128, _mm_cvtsi128_si64, _mm_or_si128, _mm_set_epi64x,
        _mm_set_epi8, _mm_setzero_si128, _mm_shuffle_epi8, _mm_slli_epi32, _mm_slli_si128,
        _mm_srli_epi32, _mm_srli_si128, _mm_unpackhi_epi64, _mm_xor_si128,
    };

    /// Blocks aggregated per reduction.
    const AGG: usize = 8;

    /// H¹…H⁸, byte-reflected: `0[i]` is Hⁱ⁺¹.
    #[derive(Clone)]
    pub(super) struct Powers([__m128i; AGG]);

    impl Powers {
        /// Computes the powers of `h`, or returns `None` when the CPU
        /// lacks `PCLMULQDQ` or SSSE3. A `Powers` is thus proof of both.
        pub(super) fn new(h: &[u8; 16]) -> Option<Self> {
            if !(std::arch::is_x86_feature_detected!("pclmulqdq")
                && std::arch::is_x86_feature_detected!("ssse3"))
            {
                return None;
            }
            // SAFETY: both features the callee enables were detected
            // just above.
            #[allow(unsafe_code)]
            Some(unsafe { powers(h) })
        }
    }

    /// Loads a block byte-reflected: register byte `i` is block byte
    /// `15 − i`.
    #[inline]
    #[target_feature(enable = "ssse3")]
    fn load(block: &[u8]) -> __m128i {
        let block: &[u8; 16] = block.try_into().expect("16-byte block");
        let v = u128::from_le_bytes(*block);
        let reverse = _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
        _mm_shuffle_epi8(_mm_set_epi64x((v >> 64) as i64, v as i64), reverse)
    }

    /// Stores a byte-reflected register back in block order.
    #[inline]
    #[target_feature(enable = "ssse3")]
    fn store(v: __m128i) -> [u8; 16] {
        let reverse = _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
        let v = _mm_shuffle_epi8(v, reverse);
        let lo = _mm_cvtsi128_si64(v) as u64;
        let hi = _mm_cvtsi128_si64(_mm_unpackhi_epi64(v, v)) as u64;
        ((u128::from(hi) << 64) | u128::from(lo)).to_le_bytes()
    }

    /// One unreduced product `a · b`, added into the low, middle and
    /// high 128-bit accumulators with four `PCLMULQDQ`.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn mul_into(acc: &mut [__m128i; 3], a: __m128i, b: __m128i) {
        acc[0] = _mm_xor_si128(acc[0], _mm_clmulepi64_si128::<0x00>(a, b));
        acc[1] = _mm_xor_si128(acc[1], _mm_clmulepi64_si128::<0x01>(a, b));
        acc[1] = _mm_xor_si128(acc[1], _mm_clmulepi64_si128::<0x10>(a, b));
        acc[2] = _mm_xor_si128(acc[2], _mm_clmulepi64_si128::<0x11>(a, b));
    }

    /// Folds the accumulators into the 256-bit product, shifts it left
    /// one bit (the reflected operands leave it one bit short) and
    /// reduces it modulo x¹²⁸ + x⁷ + x² + x + 1, following the white
    /// paper's `gfmul`.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn reduce([lo, mid, hi]: [__m128i; 3]) -> __m128i {
        let lo = _mm_xor_si128(lo, _mm_slli_si128::<8>(mid));
        let hi = _mm_xor_si128(hi, _mm_srli_si128::<8>(mid));
        // The 256-bit shift, 32-bit lane by lane with the carries moved
        // across lanes.
        let lo_carry = _mm_srli_epi32::<31>(lo);
        let hi_carry = _mm_srli_epi32::<31>(hi);
        let lo = _mm_or_si128(_mm_slli_epi32::<1>(lo), _mm_slli_si128::<4>(lo_carry));
        let hi = _mm_or_si128(_mm_slli_epi32::<1>(hi), _mm_slli_si128::<4>(hi_carry));
        let hi = _mm_or_si128(hi, _mm_srli_si128::<12>(lo_carry));
        // First phase: fold the low half's x¹²⁸ multiples back with the
        // polynomial's x⁷, x² and x terms.
        let t = _mm_xor_si128(
            _mm_xor_si128(_mm_slli_epi32::<31>(lo), _mm_slli_epi32::<30>(lo)),
            _mm_slli_epi32::<25>(lo),
        );
        let spill = _mm_srli_si128::<4>(t);
        let lo = _mm_xor_si128(lo, _mm_slli_si128::<12>(t));
        // Second phase.
        let t = _mm_xor_si128(
            _mm_xor_si128(_mm_srli_epi32::<1>(lo), _mm_srli_epi32::<2>(lo)),
            _mm_xor_si128(_mm_srli_epi32::<7>(lo), spill),
        );
        _mm_xor_si128(hi, _mm_xor_si128(lo, t))
    }

    #[target_feature(enable = "pclmulqdq,ssse3")]
    fn powers(h: &[u8; 16]) -> Powers {
        let h = load(h);
        let mut p = [h; AGG];
        for i in 1..AGG {
            let mut acc = [_mm_setzero_si128(); 3];
            mul_into(&mut acc, p[i - 1], h);
            p[i] = reduce(acc);
        }
        Powers(p)
    }

    /// Folds `blocks`, one to eight whole blocks, into `y`:
    /// `(y ⊕ X₁)·Hⁿ ⊕ X₂·Hⁿ⁻¹ ⊕ … ⊕ Xₙ·H`, with one reduction.
    #[inline]
    #[target_feature(enable = "pclmulqdq,ssse3")]
    fn absorb(p: &Powers, y: __m128i, blocks: &[u8]) -> __m128i {
        let n = blocks.len() / 16;
        let mut acc = [_mm_setzero_si128(); 3];
        for (i, block) in blocks.chunks_exact(16).enumerate() {
            let x = if i == 0 {
                _mm_xor_si128(load(block), y)
            } else {
                load(block)
            };
            mul_into(&mut acc, x, p.0[n - 1 - i]);
        }
        reduce(acc)
    }

    /// `Ghash::sum` on carry-less multiplies. Whole eight-block runs are
    /// read where they lie; the rest, zero-padded, and the length block
    /// go through a small buffer.
    #[target_feature(enable = "pclmulqdq,ssse3")]
    pub(super) fn sum(p: &Powers, data: &[u8]) -> [u8; 16] {
        let mut y = _mm_setzero_si128();
        let mut runs = data.chunks_exact(16 * AGG);
        for run in &mut runs {
            y = absorb(p, y, run);
        }
        let rest = runs.remainder();
        let mut tail = [0u8; 16 * (AGG + 1)];
        tail[..rest.len()].copy_from_slice(rest);
        let end = 16 * (rest.len().div_ceil(16) + 1);
        tail[end - 8..end].copy_from_slice(&(8 * data.len() as u64).to_be_bytes());
        for run in tail[..end].chunks(16 * AGG) {
            y = absorb(p, y, run);
        }
        store(y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The carry-less path, or `None` with a note when the CPU lacks it.
    fn hardware(h: &[u8; 16]) -> Option<Ghash> {
        let g = Ghash::new(h);
        #[cfg(target_arch = "x86_64")]
        if g.clmul.is_some() {
            return Some(g);
        }
        static NOTE: std::sync::Once = std::sync::Once::new();
        NOTE.call_once(|| eprintln!("no PCLMULQDQ on this CPU: skipping the hardware-path checks"));
        None
    }

    /// Algorithm 1 against the field's definition: H · 1 = H (1 is the
    /// block with only its first bit set), and x · x¹²⁷ wraps to the
    /// reduction polynomial's low terms, x⁷ + x² + x + 1.
    #[test]
    fn bitwise_multiply_follows_the_field() {
        let one = 1u128 << 127;
        let h = 0x66e9_4bd4_ef8a_2c3b_884c_fa59_ca34_2b2eu128;
        assert_eq!(gf_mul(h, one), h);
        assert_eq!(gf_mul(one, h), h);
        assert_eq!(gf_mul(1 << 126, 1), 0xe1 << 120);
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn hardware_path_follows_cpu_detection() {
        let g = Ghash::new(&[7; 16]);
        let detected = std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("ssse3");
        assert_eq!(g.clmul.is_some(), detected);
        assert!(Ghash::portable(&[7; 16]).clmul.is_none());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        /// The carry-less path equals Algorithm 1 under any key, at every
        /// length from 0 to 300 bytes: whole eight-block runs, every tail
        /// and the length block's own run.
        #[test]
        fn prop_hardware_matches_bitwise(
            h in any::<[u8; 16]>(),
            data in proptest::collection::vec(any::<u8>(), 300),
        ) {
            if let Some(hw) = hardware(&h) {
                let bitwise = Ghash::portable(&h);
                for len in 0..=data.len() {
                    prop_assert_eq!(hw.sum(&data[..len]), bitwise.sum(&data[..len]), "len {}", len);
                }
            }
        }
    }
}
