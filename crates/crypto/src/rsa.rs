//! RSA with the paper's parameter choices.
//!
//! §3.2: sources mint a *short, one-time* 512-bit RSA key per connection and
//! send it to the neutralizer; the neutralizer performs the cheap
//! *encryption* (e = 3: two modular multiplications) while the source pays
//! for the expensive decryption. End-to-end protection uses ordinary
//! 1024-bit keys. Decryption uses the CRT.
//!
//! Padding is PKCS#1-v1.5-shaped (`00 02 <random nonzero> 00 <msg>`): enough
//! structure for the simulator to detect corruption, not a claim of
//! contemporary cryptographic strength — the paper itself argues the
//! 512-bit key only needs to survive two round-trip times.

use crate::biguint::BigUint;
use crate::error::{CryptoError, Result};
use crate::modexp::Montgomery;
use crate::prime::gen_prime;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Fixed public exponent. The paper calls out e = 3 so that an RSA
/// encryption "may involve as few as two multiplications".
pub const PUBLIC_EXPONENT: u64 = 3;

/// Minimum random padding bytes in an encryption block.
const MIN_PAD: usize = 8;

/// RSA public key (modulus + implicit exponent 3).
#[derive(Clone)]
pub struct RsaPublicKey {
    n: BigUint,
    /// Modulus size in bytes; every ciphertext is exactly this long.
    k: usize,
    /// Montgomery context for `n`, precomputed once per key so the
    /// per-packet encrypt path skips the R² setup division.
    mont: Montgomery,
}

impl PartialEq for RsaPublicKey {
    fn eq(&self, other: &Self) -> bool {
        // The Montgomery context is derived from (n, k); ignore it.
        self.n == other.n && self.k == other.k
    }
}

impl Eq for RsaPublicKey {}

impl core::fmt::Debug for RsaPublicKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "RsaPublicKey({} bits)", self.k * 8)
    }
}

/// RSA private key with CRT acceleration parameters.
#[derive(Clone)]
pub struct RsaPrivateKey {
    public: RsaPublicKey,
    p: BigUint,
    q: BigUint,
    dp: BigUint,
    dq: BigUint,
    qinv: BigUint,
    /// Montgomery contexts for the CRT primes, precomputed once per key.
    mp: Montgomery,
    mq: Montgomery,
}

impl core::fmt::Debug for RsaPrivateKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "RsaPrivateKey({} bits)", self.public.k * 8)
    }
}

/// A freshly generated keypair.
#[derive(Clone, Debug)]
pub struct RsaKeypair {
    /// The shareable encryption key.
    pub public: RsaPublicKey,
    /// The decryption key, held by the key's minter only.
    pub private: RsaPrivateKey,
}

/// Forks a dedicated keygen RNG off `parent` with exactly one draw.
///
/// Prime search consumes a data-dependent number of random values — how
/// many candidates it rejects depends on where the sieve window lands —
/// so feeding `generate_keypair` a simulation RNG directly would advance
/// that stream by an amount that changes whenever keygen internals
/// change, perturbing every downstream draw. Forking through a single
/// `u64` seed pins the parent's advance to one draw regardless of
/// rejection count, keeping simulation traces (and goldens) invariant to
/// prime-search implementation details.
pub fn keygen_rng<R: Rng + ?Sized>(parent: &mut R) -> StdRng {
    StdRng::seed_from_u64(parent.gen())
}

/// Generates an RSA keypair with modulus of exactly `bits` bits (e = 3).
///
/// `bits = 512` reproduces the paper's one-time short keys; `bits = 1024`
/// the end-to-end keys. Primes are constrained so gcd(e, φ(n)) = 1.
pub fn generate_keypair<R: Rng + ?Sized>(rng: &mut R, bits: usize) -> RsaKeypair {
    assert!(
        bits >= 128 && bits.is_multiple_of(2),
        "modulus must be an even bit count of at least 128"
    );
    let e = BigUint::from_u64(PUBLIC_EXPONENT);
    loop {
        let p = gen_prime(rng, bits / 2, true, Some(&e));
        let q = gen_prime(rng, bits / 2, true, Some(&e));
        if p == q {
            continue;
        }
        let n = p.mul(&q);
        debug_assert_eq!(n.bit_len(), bits, "two-top-bit primes give full-size n");
        let one = BigUint::one();
        let pm1 = p.sub(&one);
        let qm1 = q.sub(&one);
        let phi = pm1.mul(&qm1);
        let d = match e.mod_inverse(&phi) {
            Some(d) => d,
            None => continue, // cannot happen given the coprime constraint
        };
        let dp = d.rem(&pm1);
        let dq = d.rem(&qm1);
        let qinv = match q.mod_inverse(&p) {
            Some(v) => v,
            None => continue, // p == q was excluded, so this cannot happen
        };
        let mont = Montgomery::new(&n);
        let public = RsaPublicKey {
            n,
            k: bits / 8,
            mont,
        };
        let mp = Montgomery::new(&p);
        let mq = Montgomery::new(&q);
        return RsaKeypair {
            private: RsaPrivateKey {
                public: public.clone(),
                p,
                q,
                dp,
                dq,
                qinv,
                mp,
                mq,
            },
            public,
        };
    }
}

impl RsaPublicKey {
    /// Modulus size in bits.
    pub fn modulus_bits(&self) -> usize {
        self.k * 8
    }

    /// Largest plaintext accepted by [`encrypt`](Self::encrypt).
    pub fn max_plaintext_len(&self) -> usize {
        self.k.saturating_sub(3 + MIN_PAD)
    }

    /// Raw RSA: `m^3 mod n`. `m` must be below the modulus.
    pub fn encrypt_raw(&self, m: &BigUint) -> Result<BigUint> {
        if m >= &self.n {
            return Err(CryptoError::MessageTooLong);
        }
        // e = 3: square then multiply — the two multiplications of §3.2.
        Ok(self.mont.pow(m, &BigUint::from_u64(PUBLIC_EXPONENT)))
    }

    /// Pads and encrypts `msg`; output is exactly the modulus length in
    /// bytes.
    pub fn encrypt<R: Rng + ?Sized>(&self, rng: &mut R, msg: &[u8]) -> Result<Vec<u8>> {
        if msg.len() > self.max_plaintext_len() {
            return Err(CryptoError::MessageTooLong);
        }
        // 00 02 PS 00 MSG with PS random non-zero.
        let pad_len = self.k - 3 - msg.len();
        let mut block = Vec::with_capacity(self.k);
        block.push(0x00);
        block.push(0x02);
        for _ in 0..pad_len {
            loop {
                let b: u8 = rng.gen();
                if b != 0 {
                    block.push(b);
                    break;
                }
            }
        }
        block.push(0x00);
        block.extend_from_slice(msg);
        let m = BigUint::from_bytes_be(&block);
        let c = self.encrypt_raw(&m)?;
        c.to_bytes_be_padded(self.k).ok_or(CryptoError::BadLength)
    }

    /// Serializes the public key for the wire: 2-byte length then modulus.
    pub fn to_wire(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(2 + self.k);
        out.extend_from_slice(&(self.k as u16).to_be_bytes());
        out.extend_from_slice(&self.n.to_bytes_be_padded(self.k).expect("n fits k"));
        out
    }

    /// Parses a wire-format public key; rejects structurally absurd keys.
    pub fn from_wire(bytes: &[u8]) -> Result<(Self, usize)> {
        if bytes.len() < 2 {
            return Err(CryptoError::BadKey);
        }
        let k = u16::from_be_bytes([bytes[0], bytes[1]]) as usize;
        if !(16..=1024).contains(&k) || bytes.len() < 2 + k {
            return Err(CryptoError::BadKey);
        }
        let n = BigUint::from_bytes_be(&bytes[2..2 + k]);
        if n.bit_len() != k * 8 || n.is_even() {
            return Err(CryptoError::BadKey);
        }
        let mont = Montgomery::new(&n);
        Ok((RsaPublicKey { n, k, mont }, 2 + k))
    }

    /// The modulus.
    pub fn modulus(&self) -> &BigUint {
        &self.n
    }
}

impl RsaPrivateKey {
    /// The matching public key.
    pub fn public(&self) -> &RsaPublicKey {
        &self.public
    }

    /// Raw CRT decryption: `c^d mod n` via the two prime-sized exponents.
    pub fn decrypt_raw(&self, c: &BigUint) -> Result<BigUint> {
        if c >= &self.public.n {
            return Err(CryptoError::BadPadding);
        }
        let m1 = self.mp.pow(c, &self.dp);
        let m2 = self.mq.pow(c, &self.dq);
        // h = qinv * (m1 - m2) mod p, lifting m2 into Z_p first.
        let m2_mod_p = m2.rem(&self.p);
        let diff = if m1 >= m2_mod_p {
            m1.sub(&m2_mod_p)
        } else {
            m1.add(&self.p).sub(&m2_mod_p)
        };
        let h = self.mp.mul_mod(&self.qinv, &diff);
        Ok(m2.add(&h.mul(&self.q)))
    }

    /// Decrypts and strips padding.
    pub fn decrypt(&self, ciphertext: &[u8]) -> Result<Vec<u8>> {
        if ciphertext.len() != self.public.k {
            return Err(CryptoError::BadLength);
        }
        let c = BigUint::from_bytes_be(ciphertext);
        let m = self.decrypt_raw(&c)?;
        let block = m
            .to_bytes_be_padded(self.public.k)
            .ok_or(CryptoError::BadPadding)?;
        if block[0] != 0x00 || block[1] != 0x02 {
            return Err(CryptoError::BadPadding);
        }
        // Find the 00 separator after at least MIN_PAD padding bytes.
        let sep = block[2..]
            .iter()
            .position(|&b| b == 0)
            .ok_or(CryptoError::BadPadding)?;
        if sep < MIN_PAD {
            return Err(CryptoError::BadPadding);
        }
        Ok(block[2 + sep + 1..].to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn keypair(bits: usize, seed: u64) -> RsaKeypair {
        let mut rng = StdRng::seed_from_u64(seed);
        generate_keypair(&mut rng, bits)
    }

    #[test]
    fn roundtrip_256() {
        let kp = keypair(256, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let msg = b"hello neutralizer";
        let ct = kp.public.encrypt(&mut rng, msg).unwrap();
        assert_eq!(ct.len(), 32);
        assert_eq!(kp.private.decrypt(&ct).unwrap(), msg);
    }

    #[test]
    fn roundtrip_512_paper_size() {
        let kp = keypair(512, 3);
        assert_eq!(kp.public.modulus_bits(), 512);
        let mut rng = StdRng::seed_from_u64(4);
        // nonce (8) + symmetric key (16): the §3.2 key-setup payload.
        let msg = [0xabu8; 24];
        let ct = kp.public.encrypt(&mut rng, &msg).unwrap();
        assert_eq!(ct.len(), 64);
        assert_eq!(kp.private.decrypt(&ct).unwrap(), msg);
    }

    #[test]
    fn empty_message_roundtrips() {
        let kp = keypair(256, 5);
        let mut rng = StdRng::seed_from_u64(6);
        let ct = kp.public.encrypt(&mut rng, b"").unwrap();
        assert_eq!(kp.private.decrypt(&ct).unwrap(), b"");
    }

    #[test]
    fn oversized_message_rejected() {
        let kp = keypair(256, 7);
        let mut rng = StdRng::seed_from_u64(8);
        let too_long = vec![0u8; kp.public.max_plaintext_len() + 1];
        assert_eq!(
            kp.public.encrypt(&mut rng, &too_long),
            Err(CryptoError::MessageTooLong)
        );
        let exactly = vec![0x55u8; kp.public.max_plaintext_len()];
        let ct = kp.public.encrypt(&mut rng, &exactly).unwrap();
        assert_eq!(kp.private.decrypt(&ct).unwrap(), exactly);
    }

    #[test]
    fn corrupted_ciphertext_detected() {
        let kp = keypair(256, 9);
        let mut rng = StdRng::seed_from_u64(10);
        let mut ct = kp.public.encrypt(&mut rng, b"payload").unwrap();
        ct[5] ^= 0xff;
        // Either the padding breaks or the message changes; padding failure
        // is overwhelmingly likely and must not panic.
        match kp.private.decrypt(&ct) {
            Err(CryptoError::BadPadding) => {}
            Ok(m) => assert_ne!(m, b"payload"),
            Err(e) => panic!("unexpected error {e:?}"),
        }
    }

    #[test]
    fn wrong_length_ciphertext_rejected() {
        let kp = keypair(256, 11);
        assert_eq!(kp.private.decrypt(&[0u8; 31]), Err(CryptoError::BadLength));
        assert_eq!(kp.private.decrypt(&[0u8; 33]), Err(CryptoError::BadLength));
    }

    #[test]
    fn wire_roundtrip_and_rejects() {
        let kp = keypair(512, 12);
        let wire = kp.public.to_wire();
        let (parsed, used) = RsaPublicKey::from_wire(&wire).unwrap();
        assert_eq!(used, wire.len());
        assert_eq!(parsed, kp.public);

        assert_eq!(RsaPublicKey::from_wire(&[]), Err(CryptoError::BadKey));
        assert_eq!(RsaPublicKey::from_wire(&[0, 64]), Err(CryptoError::BadKey));
        // Even modulus rejected.
        let mut bad = wire.clone();
        *bad.last_mut().unwrap() &= 0xfe;
        assert_eq!(RsaPublicKey::from_wire(&bad), Err(CryptoError::BadKey));
    }

    #[test]
    fn raw_encrypt_rejects_large_message() {
        let kp = keypair(256, 13);
        assert_eq!(
            kp.public.encrypt_raw(kp.public.modulus()),
            Err(CryptoError::MessageTooLong)
        );
    }

    #[test]
    fn crt_decrypt_matches_plain_exponent() {
        // Verify CRT against straightforward c^d mod n on a small key.
        let mut rng = StdRng::seed_from_u64(14);
        let kp = generate_keypair(&mut rng, 128);
        let m = BigUint::from_u64(0xdead_beef_cafe);
        let c = kp.public.encrypt_raw(&m).unwrap();
        let via_crt = kp.private.decrypt_raw(&c).unwrap();
        assert_eq!(via_crt, m);
    }

    #[test]
    fn keypair_soundness_across_sizes() {
        for (bits, seed) in [(128usize, 21u64), (256, 22), (320, 23), (512, 24)] {
            let kp = keypair(bits, seed);
            // Top-two-bit forcing in both primes gives a full-width modulus.
            assert_eq!(kp.public.modulus().bit_len(), bits, "bits={bits}");
            assert_eq!(kp.public.modulus_bits(), bits);
            assert_eq!(kp.private.p.bit_len(), bits / 2);
            assert_eq!(kp.private.q.bit_len(), bits / 2);
            assert_ne!(kp.private.p, kp.private.q, "bits={bits}");
            // Encrypt → CRT-decrypt round-trips (128-bit keys only fit a
            // few plaintext bytes; clamp to what the modulus allows).
            let mut rng = StdRng::seed_from_u64(seed ^ 0xffff);
            let msg = vec![0x5au8; kp.public.max_plaintext_len().min(9)];
            let ct = kp.public.encrypt(&mut rng, &msg).unwrap();
            assert_eq!(kp.private.decrypt(&ct).unwrap(), msg, "bits={bits}");
        }
    }

    #[test]
    fn fixed_seed_keygen_vector_pinned() {
        // Pinned vector: any future refactor that claims bit-identical
        // keygen (same RNG consumption, same candidate walk) must keep
        // this modulus; an intentional change regenerates it.
        let kp = keypair(512, 0xA11CE);
        let n_hex: String = kp
            .public
            .modulus()
            .to_bytes_be()
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(
            n_hex,
            "b43c31a76e9ac18dbe3bd3354fea4ca888cbc2f597d3f9c1601e2250f2661d4d\
             425fcc598b722d80783292b05c11db7795b0548ca7e5a7235620aed9960cad15",
        );
    }

    /// Counts draws so tests can observe RNG stream advancement.
    struct CountingRng {
        inner: StdRng,
        draws: u64,
    }

    impl rand::RngCore for CountingRng {
        fn next_u64(&mut self) -> u64 {
            self.draws += 1;
            self.inner.next_u64()
        }
    }

    #[test]
    fn keygen_rng_pins_parent_advance_to_one_draw() {
        // Different key sizes reject different numbers of candidates —
        // verify that variance exists, then verify none of it reaches
        // the parent stream: both parents advance exactly one draw and
        // stay in lockstep afterwards.
        let mut parent_a = CountingRng {
            inner: StdRng::seed_from_u64(77),
            draws: 0,
        };
        let mut parent_b = CountingRng {
            inner: StdRng::seed_from_u64(77),
            draws: 0,
        };
        let mut sub_a = keygen_rng(&mut parent_a);
        let mut sub_b = keygen_rng(&mut parent_b);
        assert_eq!(parent_a.draws, 1);
        assert_eq!(parent_b.draws, 1);

        let mut count_a = CountingRng {
            inner: sub_a.clone(),
            draws: 0,
        };
        let mut count_b = CountingRng {
            inner: sub_b.clone(),
            draws: 0,
        };
        let _ = generate_keypair(&mut count_a, 320);
        let _ = generate_keypair(&mut count_b, 512);
        assert_ne!(
            count_a.draws, count_b.draws,
            "key sizes should consume different draw counts for the \
             lockstep assertion below to mean anything"
        );
        let _ = generate_keypair(&mut sub_a, 320);
        let _ = generate_keypair(&mut sub_b, 512);

        assert_eq!(parent_a.draws, 1, "keygen must not touch the parent");
        assert_eq!(parent_b.draws, 1);
        for _ in 0..64 {
            assert_eq!(
                parent_a.inner.gen::<u64>(),
                parent_b.inner.gen::<u64>(),
                "parent streams must stay in lockstep regardless of \
                 keygen rejection count"
            );
        }
    }

    /// Checks [`RsaPublicKey::from_wire`] on one input, which may come
    /// from any sender (the neutralizer parses a source's one-time key
    /// out of a key-setup frame). The parse gives `BadKey`, or a key
    /// that used exactly `2 + k` bytes for the length field `k` and
    /// re-encodes to them. It accepts exactly the well-formed encodings:
    /// `k` in 16–1024, `k` modulus bytes present, the top bit set and
    /// the modulus odd.
    fn check_from_wire(bytes: &[u8]) -> std::result::Result<(), TestCaseError> {
        let k = bytes
            .get(..2)
            .map(|b| usize::from(u16::from_be_bytes([b[0], b[1]])));
        let well_formed = k.is_some_and(|k| {
            (16..=1024).contains(&k)
                && bytes.len() >= 2 + k
                && bytes[2] & 0x80 != 0
                && bytes[1 + k] & 1 == 1
        });
        match RsaPublicKey::from_wire(bytes) {
            Err(e) => {
                prop_assert_eq!(e, CryptoError::BadKey);
                prop_assert!(!well_formed, "rejected a well-formed key: {bytes:02x?}");
            }
            Ok((key, used)) => {
                prop_assert!(well_formed, "accepted a malformed key: {bytes:02x?}");
                prop_assert_eq!(Some(used), k.map(|k| 2 + k));
                prop_assert_eq!(&key.to_wire()[..], &bytes[..used]);
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        #[test]
        fn prop_roundtrip_random_messages(seed in any::<u64>(), msg in proptest::collection::vec(any::<u8>(), 0..20)) {
            let mut rng = StdRng::seed_from_u64(seed);
            // Key generation is the expensive part; a small modulus keeps
            // the property test fast while covering the same code paths.
            let kp = generate_keypair(&mut rng, 256);
            let ct = kp.public.encrypt(&mut rng, &msg).unwrap();
            prop_assert_eq!(kp.private.decrypt(&ct).unwrap(), msg);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]
        /// Arbitrary bytes, then a near-valid encoding: a length field
        /// of 16–96 (or any `u16`), random modulus bytes with the top
        /// and the low bit each forced on or left as drawn, then cut
        /// short, left exact or followed by trailing bytes.
        #[test]
        fn prop_from_wire_accepts_exactly_well_formed_keys(
            noise in collection::vec(any::<u8>(), 0..120),
            shape in (16u16..97, any::<u16>(), 0u8..8),
            modulus in collection::vec(any::<u8>(), 96),
            end in (0u8..3, 1usize..8),
        ) {
            check_from_wire(&noise)?;

            let (short_len, any_len, flags) = shape;
            let k = if flags & 1 == 0 { short_len } else { any_len };
            let mut bytes = k.to_be_bytes().to_vec();
            bytes.extend_from_slice(&modulus[..modulus.len().min(usize::from(k))]);
            if bytes.len() > 2 {
                if flags & 2 != 0 {
                    bytes[2] |= 0x80;
                }
                if flags & 4 != 0 {
                    *bytes.last_mut().unwrap() |= 1;
                }
            }
            let (tail, n) = end;
            match tail {
                0 => bytes.truncate(bytes.len().saturating_sub(n)),
                1 => bytes.extend(noise.iter().take(n)),
                _ => {}
            }
            check_from_wire(&bytes)?;
        }
    }
}
