//! AES-CMAC (RFC 4493).
//!
//! The paper's neutralizer derives the per-source symmetric key as
//! `Ks = hash(KM, nonce, srcIP)` (§3.2) using "128-bit AES for both hashing
//! and encryption" (§4). CMAC is exactly that: a keyed hash built from the
//! AES block cipher, so one CMAC invocation costs a couple of AES block
//! operations — the cost model the evaluation depends on.

use crate::aes::Aes128;

/// Doubling in GF(2^128) with the CMAC polynomial constant 0x87.
fn dbl(block: &[u8; 16]) -> [u8; 16] {
    let mut out = [0u8; 16];
    let mut carry = 0u8;
    for i in (0..16).rev() {
        let b = block[i];
        out[i] = (b << 1) | carry;
        carry = b >> 7;
    }
    if carry != 0 {
        out[15] ^= 0x87;
    }
    out
}

/// AES-CMAC context with precomputed subkeys.
#[derive(Clone)]
pub struct Cmac {
    cipher: Aes128,
    k1: [u8; 16],
    k2: [u8; 16],
}

impl core::fmt::Debug for Cmac {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str("Cmac(<subkeys>)")
    }
}

impl Cmac {
    /// Derives the CMAC subkeys from an AES-128 key.
    pub fn new(key: &[u8; 16]) -> Self {
        let cipher = Aes128::new(key);
        let l = cipher.encrypt_copy(&[0u8; 16]);
        let k1 = dbl(&l);
        let k2 = dbl(&k1);
        Cmac { cipher, k1, k2 }
    }

    /// Computes the 128-bit tag over `msg`.
    pub fn tag(&self, msg: &[u8]) -> [u8; 16] {
        self.tag_parts(&[msg])
    }

    /// Computes the tag over the logical concatenation of `parts`
    /// without materializing it. `tag_parts(&[a, b])` equals
    /// `tag(a ++ b)` for any split, which lets callers (record
    /// seal/open, key derivation) tag `header || payload` messages
    /// allocation-free.
    ///
    /// Whole blocks are absorbed straight out of each part through one
    /// [`Aes128::cbc_mac`] call; only a block that straddles two parts
    /// is copied together first.
    pub fn tag_parts(&self, parts: &[&[u8]]) -> [u8; 16] {
        let mut x = [0u8; 16];
        let mut buf = [0u8; 16];
        // Bytes buffered in `buf`. A full buffer is held back, not yet
        // absorbed: CMAC treats the final block specially, so a block
        // may only be absorbed once more data proves it is not last.
        let mut fill = 0usize;
        for mut part in parts.iter().copied() {
            if part.is_empty() {
                continue;
            }
            if fill > 0 {
                if fill < 16 {
                    let take = (16 - fill).min(part.len());
                    buf[fill..fill + take].copy_from_slice(&part[..take]);
                    fill += take;
                    part = &part[take..];
                    if part.is_empty() {
                        continue;
                    }
                }
                self.cipher.cbc_mac(&mut x, &buf);
            }
            // Absorb every whole block but the part's last (complete or
            // partial) one, which is held back in `buf`.
            fill = match part.len() % 16 {
                0 => 16,
                rest => rest,
            };
            let (body, last) = part.split_at(part.len() - fill);
            self.cipher.cbc_mac(&mut x, body);
            buf[..fill].copy_from_slice(last);
        }
        // Last block, masked with K1 (complete) or padded and masked with K2.
        let mut last = [0u8; 16];
        if fill == 16 {
            last = buf;
            xor_block(&mut last, &self.k1);
        } else {
            last[..fill].copy_from_slice(&buf[..fill]);
            last[fill] = 0x80;
            xor_block(&mut last, &self.k2);
        }
        self.cipher.cbc_mac(&mut x, &last);
        x
    }

    /// Constant-shape tag verification.
    pub fn verify(&self, msg: &[u8], tag: &[u8; 16]) -> bool {
        self.verify_parts(&[msg], tag)
    }

    /// [`verify`](Self::verify) over a logical concatenation of parts.
    pub fn verify_parts(&self, parts: &[&[u8]], tag: &[u8; 16]) -> bool {
        let expect = self.tag_parts(parts);
        let mut diff = 0u8;
        for i in 0..16 {
            diff |= expect[i] ^ tag[i];
        }
        diff == 0
    }
}

#[inline]
fn xor_block(dst: &mut [u8; 16], src: &[u8; 16]) {
    for (d, s) in dst.iter_mut().zip(src.iter()) {
        *d ^= s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    fn rfc_key() -> [u8; 16] {
        hex("2b7e151628aed2a6abf7158809cf4f3c").try_into().unwrap()
    }

    fn rfc_msg() -> Vec<u8> {
        hex(concat!(
            "6bc1bee22e409f96e93d7e117393172a",
            "ae2d8a571e03ac9c9eb76fac45af8e51",
            "30c81c46a35ce411e5fbc1191a0a52ef",
            "f69f2445df4f9b17ad2b417be66c3710"
        ))
    }

    #[test]
    fn rfc4493_subkeys() {
        let c = Cmac::new(&rfc_key());
        assert_eq!(c.k1.to_vec(), hex("fbeed618357133667c85e08f7236a8de"));
        assert_eq!(c.k2.to_vec(), hex("f7ddac306ae266ccf90bc11ee46d513b"));
    }

    #[test]
    fn rfc4493_example_1_empty() {
        let c = Cmac::new(&rfc_key());
        assert_eq!(c.tag(b"").to_vec(), hex("bb1d6929e95937287fa37d129b756746"));
    }

    #[test]
    fn rfc4493_example_2_one_block() {
        let c = Cmac::new(&rfc_key());
        assert_eq!(
            c.tag(&rfc_msg()[..16]).to_vec(),
            hex("070a16b46b4d4144f79bdd9dd04a287c")
        );
    }

    #[test]
    fn rfc4493_example_3_40_bytes() {
        let c = Cmac::new(&rfc_key());
        assert_eq!(
            c.tag(&rfc_msg()[..40]).to_vec(),
            hex("dfa66747de9ae63030ca32611497c827")
        );
    }

    #[test]
    fn rfc4493_example_4_64_bytes() {
        let c = Cmac::new(&rfc_key());
        assert_eq!(
            c.tag(&rfc_msg()).to_vec(),
            hex("51f0bebf7e3b9d92fc49741779363cfe")
        );
    }

    #[test]
    fn verify_accepts_and_rejects() {
        let c = Cmac::new(&[7u8; 16]);
        let msg = b"the neutralizer blurs packets";
        let tag = c.tag(msg);
        assert!(c.verify(msg, &tag));
        let mut bad = tag;
        bad[0] ^= 1;
        assert!(!c.verify(msg, &bad));
        assert!(!c.verify(b"different message", &tag));
    }

    #[test]
    fn length_extension_blocked_by_subkeys() {
        // Messages that differ only by zero-padding must not collide.
        let c = Cmac::new(&[9u8; 16]);
        let a = c.tag(&[1, 2, 3]);
        let b = c.tag(&[1, 2, 3, 0]);
        assert_ne!(a, b);
    }

    #[test]
    fn tag_parts_matches_tag_at_every_split() {
        let c = Cmac::new(&rfc_key());
        let msg = rfc_msg();
        for cut in 0..=msg.len() {
            let (a, b) = msg.split_at(cut);
            assert_eq!(c.tag_parts(&[a, b]), c.tag(&msg), "cut={cut}");
        }
        assert_eq!(c.tag_parts(&[]), c.tag(b""));
        assert_eq!(c.tag_parts(&[b"", &msg, b""]), c.tag(&msg));
    }

    #[test]
    fn verify_parts_roundtrip() {
        let c = Cmac::new(&[4u8; 16]);
        let tag = c.tag_parts(&[b"head", b"tail"]);
        assert!(c.verify_parts(&[b"head", b"tail"], &tag));
        assert!(c.verify(b"headtail", &tag));
        assert!(!c.verify_parts(&[b"head", b"tale"], &tag));
    }

    proptest! {
        #[test]
        fn prop_tag_parts_matches_concat(
            key in any::<[u8;16]>(),
            parts in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..40), 0..5),
        ) {
            let c = Cmac::new(&key);
            let concat: Vec<u8> = parts.iter().flatten().copied().collect();
            let views: Vec<&[u8]> = parts.iter().map(|p| p.as_slice()).collect();
            prop_assert_eq!(c.tag_parts(&views), c.tag(&concat));
        }

        #[test]
        fn prop_cached_context_matches_fresh(
            key in any::<[u8;16]>(),
            msgs in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..48), 1..6),
        ) {
            // A long-lived context (cached subkeys) must tag exactly like
            // a context derived fresh for every message.
            let cached = Cmac::new(&key);
            for m in &msgs {
                prop_assert_eq!(cached.tag(m), Cmac::new(&key).tag(m));
            }
        }

        #[test]
        fn prop_distinct_messages_distinct_tags(
            key in any::<[u8;16]>(),
            m1 in proptest::collection::vec(any::<u8>(), 0..64),
            m2 in proptest::collection::vec(any::<u8>(), 0..64),
        ) {
            prop_assume!(m1 != m2);
            let c = Cmac::new(&key);
            prop_assert_ne!(c.tag(&m1), c.tag(&m2));
        }

        #[test]
        fn prop_tag_deterministic(key in any::<[u8;16]>(), m in proptest::collection::vec(any::<u8>(), 0..96)) {
            let c = Cmac::new(&key);
            prop_assert_eq!(c.tag(&m), c.tag(&m));
            prop_assert!(c.verify(&m, &c.tag(&m)));
        }
    }
}
