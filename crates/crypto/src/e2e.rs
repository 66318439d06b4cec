//! End-to-end encryption channel.
//!
//! §3.1 treats end-to-end encryption "as a black box" (e.g. IPsec). This
//! module is the box's concrete body, built the way IPsec's ESP
//! authenticates with AES-GCM (RFC 4106): RSA key transport under the
//! destination's published key, then AES-128-GCM (NIST SP 800-38D) for
//! confidentiality and integrity. A one-shot envelope carries the first
//! packet to a destination together with the wrapped session key; a
//! symmetric session seals every record after it. Cells mint 320- and
//! 512-bit destination keys. The destination also uses this channel to
//! return the neutralizer-stamped `(nonce', Ks')` pair of §3.2 to the
//! source.
//!
//! Each record or envelope is GCM under the IV `nonce ‖ 0³²`, so its
//! counter blocks are exactly [`Aes128::ctr_xor`]'s `nonce ‖ counter`,
//! with the data keystream from counter 2 and the tag mask `E_K(J0)` at
//! counter 1. There is no additional data. The tag is
//! `GHASH_H(C) ⊕ E_K(J0)` with `H = E_K(0¹²⁸)`, computed once per key.

use crate::aes::Aes128;
use crate::cmac::Cmac;
use crate::error::{CryptoError, Result};
use crate::ghash::Ghash;
use crate::rsa::{RsaPrivateKey, RsaPublicKey};
use rand::Rng;

/// Everything needed to decrypt a one-shot message: RSA-wrapped session
/// key, GCM nonce, ciphertext and GCM tag.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct E2eEnvelope {
    /// RSA ciphertext of the 16-byte session key.
    pub wrapped_key: Vec<u8>,
    /// GCM nonce: the IV is `nonce ‖ 0³²`.
    pub nonce: u64,
    /// AES-GCM ciphertext of the payload.
    pub ciphertext: Vec<u8>,
    /// GCM tag over the ciphertext. The nonce is bound through the IV:
    /// it picks both the keystream and the tag mask.
    pub tag: [u8; 16],
}

impl E2eEnvelope {
    /// Serializes for transport inside a packet payload.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out =
            Vec::with_capacity(2 + self.wrapped_key.len() + 8 + 4 + self.ciphertext.len() + 16);
        out.extend_from_slice(&(self.wrapped_key.len() as u16).to_be_bytes());
        out.extend_from_slice(&self.wrapped_key);
        out.extend_from_slice(&self.nonce.to_be_bytes());
        out.extend_from_slice(&(self.ciphertext.len() as u32).to_be_bytes());
        out.extend_from_slice(&self.ciphertext);
        out.extend_from_slice(&self.tag);
        out
    }

    /// Parses an envelope, rejecting truncated or oversized structures.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        if bytes.len() < 2 {
            return Err(CryptoError::BadLength);
        }
        let klen = u16::from_be_bytes([bytes[0], bytes[1]]) as usize;
        let mut off = 2;
        if bytes.len() < off + klen + 8 + 4 {
            return Err(CryptoError::BadLength);
        }
        let wrapped_key = bytes[off..off + klen].to_vec();
        off += klen;
        let nonce = u64::from_be_bytes(bytes[off..off + 8].try_into().unwrap());
        off += 8;
        let clen = u32::from_be_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
        off += 4;
        if bytes.len() != off + clen + 16 {
            return Err(CryptoError::BadLength);
        }
        let ciphertext = bytes[off..off + clen].to_vec();
        off += clen;
        let tag: [u8; 16] = bytes[off..off + 16].try_into().unwrap();
        Ok(E2eEnvelope {
            wrapped_key,
            nonce,
            ciphertext,
            tag,
        })
    }
}

/// Derives the GCM key from a session key.
fn gcm_key(session_key: &[u8; 16]) -> [u8; 16] {
    Cmac::new(session_key).tag(b"e2e-enc")
}

/// AES-128-GCM (NIST SP 800-38D) with a 96-bit IV, no additional data
/// and a 16-byte tag. The IV's first eight bytes are the CTR nonce and
/// its last four the high half of the CTR counter, so `J0` is counter
/// `iv_tail · 2³² + 1` under that nonce. The channel's IVs leave the tail
/// at 0. A record fits a packet, far below the 2³² blocks after which the
/// 64-bit counter would carry where GCM's 32-bit one wraps.
#[derive(Clone)]
struct Gcm {
    aes: Aes128,
    ghash: Ghash,
}

impl Gcm {
    fn new(key: &[u8; 16]) -> Self {
        let aes = Aes128::new(key);
        let ghash = Ghash::new(&aes.encrypt_copy(&[0; 16]));
        Gcm { aes, ghash }
    }

    /// The CTR nonce and the counter of `J0` for a 96-bit IV.
    fn j0(iv: &[u8; 12]) -> (u64, u64) {
        let nonce = u64::from_be_bytes(iv[..8].try_into().expect("8-byte nonce"));
        let tail = u32::from_be_bytes(iv[8..].try_into().expect("4-byte tail"));
        (nonce, (u64::from(tail) << 32) | 1)
    }

    /// Encrypts `data` in place and returns the tag: the keystream first,
    /// with `E_K(J0)` in its first batch, then GHASH over the fresh
    /// ciphertext.
    fn seal(&self, iv: &[u8; 12], data: &mut [u8]) -> [u8; 16] {
        let (nonce, j0) = Self::j0(iv);
        let mut mask = [0u8; 16];
        self.aes.ctr_xor(
            nonce,
            j0,
            data,
            Some(&mut |m: &[u8; 16]| {
                mask = *m;
                true
            }),
        );
        xor_block(self.ghash.sum(data), &mask)
    }

    /// Checks `tag` over the ciphertext `data`, then decrypts it in place.
    /// GHASH runs first, and the tag is compared against `E_K(J0)` before
    /// any keystream reaches `data`: on false, `data` is untouched.
    fn open(&self, iv: &[u8; 12], data: &mut [u8], tag: &[u8; 16]) -> bool {
        let (nonce, j0) = Self::j0(iv);
        let s = self.ghash.sum(data);
        self.aes.ctr_xor(
            nonce,
            j0,
            data,
            Some(&mut |mask: &[u8; 16]| tags_match(&xor_block(s, mask), tag)),
        )
    }
}

/// The channel's IV for `nonce`: `nonce ‖ 0³²`.
fn iv(nonce: u64) -> [u8; 12] {
    let mut iv = [0u8; 12];
    iv[..8].copy_from_slice(&nonce.to_be_bytes());
    iv
}

fn xor_block(a: [u8; 16], b: &[u8; 16]) -> [u8; 16] {
    (u128::from_ne_bytes(a) ^ u128::from_ne_bytes(*b)).to_ne_bytes()
}

/// Constant-shape tag comparison: every byte is read whatever differs.
fn tags_match(a: &[u8; 16], b: &[u8; 16]) -> bool {
    a.iter().zip(b).fold(0u8, |diff, (x, y)| diff | (x ^ y)) == 0
}

/// Encrypts `plaintext` to `recipient` as a one-shot envelope.
pub fn seal<R: Rng + ?Sized>(
    rng: &mut R,
    recipient: &RsaPublicKey,
    plaintext: &[u8],
) -> Result<E2eEnvelope> {
    let session_key: [u8; 16] = rng.gen();
    seal_keyed(rng, recipient, plaintext, &session_key)
}

/// Like [`seal`], but with a caller-chosen session key, so the sender can
/// keep using the key for a symmetric [`E2eSession`] afterwards.
pub fn seal_keyed<R: Rng + ?Sized>(
    rng: &mut R,
    recipient: &RsaPublicKey,
    plaintext: &[u8],
    session_key: &[u8; 16],
) -> Result<E2eEnvelope> {
    let nonce: u64 = rng.gen();
    let wrapped_key = recipient.encrypt(rng, session_key)?;
    let mut ciphertext = plaintext.to_vec();
    let tag = Gcm::new(&gcm_key(session_key)).seal(&iv(nonce), &mut ciphertext);
    Ok(E2eEnvelope {
        wrapped_key,
        nonce,
        ciphertext,
        tag,
    })
}

/// Opens a one-shot envelope; also returns the recovered session key so the
/// receiver can continue with a symmetric [`E2eSession`].
pub fn open(private: &RsaPrivateKey, env: &E2eEnvelope) -> Result<(Vec<u8>, [u8; 16])> {
    let key_bytes = private.decrypt(&env.wrapped_key)?;
    let session_key: [u8; 16] = key_bytes
        .as_slice()
        .try_into()
        .map_err(|_| CryptoError::BadKey)?;
    let plaintext = open_with_key(&session_key, env)?;
    Ok((plaintext, session_key))
}

/// Opens an envelope under a session key the receiver already holds,
/// skipping the RSA unwrap: `wrapped_key` is not read, and the GCM tag
/// alone decides. A receiver that recovered the key from an earlier
/// envelope of the same session opens repeats this way.
pub fn open_with_key(session_key: &[u8; 16], env: &E2eEnvelope) -> Result<Vec<u8>> {
    let mut plaintext = env.ciphertext.clone();
    if !Gcm::new(&gcm_key(session_key)).open(&iv(env.nonce), &mut plaintext, &env.tag) {
        return Err(CryptoError::AuthFailed);
    }
    Ok(plaintext)
}

/// An established symmetric channel: after the first envelope both ends
/// share `session_key` and exchange sealed records without public-key work.
#[derive(Clone)]
pub struct E2eSession {
    gcm: Gcm,
    /// Monotonic nonce for the sending direction.
    next_nonce: u64,
}

impl core::fmt::Debug for E2eSession {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str("E2eSession(<keys>)")
    }
}

/// Bytes a sealed record carries before its ciphertext: `nonce(8) ‖ len(4)`.
const RECORD_HEADER_LEN: usize = 12;
/// Bytes of the GCM tag that closes a sealed record.
const TAG_LEN: usize = 16;

/// A sealed record where it lies in a received packet,
/// `nonce(8) ‖ len(4) ‖ ciphertext ‖ tag(16)`, borrowed mutably so
/// [`E2eSession::open_in_place`] can decrypt it without a copy.
///
/// [`SealedRecord::parse`] is the only constructor and checks the length
/// field against the bytes, so a record whose length field lies is
/// rejected before any key touches it.
#[derive(Debug)]
pub struct SealedRecord<'a> {
    bytes: &'a mut [u8],
}

impl<'a> SealedRecord<'a> {
    /// Frames the record in `bytes`: [`CryptoError::BadLength`] unless
    /// the length field counts exactly the ciphertext bytes between the
    /// header and the tag.
    pub fn parse(bytes: &'a mut [u8]) -> Result<Self> {
        let Some(clen) = bytes.len().checked_sub(RECORD_HEADER_LEN + TAG_LEN) else {
            return Err(CryptoError::BadLength);
        };
        let field = u32::from_be_bytes(bytes[8..12].try_into().expect("4-byte length"));
        if field as usize != clen {
            return Err(CryptoError::BadLength);
        }
        Ok(SealedRecord { bytes })
    }

    /// The record's GCM nonce (even = initiator, odd = responder).
    fn nonce(&self) -> u64 {
        u64::from_be_bytes(self.bytes[..8].try_into().expect("8-byte nonce"))
    }
}

impl E2eSession {
    /// Builds a session from a shared key. `direction` separates the two
    /// nonce spaces so initiator and responder never collide: initiators
    /// use even nonces, responders odd.
    pub fn new(session_key: &[u8; 16], initiator: bool) -> Self {
        E2eSession {
            gcm: Gcm::new(&gcm_key(session_key)),
            next_nonce: if initiator { 0 } else { 1 },
        }
    }

    /// Appends one record in the sending direction to `out`, as
    /// `nonce ‖ len ‖ ciphertext ‖ tag`. `write` appends the plaintext
    /// to `out`; it is encrypted where it lies, so sealing into a frame
    /// buffer copies nothing and allocates nothing beyond `out`'s own
    /// growth.
    pub fn seal_into(&mut self, out: &mut Vec<u8>, write: impl FnOnce(&mut Vec<u8>)) {
        let nonce = self.next_nonce;
        self.next_nonce = self.next_nonce.wrapping_add(2);
        let start = out.len();
        out.extend_from_slice(&nonce.to_be_bytes());
        out.extend_from_slice(&[0; 4]);
        write(out);
        let body = start + RECORD_HEADER_LEN;
        let clen = u32::try_from(out.len() - body).expect("a record fits a packet");
        out[body - 4..body].copy_from_slice(&clen.to_be_bytes());
        let tag = self.gcm.seal(&iv(nonce), &mut out[body..]);
        out.extend_from_slice(&tag);
    }

    /// Opens a record from the peer where it lies: checks the GCM tag,
    /// which covers the ciphertext and, through the IV, the nonce, then
    /// decrypts the ciphertext in place and returns it. On
    /// [`CryptoError::AuthFailed`] the bytes are left untouched.
    pub fn open_in_place<'a>(&self, record: SealedRecord<'a>) -> Result<&'a mut [u8]> {
        let nonce = record.nonce();
        let rest = &mut record.bytes[RECORD_HEADER_LEN..];
        let (ciphertext, tag) = rest.split_at_mut(rest.len() - TAG_LEN);
        let tag: &[u8; 16] = (&*tag).try_into().expect("16-byte tag");
        if !self.gcm.open(&iv(nonce), ciphertext, tag) {
            return Err(CryptoError::AuthFailed);
        }
        Ok(ciphertext)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rsa::generate_keypair;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (StdRng, crate::rsa::RsaKeypair) {
        let mut rng = StdRng::seed_from_u64(42);
        let kp = generate_keypair(&mut rng, 512);
        (rng, kp)
    }

    #[test]
    fn envelope_roundtrip() {
        let (mut rng, kp) = setup();
        let msg = b"the quick brown packet jumps over the lazy middlebox";
        let env = seal(&mut rng, &kp.public, msg).unwrap();
        let (plain, _key) = open(&kp.private, &env).unwrap();
        assert_eq!(plain, msg);
    }

    #[test]
    fn seal_keyed_retains_caller_key() {
        let (mut rng, kp) = setup();
        let key = [0x5a; 16];
        let env = seal_keyed(&mut rng, &kp.public, b"m", &key).unwrap();
        let (plain, got) = open(&kp.private, &env).unwrap();
        assert_eq!(plain, b"m");
        assert_eq!(got, key);
    }

    #[test]
    fn envelope_wire_roundtrip() {
        let (mut rng, kp) = setup();
        let env = seal(&mut rng, &kp.public, b"payload").unwrap();
        let bytes = env.to_bytes();
        let parsed = E2eEnvelope::from_bytes(&bytes).unwrap();
        assert_eq!(parsed, env);
        let (plain, _) = open(&kp.private, &parsed).unwrap();
        assert_eq!(plain, b"payload");
    }

    #[test]
    fn tampered_ciphertext_rejected() {
        let (mut rng, kp) = setup();
        let mut env = seal(&mut rng, &kp.public, b"sensitive").unwrap();
        env.ciphertext[0] ^= 1;
        assert_eq!(
            open(&kp.private, &env).unwrap_err(),
            CryptoError::AuthFailed
        );
    }

    #[test]
    fn tampered_tag_rejected() {
        let (mut rng, kp) = setup();
        let mut env = seal(&mut rng, &kp.public, b"sensitive").unwrap();
        env.tag[15] ^= 0x40;
        assert_eq!(
            open(&kp.private, &env).unwrap_err(),
            CryptoError::AuthFailed
        );
    }

    #[test]
    fn open_with_key_roundtrip() {
        let (mut rng, kp) = setup();
        let key = [0x3c; 16];
        let env = seal_keyed(&mut rng, &kp.public, b"repeat envelope", &key).unwrap();
        assert_eq!(open_with_key(&key, &env).unwrap(), b"repeat envelope");
        // The held key alone decides: the RSA-wrapped copy is not read.
        let mut unwrapped = env.clone();
        unwrapped.wrapped_key = vec![0xff; 3];
        assert_eq!(open_with_key(&key, &unwrapped).unwrap(), b"repeat envelope");
        assert!(open(&kp.private, &unwrapped).is_err());
    }

    #[test]
    fn open_with_key_rejects_bad_tags() {
        let (mut rng, kp) = setup();
        let key = [0x3c; 16];
        let env = seal_keyed(&mut rng, &kp.public, b"sensitive", &key).unwrap();
        // Another session's key fails the tag.
        assert_eq!(
            open_with_key(&[0x3d; 16], &env).unwrap_err(),
            CryptoError::AuthFailed
        );
        let mut tampered = env.clone();
        tampered.ciphertext[0] ^= 1;
        assert_eq!(
            open_with_key(&key, &tampered).unwrap_err(),
            CryptoError::AuthFailed
        );
        let mut forged = env;
        forged.tag[0] ^= 0x80;
        assert_eq!(
            open_with_key(&key, &forged).unwrap_err(),
            CryptoError::AuthFailed
        );
    }

    #[test]
    fn wrong_recipient_rejected() {
        let (mut rng, kp) = setup();
        let other = generate_keypair(&mut rng, 512);
        let env = seal(&mut rng, &kp.public, b"for kp only").unwrap();
        assert!(open(&other.private, &env).is_err());
    }

    #[test]
    fn truncated_envelope_rejected() {
        let (mut rng, kp) = setup();
        let bytes = seal(&mut rng, &kp.public, b"x").unwrap().to_bytes();
        for cut in [0, 1, 5, bytes.len() - 1] {
            assert!(E2eEnvelope::from_bytes(&bytes[..cut]).is_err(), "cut={cut}");
        }
    }

    /// Seals `msg` as the session's next record, into a fresh buffer.
    fn seal_record(session: &mut E2eSession, msg: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        session.seal_into(&mut out, |buf| buf.extend_from_slice(msg));
        out
    }

    /// Opens a copy of `record` in place.
    fn open_record(session: &E2eSession, record: &[u8]) -> Result<Vec<u8>> {
        let mut bytes = record.to_vec();
        let plain = session.open_in_place(SealedRecord::parse(&mut bytes)?)?;
        Ok(plain.to_vec())
    }

    #[test]
    fn session_bidirectional() {
        let key = [0x77u8; 16];
        let mut alice = E2eSession::new(&key, true);
        let mut bob = E2eSession::new(&key, false);

        let r1 = seal_record(&mut alice, b"hello bob");
        assert_eq!(open_record(&bob, &r1).unwrap(), b"hello bob");
        let r2 = seal_record(&mut bob, b"hello alice");
        assert_eq!(open_record(&alice, &r2).unwrap(), b"hello alice");
        // Nonce spaces must not collide.
        assert_ne!(r1[..8], r2[..8]);
    }

    /// The wire layout is `nonce ‖ len ‖ ciphertext ‖ tag`, appended after
    /// whatever the buffer already holds, and only a true length field
    /// frames.
    #[test]
    fn session_record_wire_roundtrip() {
        let key = [0x12u8; 16];
        let mut s = E2eSession::new(&key, true);
        seal_record(&mut s, b"first");
        let mut out = b"hdr".to_vec();
        s.seal_into(&mut out, |buf| buf.extend_from_slice(b"record payload"));
        assert_eq!(&out[..3], b"hdr");
        let rec = &out[3..];
        assert_eq!(rec.len(), 12 + 14 + 16);
        assert_eq!(rec[..8], 2u64.to_be_bytes());
        assert_eq!(rec[8..12], 14u32.to_be_bytes());
        let mut bytes = rec.to_vec();
        assert_eq!(SealedRecord::parse(&mut bytes).unwrap().nonce(), 2);
        for lie in [13u32, 15, 0, u32::MAX] {
            let mut bytes = rec.to_vec();
            bytes[8..12].copy_from_slice(&lie.to_be_bytes());
            assert_eq!(
                SealedRecord::parse(&mut bytes).unwrap_err(),
                CryptoError::BadLength
            );
        }
        let rx = E2eSession::new(&key, false);
        assert_eq!(open_record(&rx, rec).unwrap(), b"record payload");
    }

    #[test]
    fn session_rejects_forgery() {
        let key = [0x13u8; 16];
        let mut a = E2eSession::new(&key, true);
        let b = E2eSession::new(&key, false);
        let r = seal_record(&mut a, b"authentic");
        // A flipped ciphertext bit fails the tag and leaves the bytes
        // as they were: nothing is decrypted.
        let mut bytes = r.clone();
        bytes[12] ^= 1;
        let flipped = bytes.clone();
        let record = SealedRecord::parse(&mut bytes).unwrap();
        assert_eq!(
            b.open_in_place(record).unwrap_err(),
            CryptoError::AuthFailed
        );
        assert_eq!(bytes, flipped);
        // A byte appended to the ciphertext breaks the framing.
        let mut longer = r;
        longer.push(0);
        assert_eq!(
            open_record(&b, &longer).unwrap_err(),
            CryptoError::BadLength
        );
    }

    #[test]
    fn handshake_key_continuity() {
        // The session key recovered from the envelope drives a session that
        // interoperates with the sender's.
        let (mut rng, kp) = setup();
        let env = seal(&mut rng, &kp.public, b"first packet").unwrap();
        let (_, session_key) = open(&kp.private, &env).unwrap();
        let mut receiver = E2eSession::new(&session_key, false);
        let sender = E2eSession::new(&session_key, true);
        let rec = seal_record(&mut receiver, b"reply");
        assert_eq!(open_record(&sender, &rec).unwrap(), b"reply");
    }

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    /// The GCM spec's test cases 1–3 (McGrew and Viega; NIST SP 800-38D)
    /// through the production CTR and GHASH code: on the carry-less GHASH
    /// where the CPU has it, and on the bitwise one. Case 3's IV has a
    /// nonzero tail, the counter's high 32 bits.
    #[test]
    fn gcm_spec_test_cases_1_to_3() {
        let zero = "00000000000000000000000000000000";
        let cases = [
            (
                zero,
                &zero[..24],
                "",
                "",
                "58e2fccefa7e3061367f1d57a4e7455a",
            ),
            (
                zero,
                &zero[..24],
                zero,
                "0388dace60b6a392f328c2b971b2fe78",
                "ab6e47d42cec13bdf53a67b21257bddf",
            ),
            (
                "feffe9928665731c6d6a8f9467308308",
                "cafebabefacedbaddecaf888",
                "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
                 1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255",
                "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e\
                 21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985",
                "4d5c2af327cd64a62cf35abd2ba6fab4",
            ),
        ];
        for (case, (key, iv, plain, cipher, tag)) in cases.into_iter().enumerate() {
            let key: [u8; 16] = hex(key).try_into().unwrap();
            let iv: [u8; 12] = hex(iv).try_into().unwrap();
            let gcm = Gcm::new(&key);
            let bitwise = Gcm {
                ghash: Ghash::portable(&gcm.aes.encrypt_copy(&[0; 16])),
                ..gcm.clone()
            };
            for (path, gcm) in [("default", gcm), ("bitwise", bitwise)] {
                let mut data = hex(plain);
                assert_eq!(
                    hex(tag),
                    gcm.seal(&iv, &mut data),
                    "TC{} {path} tag",
                    case + 1
                );
                assert_eq!(data, hex(cipher), "TC{} {path} ciphertext", case + 1);
                let tag: [u8; 16] = hex(tag).try_into().unwrap();
                assert!(
                    gcm.open(&iv, &mut data, &tag),
                    "TC{} {path} opens",
                    case + 1
                );
                assert_eq!(data, hex(plain), "TC{} {path} plaintext", case + 1);
            }
        }
    }

    /// Any one flipped bit of a sealed record, in its nonce, length field,
    /// ciphertext or tag, is refused, and the bytes stay as they were.
    #[test]
    fn every_flipped_record_bit_is_refused_untouched() {
        let key = [0x21u8; 16];
        let mut tx = E2eSession::new(&key, true);
        let rx = E2eSession::new(&key, false);
        let record = seal_record(&mut tx, b"a record that spans three GCM blocks");
        for bit in 0..8 * record.len() {
            let mut bytes = record.clone();
            bytes[bit / 8] ^= 1 << (bit % 8);
            let flipped = bytes.clone();
            let err = match SealedRecord::parse(&mut bytes) {
                Ok(parsed) => rx.open_in_place(parsed).unwrap_err(),
                Err(err) => err,
            };
            assert!(
                matches!(err, CryptoError::AuthFailed | CryptoError::BadLength),
                "bit {bit}: {err:?}"
            );
            assert_eq!(bytes, flipped, "bit {bit}: the bytes changed");
        }
    }

    /// Any one flipped bit of an envelope's nonce, ciphertext or tag fails
    /// the tag.
    #[test]
    fn every_flipped_envelope_bit_is_refused() {
        let (mut rng, kp) = setup();
        let key = [0x44u8; 16];
        let env = seal_keyed(&mut rng, &kp.public, b"an envelope of two blocks", &key).unwrap();
        let bits = 64 + 8 * env.ciphertext.len() + 128;
        for bit in 0..bits {
            let mut forged = env.clone();
            if bit < 64 {
                forged.nonce ^= 1 << bit;
            } else if bit < 64 + 8 * env.ciphertext.len() {
                let b = bit - 64;
                forged.ciphertext[b / 8] ^= 1 << (b % 8);
            } else {
                let b = bit - 64 - 8 * env.ciphertext.len();
                forged.tag[b / 8] ^= 1 << (b % 8);
            }
            assert_eq!(
                open_with_key(&key, &forged).unwrap_err(),
                CryptoError::AuthFailed,
                "bit {bit}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn prop_session_roundtrip(key in any::<[u8;16]>(), msgs in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..64), 1..8)) {
            let mut tx = E2eSession::new(&key, true);
            let rx = E2eSession::new(&key, false);
            for m in &msgs {
                let r = seal_record(&mut tx, m);
                prop_assert_eq!(&open_record(&rx, &r).unwrap(), m);
            }
        }
    }
}
