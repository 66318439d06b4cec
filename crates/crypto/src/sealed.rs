//! Sealed address blocks.
//!
//! A neutralized packet hides the real endpoint address inside a single
//! 16-byte AES block in the shim header (the paper's packet diagrams in
//! Figure 2; §4 notes the 112-byte packet includes "nonce, encrypted
//! destination IP address, and alignment padding").
//!
//! The block binds the address to the session nonce and carries 4 bytes of
//! redundancy, so a neutralizer deriving the wrong key — a spoofed source,
//! a stale nonce, a corrupted packet — detects it instead of forwarding to
//! a garbage destination. Using a raw block cipher (not a stream mode)
//! means flipping any ciphertext bit scrambles the whole plaintext block
//! and trips the redundancy check.

use crate::aes::Aes128;
use crate::error::{CryptoError, Result};

/// Redundancy magic inside every sealed block.
const MAGIC: &[u8; 4] = b"NEUT";

/// A reusable sealer holding one key schedule — the data-path hot loop
/// (experiment T2) seals/opens one block per packet, so the key schedule
/// must not be recomputed per packet.
#[derive(Clone, Debug)]
pub struct AddrSealer {
    cipher: Aes128,
}

impl AddrSealer {
    /// Builds a sealer from the session key `Ks`.
    pub fn new(key: &[u8; 16]) -> Self {
        AddrSealer {
            cipher: Aes128::new(key),
        }
    }

    /// Seals `addr` (IPv4, big-endian u32), bound to `nonce`.
    ///
    /// Block layout before encryption:
    /// `addr (4) ‖ "NEUT" (4) ‖ nonce (8)`.
    pub fn seal(&self, nonce: u64, addr: u32) -> [u8; 16] {
        let mut block = [0u8; 16];
        block[..4].copy_from_slice(&addr.to_be_bytes());
        block[4..8].copy_from_slice(MAGIC);
        block[8..16].copy_from_slice(&nonce.to_be_bytes());
        self.cipher.encrypt_block(&mut block);
        block
    }

    /// Opens a sealed block, verifying the redundancy and the binding to
    /// `nonce`.
    pub fn open(&self, nonce: u64, sealed: &[u8; 16]) -> Result<u32> {
        let mut block = *sealed;
        self.cipher.decrypt_block(&mut block);
        if &block[4..8] != MAGIC || block[8..16] != nonce.to_be_bytes() {
            return Err(CryptoError::AuthFailed);
        }
        Ok(u32::from_be_bytes([block[0], block[1], block[2], block[3]]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roundtrip() {
        let sealer = AddrSealer::new(&[0xabu8; 16]);
        let sealed = sealer.seal(99, 0xc0a80a01);
        assert_eq!(sealer.open(99, &sealed).unwrap(), 0xc0a80a01);
    }

    #[test]
    fn wrong_key_detected() {
        let sealed = AddrSealer::new(&[1u8; 16]).seal(5, 42);
        assert_eq!(
            AddrSealer::new(&[2u8; 16]).open(5, &sealed),
            Err(CryptoError::AuthFailed)
        );
    }

    #[test]
    fn wrong_nonce_detected() {
        // A replayed sealed block under a different nonce must not open:
        // this is what stops an ISP from splicing observed blocks together.
        let sealer = AddrSealer::new(&[3u8; 16]);
        let sealed = sealer.seal(5, 42);
        assert_eq!(sealer.open(6, &sealed), Err(CryptoError::AuthFailed));
    }

    #[test]
    fn bitflip_detected() {
        let sealer = AddrSealer::new(&[4u8; 16]);
        let mut sealed = sealer.seal(7, 0x0a000001);
        for i in 0..16 {
            sealed[i] ^= 0x80;
            assert!(
                sealer.open(7, &sealed).is_err(),
                "flip at byte {i} must be caught"
            );
            sealed[i] ^= 0x80;
        }
    }

    /// The sealed block is one raw AES encryption of the documented
    /// layout `addr ‖ "NEUT" ‖ nonce`.
    #[test]
    fn sealer_matches_one_shot() {
        let key = [5u8; 16];
        let sealer = AddrSealer::new(&key);
        let mut block = [0u8; 16];
        block[..4].copy_from_slice(&77u32.to_be_bytes());
        block[4..8].copy_from_slice(b"NEUT");
        block[8..].copy_from_slice(&11u64.to_be_bytes());
        Aes128::new(&key).encrypt_block(&mut block);
        assert_eq!(sealer.seal(11, 77), block);
        assert_eq!(sealer.open(11, &block).unwrap(), 77);
    }

    #[test]
    fn ciphertext_leaks_nothing_obvious() {
        // Same address, different nonces => unrelated ciphertexts.
        let sealer = AddrSealer::new(&[6u8; 16]);
        assert_ne!(sealer.seal(1, 42), sealer.seal(2, 42));
    }

    proptest! {
        #[test]
        fn prop_roundtrip(key in any::<[u8;16]>(), nonce in any::<u64>(), addr in any::<u32>()) {
            let sealer = AddrSealer::new(&key);
            prop_assert_eq!(sealer.open(nonce, &sealer.seal(nonce, addr)).unwrap(), addr);
        }

        #[test]
        fn prop_garbage_rejected(key in any::<[u8;16]>(), nonce in any::<u64>(), junk in any::<[u8;16]>()) {
            // A random block opens successfully only with probability
            // 2^-96; treat success as failure of the test.
            prop_assert!(AddrSealer::new(&key).open(nonce, &junk).is_err());
        }
    }
}
