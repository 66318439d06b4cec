//! AES-CTR stream encryption (NIST SP 800-38A).
//!
//! The counter block layout is
//! `nonce (8 bytes, big-endian) || block counter (8 bytes, big-endian)`.
//! The end-to-end channel's AES-GCM (the paper's "IPsec as a black box",
//! §3.1) uses the same counter blocks, under the IV `nonce ‖ 0³²`: its
//! tag mask is block 1 and its data keystream starts at block 2.
//!
//! The work happens in [`Aes128`]'s CTR call: on AES-NI, a kernel that
//! makes and uses the keystream in registers, eight blocks at a time;
//! elsewhere, batches of counter blocks through the T-table cipher.

use crate::aes::Aes128;

/// CTR-mode wrapper around AES-128.
#[derive(Clone, Debug)]
pub struct AesCtr {
    cipher: Aes128,
}

impl AesCtr {
    /// Builds a CTR context from a 128-bit key.
    pub fn new(key: &[u8; 16]) -> Self {
        AesCtr {
            cipher: Aes128::new(key),
        }
    }

    /// Encrypts the raw counter block (exposed for NIST vector tests and
    /// for single-block constructions).
    pub fn keystream_block_raw(&self, counter_block: &[u8; 16]) -> [u8; 16] {
        self.cipher.encrypt_copy(counter_block)
    }

    /// XORs the keystream for (`nonce`, starting at block `first_block`)
    /// into `data`. Encrypt and decrypt are the same operation.
    ///
    /// On AES-NI the counter blocks are built and encrypted in registers,
    /// eight at a time, and XORed into `data` where it lies; elsewhere
    /// they go through the T-table cipher in batches of eight. The bytes
    /// produced are identical to block-at-a-time CTR.
    pub fn apply_keystream_at(&self, nonce: u64, first_block: u64, data: &mut [u8]) {
        self.cipher.ctr_xor(nonce, first_block, data, None);
    }

    /// XORs the keystream for `nonce` (starting at block 0) into `data`.
    pub fn apply_keystream(&self, nonce: u64, data: &mut [u8]) {
        self.apply_keystream_at(nonce, 0, data);
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

    #[test]
    fn nist_sp800_38a_ctr_block1() {
        // NIST SP 800-38A F.5.1 CTR-AES128.Encrypt, first block.
        let key: [u8; 16] = hex("2b7e151628aed2a6abf7158809cf4f3c").try_into().unwrap();
        let ctr_block: [u8; 16] = hex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff").try_into().unwrap();
        let plain = hex("6bc1bee22e409f96e93d7e117393172a");
        let expect = hex("874d6191b620e3261bef6864990db6ce");
        let ctr = AesCtr::new(&key);
        let ks = ctr.keystream_block_raw(&ctr_block);
        let ct: Vec<u8> = plain.iter().zip(ks.iter()).map(|(p, k)| p ^ k).collect();
        assert_eq!(ct, expect);
    }

    #[test]
    fn roundtrip_unaligned_length() {
        let ctr = AesCtr::new(&[3u8; 16]);
        let mut data = b"seventeen bytes!!".to_vec();
        let orig = data.clone();
        ctr.apply_keystream(42, &mut data);
        assert_ne!(data, orig);
        ctr.apply_keystream(42, &mut data);
        assert_eq!(data, orig);
    }

    #[test]
    fn different_nonces_different_streams() {
        let ctr = AesCtr::new(&[5u8; 16]);
        let mut a = vec![0u8; 32];
        let mut b = vec![0u8; 32];
        ctr.apply_keystream(1, &mut a);
        ctr.apply_keystream(2, &mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn seek_matches_contiguous() {
        // Applying from block 2 must equal the tail of a longer stream.
        let ctr = AesCtr::new(&[9u8; 16]);
        let mut long = vec![0u8; 64];
        ctr.apply_keystream(7, &mut long);
        let mut tail = vec![0u8; 32];
        ctr.apply_keystream_at(7, 2, &mut tail);
        assert_eq!(&long[32..], &tail[..]);
    }

    /// The batched keystream equals block-at-a-time CTR at every length
    /// across two full batches, so every tail size is covered.
    #[test]
    fn batched_keystream_matches_single_blocks() {
        let ctr = AesCtr::new(&[0x2b; 16]);
        for len in 0..=16 * 17 {
            let mut data: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let expect: Vec<u8> = data
                .chunks(16)
                .enumerate()
                .flat_map(|(i, seg)| {
                    let mut block = [0u8; 16];
                    block[..8].copy_from_slice(&9u64.to_be_bytes());
                    block[8..].copy_from_slice(&(5 + i as u64).to_be_bytes());
                    let ks = ctr.keystream_block_raw(&block);
                    seg.iter().zip(ks).map(|(b, k)| b ^ k).collect::<Vec<u8>>()
                })
                .collect();
            ctr.apply_keystream_at(9, 5, &mut data);
            assert_eq!(data, expect, "len={len}");
        }
    }

    #[test]
    fn empty_data_is_noop() {
        let ctr = AesCtr::new(&[1u8; 16]);
        let mut data: Vec<u8> = Vec::new();
        ctr.apply_keystream(0, &mut data);
        assert!(data.is_empty());
    }

    proptest! {
        #[test]
        fn prop_roundtrip(key in any::<[u8;16]>(), nonce in any::<u64>(), data in proptest::collection::vec(any::<u8>(), 0..200)) {
            let ctr = AesCtr::new(&key);
            let mut buf = data.clone();
            ctr.apply_keystream(nonce, &mut buf);
            ctr.apply_keystream(nonce, &mut buf);
            prop_assert_eq!(buf, data);
        }
    }
}
