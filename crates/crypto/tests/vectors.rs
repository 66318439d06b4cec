//! Published-vector validation of the crypto substrate through its
//! public API: FIPS-197 AES-128, RFC 4493 AES-CMAC, NIST SP 800-38A
//! CTR-AES128, plus an RSA-e3 seal/unseal round-trip at the paper's
//! one-time key size.

use nn_crypto::{Aes128, Cmac};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn hex(s: &str) -> Vec<u8> {
    let s: String = s.chars().filter(|c| !c.is_whitespace()).collect();
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect()
}

fn hex16(s: &str) -> [u8; 16] {
    hex(s).try_into().unwrap()
}

/// FIPS-197 Appendix C.1: AES-128 single-block known answer.
#[test]
fn fips197_aes128_block() {
    let aes = Aes128::new(&hex16("000102030405060708090a0b0c0d0e0f"));
    let mut block = hex16("00112233445566778899aabbccddeeff");
    aes.encrypt_block(&mut block);
    assert_eq!(block, hex16("69c4e0d86a7b0430d8cdb78070b4c55a"));
    aes.decrypt_block(&mut block);
    assert_eq!(block, hex16("00112233445566778899aabbccddeeff"));
}

/// FIPS-197 Appendix B: the worked cipher example (a different key than
/// C.1, so both T-table key schedules see a published answer).
#[test]
fn fips197_appendix_b_block() {
    let aes = Aes128::new(&hex16("2b7e151628aed2a6abf7158809cf4f3c"));
    let mut block = hex16("3243f6a8885a308d313198a2e0370734");
    aes.encrypt_block(&mut block);
    assert_eq!(block, hex16("3925841d02dc09fbdc118597196a0b32"));
    aes.decrypt_block(&mut block);
    assert_eq!(block, hex16("3243f6a8885a308d313198a2e0370734"));
}

/// RFC 4493 §4: the four AES-CMAC examples.
#[test]
fn rfc4493_cmac_vectors() {
    let mac = Cmac::new(&hex16("2b7e151628aed2a6abf7158809cf4f3c"));
    let m = hex("6bc1bee22e409f96e93d7e117393172a\
         ae2d8a571e03ac9c9eb76fac45af8e51\
         30c81c46a35ce411e5fbc1191a0a52ef\
         f69f2445df4f9b17ad2b417be66c3710");
    assert_eq!(mac.tag(&[]), hex16("bb1d6929e95937287fa37d129b756746"));
    assert_eq!(mac.tag(&m[..16]), hex16("070a16b46b4d4144f79bdd9dd04a287c"));
    assert_eq!(mac.tag(&m[..40]), hex16("dfa66747de9ae63030ca32611497c827"));
    assert_eq!(mac.tag(&m), hex16("51f0bebf7e3b9d92fc49741779363cfe"));
}

/// NIST SP 800-38A F.5.1: CTR-AES128 encryption.
///
/// The implementation's counter block is `nonce(8, BE) ‖ counter(8, BE)`,
/// so the vector's initial counter block f0f1..feff splits into
/// nonce = f0f1f2f3f4f5f6f7 and first block = f8f9fafbfcfdfeff (the four
/// increments stay inside the low 64 bits).
#[test]
fn sp800_38a_ctr_aes128() {
    let aes = Aes128::new(&hex16("2b7e151628aed2a6abf7158809cf4f3c"));
    let mut data = hex("6bc1bee22e409f96e93d7e117393172a\
         ae2d8a571e03ac9c9eb76fac45af8e51\
         30c81c46a35ce411e5fbc1191a0a52ef\
         f69f2445df4f9b17ad2b417be66c3710");
    aes.ctr_xor(0xf0f1f2f3f4f5f6f7, 0xf8f9fafbfcfdfeff, &mut data, None);
    assert_eq!(
        data,
        hex("874d6191b620e3261bef6864990db6ce\
             9806f66b7970fdff8617187bb9fffdff\
             5ae4df3edbd5d35e5b4f09020db03eab\
             1e031dda2fbe03d1792170a0f3009cee")
    );
    // Decryption is the same operation.
    aes.ctr_xor(0xf0f1f2f3f4f5f6f7, 0xf8f9fafbfcfdfeff, &mut data, None);
    assert_eq!(data[..16], hex("6bc1bee22e409f96e93d7e117393172a")[..]);
}

/// NIST SP 800-38A F.5.1/F.5.2 through the eight-lane CTR batch: the
/// 64-byte vector alone rides the one-block remainder, so embed it in a
/// 144-byte buffer whose first 128 bytes go through one eight-block
/// batch. The published blocks must come out identical, the tail must
/// match block-at-a-time keystream generation, and a second application
/// (F.5.2: decryption is the same operation) must restore the plaintext.
#[test]
fn sp800_38a_ctr_aes128_batch_lanes() {
    let key = hex16("2b7e151628aed2a6abf7158809cf4f3c");
    let nonce = 0xf0f1f2f3f4f5f6f7;
    let first_block = 0xf8f9fafbfcfdfeff_u64;
    let plain = hex("6bc1bee22e409f96e93d7e117393172a\
         ae2d8a571e03ac9c9eb76fac45af8e51\
         30c81c46a35ce411e5fbc1191a0a52ef\
         f69f2445df4f9b17ad2b417be66c3710");
    let cipher = hex("874d6191b620e3261bef6864990db6ce\
         9806f66b7970fdff8617187bb9fffdff\
         5ae4df3edbd5d35e5b4f09020db03eab\
         1e031dda2fbe03d1792170a0f3009cee");
    let aes = Aes128::new(&key);
    let mut data = vec![0u8; 144];
    data[..64].copy_from_slice(&plain);
    aes.ctr_xor(nonce, first_block, &mut data, None);
    assert_eq!(
        &data[..64],
        &cipher[..],
        "published blocks survive batching"
    );
    // The zero tail is raw keystream: blocks 4..9 counted onward from
    // the vector's initial counter block, one at a time.
    for (i, chunk) in data[64..].chunks(16).enumerate() {
        let mut block = [0u8; 16];
        block[..8].copy_from_slice(&nonce.to_be_bytes());
        block[8..].copy_from_slice(&(first_block.wrapping_add(4 + i as u64)).to_be_bytes());
        assert_eq!(chunk, aes.encrypt_copy(&block));
    }
    aes.ctr_xor(nonce, first_block, &mut data, None);
    assert_eq!(&data[..64], &plain[..], "F.5.2: CTR decryption round-trips");
    assert!(data[64..].iter().all(|&b| b == 0));
}

/// SP 800-38A's first keystream block: the initial counter block
/// encrypted on its own.
#[test]
fn sp800_38a_ctr_first_keystream_block() {
    let aes = Aes128::new(&hex16("2b7e151628aed2a6abf7158809cf4f3c"));
    let ks = aes.encrypt_copy(&hex16("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff"));
    // E(K, ctr0) = C1 XOR P1.
    let expect: Vec<u8> = hex("874d6191b620e3261bef6864990db6ce")
        .iter()
        .zip(hex("6bc1bee22e409f96e93d7e117393172a"))
        .map(|(c, p)| c ^ p)
        .collect();
    assert_eq!(ks.to_vec(), expect);
}

/// RSA with e = 3 at the paper's 512-bit one-time size: seal/unseal
/// round-trip, wire-format round-trip, and corruption rejection.
#[test]
fn rsa_e3_seal_unseal_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0xE3);
    let kp = nn_crypto::generate_keypair(&mut rng, 512);
    assert_eq!(kp.public.modulus_bits(), 512);

    // The exact payload the neutralizer seals: nonce(8) ‖ Ks(16).
    let mut msg = Vec::new();
    msg.extend_from_slice(&0x0123_4567_89ab_cdefu64.to_be_bytes());
    msg.extend_from_slice(&[0x42; 16]);
    let ct = kp.public.encrypt(&mut rng, &msg).unwrap();
    assert_eq!(ct.len(), 64, "ciphertext is exactly the modulus size");
    assert_eq!(kp.private.decrypt(&ct).unwrap(), msg);

    // Randomized padding: two encryptions of one message differ.
    let ct2 = kp.public.encrypt(&mut rng, &msg).unwrap();
    assert_ne!(ct, ct2);
    assert_eq!(kp.private.decrypt(&ct2).unwrap(), msg);

    // Wire round-trip of the public key (what KeySetup carries).
    let wire = kp.public.to_wire();
    let (parsed, consumed) = nn_crypto::RsaPublicKey::from_wire(&wire).unwrap();
    assert_eq!(consumed, wire.len());
    let ct3 = parsed.encrypt(&mut rng, &msg).unwrap();
    assert_eq!(kp.private.decrypt(&ct3).unwrap(), msg);

    // Corrupted ciphertext must not decrypt to the message.
    let mut bad = ct.clone();
    bad[10] ^= 0x01;
    assert_ne!(kp.private.decrypt(&bad).ok(), Some(msg));
}
