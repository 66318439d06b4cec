//! AES-128 block cipher.
//!
//! §4 of the paper: "Our implementation uses 128-bit AES for both hashing
//! and encryption/decryption." AES therefore sits on the data-path hot loop
//! (experiments T2/T3): one keyed-hash (CMAC) plus one block operation per
//! neutralized packet.
//!
//! The implementation is the classic T-table formulation: SubBytes,
//! ShiftRows and MixColumns collapse into four 256-entry u32 lookups per
//! column per round (forward `Te` tables for encryption, `Td` tables plus
//! InvMixColumns-transformed round keys for the equivalent inverse
//! cipher). All tables are derived at first use from the GF(2^8)
//! definition rather than transcribed, and the implementation is
//! validated against the FIPS-197 appendix vectors in the tests below.
//!
//! On an x86_64 CPU with AES-NI, [`Aes128`] runs every block on the
//! `AESENC`/`AESDEC` instructions instead, with round keys taken from the
//! same software key schedule. The backend is chosen at run time, once
//! per key schedule, by `is_x86_feature_detected!("aes")`; AES output
//! does not depend on it, and the tests check the hardware path against
//! the T-table one byte for byte. The T-table cipher is the fallback on
//! every other CPU and the reference.
//!
//! [`Aes128::encrypt_blocks`] pipelines independent blocks through the
//! rounds together, giving the CTR keystream path instruction-level
//! parallelism. The hardware path keeps eight blocks in flight, enough
//! to cover the `AESENC` latency. The T-table path pipelines pairs:
//! two lanes is its measured sweet spot, because eight live state words
//! fit the register file, where four lanes spill every round and run no
//! faster than single blocks.
//!
//! [`Aes128::cbc_mac`] is another multi-block call: the CBC-MAC chain
//! CMAC absorbs a message through. Its blocks depend on each other, so
//! nothing pipelines; the hardware path instead loads the eleven round
//! keys into registers once per call rather than once per block.
//!
//! The third is CTR mode, which [`AesCtr`](crate::ctr::AesCtr) and the
//! end-to-end channel's GCM run on. On AES-NI, one kernel builds eight
//! counter blocks per batch in registers, runs them through the rounds
//! together and XORs each keystream block into the data where it lies;
//! no counter array and no keystream buffer touch memory. The T-table
//! path builds the counter blocks in an array and encrypts them as a
//! batch, and is the reference the kernel is tested against.

use std::sync::OnceLock;

/// S-boxes and round T-tables, computed once from the field definition.
struct Tables {
    sbox: [u8; 256],
    inv_sbox: [u8; 256],
    /// Forward tables: `te[i][x]` is the MixColumns contribution of
    /// S-boxed byte `x` at row `i`, packed row-0-in-MSB.
    te: [[u32; 256]; 4],
    /// Inverse tables: `td[i][x]` is the InvMixColumns contribution of
    /// inverse-S-boxed byte `x` at row `i`.
    td: [[u32; 256]; 4],
}

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Box<Tables>> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut sbox = [0u8; 256];
        let mut inv_sbox = [0u8; 256];
        for i in 0..256u16 {
            let x = gf_inv(i as u8);
            let b = x
                ^ x.rotate_left(1)
                ^ x.rotate_left(2)
                ^ x.rotate_left(3)
                ^ x.rotate_left(4)
                ^ 0x63;
            sbox[i as usize] = b;
            inv_sbox[b as usize] = i as u8;
        }
        let mut te = [[0u32; 256]; 4];
        let mut td = [[0u32; 256]; 4];
        for x in 0..256usize {
            // MixColumns matrix column for an input byte at row 0 is
            // (2,1,1,3)^T; the other rows are byte rotations of it.
            let s = sbox[x];
            let e = u32::from_be_bytes([gf_mul(s, 2), s, s, gf_mul(s, 3)]);
            // InvMixColumns matrix column at row 0 is (e,9,d,b)^T.
            let is = inv_sbox[x];
            let d = u32::from_be_bytes([
                gf_mul(is, 0x0e),
                gf_mul(is, 0x09),
                gf_mul(is, 0x0d),
                gf_mul(is, 0x0b),
            ]);
            for row in 0..4 {
                te[row][x] = e.rotate_right(8 * row as u32);
                td[row][x] = d.rotate_right(8 * row as u32);
            }
        }
        Box::new(Tables {
            sbox,
            inv_sbox,
            te,
            td,
        })
    })
}

/// GF(2^8) multiplication with the AES polynomial x^8+x^4+x^3+x+1.
fn gf_mul(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0u8;
    for _ in 0..8 {
        if b & 1 != 0 {
            p ^= a;
        }
        let hi = a & 0x80;
        a <<= 1;
        if hi != 0 {
            a ^= 0x1b;
        }
        b >>= 1;
    }
    p
}

/// GF(2^8) inverse via a^254 (a^(2^8-2)); inv(0) is defined as 0.
fn gf_inv(a: u8) -> u8 {
    if a == 0 {
        return 0;
    }
    let mut result = 1u8;
    let mut base = a;
    let mut e = 254u16;
    while e > 0 {
        if e & 1 != 0 {
            result = gf_mul(result, base);
        }
        base = gf_mul(base, base);
        e >>= 1;
    }
    result
}

/// InvMixColumns on one packed column word, straight from the GF(2^8)
/// matrix — the reference the table-based key-schedule transform is
/// checked against in tests.
#[cfg(test)]
fn inv_mix_word(w: u32) -> u32 {
    let [a, b, c, d] = w.to_be_bytes();
    u32::from_be_bytes([
        gf_mul(a, 0x0e) ^ gf_mul(b, 0x0b) ^ gf_mul(c, 0x0d) ^ gf_mul(d, 0x09),
        gf_mul(a, 0x09) ^ gf_mul(b, 0x0e) ^ gf_mul(c, 0x0b) ^ gf_mul(d, 0x0d),
        gf_mul(a, 0x0d) ^ gf_mul(b, 0x09) ^ gf_mul(c, 0x0e) ^ gf_mul(d, 0x0b),
        gf_mul(a, 0x0b) ^ gf_mul(b, 0x0d) ^ gf_mul(c, 0x09) ^ gf_mul(d, 0x0e),
    ])
}

/// How many blocks the T-table path of [`Aes128::encrypt_blocks`]
/// pipelines per inner pass.
pub const BATCH: usize = 2;

/// The gate of [`Aes128::ctr_xor`]: it gets the keystream block of the
/// call's first counter before any data changes, and says whether the
/// call goes on.
pub(crate) type CtrGate<'a> = &'a mut dyn FnMut(&[u8; 16]) -> bool;

/// AES-128 with a precomputed key schedule.
///
/// The block byte layout is the FIPS-197 order: byte `i` of a block is
/// state column `i / 4`, row `i % 4`; each column is held as a
/// big-endian-packed u32 (row 0 in the most significant byte).
#[derive(Clone)]
pub struct Aes128 {
    /// 11 round keys × 4 columns, encryption order.
    ek: [u32; 44],
    /// Equivalent-inverse-cipher round keys: reversed, with
    /// InvMixColumns applied to the nine inner round keys.
    dk: [u32; 44],
    /// The same round keys laid out for AES-NI; `Some` only on a CPU
    /// with AES-NI, which is what makes the hardware calls sound.
    #[cfg(target_arch = "x86_64")]
    ni: Option<ni::RoundKeys>,
}

impl core::fmt::Debug for Aes128 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str("Aes128(<key schedule>)")
    }
}

impl Aes128 {
    /// Expands a 128-bit key into the 11 round keys (both directions).
    pub fn new(key: &[u8; 16]) -> Self {
        const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];
        let t = tables();
        let sub_word = |w: u32| -> u32 {
            let [a, b, c, d] = w.to_be_bytes();
            u32::from_be_bytes([
                t.sbox[a as usize],
                t.sbox[b as usize],
                t.sbox[c as usize],
                t.sbox[d as usize],
            ])
        };
        let mut ek = [0u32; 44];
        for (i, w) in ek.iter_mut().take(4).enumerate() {
            *w = u32::from_be_bytes([key[4 * i], key[4 * i + 1], key[4 * i + 2], key[4 * i + 3]]);
        }
        for i in 4..44 {
            let mut temp = ek[i - 1];
            if i % 4 == 0 {
                // RotWord then SubWord then Rcon on the top byte.
                temp = sub_word(temp.rotate_left(8)) ^ ((RCON[i / 4 - 1] as u32) << 24);
            }
            ek[i] = ek[i - 4] ^ temp;
        }
        // Inverse schedule: round keys reversed, inner ones passed
        // through InvMixColumns so decryption can use the same
        // table-lookup round shape as encryption. Td[r][S[x]] is the
        // InvMixColumns contribution of plain byte x at row r (the
        // forward S-box cancels the inverse one baked into Td), so the
        // transform is four lookups per word instead of GF multiplies.
        let mut dk = [0u32; 44];
        for round in 0..11 {
            for col in 0..4 {
                let w = ek[4 * (10 - round) + col];
                dk[4 * round + col] = if round == 0 || round == 10 {
                    w
                } else {
                    let [a, b, c, d] = w.to_be_bytes();
                    t.td[0][t.sbox[a as usize] as usize]
                        ^ t.td[1][t.sbox[b as usize] as usize]
                        ^ t.td[2][t.sbox[c as usize] as usize]
                        ^ t.td[3][t.sbox[d as usize] as usize]
                };
            }
        }
        Aes128 {
            #[cfg(target_arch = "x86_64")]
            ni: ni::RoundKeys::new(&ek, &dk),
            ek,
            dk,
        }
    }

    /// Encrypts one block in place.
    pub fn encrypt_block(&self, block: &mut [u8; 16]) {
        #[cfg(target_arch = "x86_64")]
        if let Some(keys) = &self.ni {
            // SAFETY: `keys` exists only if `is_x86_feature_detected!("aes")`
            // returned true, and `aes` is the one feature the callee enables.
            #[allow(unsafe_code)]
            return unsafe { ni::encrypt_block(keys, block) };
        }
        self.table_encrypt_block(block);
    }

    /// Encrypts a batch of blocks in place, pipelining independent blocks
    /// through the rounds together. Bit-identical to calling
    /// [`encrypt_block`](Self::encrypt_block) on each block.
    pub fn encrypt_blocks(&self, blocks: &mut [[u8; 16]]) {
        #[cfg(target_arch = "x86_64")]
        if let Some(keys) = &self.ni {
            // SAFETY: `keys` exists only if `is_x86_feature_detected!("aes")`
            // returned true, and `aes` is the one feature the callee enables.
            #[allow(unsafe_code)]
            return unsafe { ni::encrypt_blocks(keys, blocks) };
        }
        self.table_encrypt_blocks(blocks);
    }

    /// Runs the CBC-MAC chain over whole blocks: for each 16-byte block
    /// `b` of `data` in turn, `chain = E(chain ⊕ b)`. Bit-identical to
    /// that loop over [`encrypt_block`](Self::encrypt_block).
    ///
    /// # Panics
    ///
    /// When `data` is not a whole number of blocks.
    pub fn cbc_mac(&self, chain: &mut [u8; 16], data: &[u8]) {
        assert!(
            data.len().is_multiple_of(16),
            "CBC-MAC absorbs whole blocks"
        );
        #[cfg(target_arch = "x86_64")]
        if let Some(keys) = &self.ni {
            // SAFETY: `keys` exists only if `is_x86_feature_detected!("aes")`
            // returned true, and `aes` is the one feature the callee enables.
            #[allow(unsafe_code)]
            return unsafe { ni::cbc_mac(keys, chain, data) };
        }
        self.table_cbc_mac(chain, data);
    }

    /// CTR mode: XORs the keystream block `E(nonce ‖ counter + i)`, both
    /// halves big-endian, into the `i`-th 16-byte block of `data`; the
    /// last block may be short. Encrypt and decrypt are the same call.
    ///
    /// With a `gate`, the keystream block of `counter` itself goes to the
    /// gate before any byte of `data` changes, and `data` starts at
    /// `counter + 1`. When the gate returns false, so does the call, and
    /// `data` is left as it was. GCM's tag mask `E(J0)` rides in the
    /// first batch this way, on open as well as on seal.
    pub(crate) fn ctr_xor(
        &self,
        nonce: u64,
        counter: u64,
        data: &mut [u8],
        gate: Option<CtrGate<'_>>,
    ) -> bool {
        #[cfg(target_arch = "x86_64")]
        if let Some(keys) = &self.ni {
            // SAFETY: `keys` exists only if `is_x86_feature_detected!("aes")`
            // returned true, and `aes` is the one feature the callee enables.
            #[allow(unsafe_code)]
            return unsafe { ni::ctr_xor(keys, nonce, counter, data, gate) };
        }
        self.table_ctr_xor(nonce, counter, data, gate)
    }

    /// Decrypts one block in place.
    pub fn decrypt_block(&self, block: &mut [u8; 16]) {
        #[cfg(target_arch = "x86_64")]
        if let Some(keys) = &self.ni {
            // SAFETY: `keys` exists only if `is_x86_feature_detected!("aes")`
            // returned true, and `aes` is the one feature the callee enables.
            #[allow(unsafe_code)]
            return unsafe { ni::decrypt_block(keys, block) };
        }
        self.table_decrypt_block(block);
    }

    /// Encrypts one block in place on the T-table cipher.
    fn table_encrypt_block(&self, block: &mut [u8; 16]) {
        let t = tables();
        let mut s = load_columns(block);
        xor_round_key(&mut s, &self.ek[..4]);
        for round in 1..10 {
            s = enc_round(&s, t, &self.ek[4 * round..4 * round + 4]);
        }
        store_columns(block, &enc_last_round(&s, &t.sbox, &self.ek[40..44]));
    }

    /// Encrypts a batch of blocks in place on the T-table cipher,
    /// pipelining [`BATCH`] blocks through the rounds together so
    /// independent table lookups overlap.
    fn table_encrypt_blocks(&self, blocks: &mut [[u8; 16]]) {
        let t = tables();
        let mut chunks = blocks.chunks_exact_mut(BATCH);
        for chunk in &mut chunks {
            let mut a = load_columns(&chunk[0]);
            let mut b = load_columns(&chunk[1]);
            xor_round_key(&mut a, &self.ek[..4]);
            xor_round_key(&mut b, &self.ek[..4]);
            for round in 1..10 {
                let rk = &self.ek[4 * round..4 * round + 4];
                a = enc_round(&a, t, rk);
                b = enc_round(&b, t, rk);
            }
            let rk = &self.ek[40..44];
            store_columns(&mut chunk[0], &enc_last_round(&a, &t.sbox, rk));
            store_columns(&mut chunk[1], &enc_last_round(&b, &t.sbox, rk));
        }
        for block in chunks.into_remainder() {
            self.table_encrypt_block(block);
        }
    }

    /// The CBC-MAC chain on the T-table cipher, one block at a time.
    fn table_cbc_mac(&self, chain: &mut [u8; 16], data: &[u8]) {
        for block in data.chunks_exact(16) {
            for (c, b) in chain.iter_mut().zip(block) {
                *c ^= b;
            }
            self.table_encrypt_block(chain);
        }
    }

    /// [`ctr_xor`](Self::ctr_xor) on the T-table cipher: counter blocks
    /// are laid out in an array eight at a time and encrypted as one
    /// batch, then XORed into the data. The reference the AES-NI kernel
    /// is tested against.
    fn table_ctr_xor(
        &self,
        nonce: u64,
        mut counter: u64,
        data: &mut [u8],
        gate: Option<CtrGate<'_>>,
    ) -> bool {
        const LANES: usize = 8;
        if let Some(gate) = gate {
            let mut head = counter_block(nonce, counter);
            self.table_encrypt_block(&mut head);
            if !gate(&head) {
                return false;
            }
            counter = counter.wrapping_add(1);
        }
        for chunk in data.chunks_mut(16 * LANES) {
            let blocks = chunk.len().div_ceil(16);
            let mut ks: [[u8; 16]; LANES] =
                core::array::from_fn(|i| counter_block(nonce, counter.wrapping_add(i as u64)));
            self.table_encrypt_blocks(&mut ks[..blocks]);
            for (seg, k) in chunk.chunks_mut(16).zip(ks.iter()) {
                for (b, k) in seg.iter_mut().zip(k) {
                    *b ^= k;
                }
            }
            counter = counter.wrapping_add(blocks as u64);
        }
        true
    }

    /// Decrypts one block in place on the T-table cipher.
    fn table_decrypt_block(&self, block: &mut [u8; 16]) {
        let t = tables();
        let mut s = load_columns(block);
        xor_round_key(&mut s, &self.dk[..4]);
        for round in 1..10 {
            s = dec_round(&s, t, &self.dk[4 * round..4 * round + 4]);
        }
        store_columns(block, &dec_last_round(&s, &t.inv_sbox, &self.dk[40..44]));
    }

    /// Encrypts a copy of the block (convenience for keystream generation).
    #[inline]
    pub fn encrypt_copy(&self, block: &[u8; 16]) -> [u8; 16] {
        let mut b = *block;
        self.encrypt_block(&mut b);
        b
    }
}

/// The CTR counter block `nonce ‖ counter`, both halves big-endian.
fn counter_block(nonce: u64, counter: u64) -> [u8; 16] {
    let mut block = [0u8; 16];
    block[..8].copy_from_slice(&nonce.to_be_bytes());
    block[8..].copy_from_slice(&counter.to_be_bytes());
    block
}

/// Loads the four big-endian column words of a block.
#[inline]
fn load_columns(block: &[u8; 16]) -> [u32; 4] {
    core::array::from_fn(|c| {
        u32::from_be_bytes([
            block[4 * c],
            block[4 * c + 1],
            block[4 * c + 2],
            block[4 * c + 3],
        ])
    })
}

/// Stores four column words back into block bytes.
#[inline]
fn store_columns(block: &mut [u8; 16], s: &[u32; 4]) {
    for c in 0..4 {
        block[4 * c..4 * c + 4].copy_from_slice(&s[c].to_be_bytes());
    }
}

#[inline]
fn xor_round_key(s: &mut [u32; 4], rk: &[u32]) {
    for (w, k) in s.iter_mut().zip(rk) {
        *w ^= k;
    }
}

/// One full forward round: SubBytes + ShiftRows + MixColumns +
/// AddRoundKey. Output column `j` draws row `r` from input column
/// `(j + r) % 4` (ShiftRows rotates row `r` left by `r`). Written with
/// explicit scalars so the sixteen table lookups stay independent and
/// fully unrolled.
#[inline(always)]
fn enc_round(s: &[u32; 4], t: &Tables, rk: &[u32]) -> [u32; 4] {
    let [s0, s1, s2, s3] = *s;
    let (te0, te1, te2, te3) = (&t.te[0], &t.te[1], &t.te[2], &t.te[3]);
    [
        te0[(s0 >> 24) as u8 as usize]
            ^ te1[(s1 >> 16) as u8 as usize]
            ^ te2[(s2 >> 8) as u8 as usize]
            ^ te3[s3 as u8 as usize]
            ^ rk[0],
        te0[(s1 >> 24) as u8 as usize]
            ^ te1[(s2 >> 16) as u8 as usize]
            ^ te2[(s3 >> 8) as u8 as usize]
            ^ te3[s0 as u8 as usize]
            ^ rk[1],
        te0[(s2 >> 24) as u8 as usize]
            ^ te1[(s3 >> 16) as u8 as usize]
            ^ te2[(s0 >> 8) as u8 as usize]
            ^ te3[s1 as u8 as usize]
            ^ rk[2],
        te0[(s3 >> 24) as u8 as usize]
            ^ te1[(s0 >> 16) as u8 as usize]
            ^ te2[(s1 >> 8) as u8 as usize]
            ^ te3[s2 as u8 as usize]
            ^ rk[3],
    ]
}

/// The final forward round (no MixColumns): plain S-box bytes.
#[inline(always)]
fn enc_last_round(s: &[u32; 4], sbox: &[u8; 256], rk: &[u32]) -> [u32; 4] {
    let [s0, s1, s2, s3] = *s;
    let col = |a: u32, b: u32, c: u32, d: u32| {
        ((sbox[(a >> 24) as u8 as usize] as u32) << 24)
            | ((sbox[(b >> 16) as u8 as usize] as u32) << 16)
            | ((sbox[(c >> 8) as u8 as usize] as u32) << 8)
            | (sbox[d as u8 as usize] as u32)
    };
    [
        col(s0, s1, s2, s3) ^ rk[0],
        col(s1, s2, s3, s0) ^ rk[1],
        col(s2, s3, s0, s1) ^ rk[2],
        col(s3, s0, s1, s2) ^ rk[3],
    ]
}

/// One equivalent-inverse round. InvShiftRows rotates row `r` right by
/// `r`, so output column `j` draws row `r` from column `(j + 4 - r) % 4`.
#[inline(always)]
fn dec_round(s: &[u32; 4], t: &Tables, rk: &[u32]) -> [u32; 4] {
    let [s0, s1, s2, s3] = *s;
    let (td0, td1, td2, td3) = (&t.td[0], &t.td[1], &t.td[2], &t.td[3]);
    [
        td0[(s0 >> 24) as u8 as usize]
            ^ td1[(s3 >> 16) as u8 as usize]
            ^ td2[(s2 >> 8) as u8 as usize]
            ^ td3[s1 as u8 as usize]
            ^ rk[0],
        td0[(s1 >> 24) as u8 as usize]
            ^ td1[(s0 >> 16) as u8 as usize]
            ^ td2[(s3 >> 8) as u8 as usize]
            ^ td3[s2 as u8 as usize]
            ^ rk[1],
        td0[(s2 >> 24) as u8 as usize]
            ^ td1[(s1 >> 16) as u8 as usize]
            ^ td2[(s0 >> 8) as u8 as usize]
            ^ td3[s3 as u8 as usize]
            ^ rk[2],
        td0[(s3 >> 24) as u8 as usize]
            ^ td1[(s2 >> 16) as u8 as usize]
            ^ td2[(s1 >> 8) as u8 as usize]
            ^ td3[s0 as u8 as usize]
            ^ rk[3],
    ]
}

/// The final inverse round: plain inverse S-box bytes.
#[inline(always)]
fn dec_last_round(s: &[u32; 4], inv_sbox: &[u8; 256], rk: &[u32]) -> [u32; 4] {
    let [s0, s1, s2, s3] = *s;
    let col = |a: u32, b: u32, c: u32, d: u32| {
        ((inv_sbox[(a >> 24) as u8 as usize] as u32) << 24)
            | ((inv_sbox[(b >> 16) as u8 as usize] as u32) << 16)
            | ((inv_sbox[(c >> 8) as u8 as usize] as u32) << 8)
            | (inv_sbox[d as u8 as usize] as u32)
    };
    [
        col(s0, s3, s2, s1) ^ rk[0],
        col(s1, s0, s3, s2) ^ rk[1],
        col(s2, s1, s0, s3) ^ rk[2],
        col(s3, s2, s1, s0) ^ rk[3],
    ]
}

/// The AES-NI backend. Each function runs the same cipher as its
/// T-table counterpart on the round keys of [`Aes128::new`]: `AESENC`
/// and `AESENCLAST` take the forward keys, `AESDEC` and `AESDECLAST` the
/// equivalent-inverse keys, which are InvMixColumns-transformed exactly
/// as `AESIMC` would make them.
#[cfg(target_arch = "x86_64")]
mod ni {
    use core::arch::x86_64::{
        __m128i, _mm_aesdec_si128, _mm_aesdeclast_si128, _mm_aesenc_si128, _mm_aesenclast_si128,
        _mm_cvtsi128_si64, _mm_set_epi64x, _mm_setzero_si128, _mm_unpackhi_epi64, _mm_xor_si128,
    };

    /// Blocks [`encrypt_blocks`] keeps in flight: enough independent
    /// `AESENC`s to cover the instruction's latency.
    const LANES: usize = 8;

    /// Both key schedules as round-key bytes in FIPS-197 order, ready to
    /// load into registers.
    #[derive(Clone)]
    pub(super) struct RoundKeys {
        enc: [[u8; 16]; 11],
        dec: [[u8; 16]; 11],
    }

    impl RoundKeys {
        /// Converts the software schedules, or returns `None` when the
        /// CPU lacks AES-NI. A `RoundKeys` is thus proof of the feature.
        pub(super) fn new(ek: &[u32; 44], dk: &[u32; 44]) -> Option<Self> {
            if !std::arch::is_x86_feature_detected!("aes") {
                return None;
            }
            let bytes = |w: &[u32; 44]| {
                let mut keys = [[0u8; 16]; 11];
                for (key, words) in keys.iter_mut().zip(w.chunks_exact(4)) {
                    for (k, word) in key.chunks_exact_mut(4).zip(words) {
                        k.copy_from_slice(&word.to_be_bytes());
                    }
                }
                keys
            };
            Some(RoundKeys {
                enc: bytes(ek),
                dec: bytes(dk),
            })
        }
    }

    /// Loads block byte `i` into register byte `i`; the compiler emits
    /// one unaligned load. SSE2 is part of the x86_64 baseline, and
    /// `aes` implies it, so only `aes` is detected.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn load(block: &[u8; 16]) -> __m128i {
        let [lo, hi] =
            [0, 8].map(|i| i64::from_le_bytes(block[i..i + 8].try_into().expect("8-byte half")));
        _mm_set_epi64x(hi, lo)
    }

    /// Stores register byte `i` into block byte `i`.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn store(block: &mut [u8; 16], v: __m128i) {
        block[..8].copy_from_slice(&_mm_cvtsi128_si64(v).to_le_bytes());
        block[8..].copy_from_slice(&_mm_cvtsi128_si64(_mm_unpackhi_epi64(v, v)).to_le_bytes());
    }

    #[target_feature(enable = "aes")]
    pub(super) fn encrypt_block(k: &RoundKeys, block: &mut [u8; 16]) {
        let mut s = _mm_xor_si128(load(block), load(&k.enc[0]));
        for rk in &k.enc[1..10] {
            s = _mm_aesenc_si128(s, load(rk));
        }
        store(block, _mm_aesenclast_si128(s, load(&k.enc[10])));
    }

    #[target_feature(enable = "aes")]
    pub(super) fn encrypt_blocks(k: &RoundKeys, blocks: &mut [[u8; 16]]) {
        let mut chunks = blocks.chunks_exact_mut(LANES);
        for chunk in &mut chunks {
            let rk = load(&k.enc[0]);
            let mut s = [rk; LANES];
            for (x, b) in s.iter_mut().zip(chunk.iter()) {
                *x = _mm_xor_si128(load(b), rk);
            }
            for rk in &k.enc[1..10] {
                let rk = load(rk);
                for x in &mut s {
                    *x = _mm_aesenc_si128(*x, rk);
                }
            }
            let rk = load(&k.enc[10]);
            for (x, b) in s.into_iter().zip(chunk.iter_mut()) {
                store(b, _mm_aesenclast_si128(x, rk));
            }
        }
        // Fewer than `LANES` blocks are left. Each is its own chain of
        // rounds, and back-to-back calls are independent, so the core
        // overlaps them out of order: on an AES-NI Xeon, one to seven
        // such blocks cost about what one does, where a padded
        // eight-lane pass costs two to three times as much.
        for block in chunks.into_remainder() {
            encrypt_block(k, block);
        }
    }

    /// The CBC-MAC chain with the round keys loaded into registers once,
    /// not once per block.
    #[target_feature(enable = "aes")]
    pub(super) fn cbc_mac(k: &RoundKeys, chain: &mut [u8; 16], data: &[u8]) {
        let rk = load_enc(k);
        let mut x = load(chain);
        for block in data.chunks_exact(16) {
            let block = block.try_into().expect("16-byte block");
            x = _mm_xor_si128(x, _mm_xor_si128(load(block), rk[0]));
            for r in &rk[1..10] {
                x = _mm_aesenc_si128(x, *r);
            }
            x = _mm_aesenclast_si128(x, rk[10]);
        }
        store(chain, x);
    }

    /// The eleven encryption round keys, loaded into registers.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn load_enc(k: &RoundKeys) -> [__m128i; 11] {
        let mut rk = [_mm_setzero_si128(); 11];
        for (r, key) in rk.iter_mut().zip(&k.enc) {
            *r = load(key);
        }
        rk
    }

    /// The counter block `nonce ‖ counter` whitened with round key 0.
    /// `nonce` is already byte-swapped; register byte `i` is block byte
    /// `i`, so each big-endian half goes in byte-swapped.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn counter_block(rk0: __m128i, nonce: i64, counter: u64) -> __m128i {
        _mm_xor_si128(_mm_set_epi64x(counter.swap_bytes() as i64, nonce), rk0)
    }

    /// XORs keystream `ks` into a whole or short block of data.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn xor_into(seg: &mut [u8], ks: __m128i) {
        if let Ok(block) = <&mut [u8; 16]>::try_from(&mut *seg) {
            store(block, _mm_xor_si128(load(block), ks));
        } else {
            let mut k = [0u8; 16];
            store(&mut k, ks);
            for (b, k) in seg.iter_mut().zip(k) {
                *b ^= k;
            }
        }
    }

    /// `Aes128::ctr_xor` with the keystream made and used in registers:
    /// the round keys load once, eight counter blocks per batch are built
    /// from the counter with `_mm_set_epi64x` and run through the rounds
    /// together, and each keystream block is XORed into the data where
    /// it lies. Fewer than eight blocks left run one at a time, which the
    /// core overlaps as `encrypt_blocks`' remainder does.
    #[target_feature(enable = "aes")]
    pub(super) fn ctr_xor(
        k: &RoundKeys,
        nonce: u64,
        mut counter: u64,
        data: &mut [u8],
        mut gate: Option<super::CtrGate<'_>>,
    ) -> bool {
        let rk = load_enc(k);
        let nonce = nonce.swap_bytes() as i64;
        let mut rest = data;
        // Whether the next keystream block still goes to the gate.
        let mut head = usize::from(gate.is_some());
        while rest.len() >= 16 * (LANES - head) {
            let mut s = [rk[0]; LANES];
            for (i, x) in s.iter_mut().enumerate() {
                *x = counter_block(rk[0], nonce, counter.wrapping_add(i as u64));
            }
            for r in &rk[1..10] {
                for x in &mut s {
                    *x = _mm_aesenc_si128(*x, *r);
                }
            }
            for x in &mut s {
                *x = _mm_aesenclast_si128(*x, rk[10]);
            }
            counter = counter.wrapping_add(LANES as u64);
            if let Some(gate) = gate.take() {
                let mut mask = [0u8; 16];
                store(&mut mask, s[0]);
                if !gate(&mask) {
                    return false;
                }
            }
            let (now, later) = rest.split_at_mut(16 * (LANES - head));
            for (seg, ks) in now.chunks_exact_mut(16).zip(&s[head..]) {
                xor_into(seg, *ks);
            }
            rest = later;
            head = 0;
        }
        let one = |counter: u64| {
            let mut x = counter_block(rk[0], nonce, counter);
            for r in &rk[1..10] {
                x = _mm_aesenc_si128(x, *r);
            }
            _mm_aesenclast_si128(x, rk[10])
        };
        if let Some(gate) = gate {
            let mut mask = [0u8; 16];
            store(&mut mask, one(counter));
            counter = counter.wrapping_add(1);
            if !gate(&mask) {
                return false;
            }
        }
        for seg in rest.chunks_mut(16) {
            xor_into(seg, one(counter));
            counter = counter.wrapping_add(1);
        }
        true
    }

    #[target_feature(enable = "aes")]
    pub(super) fn decrypt_block(k: &RoundKeys, block: &mut [u8; 16]) {
        let mut s = _mm_xor_si128(load(block), load(&k.dec[0]));
        for rk in &k.dec[1..10] {
            s = _mm_aesdec_si128(s, load(rk));
        }
        store(block, _mm_aesdeclast_si128(s, load(&k.dec[10])));
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

    fn block(s: &str) -> [u8; 16] {
        hex(s).try_into().unwrap()
    }

    #[test]
    fn sbox_known_entries() {
        let t = tables();
        assert_eq!(t.sbox[0x00], 0x63);
        assert_eq!(t.sbox[0x01], 0x7c);
        assert_eq!(t.sbox[0x53], 0xed);
        assert_eq!(t.inv_sbox[0x63], 0x00);
        assert_eq!(t.inv_sbox[0xed], 0x53);
        // S-box is a permutation.
        let mut seen = [false; 256];
        for &b in t.sbox.iter() {
            assert!(!seen[b as usize]);
            seen[b as usize] = true;
        }
    }

    #[test]
    fn gf_mul_known() {
        // FIPS-197 §4.2: {57} * {83} = {c1}, {57} * {13} = {fe}.
        assert_eq!(gf_mul(0x57, 0x83), 0xc1);
        assert_eq!(gf_mul(0x57, 0x13), 0xfe);
        assert_eq!(gf_mul(0x00, 0xff), 0x00);
        assert_eq!(gf_mul(0x01, 0xab), 0xab);
    }

    #[test]
    fn gf_inv_is_inverse() {
        for a in 1..=255u8 {
            assert_eq!(gf_mul(a, gf_inv(a)), 1, "a={a:#x}");
        }
        assert_eq!(gf_inv(0), 0);
    }

    #[test]
    fn t_tables_match_field_definition() {
        let t = tables();
        for x in 0..256usize {
            let s = t.sbox[x];
            let expect = u32::from_be_bytes([gf_mul(s, 2), s, s, gf_mul(s, 3)]);
            assert_eq!(t.te[0][x], expect, "Te0[{x:#x}]");
            let is = t.inv_sbox[x];
            let expect = u32::from_be_bytes([
                gf_mul(is, 0x0e),
                gf_mul(is, 0x09),
                gf_mul(is, 0x0d),
                gf_mul(is, 0x0b),
            ]);
            assert_eq!(t.td[0][x], expect, "Td0[{x:#x}]");
            for row in 1..4 {
                assert_eq!(t.te[row][x], t.te[0][x].rotate_right(8 * row as u32));
                assert_eq!(t.td[row][x], t.td[0][x].rotate_right(8 * row as u32));
            }
        }
    }

    #[test]
    fn table_key_schedule_transform_matches_inv_mix() {
        // The Td[r][S[x]] shortcut used in Aes128::new must equal the
        // direct InvMixColumns matrix product for every word.
        let t = tables();
        for w in [0x0000_0000u32, 0x0102_0304, 0xdead_beef, 0xffff_ffff] {
            let [a, b, c, d] = w.to_be_bytes();
            let via_tables = t.td[0][t.sbox[a as usize] as usize]
                ^ t.td[1][t.sbox[b as usize] as usize]
                ^ t.td[2][t.sbox[c as usize] as usize]
                ^ t.td[3][t.sbox[d as usize] as usize];
            assert_eq!(via_tables, inv_mix_word(w), "w={w:#010x}");
        }
    }

    #[test]
    fn inv_mix_word_inverts_mix() {
        // MixColumns of a lone byte at row 0 is Te0 with the S-box
        // stripped: check inv_mix_word undoes the forward matrix.
        for w in [0x0102_0304u32, 0xdead_beef, 0x0000_0001, 0xffff_ffff] {
            let [a, b, c, d] = w.to_be_bytes();
            let mixed = u32::from_be_bytes([
                gf_mul(a, 2) ^ gf_mul(b, 3) ^ c ^ d,
                a ^ gf_mul(b, 2) ^ gf_mul(c, 3) ^ d,
                a ^ b ^ gf_mul(c, 2) ^ gf_mul(d, 3),
                gf_mul(a, 3) ^ b ^ c ^ gf_mul(d, 2),
            ]);
            assert_eq!(inv_mix_word(mixed), w, "w={w:#010x}");
        }
    }

    /// Runs one FIPS-197 vector through the T-table cipher and, on a CPU
    /// with AES-NI, through the hardware path: one block each way, and a
    /// batch across the hardware lane width and its remainder.
    fn check_vector(key: &str, plain: &str, cipher: &str) {
        let aes = Aes128::new(&block(key));
        let (plain, cipher) = (block(plain), block(cipher));
        let mut b = plain;
        aes.table_encrypt_block(&mut b);
        assert_eq!(b, cipher, "T-table encrypt");
        aes.table_decrypt_block(&mut b);
        assert_eq!(b, plain, "T-table decrypt");
        let mut batch = [plain; 9];
        aes.table_encrypt_blocks(&mut batch);
        assert_eq!(batch, [cipher; 9], "T-table batch");
        if on_hardware(&aes) {
            aes.encrypt_block(&mut b);
            assert_eq!(b, cipher, "AES-NI encrypt");
            aes.decrypt_block(&mut b);
            assert_eq!(b, plain, "AES-NI decrypt");
            let mut batch = [plain; 9];
            aes.encrypt_blocks(&mut batch);
            assert_eq!(batch, [cipher; 9], "AES-NI batch");
        }
    }

    #[test]
    fn fips197_appendix_b() {
        check_vector(
            "2b7e151628aed2a6abf7158809cf4f3c",
            "3243f6a8885a308d313198a2e0370734",
            "3925841d02dc09fbdc118597196a0b32",
        );
    }

    #[test]
    fn fips197_appendix_c1() {
        check_vector(
            "000102030405060708090a0b0c0d0e0f",
            "00112233445566778899aabbccddeeff",
            "69c4e0d86a7b0430d8cdb78070b4c55a",
        );
    }

    #[test]
    fn batch_encrypt_matches_single_blocks() {
        let aes = Aes128::new(&block("000102030405060708090a0b0c0d0e0f"));
        // Lengths around both paths' lane widths, with ragged tails.
        for len in 0..=17 {
            let mut batch: Vec<[u8; 16]> = (0..len)
                .map(|i| core::array::from_fn(|j| (i * 16 + j) as u8))
                .collect();
            let singles: Vec<[u8; 16]> = batch.iter().map(|b| aes.encrypt_copy(b)).collect();
            aes.encrypt_blocks(&mut batch);
            assert_eq!(batch, singles, "len={len}");
        }
    }

    /// Whether `aes` runs on AES-NI. On a CPU without it the hardware
    /// half of a test has nothing to check, and the test says so.
    #[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
    fn on_hardware(aes: &Aes128) -> bool {
        #[cfg(target_arch = "x86_64")]
        if aes.ni.is_some() {
            return true;
        }
        static NOTE: std::sync::Once = std::sync::Once::new();
        NOTE.call_once(|| eprintln!("no AES-NI on this CPU: skipping the hardware-path checks"));
        false
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn hardware_path_follows_cpu_detection() {
        let aes = Aes128::new(&[7; 16]);
        assert_eq!(aes.ni.is_some(), std::arch::is_x86_feature_detected!("aes"));
    }

    #[test]
    fn different_keys_differ() {
        let a1 = Aes128::new(&[0u8; 16]);
        let a2 = Aes128::new(&[1u8; 16]);
        let b = [0x42u8; 16];
        assert_ne!(a1.encrypt_copy(&b), a2.encrypt_copy(&b));
    }

    proptest! {
        #[test]
        fn prop_encrypt_decrypt_roundtrip(key in any::<[u8;16]>(), data in any::<[u8;16]>()) {
            let aes = Aes128::new(&key);
            let mut b = data;
            aes.encrypt_block(&mut b);
            aes.decrypt_block(&mut b);
            prop_assert_eq!(b, data);
        }

        #[test]
        fn prop_encryption_is_permutation(key in any::<[u8;16]>(), d1 in any::<[u8;16]>(), d2 in any::<[u8;16]>()) {
            prop_assume!(d1 != d2);
            let aes = Aes128::new(&key);
            prop_assert_ne!(aes.encrypt_copy(&d1), aes.encrypt_copy(&d2));
        }

        #[test]
        fn prop_batch_matches_singles(
            key in any::<[u8;16]>(),
            blocks in proptest::collection::vec(any::<[u8;16]>(), 0..12),
        ) {
            let aes = Aes128::new(&key);
            let singles: Vec<[u8;16]> = blocks.iter().map(|b| aes.encrypt_copy(b)).collect();
            let mut batch = blocks;
            aes.encrypt_blocks(&mut batch);
            prop_assert_eq!(batch, singles);
        }

        /// The CBC-MAC call equals the chain of single-block encryptions
        /// it replaces, on whichever backend runs and on the T-table one.
        #[test]
        fn prop_cbc_mac_matches_block_chain(
            key in any::<[u8;16]>(),
            iv in any::<[u8;16]>(),
            blocks in proptest::collection::vec(any::<[u8;16]>(), 0..6),
        ) {
            let aes = Aes128::new(&key);
            let mut expect = iv;
            for b in &blocks {
                for (e, x) in expect.iter_mut().zip(b) {
                    *e ^= x;
                }
                aes.table_encrypt_block(&mut expect);
            }
            let data = blocks.concat();
            let (mut chain, mut table) = (iv, iv);
            aes.cbc_mac(&mut chain, &data);
            aes.table_cbc_mac(&mut table, &data);
            prop_assert_eq!(chain, expect);
            prop_assert_eq!(table, expect);
        }

        /// The CTR call, on whichever backend runs, equals the T-table
        /// counter path at every length from 0 to 300 bytes and from any
        /// start counter, wrapping included. With a gate, the gate gets
        /// `E(nonce ‖ counter)` and the data the keystream from
        /// `counter + 1`; a gate that refuses leaves the data as it was.
        #[test]
        fn prop_ctr_matches_table(
            key in any::<[u8;16]>(),
            nonce in any::<u64>(),
            counter in any::<u64>(),
            data in proptest::collection::vec(any::<u8>(), 300),
        ) {
            let aes = Aes128::new(&key);
            let head = aes.encrypt_copy(&counter_block(nonce, counter));
            for len in 0..=data.len() {
                let plain = &data[..len];
                let mut table = plain.to_vec();
                aes.table_ctr_xor(nonce, counter, &mut table, None);
                let mut run = plain.to_vec();
                aes.ctr_xor(nonce, counter, &mut run, None);
                prop_assert_eq!(&run, &table, "len {}", len);

                let mut expect = plain.to_vec();
                aes.table_ctr_xor(nonce, counter.wrapping_add(1), &mut expect, None);
                let (mut table_head, mut table) = ([0u8; 16], plain.to_vec());
                let mut gate = |m: &[u8; 16]| {
                    table_head = *m;
                    true
                };
                prop_assert!(aes.table_ctr_xor(nonce, counter, &mut table, Some(&mut gate)));
                let (mut run_head, mut run) = ([0u8; 16], plain.to_vec());
                let mut gate = |m: &[u8; 16]| {
                    run_head = *m;
                    true
                };
                prop_assert!(aes.ctr_xor(nonce, counter, &mut run, Some(&mut gate)));
                prop_assert_eq!((table_head, &table), (head, &expect), "T-table gated, len {}", len);
                prop_assert_eq!((run_head, &run), (head, &expect), "gated, len {}", len);
                let mut refused = plain.to_vec();
                prop_assert!(!aes.ctr_xor(nonce, counter, &mut refused, Some(&mut |_| false)));
                prop_assert_eq!(&refused[..], plain);
            }
        }

        /// The hardware path equals the T-table reference byte for byte,
        /// at every length across the eight-block lane width and its
        /// remainder, and the T-table batch equals T-table singles.
        #[test]
        fn prop_hardware_matches_table(
            key in any::<[u8;16]>(),
            blocks in proptest::collection::vec(any::<[u8;16]>(), 17),
        ) {
            let aes = Aes128::new(&key);
            let hardware = on_hardware(&aes);
            let encrypted: Vec<[u8;16]> = blocks.iter().map(|b| {
                let mut b = *b;
                aes.table_encrypt_block(&mut b);
                b
            }).collect();
            for len in 0..=blocks.len() {
                let mut batch = blocks[..len].to_vec();
                aes.table_encrypt_blocks(&mut batch);
                prop_assert_eq!(&batch[..], &encrypted[..len], "T-table batch, len {}", len);
                if hardware {
                    let mut batch = blocks[..len].to_vec();
                    aes.encrypt_blocks(&mut batch);
                    prop_assert_eq!(&batch[..], &encrypted[..len], "AES-NI batch, len {}", len);
                }
            }
            for (b, e) in blocks.iter().zip(&encrypted).filter(|_| hardware) {
                let mut hw = *b;
                aes.encrypt_block(&mut hw);
                prop_assert_eq!(&hw, e);
                let (mut hw, mut table) = (*b, *b);
                aes.decrypt_block(&mut hw);
                aes.table_decrypt_block(&mut table);
                prop_assert_eq!(hw, table);
            }
        }
    }
}
