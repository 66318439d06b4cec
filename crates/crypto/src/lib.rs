//! # nn-crypto — cryptographic substrate for the neutralizer
//!
//! This crate implements, from scratch, every cryptographic primitive the
//! paper *A Technical Approach to Net Neutrality* (HotNets 2006) relies on:
//!
//! * [`biguint`] / [`modexp`] / [`prime`] — multiprecision arithmetic,
//!   Montgomery exponentiation and prime generation sized for 512-bit
//!   one-time RSA keys (§3.2) and 1024-bit end-to-end keys.
//! * [`rsa`] — RSA with public exponent 3, so the neutralizer's per-packet
//!   work is "as few as two multiplications" (§3.2), with CRT decryption
//!   on the source side.
//! * [`aes`] / [`cmac`](mod@cmac) — "128-bit AES for both hashing and
//!   encryption/decryption" (§4): the block cipher with its CTR mode
//!   ([`Aes128::ctr_xor`]), and the RFC 4493 keyed hash. The cipher runs
//!   on AES-NI where the CPU has it, chosen at run time, and on T-tables
//!   elsewhere.
//! * [`kdf`] — the stateless derivation `Ks = hash(KM, nonce, srcIP)`.
//! * [`sealed`] — the 16-byte encrypted-address block carried in the shim
//!   header, with redundancy so wrong keys are detected.
//! * [`e2e`] — the "IPsec black box" of §3.1 as a concrete hybrid channel:
//!   RSA key transport, then AES-128-GCM for every envelope and record.
//!   Its GHASH (a private module, `ghash`) runs on `PCLMULQDQ` where the
//!   CPU has it, chosen at run time, and on SP 800-38D's bitwise
//!   multiplication elsewhere.
//!
//! Nothing here is intended as production cryptography — the repository
//! reproduces a 2006 research design, including its deliberately short
//! keys — but all primitives are test-vector-validated (FIPS-197,
//! RFC 4493, NIST SP 800-38A, and the GCM spec's test cases 1–3 from
//! McGrew and Viega, as in SP 800-38D) and panic-free on
//! attacker-controlled input.
//!
//! The crate denies `unsafe_code`. The exceptions are the six calls
//! into `#[target_feature]` functions, each with its own
//! `#[allow(unsafe_code)]` and a `// SAFETY:` comment, and each made only
//! after `is_x86_feature_detected!` returned true for every feature the
//! callee enables:
//!
//! * in [`aes`], on `aes`: one block encrypted, one block decrypted, the
//!   CBC-MAC chain, and the CTR kernel;
//! * in `ghash`, on `pclmulqdq` and `ssse3`: the powers of the hash key,
//!   and the hash itself.

#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]
#![warn(missing_docs)]

pub mod aes;
pub mod biguint;
pub mod cmac;
pub mod e2e;
pub mod error;
mod ghash;
pub mod kdf;
pub mod modexp;
pub mod prime;
pub mod rsa;
pub mod sealed;

pub use aes::Aes128;
pub use biguint::BigUint;
pub use cmac::Cmac;
pub use e2e::{E2eEnvelope, E2eSession, SealedRecord};
pub use error::{CryptoError, Result};
pub use kdf::MasterKey;
pub use rsa::{generate_keypair, keygen_rng, RsaKeypair, RsaPrivateKey, RsaPublicKey};
pub use sealed::AddrSealer;
