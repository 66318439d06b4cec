//! Key derivation for the stateless neutralizer.
//!
//! §3.2: `Ks = hash(KM, nonce, srcIP)`. Because the neutralizer can
//! recompute `Ks` from fields carried in every packet header (nonce in
//! clear, source address in the IP header), it keeps **no per-flow state**
//! — any neutralizer in the domain holding `KM` can process any packet,
//! preserving IP's stateless, fault-tolerant routing. This module is the
//! concrete realization of that equation.

use crate::cmac::Cmac;

/// Domain-separation label baked into every key derivation, so the same
/// master key can never collide with other CMAC uses.
const DERIVE_LABEL: &[u8; 4] = b"NNKS";

/// A neutralizer master key `KM` with a precomputed CMAC schedule.
#[derive(Clone)]
pub struct MasterKey {
    mac: Cmac,
}

impl core::fmt::Debug for MasterKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str("MasterKey(<secret>)")
    }
}

impl MasterKey {
    /// Wraps 16 bytes of keying material.
    pub fn new(key: [u8; 16]) -> Self {
        MasterKey {
            mac: Cmac::new(&key),
        }
    }

    /// Derives the per-source symmetric key: `Ks = CMAC(KM, label ‖ nonce ‖ srcIP)`.
    ///
    /// `src_ip` is the IPv4 address in big-endian u32 form (the untrusted
    /// value straight from the packet header — derivation itself cannot
    /// fail, a wrong source simply yields a key that decrypts garbage).
    pub fn derive_ks(&self, nonce: u64, src_ip: u32) -> [u8; 16] {
        let mut msg = [0u8; 16];
        msg[..4].copy_from_slice(DERIVE_LABEL);
        msg[4..12].copy_from_slice(&nonce.to_be_bytes());
        msg[12..16].copy_from_slice(&src_ip.to_be_bytes());
        self.mac.tag(&msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn derivation_is_deterministic() {
        let km = MasterKey::new([0x11; 16]);
        assert_eq!(km.derive_ks(7, 0x0a000001), km.derive_ks(7, 0x0a000001));
    }

    #[test]
    fn nonce_and_source_both_bind() {
        let km = MasterKey::new([0x22; 16]);
        let base = km.derive_ks(1, 100);
        assert_ne!(base, km.derive_ks(2, 100), "nonce must change the key");
        assert_ne!(base, km.derive_ks(1, 101), "source must change the key");
    }

    #[test]
    fn master_keys_are_independent() {
        let a = MasterKey::new([0x01; 16]);
        let b = MasterKey::new([0x02; 16]);
        assert_ne!(a.derive_ks(5, 5), b.derive_ks(5, 5));
    }

    proptest! {
        #[test]
        fn prop_distinct_inputs_distinct_keys(
            n1 in any::<u64>(), s1 in any::<u32>(),
            n2 in any::<u64>(), s2 in any::<u32>(),
        ) {
            prop_assume!((n1, s1) != (n2, s2));
            let km = MasterKey::new([0x55; 16]);
            prop_assert_ne!(km.derive_ks(n1, s1), km.derive_ks(n2, s2));
        }
    }
}
