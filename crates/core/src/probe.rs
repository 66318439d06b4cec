//! Active-measurement probe payloads — the wire format of the edge
//! measurement plane.
//!
//! A user at the edge of the network cannot see an ISP's queues; what
//! they *can* do is send crafted packets and compare how the network
//! treats them (the NetPoke-style "why is it slow" question the
//! measurement plane answers). Every probe packet carries a
//! [`ProbePayload`]: a kind tag, the pair's sequence number, and the
//! sender's clock, so an echo from the far end attributes itself to
//! exactly one emitted probe.
//!
//! The differential pair is the paper-specific instrument: a
//! [`ProbeKind::DiffPlain`] probe looks like the protected application
//! (same destination port, same DPI-visible content marker) while its
//! [`ProbeKind::DiffNeut`] twin is unclassifiable, and both travel the
//! same path back-to-back. A discriminator keyed on classification
//! (content DPI, port blocks, port-targeted jitter) treats the twins
//! differently; a blanket policy (tiered priority over everything)
//! cannot be told apart from plain congestion this way — the detection
//! asymmetry the `detection` matrix documents.

/// Magic prefix of every probe payload.
pub const PROBE_MAGIC: &[u8; 4] = b"NNPR";

/// Encoded probe header length: magic(4) ‖ kind(1) ‖ seq(4) ‖ sent_ns(8).
pub const PROBE_HEADER_LEN: usize = 17;

/// Which half of a differential pair a probe is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeKind {
    /// The application-lookalike half of a differential pair.
    DiffPlain,
    /// The unclassifiable half of a differential pair.
    DiffNeut,
}

impl ProbeKind {
    /// The kind's wire code; every other byte, 1, 4 and 5 included, is
    /// unassigned.
    fn code(self) -> u8 {
        match self {
            ProbeKind::DiffPlain => 2,
            ProbeKind::DiffNeut => 3,
        }
    }

    fn from_code(code: u8) -> Option<ProbeKind> {
        Some(match code {
            2 => ProbeKind::DiffPlain,
            3 => ProbeKind::DiffNeut,
            _ => return None,
        })
    }
}

/// One probe packet's payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbePayload {
    /// Which twin this probe is.
    pub kind: ProbeKind,
    /// The pair's sequence number.
    pub seq: u32,
    /// The prober's clock at emission, nanoseconds.
    pub sent_ns: u64,
}

impl ProbePayload {
    /// Encodes the probe header followed by `extra` filler bytes
    /// (content markers, padding). Layout:
    /// `NNPR ‖ kind(1) ‖ seq(4 BE) ‖ sent_ns(8 BE) ‖ extra`.
    pub fn encode(&self, extra: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(PROBE_HEADER_LEN + extra.len());
        self.encode_into(&mut out, extra);
        out
    }

    /// [`ProbePayload::encode`], appended to `out`: a prober that reuses
    /// one buffer encodes without allocating.
    pub fn encode_into(&self, out: &mut Vec<u8>, extra: &[u8]) {
        out.extend_from_slice(PROBE_MAGIC);
        out.push(self.kind.code());
        out.extend_from_slice(&self.seq.to_be_bytes());
        out.extend_from_slice(&self.sent_ns.to_be_bytes());
        out.extend_from_slice(extra);
    }

    /// Decodes a probe header, returning the payload and the trailing
    /// filler bytes. `None` on bad magic, unknown kind, or truncation —
    /// a responder must never echo garbage as measurement data.
    pub fn decode(bytes: &[u8]) -> Option<(ProbePayload, &[u8])> {
        if bytes.len() < PROBE_HEADER_LEN || &bytes[..4] != PROBE_MAGIC {
            return None;
        }
        let kind = ProbeKind::from_code(bytes[4])?;
        let seq = u32::from_be_bytes(bytes[5..9].try_into().unwrap());
        let sent_ns = u64::from_be_bytes(bytes[9..17].try_into().unwrap());
        Some((
            ProbePayload { kind, seq, sent_ns },
            &bytes[PROBE_HEADER_LEN..],
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roundtrip_every_kind() {
        for kind in [ProbeKind::DiffPlain, ProbeKind::DiffNeut] {
            let p = ProbePayload {
                kind,
                seq: 0xA1B2C3D4,
                sent_ns: u64::MAX - 7,
            };
            let bytes = p.encode(b"marker bytes");
            let (decoded, extra) = ProbePayload::decode(&bytes).unwrap();
            assert_eq!(decoded, p);
            assert_eq!(extra, b"marker bytes");
        }
    }

    #[test]
    fn malformed_input_rejected() {
        let good = ProbePayload {
            kind: ProbeKind::DiffPlain,
            seq: 1,
            sent_ns: 2,
        }
        .encode(b"");
        assert!(ProbePayload::decode(&[]).is_none());
        assert!(ProbePayload::decode(&good[..PROBE_HEADER_LEN - 1]).is_none());
        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert!(ProbePayload::decode(&bad_magic).is_none());
        // Unassigned codes, the neighbours of 2 and 3 among them.
        for code in [1, 4, 5, 99] {
            let mut bad_kind = good.clone();
            bad_kind[4] = code;
            assert!(ProbePayload::decode(&bad_kind).is_none(), "code {code}");
        }
    }

    #[test]
    fn header_length_matches_encoding() {
        let p = ProbePayload {
            kind: ProbeKind::DiffNeut,
            seq: 0,
            sent_ns: 0,
        };
        assert_eq!(p.encode(b"").len(), PROBE_HEADER_LEN);
        assert_eq!(p.encode(b"abc").len(), PROBE_HEADER_LEN + 3);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The magic, a kind byte and up to 48 more bytes, cut anywhere:
        /// `decode` never panics, and what it accepts encodes back to
        /// exactly its input. Half the cases carry a live kind code, so
        /// accepted probes come up as often as refused ones.
        #[test]
        fn decode_never_panics_and_reencodes_what_it_accepts(
            kind in any::<u8>(),
            live in any::<bool>(),
            body in collection::vec(any::<u8>(), 0..49),
            cut in any::<usize>(),
        ) {
            let mut input = PROBE_MAGIC.to_vec();
            input.push(if live { 2 + kind % 2 } else { kind });
            input.extend_from_slice(&body);
            let input = &input[..cut % (input.len() + 1)];
            if let Some((probe, rest)) = ProbePayload::decode(input) {
                prop_assert_eq!(probe.encode(rest), input);
            }
        }
    }
}
