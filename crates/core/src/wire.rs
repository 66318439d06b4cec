//! Application-layer framing inside neutralized packets.
//!
//! The shim payload of a `Data`/`Return` packet is end-to-end encrypted
//! (§3.1). Two framings appear on the wire:
//!
//! * the **first** packets to a peer carry a public-key
//!   [`E2eEnvelope`] (tag 0x01) that also transports the session key;
//! * every later packet carries a symmetric sealed record (tag 0x02).
//!
//! Inside the encrypted plaintext sits one more layer, [`InnerPayload`]:
//! an optional key-rollover stamp — this is how the destination returns
//! the neutralizer-stamped `(nonce', Ks')` to the source under strong
//! encryption (§3.2) — followed by the application bytes.
//!
//! Records are the per-packet path, so they never leave the frame that
//! carries them: [`put_record`] seals one straight into the outgoing
//! frame's buffer, and [`TransportMsg::parse`] frames a received one as
//! a [`SealedRecord`] borrowed from the received frame, which the session
//! then opens in place. Envelopes are parsed into owned values; they only
//! travel until the first authenticated reply.

use nn_crypto::{CryptoError, E2eEnvelope, E2eSession, SealedRecord};
use nn_packet::KeyStamp;

/// Tag byte for an envelope (first packets).
const TAG_ENVELOPE: u8 = 0x01;
/// Tag byte for a session record.
const TAG_RECORD: u8 = 0x02;

/// A received transport message, framed in the shim payload it came in.
#[derive(Debug)]
pub enum TransportMsg<'a> {
    /// Public-key first packet.
    Envelope(E2eEnvelope),
    /// Symmetric follow-up packet, still sealed where it lies.
    Record(SealedRecord<'a>),
}

impl<'a> TransportMsg<'a> {
    /// Frames a tagged message. [`CryptoError::BadLength`] for an unknown
    /// tag or a body that does not frame: a truncated envelope, or a
    /// record whose length field lies.
    pub fn parse(data: &'a mut [u8]) -> Result<Self, CryptoError> {
        match data.split_first_mut() {
            Some((&mut TAG_ENVELOPE, rest)) => {
                Ok(TransportMsg::Envelope(E2eEnvelope::from_bytes(rest)?))
            }
            Some((&mut TAG_RECORD, rest)) => Ok(TransportMsg::Record(SealedRecord::parse(rest)?)),
            _ => Err(CryptoError::BadLength),
        }
    }
}

/// Appends the tagged envelope to `out`.
pub fn put_envelope(out: &mut Vec<u8>, env: &E2eEnvelope) {
    out.push(TAG_ENVELOPE);
    out.extend_from_slice(&env.to_bytes());
}

/// Appends a tagged record to `out`: `inner`, sealed as `session`'s next
/// record and encrypted where it lies in `out`.
pub fn put_record(out: &mut Vec<u8>, session: &mut E2eSession, inner: &InnerPayload) {
    out.push(TAG_RECORD);
    session.seal_into(out, |buf| inner.emit(buf));
}

/// The plaintext inside the end-to-end encryption, borrowed from the
/// buffer it was opened in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InnerPayload<'a> {
    /// Key rollover returned by the destination (§3.2): the fresh
    /// `(nonce', Ks')` the neutralizer stamped onto a key-request packet.
    pub rekey: Option<KeyStamp>,
    /// Application bytes.
    pub app: &'a [u8],
}

impl<'a> InnerPayload<'a> {
    /// Pure application data.
    pub fn data(app: &'a [u8]) -> Self {
        InnerPayload { rekey: None, app }
    }

    /// Appends the encoding `has_rekey(1) [nonce(8) key(16)] app...`.
    pub fn emit(&self, out: &mut Vec<u8>) {
        match &self.rekey {
            Some(stamp) => {
                out.push(1);
                out.extend_from_slice(&stamp.nonce.to_be_bytes());
                out.extend_from_slice(&stamp.key);
            }
            None => out.push(0),
        }
        out.extend_from_slice(self.app);
    }

    /// Parses; [`CryptoError::BadLength`] for an unknown `has_rekey`
    /// byte or a truncated stamp.
    pub fn parse(data: &'a [u8]) -> Result<Self, CryptoError> {
        match data.split_first() {
            Some((0, app)) => Ok(InnerPayload::data(app)),
            Some((1, rest)) if rest.len() >= 24 => Ok(InnerPayload {
                rekey: Some(KeyStamp {
                    nonce: u64::from_be_bytes(rest[..8].try_into().expect("8-byte nonce")),
                    key: rest[8..24].try_into().expect("16-byte key"),
                }),
                app: &rest[24..],
            }),
            _ => Err(CryptoError::BadLength),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const KEY: [u8; 16] = [7; 16];

    fn encoded(inner: &InnerPayload) -> Vec<u8> {
        let mut out = Vec::new();
        inner.emit(&mut out);
        out
    }

    /// The tagged record a sender with a fresh session puts on the wire.
    fn record_payload(inner: &InnerPayload) -> Vec<u8> {
        let mut out = Vec::new();
        put_record(&mut out, &mut E2eSession::new(&KEY, true), inner);
        out
    }

    /// The receive path: frame, open in place, parse the inner payload.
    /// Returns the application bytes and stamp, or the first error.
    fn receive(payload: &mut [u8]) -> Result<(Vec<u8>, Option<KeyStamp>), CryptoError> {
        let TransportMsg::Record(record) = TransportMsg::parse(payload)? else {
            panic!("a record payload framed as an envelope");
        };
        let plain = E2eSession::new(&KEY, false).open_in_place(record)?;
        let inner = InnerPayload::parse(plain)?;
        Ok((inner.app.to_vec(), inner.rekey))
    }

    #[test]
    fn transport_msg_roundtrip() {
        let mut rng = StdRng::seed_from_u64(1);
        let kp = nn_crypto::generate_keypair(&mut rng, 256);
        let env = nn_crypto::e2e::seal(&mut rng, &kp.public, b"first").unwrap();
        let mut wire = Vec::new();
        put_envelope(&mut wire, &env);
        match TransportMsg::parse(&mut wire).unwrap() {
            TransportMsg::Envelope(parsed) => assert_eq!(parsed, env),
            TransportMsg::Record(_) => panic!("envelope framed as a record"),
        }

        let mut wire = record_payload(&InnerPayload::data(b"later"));
        assert_eq!(receive(&mut wire).unwrap(), (b"later".to_vec(), None));
    }

    #[test]
    fn transport_msg_bad_tag_rejected() {
        assert!(TransportMsg::parse(&mut []).is_err());
        assert!(TransportMsg::parse(&mut [0x07, 1, 2, 3]).is_err());
    }

    #[test]
    fn inner_payload_roundtrip() {
        let plain = InnerPayload::data(b"voice frame");
        assert_eq!(InnerPayload::parse(&encoded(&plain)).unwrap(), plain);

        let with_rekey = InnerPayload {
            rekey: Some(KeyStamp {
                nonce: 0x1122334455667788,
                key: [9u8; 16],
            }),
            app: b"reply",
        };
        assert_eq!(
            InnerPayload::parse(&encoded(&with_rekey)).unwrap(),
            with_rekey
        );
        // The stamp survives the sealed record channel.
        let mut wire = record_payload(&with_rekey);
        assert_eq!(
            receive(&mut wire).unwrap(),
            (b"reply".to_vec(), with_rekey.rekey)
        );
    }

    #[test]
    fn inner_payload_truncation_rejected() {
        let with_rekey = InnerPayload {
            rekey: Some(KeyStamp {
                nonce: 1,
                key: [0; 16],
            }),
            app: &[],
        };
        let bytes = encoded(&with_rekey);
        assert!(InnerPayload::parse(&bytes[..10]).is_err());
        assert!(InnerPayload::parse(&[]).is_err());
        assert!(InnerPayload::parse(&[9]).is_err());
    }

    /// Every truncation and every single-bit flip of a sealed record
    /// gives a typed error, never a panic and never a decryption: the
    /// bytes an error leaves behind are the bytes that went in. Cutting
    /// anywhere, or flipping the tag byte or the length field, breaks
    /// the framing (`BadLength`); any other flip fails the tag
    /// (`AuthFailed`). Only the unmodified record opens, to the original
    /// plaintext.
    #[test]
    fn hostile_records_give_typed_errors_and_are_never_decrypted() {
        let stamp = KeyStamp {
            nonce: 3,
            key: [5; 16],
        };
        for inner in [
            InnerPayload::data(b"voip frame"),
            InnerPayload::data(&[0xa5; 40]),
            InnerPayload {
                rekey: Some(stamp),
                app: b"stamped",
            },
        ] {
            let wire = record_payload(&inner);
            let mut copy = wire.clone();
            assert_eq!(
                receive(&mut copy).unwrap(),
                (inner.app.to_vec(), inner.rekey)
            );
            for cut in 0..wire.len() {
                let mut bytes = wire[..cut].to_vec();
                assert_eq!(
                    receive(&mut bytes),
                    Err(CryptoError::BadLength),
                    "cut {cut}"
                );
                assert_eq!(bytes, wire[..cut], "cut {cut} decrypted");
            }
            for bit in 0..wire.len() * 8 {
                let mut bytes = wire.clone();
                bytes[bit / 8] ^= 1 << (bit % 8);
                let flipped = bytes.clone();
                // Tag byte 0, nonce 1..9, length field 9..13.
                let expect = if bit / 8 == 0 || (9..13).contains(&(bit / 8)) {
                    CryptoError::BadLength
                } else {
                    CryptoError::AuthFailed
                };
                assert_eq!(receive(&mut bytes), Err(expect), "bit {bit}");
                assert_eq!(bytes, flipped, "bit {bit} decrypted");
            }
        }
    }

    proptest! {
        /// Arbitrary bytes never panic the views: framing, in-place open
        /// and the inner parser each give a typed error (a forged tag
        /// would take 2^128 tries), and the bytes stay as they came.
        #[test]
        fn prop_arbitrary_payloads_give_typed_errors(
            data in proptest::collection::vec(any::<u8>(), 0..96),
            record in any::<bool>(),
        ) {
            let mut bytes = data.clone();
            if record && !bytes.is_empty() {
                bytes[0] = TAG_RECORD;
            }
            let before = bytes.clone();
            match TransportMsg::parse(&mut bytes) {
                Ok(TransportMsg::Record(rec)) => {
                    let opened = E2eSession::new(&KEY, false).open_in_place(rec);
                    prop_assert_eq!(opened.unwrap_err(), CryptoError::AuthFailed);
                }
                Ok(TransportMsg::Envelope(_)) => {}
                Err(e) => prop_assert_eq!(e, CryptoError::BadLength),
            }
            prop_assert_eq!(bytes, before);
            if let Err(e) = InnerPayload::parse(&data) {
                prop_assert_eq!(e, CryptoError::BadLength);
            }
        }
    }
}
