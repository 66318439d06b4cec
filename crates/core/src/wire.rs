//! Application-layer framing inside neutralized packets.
//!
//! The shim payload of a `Data`/`Return` packet is end-to-end encrypted
//! (§3.1). Two framings appear on the wire:
//!
//! * the **first** packet to a peer carries a public-key
//!   [`E2eEnvelope`] (tag 0x01) that also transports the session key;
//! * every later packet carries a symmetric [`E2eRecord`] (tag 0x02).
//!
//! Inside the encrypted plaintext sits one more layer, [`InnerPayload`]:
//! an optional key-rollover stamp — this is how the destination returns
//! the neutralizer-stamped `(nonce', Ks')` to the source under strong
//! encryption (§3.2) — followed by the application bytes.

use nn_crypto::{CryptoError, E2eEnvelope, E2eRecord};
use nn_packet::KeyStamp;

/// Tag byte for an envelope (first packet).
const TAG_ENVELOPE: u8 = 0x01;
/// Tag byte for a session record.
const TAG_RECORD: u8 = 0x02;

/// The encrypted transport message carried in a shim payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportMsg {
    /// Public-key first packet.
    Envelope(E2eEnvelope),
    /// Symmetric follow-up packet.
    Record(E2eRecord),
}

impl TransportMsg {
    /// Serializes with a leading tag byte.
    pub fn to_bytes(&self) -> Vec<u8> {
        match self {
            TransportMsg::Envelope(env) => {
                let mut out = vec![TAG_ENVELOPE];
                out.extend_from_slice(&env.to_bytes());
                out
            }
            TransportMsg::Record(rec) => {
                let mut out = vec![TAG_RECORD];
                out.extend_from_slice(&rec.to_bytes());
                out
            }
        }
    }

    /// Parses a tagged message.
    pub fn from_bytes(data: &[u8]) -> Result<Self, CryptoError> {
        match data.split_first() {
            Some((&TAG_ENVELOPE, rest)) => {
                Ok(TransportMsg::Envelope(E2eEnvelope::from_bytes(rest)?))
            }
            Some((&TAG_RECORD, rest)) => Ok(TransportMsg::Record(E2eRecord::from_bytes(rest)?)),
            _ => Err(CryptoError::BadLength),
        }
    }
}

/// The plaintext inside the end-to-end encryption.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InnerPayload {
    /// Key rollover returned by the destination (§3.2): the fresh
    /// `(nonce', Ks')` the neutralizer stamped onto a key-request packet.
    pub rekey: Option<KeyStamp>,
    /// Application bytes.
    pub app: Vec<u8>,
}

impl InnerPayload {
    /// Pure application data.
    pub fn data(app: Vec<u8>) -> Self {
        InnerPayload { rekey: None, app }
    }

    /// Serializes: `has_rekey(1) [nonce(8) key(16)] app...`.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(1 + 24 + self.app.len());
        match &self.rekey {
            Some(stamp) => {
                out.push(1);
                out.extend_from_slice(&stamp.nonce.to_be_bytes());
                out.extend_from_slice(&stamp.key);
            }
            None => out.push(0),
        }
        out.extend_from_slice(&self.app);
        out
    }

    /// Parses.
    pub fn from_bytes(data: &[u8]) -> Result<Self, CryptoError> {
        match data.split_first() {
            Some((0, rest)) => Ok(InnerPayload {
                rekey: None,
                app: rest.to_vec(),
            }),
            Some((1, rest)) => {
                if rest.len() < 24 {
                    return Err(CryptoError::BadLength);
                }
                let nonce = u64::from_be_bytes(rest[..8].try_into().unwrap());
                let key: [u8; 16] = rest[8..24].try_into().unwrap();
                Ok(InnerPayload {
                    rekey: Some(KeyStamp { nonce, key }),
                    app: rest[24..].to_vec(),
                })
            }
            _ => Err(CryptoError::BadLength),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn transport_msg_roundtrip() {
        let mut rng = StdRng::seed_from_u64(1);
        let kp = nn_crypto::generate_keypair(&mut rng, 256);
        let env = nn_crypto::e2e::seal(&mut rng, &kp.public, b"first").unwrap();
        let m = TransportMsg::Envelope(env);
        assert_eq!(TransportMsg::from_bytes(&m.to_bytes()).unwrap(), m);

        let mut sess = nn_crypto::E2eSession::new(&[7u8; 16], true);
        let rec = sess.seal_record(b"later");
        let m2 = TransportMsg::Record(rec);
        assert_eq!(TransportMsg::from_bytes(&m2.to_bytes()).unwrap(), m2);
    }

    #[test]
    fn transport_msg_bad_tag_rejected() {
        assert!(TransportMsg::from_bytes(&[]).is_err());
        assert!(TransportMsg::from_bytes(&[0x07, 1, 2, 3]).is_err());
    }

    #[test]
    fn inner_payload_roundtrip() {
        let plain = InnerPayload::data(b"voice frame".to_vec());
        assert_eq!(InnerPayload::from_bytes(&plain.to_bytes()).unwrap(), plain);

        let with_rekey = InnerPayload {
            rekey: Some(KeyStamp {
                nonce: 0x1122334455667788,
                key: [9u8; 16],
            }),
            app: b"reply".to_vec(),
        };
        assert_eq!(
            InnerPayload::from_bytes(&with_rekey.to_bytes()).unwrap(),
            with_rekey
        );
    }

    #[test]
    fn inner_payload_truncation_rejected() {
        let with_rekey = InnerPayload {
            rekey: Some(KeyStamp {
                nonce: 1,
                key: [0; 16],
            }),
            app: vec![],
        };
        let bytes = with_rekey.to_bytes();
        assert!(InnerPayload::from_bytes(&bytes[..10]).is_err());
        assert!(InnerPayload::from_bytes(&[]).is_err());
        assert!(InnerPayload::from_bytes(&[9]).is_err());
    }
}
