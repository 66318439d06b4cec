//! The neutralizer shim header.
//!
//! §2: "additional fields needed by our design are carried in a shim layer
//! between IP and an upper layer. The protocol field in an IP header is set
//! to a fixed and known value" — [`crate::ip::proto::SHIM`] here.
//!
//! Wire layout (28-byte base header):
//!
//! ```text
//!  0        1        2..4       4..12      12..28
//! +--------+--------+----------+----------+------------------+
//! | ver/ty | flags  | reserved | nonce    | address block    |
//! +--------+--------+----------+----------+------------------+
//! [ 28..36 nonce'  36..52 Ks'  ]   present iff FLAG_STAMPED
//! payload follows
//! ```
//!
//! The address block is the 16-byte AES-sealed endpooint address for
//! `Data` and anonymized `Return` packets (Figure 2 of the paper); for a
//! pre-anonymization `Return` packet it carries the initiator's address in
//! plaintext in the first four bytes (the customer is inside the trusted
//! domain, §3.2). The optional 24-byte stamp is how a neutralizer delivers
//! the fresh `(nonce', Ks')` pair on a key-request packet.

use crate::error::{PacketError, Result};

/// Shim protocol version emitted by this implementation.
pub const SHIM_VERSION: u8 = 1;

/// Base header length in bytes.
pub const BASE_HEADER_LEN: usize = 28;

/// Additional bytes when a key stamp is present.
pub const STAMP_LEN: usize = 24;

/// Shim message types (low nibble of byte 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShimType {
    /// Source → neutralizer: one-time RSA public key (§3.2 step 1).
    KeySetup,
    /// Neutralizer → source: RSA-encrypted `(nonce, Ks)` (§3.2 step 2).
    KeyReply,
    /// Source → neutralizer → customer: data with sealed destination.
    Data,
    /// Customer → neutralizer → source: return path (§3.2 end).
    Return,
}

impl ShimType {
    fn to_nibble(self) -> u8 {
        match self {
            ShimType::KeySetup => 1,
            ShimType::KeyReply => 2,
            ShimType::Data => 3,
            ShimType::Return => 4,
        }
    }

    fn from_nibble(n: u8) -> Result<Self> {
        Ok(match n {
            1 => ShimType::KeySetup,
            2 => ShimType::KeyReply,
            3 => ShimType::Data,
            4 => ShimType::Return,
            _ => return Err(PacketError::BadVersion),
        })
    }
}

/// Flag bits (byte 1).
pub mod flags {
    /// First data packet of a session: asks the neutralizer to stamp a
    /// fresh `(nonce', Ks')` (§3.2).
    pub const KEY_REQUEST: u8 = 0x01;
    /// A stamp extension is present after the base header.
    pub const STAMPED: u8 = 0x02;
    /// Return packet has been anonymized by the neutralizer.
    pub const ANONYMIZED: u8 = 0x04;
    /// All bits this implementation understands.
    pub const KNOWN: u8 = 0x07;
}

/// A `(nonce', Ks')` stamp inserted by the neutralizer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyStamp {
    /// Fresh session nonce.
    pub nonce: u64,
    /// Fresh symmetric key.
    pub key: [u8; 16],
}

/// Typed view over a shim packet (the IP payload).
#[derive(Debug, Clone)]
pub struct ShimPacket<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> ShimPacket<T> {
    /// Wraps a buffer, validating version, type, flags and length.
    pub fn new_checked(buffer: T) -> Result<Self> {
        let len = buffer.as_ref().len();
        if len < BASE_HEADER_LEN {
            return Err(PacketError::Truncated);
        }
        let pkt = ShimPacket { buffer };
        let d = pkt.buffer.as_ref();
        if d[0] >> 4 != SHIM_VERSION {
            return Err(PacketError::BadVersion);
        }
        ShimType::from_nibble(d[0] & 0x0f)?;
        if d[1] & !flags::KNOWN != 0 {
            return Err(PacketError::BadField);
        }
        if d[1] & flags::STAMPED != 0 && len < BASE_HEADER_LEN + STAMP_LEN {
            return Err(PacketError::Truncated);
        }
        Ok(pkt)
    }

    /// Wraps without validation (emission path).
    pub fn new_unchecked(buffer: T) -> Self {
        ShimPacket { buffer }
    }

    /// The message type.
    pub fn shim_type(&self) -> ShimType {
        ShimType::from_nibble(self.buffer.as_ref()[0] & 0x0f).expect("validated at construction")
    }

    /// Raw flag byte.
    pub fn flags(&self) -> u8 {
        self.buffer.as_ref()[1]
    }

    /// True when the given flag bit(s) are all set.
    pub fn has_flag(&self, flag: u8) -> bool {
        self.flags() & flag == flag
    }

    /// Session nonce carried in clear (the neutralizer recovers `Ks` from
    /// this plus the IP source address).
    pub fn nonce(&self) -> u64 {
        let d = self.buffer.as_ref();
        u64::from_be_bytes(d[4..12].try_into().unwrap())
    }

    /// The 16-byte address block.
    pub fn addr_block(&self) -> [u8; 16] {
        self.buffer.as_ref()[12..28].try_into().unwrap()
    }

    /// The stamp extension, if the STAMPED flag is set.
    pub fn stamp(&self) -> Option<KeyStamp> {
        if !self.has_flag(flags::STAMPED) {
            return None;
        }
        let d = self.buffer.as_ref();
        Some(KeyStamp {
            nonce: u64::from_be_bytes(d[28..36].try_into().unwrap()),
            key: d[36..52].try_into().unwrap(),
        })
    }

    /// Header length, accounting for the stamp extension.
    pub fn header_len(&self) -> usize {
        if self.has_flag(flags::STAMPED) {
            BASE_HEADER_LEN + STAMP_LEN
        } else {
            BASE_HEADER_LEN
        }
    }

    /// Upper-layer payload.
    pub fn payload(&self) -> &[u8] {
        &self.buffer.as_ref()[self.header_len()..]
    }

    /// Releases the underlying buffer.
    pub fn into_inner(self) -> T {
        self.buffer
    }
}

/// High-level shim representation for building packets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShimRepr {
    /// Message type.
    pub shim_type: ShimType,
    /// Flag bits.
    pub flags: u8,
    /// Session nonce.
    pub nonce: u64,
    /// Address block contents.
    pub addr_block: [u8; 16],
    /// Optional key stamp (forces the STAMPED flag on emit).
    pub stamp: Option<KeyStamp>,
}

impl ShimRepr {
    /// A zeroed address block for messages that do not carry one.
    pub const EMPTY_BLOCK: [u8; 16] = [0u8; 16];

    /// Builds a `Return` address block holding a plaintext initiator
    /// address (pre-anonymization form).
    pub fn plain_addr_block(addr: crate::ip::Ipv4Addr) -> [u8; 16] {
        let mut block = [0u8; 16];
        block[..4].copy_from_slice(&addr.octets());
        block
    }

    /// Extracts a plaintext address from an address block.
    pub fn addr_from_plain_block(block: &[u8; 16]) -> crate::ip::Ipv4Addr {
        crate::ip::Ipv4Addr(u32::from_be_bytes(block[..4].try_into().unwrap()))
    }

    /// Header length this representation will emit.
    pub fn header_len(&self) -> usize {
        if self.stamp.is_some() {
            BASE_HEADER_LEN + STAMP_LEN
        } else {
            BASE_HEADER_LEN
        }
    }

    /// Emits the header into the front of `buffer`.
    pub fn emit(&self, buffer: &mut [u8]) -> Result<()> {
        if buffer.len() < self.header_len() {
            return Err(PacketError::BufferTooSmall);
        }
        if self.flags & !flags::KNOWN != 0 {
            return Err(PacketError::BadField);
        }
        let mut fl = self.flags;
        if self.stamp.is_some() {
            fl |= flags::STAMPED;
        } else {
            fl &= !flags::STAMPED;
        }
        buffer[0] = (SHIM_VERSION << 4) | self.shim_type.to_nibble();
        buffer[1] = fl;
        buffer[2] = 0;
        buffer[3] = 0;
        buffer[4..12].copy_from_slice(&self.nonce.to_be_bytes());
        buffer[12..28].copy_from_slice(&self.addr_block);
        if let Some(stamp) = &self.stamp {
            buffer[28..36].copy_from_slice(&stamp.nonce.to_be_bytes());
            buffer[36..52].copy_from_slice(&stamp.key);
        }
        Ok(())
    }

    /// Parses the representation out of a validated packet.
    pub fn parse<T: AsRef<[u8]>>(pkt: &ShimPacket<T>) -> Self {
        ShimRepr {
            shim_type: pkt.shim_type(),
            flags: pkt.flags(),
            nonce: pkt.nonce(),
            addr_block: pkt.addr_block(),
            stamp: pkt.stamp(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ip::Ipv4Addr;
    use proptest::prelude::*;

    fn sample() -> ShimRepr {
        ShimRepr {
            shim_type: ShimType::Data,
            flags: flags::KEY_REQUEST,
            nonce: 0xdead_beef_0123_4567,
            addr_block: [0x42; 16],
            stamp: None,
        }
    }

    #[test]
    fn emit_parse_roundtrip() {
        let repr = sample();
        let mut buf = vec![0u8; repr.header_len() + 4];
        repr.emit(&mut buf).unwrap();
        buf[28..].copy_from_slice(b"data");
        let pkt = ShimPacket::new_checked(&buf[..]).unwrap();
        assert_eq!(ShimRepr::parse(&pkt), repr);
        assert_eq!(pkt.payload(), b"data");
        assert_eq!(pkt.header_len(), BASE_HEADER_LEN);
    }

    #[test]
    fn stamped_roundtrip() {
        let mut repr = sample();
        repr.stamp = Some(KeyStamp {
            nonce: 99,
            key: [7u8; 16],
        });
        let mut buf = vec![0u8; repr.header_len() + 2];
        repr.emit(&mut buf).unwrap();
        buf[52..].copy_from_slice(b"hi");
        let pkt = ShimPacket::new_checked(&buf[..]).unwrap();
        assert!(pkt.has_flag(flags::STAMPED));
        assert_eq!(pkt.stamp().unwrap().nonce, 99);
        assert_eq!(pkt.payload(), b"hi");
        assert_eq!(pkt.header_len(), BASE_HEADER_LEN + STAMP_LEN);
        // parse() carries the STAMPED flag; compare field-wise.
        let parsed = ShimRepr::parse(&pkt);
        assert_eq!(parsed.stamp, repr.stamp);
        assert_eq!(parsed.nonce, repr.nonce);
    }

    #[test]
    fn truncated_rejected() {
        let repr = sample();
        let mut buf = vec![0u8; repr.header_len()];
        repr.emit(&mut buf).unwrap();
        assert_eq!(
            ShimPacket::new_checked(&buf[..27]).unwrap_err(),
            PacketError::Truncated
        );
    }

    #[test]
    fn stamped_flag_without_room_rejected() {
        let repr = sample();
        let mut buf = vec![0u8; BASE_HEADER_LEN];
        repr.emit(&mut buf).unwrap();
        buf[1] |= flags::STAMPED;
        assert_eq!(
            ShimPacket::new_checked(&buf[..]).unwrap_err(),
            PacketError::Truncated
        );
    }

    #[test]
    fn unknown_version_and_type_rejected() {
        let repr = sample();
        let mut buf = vec![0u8; BASE_HEADER_LEN];
        repr.emit(&mut buf).unwrap();
        let orig = buf[0];
        buf[0] = (2 << 4) | 3; // version 2
        assert_eq!(
            ShimPacket::new_checked(&buf[..]).unwrap_err(),
            PacketError::BadVersion
        );
        // Every type nibble outside 1–4 is unknown.
        for ty in (0u8..16).filter(|t| !(1..=4).contains(t)) {
            buf[0] = (SHIM_VERSION << 4) | ty;
            assert_eq!(
                ShimPacket::new_checked(&buf[..]).unwrap_err(),
                PacketError::BadVersion,
                "type nibble {ty}"
            );
        }
        buf[0] = orig;
        // Every flag bit above ANONYMIZED is unknown, on parse and emit.
        for flag in [0x08u8, 0xf0] {
            buf[1] = flag;
            assert_eq!(
                ShimPacket::new_checked(&buf[..]).unwrap_err(),
                PacketError::BadField,
                "flag byte {flag:#04x}"
            );
        }
        let unknown_flag = ShimRepr {
            flags: 0x08,
            ..sample()
        };
        assert_eq!(unknown_flag.emit(&mut buf), Err(PacketError::BadField));
    }

    #[test]
    fn all_types_roundtrip() {
        for t in [
            ShimType::KeySetup,
            ShimType::KeyReply,
            ShimType::Data,
            ShimType::Return,
        ] {
            let repr = ShimRepr {
                shim_type: t,
                flags: 0,
                nonce: 1,
                addr_block: ShimRepr::EMPTY_BLOCK,
                stamp: None,
            };
            let mut buf = vec![0u8; repr.header_len()];
            repr.emit(&mut buf).unwrap();
            let pkt = ShimPacket::new_checked(&buf[..]).unwrap();
            assert_eq!(pkt.shim_type(), t);
        }
    }

    #[test]
    fn plain_addr_block_roundtrip() {
        let a = Ipv4Addr::new(172, 16, 5, 9);
        let block = ShimRepr::plain_addr_block(a);
        assert_eq!(ShimRepr::addr_from_plain_block(&block), a);
    }

    proptest! {
        #[test]
        fn prop_random_bytes_never_panic(data in proptest::collection::vec(any::<u8>(), 0..80)) {
            let _ = ShimPacket::new_checked(&data[..]);
        }

        #[test]
        fn prop_roundtrip(
            nonce in any::<u64>(),
            block in any::<[u8;16]>(),
            has_stamp in any::<bool>(),
            stamp_nonce in any::<u64>(),
            stamp_key in any::<[u8;16]>(),
        ) {
            let repr = ShimRepr {
                shim_type: ShimType::Data,
                flags: 0,
                nonce,
                addr_block: block,
                stamp: has_stamp.then_some(KeyStamp { nonce: stamp_nonce, key: stamp_key }),
            };
            let mut buf = vec![0u8; repr.header_len()];
            repr.emit(&mut buf).unwrap();
            let pkt = ShimPacket::new_checked(&buf[..]).unwrap();
            prop_assert_eq!(pkt.nonce(), nonce);
            prop_assert_eq!(pkt.addr_block(), block);
            prop_assert_eq!(pkt.stamp(), repr.stamp);
        }
    }
}
