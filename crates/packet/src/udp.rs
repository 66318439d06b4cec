//! UDP header handling.
//!
//! The paper's §4 evaluation sends "neutralized UDP packets with 64 bytes
//! payload"; the VoIP and DNS workloads in this reproduction ride UDP too.
//! Checksums use the standard IPv4 pseudo-header.

use crate::error::{PacketError, Result};
use crate::ip::{fold, ones_sum, Ipv4Addr};

/// UDP header length.
pub const HEADER_LEN: usize = 8;

/// Typed view over a UDP datagram.
#[derive(Debug, Clone)]
pub struct UdpPacket<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> UdpPacket<T> {
    /// Wraps a buffer with length validation.
    pub fn new_checked(buffer: T) -> Result<Self> {
        let len = buffer.as_ref().len();
        if len < HEADER_LEN {
            return Err(PacketError::Truncated);
        }
        let pkt = UdpPacket { buffer };
        let declared = pkt.len() as usize;
        if declared < HEADER_LEN || declared > len {
            return Err(PacketError::Truncated);
        }
        Ok(pkt)
    }

    /// Wraps without validation.
    pub fn new_unchecked(buffer: T) -> Self {
        UdpPacket { buffer }
    }

    /// Source port.
    pub fn src_port(&self) -> u16 {
        let d = self.buffer.as_ref();
        u16::from_be_bytes([d[0], d[1]])
    }

    /// Destination port.
    pub fn dst_port(&self) -> u16 {
        let d = self.buffer.as_ref();
        u16::from_be_bytes([d[2], d[3]])
    }

    /// Declared datagram length (header + payload).
    pub fn len(&self) -> u16 {
        let d = self.buffer.as_ref();
        u16::from_be_bytes([d[4], d[5]])
    }

    /// True when the datagram has no payload.
    pub fn is_empty(&self) -> bool {
        self.len() as usize == HEADER_LEN
    }

    /// Checksum field (0 means "not computed").
    pub fn checksum(&self) -> u16 {
        let d = self.buffer.as_ref();
        u16::from_be_bytes([d[6], d[7]])
    }

    /// Payload bytes.
    pub fn payload(&self) -> &[u8] {
        &self.buffer.as_ref()[HEADER_LEN..self.len() as usize]
    }

    /// Verifies the checksum against the pseudo-header; a zero checksum
    /// field is accepted as "unchecked" per RFC 768.
    pub fn verify_checksum(&self, src: Ipv4Addr, dst: Ipv4Addr) -> bool {
        if self.checksum() == 0 {
            return true;
        }
        pseudo_checksum(src, dst, &self.buffer.as_ref()[..self.len() as usize]) == 0
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> UdpPacket<T> {
    /// Recomputes the checksum for the given pseudo-header addresses.
    pub fn fill_checksum(&mut self, src: Ipv4Addr, dst: Ipv4Addr) {
        let len = self.len() as usize;
        let d = self.buffer.as_mut();
        d[6] = 0;
        d[7] = 0;
        let mut sum = pseudo_checksum(src, dst, &d[..len]);
        if sum == 0 {
            sum = 0xffff; // RFC 768: transmitted as all-ones if computed zero
        }
        d[6..8].copy_from_slice(&sum.to_be_bytes());
    }
}

/// The checksum over the IPv4 pseudo-header followed by `datagram`.
/// The 12-byte pseudo-header is summed on its own and added in, so the
/// datagram is never copied.
fn pseudo_checksum(src: Ipv4Addr, dst: Ipv4Addr, datagram: &[u8]) -> u16 {
    let mut pseudo = [0u8; 12];
    pseudo[..4].copy_from_slice(&src.octets());
    pseudo[4..8].copy_from_slice(&dst.octets());
    pseudo[9] = crate::ip::proto::UDP;
    pseudo[10..].copy_from_slice(&(datagram.len() as u16).to_be_bytes());
    !fold(ones_sum(&pseudo) + ones_sum(datagram))
}

/// High-level UDP representation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UdpRepr {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Payload length.
    pub payload_len: usize,
}

impl UdpRepr {
    /// Buffer size needed for emission.
    pub fn buffer_len(&self) -> usize {
        HEADER_LEN + self.payload_len
    }

    /// Emits header (checksum left zero; call `fill_checksum` after the
    /// payload is in place).
    pub fn emit(&self, buffer: &mut [u8]) -> Result<()> {
        if buffer.len() < self.buffer_len() {
            return Err(PacketError::BufferTooSmall);
        }
        let total = self.buffer_len();
        if total > u16::MAX as usize {
            return Err(PacketError::BadField);
        }
        buffer[0..2].copy_from_slice(&self.src_port.to_be_bytes());
        buffer[2..4].copy_from_slice(&self.dst_port.to_be_bytes());
        buffer[4..6].copy_from_slice(&(total as u16).to_be_bytes());
        buffer[6..8].copy_from_slice(&[0, 0]);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const SRC: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const DST: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    fn build(payload: &[u8]) -> Vec<u8> {
        let repr = UdpRepr {
            src_port: 5060,
            dst_port: 16384,
            payload_len: payload.len(),
        };
        let mut buf = vec![0u8; repr.buffer_len()];
        repr.emit(&mut buf).unwrap();
        buf[HEADER_LEN..].copy_from_slice(payload);
        let mut pkt = UdpPacket::new_unchecked(&mut buf[..]);
        pkt.fill_checksum(SRC, DST);
        buf
    }

    #[test]
    fn roundtrip_with_checksum() {
        let buf = build(b"rtp payload bytes");
        let pkt = UdpPacket::new_checked(&buf[..]).unwrap();
        assert_eq!(pkt.src_port(), 5060);
        assert_eq!(pkt.dst_port(), 16384);
        assert_eq!(pkt.payload(), b"rtp payload bytes");
        assert!(pkt.verify_checksum(SRC, DST));
        assert!(!pkt.is_empty());
    }

    #[test]
    fn wrong_pseudo_header_fails_checksum() {
        let buf = build(b"x");
        let pkt = UdpPacket::new_checked(&buf[..]).unwrap();
        assert!(!pkt.verify_checksum(SRC, Ipv4Addr::new(9, 9, 9, 9)));
    }

    #[test]
    fn corrupted_payload_fails_checksum() {
        let mut buf = build(b"abcdef");
        *buf.last_mut().unwrap() ^= 0x01;
        let pkt = UdpPacket::new_checked(&buf[..]).unwrap();
        assert!(!pkt.verify_checksum(SRC, DST));
    }

    #[test]
    fn zero_checksum_accepted() {
        let repr = UdpRepr {
            src_port: 1,
            dst_port: 2,
            payload_len: 0,
        };
        let mut buf = vec![0u8; repr.buffer_len()];
        repr.emit(&mut buf).unwrap();
        let pkt = UdpPacket::new_checked(&buf[..]).unwrap();
        assert!(pkt.verify_checksum(SRC, DST));
        assert!(pkt.is_empty());
    }

    #[test]
    fn truncations_rejected() {
        assert_eq!(
            UdpPacket::new_checked(&[0u8; 7][..]).unwrap_err(),
            PacketError::Truncated
        );
        // Declared length larger than the buffer.
        let mut buf = build(b"hello");
        buf[5] = 200;
        assert_eq!(
            UdpPacket::new_checked(&buf[..]).unwrap_err(),
            PacketError::Truncated
        );
        // Declared length smaller than the header.
        buf[4] = 0;
        buf[5] = 4;
        assert_eq!(
            UdpPacket::new_checked(&buf[..]).unwrap_err(),
            PacketError::Truncated
        );
    }

    proptest! {
        #[test]
        fn prop_roundtrip(
            sp in any::<u16>(), dp in any::<u16>(),
            payload in proptest::collection::vec(any::<u8>(), 0..256),
            src in any::<u32>(), dst in any::<u32>(),
        ) {
            let repr = UdpRepr { src_port: sp, dst_port: dp, payload_len: payload.len() };
            let mut buf = vec![0u8; repr.buffer_len()];
            repr.emit(&mut buf).unwrap();
            buf[HEADER_LEN..].copy_from_slice(&payload);
            let (s, d) = (Ipv4Addr(src), Ipv4Addr(dst));
            let mut pkt = UdpPacket::new_unchecked(&mut buf[..]);
            pkt.fill_checksum(s, d);
            let pkt = UdpPacket::new_checked(&buf[..]).unwrap();
            prop_assert_eq!(pkt.src_port(), sp);
            prop_assert_eq!(pkt.dst_port(), dp);
            prop_assert_eq!(pkt.payload(), &payload[..]);
            prop_assert!(pkt.verify_checksum(s, d));
        }

        #[test]
        fn prop_random_bytes_never_panic(data in proptest::collection::vec(any::<u8>(), 0..64)) {
            let _ = UdpPacket::new_checked(&data[..]);
        }
    }
}
