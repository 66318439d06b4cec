//! IPv4 header handling.
//!
//! The paper assumes "each packet carries a standard IP header" with the
//! shim layer between IP and the upper layer (§2), and the neutralizer
//! explicitly preserves the Differentiated Services Code Point so tiered
//! service keeps working (§3.4). This module provides a smoltcp-style
//! typed view over a byte buffer plus a high-level representation for
//! emission.

use crate::error::{PacketError, Result};
use core::fmt;

/// An IPv4 address.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Ipv4Addr(pub u32);

impl Ipv4Addr {
    /// Builds from dotted-quad octets.
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Self {
        Ipv4Addr(u32::from_be_bytes([a, b, c, d]))
    }

    /// The unspecified address 0.0.0.0.
    pub const UNSPECIFIED: Ipv4Addr = Ipv4Addr(0);

    /// Big-endian octets.
    pub const fn octets(self) -> [u8; 4] {
        self.0.to_be_bytes()
    }

    /// Raw u32 form (big-endian interpretation).
    pub const fn to_u32(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for Ipv4Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Ipv4Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let o = self.octets();
        write!(f, "{}.{}.{}.{}", o[0], o[1], o[2], o[3])
    }
}

impl From<u32> for Ipv4Addr {
    fn from(v: u32) -> Self {
        Ipv4Addr(v)
    }
}

/// An IPv4 prefix for routing tables and discrimination matchers.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Ipv4Cidr {
    /// Network address (host bits may be non-zero; they are masked).
    pub addr: Ipv4Addr,
    /// Prefix length, 0..=32.
    pub prefix_len: u8,
}

impl Ipv4Cidr {
    /// Builds a prefix; panics on lengths above 32 (programmer error).
    pub const fn new(addr: Ipv4Addr, prefix_len: u8) -> Self {
        assert!(prefix_len <= 32, "prefix length out of range");
        Ipv4Cidr { addr, prefix_len }
    }

    fn mask(&self) -> u32 {
        if self.prefix_len == 0 {
            0
        } else {
            u32::MAX << (32 - self.prefix_len as u32)
        }
    }

    /// True when `addr` falls inside the prefix.
    pub fn contains(&self, addr: Ipv4Addr) -> bool {
        (addr.0 & self.mask()) == (self.addr.0 & self.mask())
    }
}

impl fmt::Display for Ipv4Cidr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.addr, self.prefix_len)
    }
}

/// IP protocol numbers used in the simulator.
pub mod proto {
    /// UDP.
    pub const UDP: u8 = 17;
    /// TCP (used by workload generators).
    pub const TCP: u8 = 6;
    /// The neutralizer shim layer. 253 is reserved by RFC 3692 for
    /// experimentation, matching the paper's "fixed and known value" (§2).
    pub const SHIM: u8 = 253;
}

/// Differentiated Services Code Points used by the QoS experiments.
pub mod dscp {
    /// Best effort.
    pub const BEST_EFFORT: u8 = 0;
    /// Expedited forwarding (premium tier).
    pub const EXPEDITED: u8 = 46;
    /// Assured forwarding class 1, low drop.
    pub const AF11: u8 = 10;
}

/// Explicit Congestion Notification codepoints (RFC 3168) — the bottom
/// two bits of the ToS byte. An ECN-capable AQM marks `CE` on packets
/// carrying `ECT(0)`/`ECT(1)` instead of dropping them.
pub mod ecn {
    /// Not ECN-Capable Transport.
    pub const NOT_ECT: u8 = 0b00;
    /// ECN-Capable Transport, codepoint 1.
    pub const ECT1: u8 = 0b01;
    /// ECN-Capable Transport, codepoint 0.
    pub const ECT0: u8 = 0b10;
    /// Congestion Experienced.
    pub const CE: u8 = 0b11;

    /// True for the two ECN-capable codepoints (a router may mark these
    /// `CE`; `NOT_ECT` must be dropped instead, and `CE` already is one).
    pub const fn is_ect(codepoint: u8) -> bool {
        codepoint == ECT0 || codepoint == ECT1
    }
}

/// Bytes of the fixed IPv4 header.
pub(crate) const HEADER_LEN: usize = 20;

/// Typed view over an IPv4 header (fixed 20-byte header, no options —
/// the simulator never emits options, and packets carrying them are
/// rejected at parse time).
#[derive(Debug, Clone)]
pub struct Ipv4Packet<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> Ipv4Packet<T> {
    /// Wraps a buffer with full validation: length, version, IHL and
    /// declared total length are all checked before any accessor runs.
    pub fn new_checked(buffer: T) -> Result<Self> {
        let len = buffer.as_ref().len();
        if len < HEADER_LEN {
            return Err(PacketError::Truncated);
        }
        let pkt = Ipv4Packet { buffer };
        let data = pkt.buffer.as_ref();
        if data[0] >> 4 != 4 {
            return Err(PacketError::BadVersion);
        }
        if data[0] & 0x0f != 5 {
            // Options unsupported.
            return Err(PacketError::BadField);
        }
        let total = pkt.total_len() as usize;
        if total < HEADER_LEN || total > len {
            return Err(PacketError::Truncated);
        }
        Ok(pkt)
    }

    /// Wraps without validation (emission path over a fresh buffer).
    pub fn new_unchecked(buffer: T) -> Self {
        Ipv4Packet { buffer }
    }

    /// DSCP field (top 6 bits of the ToS byte).
    pub fn dscp(&self) -> u8 {
        self.buffer.as_ref()[1] >> 2
    }

    /// ECN field (bottom 2 bits of the ToS byte).
    pub fn ecn(&self) -> u8 {
        self.buffer.as_ref()[1] & 0x3
    }

    /// Total length field.
    pub fn total_len(&self) -> u16 {
        let d = self.buffer.as_ref();
        u16::from_be_bytes([d[2], d[3]])
    }

    /// Identification field.
    pub fn ident(&self) -> u16 {
        let d = self.buffer.as_ref();
        u16::from_be_bytes([d[4], d[5]])
    }

    /// Time to live.
    pub fn ttl(&self) -> u8 {
        self.buffer.as_ref()[8]
    }

    /// Upper-layer protocol number.
    pub fn protocol(&self) -> u8 {
        self.buffer.as_ref()[9]
    }

    /// Header checksum field.
    pub fn checksum(&self) -> u16 {
        let d = self.buffer.as_ref();
        u16::from_be_bytes([d[10], d[11]])
    }

    /// Source address.
    pub fn src_addr(&self) -> Ipv4Addr {
        let d = self.buffer.as_ref();
        Ipv4Addr(u32::from_be_bytes([d[12], d[13], d[14], d[15]]))
    }

    /// Destination address.
    pub fn dst_addr(&self) -> Ipv4Addr {
        let d = self.buffer.as_ref();
        Ipv4Addr(u32::from_be_bytes([d[16], d[17], d[18], d[19]]))
    }

    /// Verifies the header checksum.
    pub fn verify_checksum(&self) -> bool {
        checksum(&self.buffer.as_ref()[..HEADER_LEN]) == 0
    }

    /// Payload bytes (after the fixed header, bounded by total length).
    pub fn payload(&self) -> &[u8] {
        let total = self.total_len() as usize;
        &self.buffer.as_ref()[HEADER_LEN..total]
    }

    /// Releases the underlying buffer.
    pub fn into_inner(self) -> T {
        self.buffer
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> Ipv4Packet<T> {
    /// Sets the ECN field (bottom 2 bits of the ToS byte) and refreshes
    /// the checksum. The DSCP bits are preserved.
    pub fn set_ecn(&mut self, ecn: u8) {
        let d = self.buffer.as_mut();
        d[1] = (d[1] & 0xfc) | (ecn & 0x3);
        self.fill_checksum();
    }

    /// Sets the TTL and refreshes the checksum.
    pub fn set_ttl(&mut self, ttl: u8) {
        self.buffer.as_mut()[8] = ttl;
        self.fill_checksum();
    }

    /// Recomputes the header checksum.
    pub fn fill_checksum(&mut self) {
        let d = self.buffer.as_mut();
        d[10] = 0;
        d[11] = 0;
        let sum = checksum(&d[..HEADER_LEN]);
        d[10..12].copy_from_slice(&sum.to_be_bytes());
    }
}

/// High-level IPv4 header representation for building packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ipv4Repr {
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Upper-layer protocol.
    pub protocol: u8,
    /// DSCP value (0..64).
    pub dscp: u8,
    /// Time to live.
    pub ttl: u8,
    /// Upper-layer payload length in bytes.
    pub payload_len: usize,
}

impl Ipv4Repr {
    /// Total buffer size needed to emit this header + payload.
    pub fn buffer_len(&self) -> usize {
        HEADER_LEN + self.payload_len
    }

    /// Emits the header into the front of `buffer` (which must hold
    /// `buffer_len()` bytes) and fills the checksum.
    pub fn emit(&self, buffer: &mut [u8]) -> Result<()> {
        if buffer.len() < self.buffer_len() {
            return Err(PacketError::BufferTooSmall);
        }
        let total = self.buffer_len();
        if total > u16::MAX as usize {
            return Err(PacketError::BadField);
        }
        if self.dscp >= 64 {
            return Err(PacketError::BadField);
        }
        buffer[0] = 0x45;
        buffer[1] = self.dscp << 2;
        buffer[2..4].copy_from_slice(&(total as u16).to_be_bytes());
        buffer[4..6].copy_from_slice(&[0, 0]); // ident: simulator never fragments
        buffer[6..8].copy_from_slice(&[0x40, 0]); // DF set
        buffer[8] = self.ttl;
        buffer[9] = self.protocol;
        buffer[10..12].copy_from_slice(&[0, 0]);
        buffer[12..16].copy_from_slice(&self.src.octets());
        buffer[16..20].copy_from_slice(&self.dst.octets());
        let sum = checksum(&buffer[..HEADER_LEN]);
        buffer[10..12].copy_from_slice(&sum.to_be_bytes());
        Ok(())
    }

    /// Parses the representation back out of a validated packet.
    pub fn parse<T: AsRef<[u8]>>(pkt: &Ipv4Packet<T>) -> Result<Self> {
        if !pkt.verify_checksum() {
            return Err(PacketError::BadChecksum);
        }
        Ok(Ipv4Repr {
            src: pkt.src_addr(),
            dst: pkt.dst_addr(),
            protocol: pkt.protocol(),
            dscp: pkt.dscp(),
            ttl: pkt.ttl(),
            payload_len: pkt.total_len() as usize - HEADER_LEN,
        })
    }
}

/// RFC 1071 internet checksum over `data`.
pub fn checksum(data: &[u8]) -> u16 {
    !fold(ones_sum(data))
}

/// Unfolded one's-complement sum of `data`, read as big-endian 32-bit
/// words into a `u64` (RFC 1071 §2: summing wider words and folding
/// gives the 16-bit one's-complement sum, since 2^16 ≡ 1 mod 0xffff).
/// A short tail is zero-padded on the right, exactly like the odd byte
/// of the 16-bit sum. For the same reason the sums of pieces add up to
/// the sum of their concatenation, once folded, as long as every piece
/// but the last has an even length.
pub(crate) fn ones_sum(data: &[u8]) -> u64 {
    let mut sum = 0u64;
    let mut words = data.chunks_exact(4);
    for w in &mut words {
        sum += u32::from_be_bytes([w[0], w[1], w[2], w[3]]) as u64;
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut padded = [0u8; 4];
        padded[..tail.len()].copy_from_slice(tail);
        sum += u32::from_be_bytes(padded) as u64;
    }
    sum
}

/// Folds a [`ones_sum`] to 16 bits with end-around carry.
pub(crate) fn fold(mut sum: u64) -> u16 {
    while sum >> 16 != 0 {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    sum as u16
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_repr() -> Ipv4Repr {
        Ipv4Repr {
            src: Ipv4Addr::new(10, 0, 0, 1),
            dst: Ipv4Addr::new(192, 168, 1, 200),
            protocol: proto::UDP,
            dscp: dscp::EXPEDITED,
            ttl: 64,
            payload_len: 5,
        }
    }

    #[test]
    fn addr_display_and_octets() {
        let a = Ipv4Addr::new(203, 0, 113, 7);
        assert_eq!(a.to_string(), "203.0.113.7");
        assert_eq!(a.octets(), [203, 0, 113, 7]);
        assert_eq!(Ipv4Addr::from(a.to_u32()), a);
    }

    #[test]
    fn cidr_membership() {
        let net = Ipv4Cidr::new(Ipv4Addr::new(10, 1, 0, 0), 16);
        assert!(net.contains(Ipv4Addr::new(10, 1, 255, 255)));
        assert!(!net.contains(Ipv4Addr::new(10, 2, 0, 0)));
        let all = Ipv4Cidr::new(Ipv4Addr::UNSPECIFIED, 0);
        assert!(all.contains(Ipv4Addr::new(8, 8, 8, 8)));
        let host = Ipv4Cidr::new(Ipv4Addr::new(10, 1, 2, 3), 32);
        assert!(host.contains(Ipv4Addr::new(10, 1, 2, 3)));
        assert!(!host.contains(Ipv4Addr::new(10, 1, 2, 4)));
    }

    #[test]
    fn emit_parse_roundtrip() {
        let repr = sample_repr();
        let mut buf = vec![0u8; repr.buffer_len()];
        repr.emit(&mut buf).unwrap();
        buf[20..].copy_from_slice(b"hello");
        let pkt = Ipv4Packet::new_checked(&buf[..]).unwrap();
        assert!(pkt.verify_checksum());
        assert_eq!(Ipv4Repr::parse(&pkt).unwrap(), repr);
        assert_eq!(pkt.payload(), b"hello");
    }

    #[test]
    fn truncated_rejected() {
        let repr = sample_repr();
        let mut buf = vec![0u8; repr.buffer_len()];
        repr.emit(&mut buf).unwrap();
        assert_eq!(
            Ipv4Packet::new_checked(&buf[..19]).unwrap_err(),
            PacketError::Truncated
        );
        // Declared total length beyond the buffer.
        buf[3] = 200;
        // re-checksum so only the length is wrong
        let mut pkt = Ipv4Packet::new_unchecked(&mut buf[..]);
        pkt.fill_checksum();
        assert_eq!(
            Ipv4Packet::new_checked(&buf[..]).unwrap_err(),
            PacketError::Truncated
        );
    }

    #[test]
    fn wrong_version_rejected() {
        let repr = sample_repr();
        let mut buf = vec![0u8; repr.buffer_len()];
        repr.emit(&mut buf).unwrap();
        buf[0] = 0x65; // version 6
        assert_eq!(
            Ipv4Packet::new_checked(&buf[..]).unwrap_err(),
            PacketError::BadVersion
        );
        buf[0] = 0x46; // options present
        assert_eq!(
            Ipv4Packet::new_checked(&buf[..]).unwrap_err(),
            PacketError::BadField
        );
    }

    #[test]
    fn corrupted_checksum_detected() {
        let repr = sample_repr();
        let mut buf = vec![0u8; repr.buffer_len()];
        repr.emit(&mut buf).unwrap();
        buf[12] ^= 0xff; // corrupt source address
        let pkt = Ipv4Packet::new_checked(&buf[..]).unwrap();
        assert!(!pkt.verify_checksum());
        assert_eq!(Ipv4Repr::parse(&pkt).unwrap_err(), PacketError::BadChecksum);
    }

    #[test]
    fn rewriting_addresses_keeps_checksum_valid() {
        // A router's per-hop rewrite: the TTL changes, the checksum
        // follows, the addresses stay.
        let repr = sample_repr();
        let mut buf = vec![0u8; repr.buffer_len()];
        repr.emit(&mut buf).unwrap();
        let mut pkt = Ipv4Packet::new_unchecked(&mut buf[..]);
        pkt.set_ttl(63);
        assert!(pkt.verify_checksum());
        assert_eq!(pkt.ttl(), 63);
        assert_eq!(pkt.src_addr(), repr.src);
        assert_eq!(pkt.dst_addr(), repr.dst);
    }

    #[test]
    fn ecn_codepoints_roundtrip() {
        let repr = sample_repr();
        let mut buf = vec![0u8; repr.buffer_len()];
        repr.emit(&mut buf).unwrap();
        for codepoint in [ecn::NOT_ECT, ecn::ECT1, ecn::ECT0, ecn::CE] {
            let mut pkt = Ipv4Packet::new_unchecked(&mut buf[..]);
            pkt.set_ecn(codepoint);
            assert_eq!(pkt.ecn(), codepoint);
            assert!(pkt.verify_checksum(), "checksum refreshed for {codepoint}");
        }
        assert!(ecn::is_ect(ecn::ECT0));
        assert!(ecn::is_ect(ecn::ECT1));
        assert!(!ecn::is_ect(ecn::NOT_ECT));
        assert!(!ecn::is_ect(ecn::CE));
    }

    /// Writing ECN must not clobber the DSCP — the neutralizer's §3.4
    /// guarantee extends to AQM marking.
    #[test]
    fn ecn_and_dscp_setters_preserve_each_other() {
        let repr = sample_repr();
        let mut buf = vec![0u8; repr.buffer_len()];
        repr.emit(&mut buf).unwrap();
        let mut pkt = Ipv4Packet::new_unchecked(&mut buf[..]);
        pkt.set_ecn(ecn::ECT0);
        assert_eq!(pkt.dscp(), dscp::EXPEDITED, "set_ecn keeps DSCP");
        pkt.set_ecn(ecn::CE);
        assert_eq!(pkt.dscp(), dscp::EXPEDITED, "CE mark keeps DSCP");
        assert_eq!(pkt.ecn(), ecn::CE);
        assert!(pkt.verify_checksum());
        // Out-of-range input is masked to the two ECN bits.
        pkt.set_ecn(0xff);
        assert_eq!(pkt.ecn(), ecn::CE);
        assert_eq!(pkt.dscp(), dscp::EXPEDITED);
    }

    #[test]
    fn bad_dscp_rejected_on_emit() {
        let mut repr = sample_repr();
        repr.dscp = 64;
        let mut buf = vec![0u8; repr.buffer_len()];
        assert_eq!(repr.emit(&mut buf).unwrap_err(), PacketError::BadField);
    }

    #[test]
    fn checksum_rfc1071_example() {
        // Canonical example from RFC 1071 §3: odd-length and even-length.
        assert_eq!(
            checksum(&[0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7]),
            !0xddf2
        );
    }

    proptest! {
        #[test]
        fn prop_emit_parse_roundtrip(
            src in any::<u32>(), dst in any::<u32>(),
            protocol in any::<u8>(), dscp in 0u8..64, ttl in any::<u8>(),
            payload in proptest::collection::vec(any::<u8>(), 0..128),
        ) {
            let repr = Ipv4Repr {
                src: Ipv4Addr(src), dst: Ipv4Addr(dst),
                protocol, dscp, ttl, payload_len: payload.len(),
            };
            let mut buf = vec![0u8; repr.buffer_len()];
            repr.emit(&mut buf).unwrap();
            buf[20..].copy_from_slice(&payload);
            let pkt = Ipv4Packet::new_checked(&buf[..]).unwrap();
            prop_assert!(pkt.verify_checksum());
            prop_assert_eq!(Ipv4Repr::parse(&pkt).unwrap(), repr);
            prop_assert_eq!(pkt.payload(), &payload[..]);
        }

        #[test]
        fn prop_random_bytes_never_panic(data in proptest::collection::vec(any::<u8>(), 0..64)) {
            // Fuzzing the parser: any outcome but a panic is acceptable.
            let _ = Ipv4Packet::new_checked(&data[..]);
        }
    }
}
