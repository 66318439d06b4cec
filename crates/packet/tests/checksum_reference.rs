//! The internet checksum against two straightforward references.
//!
//! `checksum` sums big-endian 32-bit words and folds once, and the UDP
//! pseudo-header checksum adds the 12-byte pseudo-header into the sum
//! instead of copying the datagram behind it. Both must give exactly
//! the bytes of the textbook forms kept here: the RFC 1071 byte-pair
//! sum, and the pseudo-header concatenated in front of the datagram and
//! summed as one buffer.

use nn_packet::ip::checksum;
use nn_packet::udp::HEADER_LEN;
use nn_packet::{proto, Ipv4Addr, UdpPacket, UdpRepr};
use proptest::prelude::*;

/// RFC 1071 §1: big-endian 16-bit byte pairs (an odd last byte padded
/// with zero on the right), end-around carry, complemented.
fn byte_pair_checksum(data: &[u8]) -> u16 {
    let mut sum = 0u64;
    for pair in data.chunks(2) {
        let lo = pair.get(1).copied().unwrap_or(0);
        sum += u16::from_be_bytes([pair[0], lo]) as u64;
    }
    while sum >> 16 != 0 {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

/// The UDP checksum the textbook way: pseudo-header and datagram copied
/// into one buffer, then summed.
fn concatenated_pseudo_checksum(src: Ipv4Addr, dst: Ipv4Addr, datagram: &[u8]) -> u16 {
    let mut buf = Vec::with_capacity(12 + datagram.len());
    buf.extend_from_slice(&src.octets());
    buf.extend_from_slice(&dst.octets());
    buf.push(0);
    buf.push(proto::UDP);
    buf.extend_from_slice(&(datagram.len() as u16).to_be_bytes());
    buf.extend_from_slice(datagram);
    byte_pair_checksum(&buf)
}

/// Deterministic filler bytes (SplitMix64), so every length below sees
/// varied content without a dependency.
fn filler(len: usize, seed: u64) -> Vec<u8> {
    let mut state = seed;
    (0..len)
        .map(|_| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) as u8
        })
        .collect()
}

/// A datagram carrying `payload`, checksum filled for `(src, dst)`.
fn filled_datagram(src: Ipv4Addr, dst: Ipv4Addr, payload: &[u8]) -> Vec<u8> {
    let repr = UdpRepr {
        src_port: 5060,
        dst_port: 16384,
        payload_len: payload.len(),
    };
    let mut buf = vec![0u8; repr.buffer_len()];
    repr.emit(&mut buf).unwrap();
    buf[HEADER_LEN..].copy_from_slice(payload);
    UdpPacket::new_unchecked(&mut buf[..]).fill_checksum(src, dst);
    buf
}

/// `fill_checksum` writes what the concatenating reference computes
/// over the datagram with a zero checksum field (a computed zero goes
/// out as all-ones, RFC 768), and both verifiers accept the result.
fn assert_fill_and_verify_match(src: Ipv4Addr, dst: Ipv4Addr, payload: &[u8]) {
    let buf = filled_datagram(src, dst, payload);
    let mut zeroed = buf.clone();
    zeroed[6..8].copy_from_slice(&[0, 0]);
    let expect = match concatenated_pseudo_checksum(src, dst, &zeroed) {
        0 => 0xffff,
        sum => sum,
    };
    assert_eq!(
        u16::from_be_bytes([buf[6], buf[7]]),
        expect,
        "len {}",
        payload.len()
    );
    assert_eq!(concatenated_pseudo_checksum(src, dst, &buf), 0);
    assert!(UdpPacket::new_checked(&buf[..])
        .unwrap()
        .verify_checksum(src, dst));
}

#[test]
fn checksum_matches_byte_pairs_at_every_length() {
    let bytes = filler(1500, 1);
    for len in 0..=1500 {
        let data = &bytes[..len];
        assert_eq!(checksum(data), byte_pair_checksum(data), "len {len}");
        // All-ones and all-zero runs hit the end-around carry and the
        // zero sum at every length too.
        let ones = vec![0xffu8; len];
        assert_eq!(checksum(&ones), byte_pair_checksum(&ones), "ones {len}");
        let zeros = vec![0u8; len];
        assert_eq!(checksum(&zeros), byte_pair_checksum(&zeros), "zeros {len}");
    }
}

#[test]
fn udp_checksum_matches_concatenation_at_every_length() {
    let payload = filler(1500 - HEADER_LEN, 2);
    let (src, dst) = (Ipv4Addr::new(198, 51, 100, 7), Ipv4Addr::new(10, 0, 2, 1));
    for len in 0..=payload.len() {
        assert_fill_and_verify_match(src, dst, &payload[..len]);
    }
}

proptest! {
    #[test]
    fn checksum_matches_byte_pairs(data in proptest::collection::vec(any::<u8>(), 0..1501)) {
        prop_assert_eq!(checksum(&data), byte_pair_checksum(&data));
    }

    #[test]
    fn udp_checksum_matches_concatenation(
        src in any::<u32>(), dst in any::<u32>(),
        payload in proptest::collection::vec(any::<u8>(), 0..1493),
    ) {
        assert_fill_and_verify_match(Ipv4Addr(src), Ipv4Addr(dst), &payload);
    }

    /// Changing one byte by a nonzero delta moves the one's-complement
    /// sum by delta·2^0 or delta·2^8, never a multiple of 0xffff, so
    /// every such corruption is caught. Two cases stay out: the length
    /// field (it re-frames the datagram rather than corrupting it) and
    /// a checksum field corrupted to zero, which RFC 768 reads as "no
    /// checksum".
    #[test]
    fn one_byte_corruption_is_rejected(
        src in any::<u32>(), dst in any::<u32>(),
        payload in proptest::collection::vec(any::<u8>(), 1..1493),
        pick in any::<u64>(), flip in 0u8..255,
    ) {
        let (src, dst) = (Ipv4Addr(src), Ipv4Addr(dst));
        let mut buf = filled_datagram(src, dst, &payload);
        let at = [0usize, 1, 2, 3, 6, 7]
            .into_iter()
            .chain(HEADER_LEN..buf.len())
            .nth((pick % (buf.len() as u64 - 2)) as usize)
            .unwrap();
        buf[at] ^= flip + 1;
        prop_assume!(buf[6..8] != [0, 0]);
        let pkt = UdpPacket::new_checked(&buf[..]).unwrap();
        prop_assert!(!pkt.verify_checksum(src, dst));
        prop_assert_ne!(concatenated_pseudo_checksum(src, dst, &buf), 0);
    }
}
