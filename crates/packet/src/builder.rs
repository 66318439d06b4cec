//! Whole-packet composition and cracking.
//!
//! Every component — host stacks, neutralizers, ISP classifiers, workload
//! generators — moves complete IPv4 frames as byte vectors. This module
//! provides the assembly and disassembly helpers so each layer's `emit`
//! and `new_checked` logic stays in one place.

use crate::error::{PacketError, Result};
use crate::ip::{proto, Ipv4Addr, Ipv4Packet, Ipv4Repr, HEADER_LEN as IP_HEADER_LEN};
use crate::shim::{ShimPacket, ShimRepr};
use crate::udp::{UdpPacket, UdpRepr, HEADER_LEN as UDP_HEADER_LEN};
use core::ops::Range;

/// Default TTL for generated packets.
pub const DEFAULT_TTL: u8 = 64;

/// Builds `IP(UDP(payload))`.
pub fn build_udp(
    src: Ipv4Addr,
    dst: Ipv4Addr,
    dscp: u8,
    src_port: u16,
    dst_port: u16,
    payload: &[u8],
) -> Result<Vec<u8>> {
    let mut buf = Vec::new();
    build_udp_into(&mut buf, src, dst, dscp, src_port, dst_port, payload)?;
    Ok(buf)
}

/// Builds `IP(UDP(payload))` into a caller-supplied buffer (cleared
/// first) — the allocation-free path for pooled frame buffers.
#[allow(clippy::too_many_arguments)]
pub fn build_udp_into(
    buf: &mut Vec<u8>,
    src: Ipv4Addr,
    dst: Ipv4Addr,
    dscp: u8,
    src_port: u16,
    dst_port: u16,
    payload: &[u8],
) -> Result<()> {
    let udp = UdpRepr {
        src_port,
        dst_port,
        payload_len: payload.len(),
    };
    let ip = Ipv4Repr {
        src,
        dst,
        protocol: proto::UDP,
        dscp,
        ttl: DEFAULT_TTL,
        payload_len: udp.buffer_len(),
    };
    buf.clear();
    buf.resize(ip.buffer_len(), 0);
    ip.emit(buf)?;
    udp.emit(&mut buf[20..])?;
    buf[20 + UDP_HEADER_LEN..].copy_from_slice(payload);
    let mut udp_view = UdpPacket::new_unchecked(&mut buf[20..]);
    udp_view.fill_checksum(src, dst);
    Ok(())
}

/// Builds `IP(SHIM(payload))` — the neutralized packet format.
pub fn build_shim(
    src: Ipv4Addr,
    dst: Ipv4Addr,
    dscp: u8,
    shim: &ShimRepr,
    payload: &[u8],
) -> Result<Vec<u8>> {
    let mut buf = Vec::new();
    build_shim_into(&mut buf, src, dst, dscp, shim, payload)?;
    Ok(buf)
}

/// Builds `IP(SHIM(payload))` into a caller-supplied buffer (cleared
/// first) — the allocation-free path for pooled frame buffers.
pub fn build_shim_into(
    buf: &mut Vec<u8>,
    src: Ipv4Addr,
    dst: Ipv4Addr,
    dscp: u8,
    shim: &ShimRepr,
    payload: &[u8],
) -> Result<()> {
    build_shim_with(buf, src, dst, dscp, shim, |buf| {
        buf.extend_from_slice(payload)
    })
}

/// Builds `IP(SHIM(...))` into a caller-supplied buffer (cleared first),
/// with `write` appending the payload after the shim header, so a sender
/// seals its payload straight into the frame instead of copying it in.
/// The IP header, which counts the payload, is written last.
pub fn build_shim_with(
    buf: &mut Vec<u8>,
    src: Ipv4Addr,
    dst: Ipv4Addr,
    dscp: u8,
    shim: &ShimRepr,
    write: impl FnOnce(&mut Vec<u8>),
) -> Result<()> {
    buf.clear();
    buf.resize(IP_HEADER_LEN + shim.header_len(), 0);
    shim.emit(&mut buf[IP_HEADER_LEN..])?;
    write(buf);
    let ip = Ipv4Repr {
        src,
        dst,
        protocol: proto::SHIM,
        dscp,
        ttl: DEFAULT_TTL,
        payload_len: buf.len() - IP_HEADER_LEN,
    };
    ip.emit(buf)
}

/// A cracked `IP(UDP(...))` packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedUdp<'a> {
    /// IP header fields.
    pub ip: Ipv4Repr,
    /// UDP ports.
    pub src_port: u16,
    /// UDP destination port.
    pub dst_port: u16,
    /// Application payload.
    pub payload: &'a [u8],
}

/// Cracks an `IP(UDP(...))` packet, validating every layer.
pub fn parse_udp(frame: &[u8]) -> Result<ParsedUdp<'_>> {
    let ip_pkt = Ipv4Packet::new_checked(frame)?;
    let ip = Ipv4Repr::parse(&ip_pkt)?;
    if ip.protocol != proto::UDP {
        return Err(PacketError::BadField);
    }
    let total = ip_pkt.total_len() as usize;
    let udp = UdpPacket::new_checked(&frame[20..total])?;
    if !udp.verify_checksum(ip.src, ip.dst) {
        return Err(PacketError::BadChecksum);
    }
    let payload_len = udp.len() as usize - UDP_HEADER_LEN;
    Ok(ParsedUdp {
        ip,
        src_port: udp.src_port(),
        dst_port: udp.dst_port(),
        payload: &frame[20 + UDP_HEADER_LEN..20 + UDP_HEADER_LEN + payload_len],
    })
}

/// A cracked `IP(SHIM(...))` packet; the payload is `&[u8]` from
/// [`parse_shim`] and `&mut [u8]` from [`parse_shim_mut`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedShim<P> {
    /// IP header fields.
    pub ip: Ipv4Repr,
    /// Shim header fields.
    pub shim: ShimRepr,
    /// Bytes after the shim header.
    pub payload: P,
}

/// Cracks an `IP(SHIM(...))` packet, validating every layer.
pub fn parse_shim(frame: &[u8]) -> Result<ParsedShim<&[u8]>> {
    let (ip, shim, payload) = crack_shim(frame)?;
    Ok(ParsedShim {
        ip,
        shim,
        payload: &frame[payload],
    })
}

/// [`parse_shim`] with the payload borrowed mutably, so a receiver can
/// open a sealed payload where it lies in the frame.
pub fn parse_shim_mut(frame: &mut [u8]) -> Result<ParsedShim<&mut [u8]>> {
    let (ip, shim, payload) = crack_shim(frame)?;
    Ok(ParsedShim {
        ip,
        shim,
        payload: &mut frame[payload],
    })
}

/// Validates every layer of an `IP(SHIM(...))` packet and returns its
/// headers and where its payload lies.
fn crack_shim(frame: &[u8]) -> Result<(Ipv4Repr, ShimRepr, Range<usize>)> {
    let ip_pkt = Ipv4Packet::new_checked(frame)?;
    let ip = Ipv4Repr::parse(&ip_pkt)?;
    if ip.protocol != proto::SHIM {
        return Err(PacketError::BadField);
    }
    let total = ip_pkt.total_len() as usize;
    let shim_pkt = ShimPacket::new_checked(&frame[IP_HEADER_LEN..total])?;
    let shim = ShimRepr::parse(&shim_pkt);
    Ok((ip, shim, IP_HEADER_LEN + shim_pkt.header_len()..total))
}

/// Returns the IP protocol number of a frame, if it parses at all.
/// Classifiers use this to split shim traffic from plain traffic without
/// cracking deeper layers.
pub fn frame_protocol(frame: &[u8]) -> Result<u8> {
    let ip_pkt = Ipv4Packet::new_checked(frame)?;
    Ok(ip_pkt.protocol())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ip::dscp;
    use crate::shim::{flags, KeyStamp, ShimType};

    const A: Ipv4Addr = Ipv4Addr::new(10, 1, 1, 1);
    const B: Ipv4Addr = Ipv4Addr::new(10, 2, 2, 2);

    #[test]
    fn udp_build_parse() {
        let frame = build_udp(A, B, dscp::BEST_EFFORT, 1000, 2000, b"voip").unwrap();
        let parsed = parse_udp(&frame).unwrap();
        assert_eq!(parsed.ip.src, A);
        assert_eq!(parsed.ip.dst, B);
        assert_eq!((parsed.src_port, parsed.dst_port), (1000, 2000));
        assert_eq!(parsed.payload, b"voip");
    }

    #[test]
    fn shim_build_parse() {
        let shim = ShimRepr {
            shim_type: ShimType::Data,
            flags: flags::KEY_REQUEST,
            nonce: 7,
            addr_block: [3u8; 16],
            stamp: None,
        };
        let frame = build_shim(A, B, dscp::EXPEDITED, &shim, b"inner").unwrap();
        let parsed = parse_shim(&frame).unwrap();
        assert_eq!(parsed.ip.dscp, dscp::EXPEDITED);
        assert_eq!(parsed.shim.nonce, 7);
        assert_eq!(parsed.payload, b"inner");
        assert_eq!(frame_protocol(&frame).unwrap(), proto::SHIM);
    }

    /// A payload written in place builds the same frame as one copied
    /// in, and the mutable parse finds it where the shared one does.
    #[test]
    fn shim_built_in_place_matches_copied() {
        let shim = ShimRepr {
            shim_type: ShimType::Return,
            flags: 0,
            nonce: 11,
            addr_block: [4u8; 16],
            stamp: None,
        };
        let copied = build_shim(A, B, 0, &shim, b"sealed payload").unwrap();
        let mut in_place = vec![0xee; 3];
        build_shim_with(&mut in_place, A, B, 0, &shim, |buf| {
            buf.extend_from_slice(b"sealed ");
            buf.extend_from_slice(b"payload");
        })
        .unwrap();
        assert_eq!(in_place, copied);
        let parsed = parse_shim_mut(&mut in_place).unwrap();
        assert_eq!(parsed.shim, shim);
        parsed.payload[0] = b'S';
        assert_eq!(parse_shim(&in_place).unwrap().payload, b"Sealed payload");
    }

    #[test]
    fn shim_with_stamp_build_parse() {
        let shim = ShimRepr {
            shim_type: ShimType::Data,
            flags: 0,
            nonce: 8,
            addr_block: [0u8; 16],
            stamp: Some(KeyStamp {
                nonce: 9,
                key: [1u8; 16],
            }),
        };
        let frame = build_shim(A, B, 0, &shim, b"xy").unwrap();
        let parsed = parse_shim(&frame).unwrap();
        assert_eq!(parsed.shim.stamp.unwrap().nonce, 9);
        assert_eq!(parsed.payload, b"xy");
    }

    #[test]
    fn cross_protocol_parse_rejected() {
        let udp_frame = build_udp(A, B, 0, 1, 2, b"u").unwrap();
        assert_eq!(parse_shim(&udp_frame).unwrap_err(), PacketError::BadField);
        let shim = ShimRepr {
            shim_type: ShimType::KeySetup,
            flags: 0,
            nonce: 0,
            addr_block: [0u8; 16],
            stamp: None,
        };
        let shim_frame = build_shim(A, B, 0, &shim, b"").unwrap();
        assert_eq!(parse_udp(&shim_frame).unwrap_err(), PacketError::BadField);
    }

    #[test]
    fn paper_data_packet_size() {
        // §4: 64-byte payload "after adding headers, nonce, encrypted
        // destination IP address, and alignment padding" came to 112 bytes
        // on the authors' shim. Ours is IP(20) + shim(28) + 64 = 112 too.
        let shim = ShimRepr {
            shim_type: ShimType::Data,
            flags: 0,
            nonce: 1,
            addr_block: [0u8; 16],
            stamp: None,
        };
        let frame = build_shim(A, B, 0, &shim, &[0u8; 64]).unwrap();
        assert_eq!(frame.len(), 112);
    }

    #[test]
    fn corrupted_frames_rejected_not_panicked() {
        let mut frame = build_udp(A, B, 0, 1, 2, b"payload").unwrap();
        frame[30] ^= 0xff;
        assert!(parse_udp(&frame).is_err());
        assert!(parse_udp(&frame[..10]).is_err());
        assert!(parse_udp(&[]).is_err());
    }
}
