//! Whole-packet composition and cracking.
//!
//! Every component — host stacks, neutralizers, ISP classifiers, workload
//! generators — moves complete IPv4 frames as byte vectors. This module
//! provides the assembly and disassembly helpers so each layer's `emit`
//! and `new_checked` logic stays in one place.

use crate::error::{PacketError, Result};
use crate::ip::{proto, Ipv4Addr, Ipv4Packet, Ipv4Repr};
use crate::shim::{ShimPacket, ShimRepr};
use crate::udp::{UdpPacket, UdpRepr, HEADER_LEN as UDP_HEADER_LEN};

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
    let shim_len = shim.header_len();
    let ip = Ipv4Repr {
        src,
        dst,
        protocol: proto::SHIM,
        dscp,
        ttl: DEFAULT_TTL,
        payload_len: shim_len + payload.len(),
    };
    buf.clear();
    buf.resize(ip.buffer_len(), 0);
    ip.emit(buf)?;
    shim.emit(&mut buf[20..])?;
    buf[20 + shim_len..].copy_from_slice(payload);
    Ok(())
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

/// A cracked `IP(SHIM(...))` packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedShim<'a> {
    /// IP header fields.
    pub ip: Ipv4Repr,
    /// Shim header fields.
    pub shim: ShimRepr,
    /// Bytes after the shim header.
    pub payload: &'a [u8],
}

/// Cracks an `IP(SHIM(...))` packet, validating every layer.
pub fn parse_shim(frame: &[u8]) -> Result<ParsedShim<'_>> {
    let ip_pkt = Ipv4Packet::new_checked(frame)?;
    let ip = Ipv4Repr::parse(&ip_pkt)?;
    if ip.protocol != proto::SHIM {
        return Err(PacketError::BadField);
    }
    let total = ip_pkt.total_len() as usize;
    let shim_pkt = ShimPacket::new_checked(&frame[20..total])?;
    let shim = ShimRepr::parse(&shim_pkt);
    let hdr = shim_pkt.header_len();
    Ok(ParsedShim {
        ip,
        shim,
        payload: &frame[20 + hdr..total],
    })
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
