//! Public-API round-trips and malformed-input rejection for the wire
//! formats: IPv4, UDP and the neutralizer shim.

use nn_packet::{
    build_shim, build_udp, ecn, parse_shim, parse_udp, shim_flags, Ipv4Addr, Ipv4Packet, KeyStamp,
    PacketError, ShimRepr, ShimType,
};

const SRC: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 10);
const DST: Ipv4Addr = Ipv4Addr::new(10, 7, 0, 99);

#[test]
fn udp_build_parse_roundtrip() {
    let frame = build_udp(SRC, DST, 46, 16384, 16384, b"voip frame").unwrap();
    let parsed = parse_udp(&frame).unwrap();
    assert_eq!(parsed.ip.src, SRC);
    assert_eq!(parsed.ip.dst, DST);
    assert_eq!(parsed.ip.dscp, 46);
    assert_eq!((parsed.src_port, parsed.dst_port), (16384, 16384));
    assert_eq!(parsed.payload, b"voip frame");
    // The IP view agrees with the parsed representation.
    let ip = Ipv4Packet::new_checked(&frame[..]).unwrap();
    assert_eq!(ip.dst_addr(), DST);
    assert_eq!(ip.total_len() as usize, frame.len());
}

/// An ECT(0) mark applied after building — what the host stacks do —
/// survives parsing, leaves the DSCP intact and keeps the UDP payload
/// verifiable; a later CE re-mark (the AQM's job) behaves the same.
#[test]
fn ecn_marks_survive_udp_build_parse() {
    let mut frame = build_udp(SRC, DST, 46, 16384, 16384, b"voip frame").unwrap();
    Ipv4Packet::new_unchecked(&mut frame[..]).set_ecn(ecn::ECT0);
    let parsed = parse_udp(&frame).unwrap();
    assert_eq!(parsed.ip.dscp, 46);
    assert_eq!(parsed.payload, b"voip frame");
    assert_eq!(
        Ipv4Packet::new_checked(&frame[..]).unwrap().ecn(),
        ecn::ECT0
    );

    Ipv4Packet::new_unchecked(&mut frame[..]).set_ecn(ecn::CE);
    let remarked = parse_udp(&frame).unwrap();
    assert_eq!(remarked.ip.dscp, 46, "CE mark must not clobber DSCP");
    assert_eq!(Ipv4Packet::new_checked(&frame[..]).unwrap().ecn(), ecn::CE);
}

#[test]
fn shim_build_parse_roundtrip_all_types() {
    for t in [
        ShimType::KeySetup,
        ShimType::KeyReply,
        ShimType::Data,
        ShimType::Return,
    ] {
        let shim = ShimRepr {
            shim_type: t,
            flags: 0,
            nonce: 0x0102_0304_0506_0708,
            addr_block: [0x5a; 16],
            stamp: None,
        };
        let frame = build_shim(SRC, DST, 0, &shim, b"payload").unwrap();
        let parsed = parse_shim(&frame).unwrap();
        assert_eq!(parsed.shim.shim_type, t);
        assert_eq!(parsed.shim.nonce, shim.nonce);
        assert_eq!(parsed.shim.addr_block, shim.addr_block);
        assert_eq!(parsed.payload, b"payload");
    }
}

#[test]
fn shim_stamp_extension_roundtrip() {
    let shim = ShimRepr {
        shim_type: ShimType::Data,
        flags: shim_flags::KEY_REQUEST,
        nonce: 9,
        addr_block: ShimRepr::EMPTY_BLOCK,
        stamp: Some(KeyStamp {
            nonce: 0xfeed,
            key: [7u8; 16],
        }),
    };
    let frame = build_shim(SRC, DST, 0, &shim, b"x").unwrap();
    let parsed = parse_shim(&frame).unwrap();
    let stamp = parsed.shim.stamp.unwrap();
    assert_eq!(stamp.nonce, 0xfeed);
    assert_eq!(stamp.key, [7u8; 16]);
    assert!(parsed.shim.flags & shim_flags::STAMPED != 0);
}

#[test]
fn truncation_rejected_at_every_cut() {
    let udp = build_udp(SRC, DST, 0, 1, 2, b"some payload bytes").unwrap();
    for cut in 0..udp.len() {
        assert!(parse_udp(&udp[..cut]).is_err(), "udp cut at {cut}");
    }
    let shim = ShimRepr {
        shim_type: ShimType::Data,
        flags: 0,
        nonce: 1,
        addr_block: [0u8; 16],
        stamp: None,
    };
    let frame = build_shim(SRC, DST, 0, &shim, b"payload").unwrap();
    for cut in 0..frame.len() {
        assert!(parse_shim(&frame[..cut]).is_err(), "shim cut at {cut}");
    }
}

#[test]
fn corruption_rejected_not_panicked() {
    let udp = build_udp(SRC, DST, 0, 1, 2, b"payload").unwrap();
    // UDP checksum catches payload corruption.
    let mut bad = udp.clone();
    *bad.last_mut().unwrap() ^= 0xff;
    assert_eq!(parse_udp(&bad).unwrap_err(), PacketError::BadChecksum);
    // IP header checksum catches header corruption.
    let mut bad = udp.clone();
    bad[8] ^= 0xff; // TTL
    assert!(parse_udp(&bad).is_err());
}

#[test]
fn cross_protocol_and_garbage_rejected() {
    let udp = build_udp(SRC, DST, 0, 1, 2, b"u").unwrap();
    assert_eq!(parse_shim(&udp).unwrap_err(), PacketError::BadField);
    let shim = ShimRepr {
        shim_type: ShimType::Data,
        flags: 0,
        nonce: 0,
        addr_block: [0u8; 16],
        stamp: None,
    };
    let sf = build_shim(SRC, DST, 0, &shim, b"").unwrap();
    assert_eq!(parse_udp(&sf).unwrap_err(), PacketError::BadField);
    // Arbitrary bytes never panic.
    for len in [0usize, 1, 19, 20, 27, 28, 40, 64] {
        let junk = vec![0xa5u8; len];
        assert!(parse_udp(&junk).is_err());
        assert!(parse_shim(&junk).is_err());
    }
}

#[test]
fn shim_unknown_flags_rejected() {
    let shim = ShimRepr {
        shim_type: ShimType::Data,
        flags: 0,
        nonce: 1,
        addr_block: [0u8; 16],
        stamp: None,
    };
    let mut frame = build_shim(SRC, DST, 0, &shim, b"").unwrap();
    frame[21] = 0x80; // unknown flag bit in the shim header
    assert!(parse_shim(&frame).is_err());
}
