//! # nn-packet — wire formats for the neutralizer protocol
//!
//! Typed, validated views over byte buffers in the smoltcp style:
//!
//! * [`ip`] — IPv4 header with DSCP access (the paper's §3.4 requires the
//!   neutralizer to preserve DSCP), checksum handling and address rewrite
//!   helpers (the neutralizer's core per-packet operation).
//! * [`shim`] — the shim layer of §2/§3: clear nonce, sealed address
//!   block, key-request flag and the neutralizer's `(nonce', Ks')` stamp.
//! * [`udp`] — the transport used by the evaluation's packet generator and
//!   the VoIP/DNS workloads, with pseudo-header checksums.
//! * [`builder`] — whole-frame assembly/cracking shared by every
//!   component.
//!
//! All parsers reject malformed input with [`error::PacketError`] — no
//! panics on attacker-controlled bytes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod error;
pub mod ip;
pub mod shim;
pub mod udp;

pub use builder::{
    build_shim, build_shim_into, build_shim_with, build_udp, build_udp_into, parse_shim,
    parse_shim_mut, parse_udp, ParsedShim, ParsedUdp,
};
pub use error::{PacketError, Result};
pub use ip::{dscp, ecn, proto, Ipv4Addr, Ipv4Cidr, Ipv4Packet, Ipv4Repr};
pub use shim::{flags as shim_flags, KeyStamp, ShimPacket, ShimRepr, ShimType};
pub use udp::{UdpPacket, UdpRepr};
