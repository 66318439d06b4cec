//! # net-neutrality — reproduction of *A Technical Approach to Net Neutrality*
//!
//! A facade over the workspace crates, so `cargo doc` and downstream
//! experiments see one coherent API:
//!
//! * [`crypto`] ([`nn_crypto`]) — from-scratch bignum/RSA-e3, AES-128,
//!   CMAC, CTR, the `Ks = CMAC(KM, nonce ‖ srcIP)` KDF and sealed
//!   address blocks.
//! * [`packet`] ([`nn_packet`]) — IPv4/UDP and the neutralizer shim
//!   wire formats.
//! * [`dns`] ([`nn_dns`]) — NEUT bootstrap records, zones and the
//!   TTL-honoring client cache.
//! * [`netsim`] ([`nn_netsim`]) — the deterministic discrete-event
//!   simulator and the discriminatory-ISP policy engine.
//! * [`core`] ([`nn_core`]) — the stateless neutralizer, multihomed
//!   provider selection, measurement probes and application framing.
//! * [`lab`] ([`nn_lab`]) — the experiment-matrix engine: host stacks,
//!   topology generators, workload and adversary libraries, and the
//!   parallel matrix runner (see the `nn-lab` binary). The paper's
//!   baseline / DPI-throttled / neutralized comparison is its `paper`
//!   named matrix.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use nn_core as core;
pub use nn_crypto as crypto;
pub use nn_dns as dns;
pub use nn_lab as lab;
pub use nn_netsim as netsim;
pub use nn_packet as packet;
