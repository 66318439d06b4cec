//! # nn-core — the neutralizer and its protocol machinery
//!
//! The heart of the reproduction of *A Technical Approach to Net
//! Neutrality* (HotNets 2006): the pieces that sit between the wire
//! formats ([`nn_packet`]), the cryptographic substrate ([`nn_crypto`])
//! and the simulator ([`nn_netsim`]).
//!
//! * [`neutralizer`] — the stateless border middlebox of §3: key setup
//!   (one cheap RSA-e3 encryption), the data path (CMAC key derivation +
//!   one AES block per packet), return-path anonymization and
//!   epoch-based master-key rotation.
//! * [`wire`] — application-layer framing inside neutralized packets:
//!   end-to-end transport messages and the key-rollover stamp they carry.
//! * [`probe`] — active-measurement probe payloads: the edge
//!   measurement plane's differential pairs over the wire.
//! * [`app`] — the workload interface host stacks drive, so the same
//!   application runs unchanged over plain and neutralized transports.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod app;
pub mod neutralizer;
pub mod probe;
pub mod wire;

pub use app::{AppSource, NullApp};
pub use neutralizer::{KeyMemo, MasterKeyEpochs, NeutralizerConfig, NeutralizerNode};
pub use probe::{ProbeKind, ProbePayload};
pub use wire::{InnerPayload, TransportMsg};
