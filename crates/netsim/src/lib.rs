//! # nn-netsim — deterministic network simulator
//!
//! The substitute for the paper's Click/Linux testbed and for the ISPs of
//! its scenarios. A single-threaded, seeded discrete-event engine moves
//! whole IPv4 frames between [`sim::Node`]s over links with bandwidth,
//! propagation delay, queue disciplines ([`queue`]: drop-tail or
//! ECN-marking RED, plus token-bucket policing) and optional burst loss.
//!
//! * [`sim`] — the event engine and the `Node` trait.
//! * [`events`] — seeded dynamic-event timelines ([`EventTimeline`]):
//!   link flaps and partitions/heals, applied at their exact nanosecond
//!   so fault injection interleaves deterministically with traffic.
//! * [`frame`] — pooled [`FrameBuf`] buffers: the data path recycles
//!   frames through a per-simulator [`FramePool`] freelist instead of
//!   touching the allocator per hop.
//! * [`histogram`] — fixed-bucket log-scale [`Histogram`]s: the
//!   order-invariant one-way delay distributions behind every reported
//!   delay percentile in [`stats`].
//! * [`link`] — one link direction, a [`LinkProfile`]: rate, latency,
//!   a drop-tail or ECN-marking RED queue ([`QueueKind`]) and optional
//!   [`GilbertElliott`] burst loss.
//! * [`routing`] — latency-weighted shortest paths with anycast (the
//!   neutralizer's service address model, §3 of the paper).
//! * [`policy`] — the discriminatory-ISP adversary: DPI, encrypted-traffic
//!   and key-setup detectors, drop/jitter/throttle actions (§1, §3.6).
//! * [`nodes`] — generic router and sink nodes.
//! * [`population`] — flyweight endpoint populations: a
//!   [`PopulationNode`] multiplexes thousands-to-millions of modeled
//!   hosts as seeded statistical cohorts that emit real pooled frames,
//!   each cohort one registered flow sized to its endpoints, with an
//!   optional fluid mode advancing bulk cohorts as rate equations once
//!   per [`FLUID_QUANTUM`].
//! * [`stats`] — the typed counter registry ([`counter_set!`]) and
//!   per-flow delay/goodput accounting, one record per host flow or
//!   population cohort.
//! * [`time`] — nanosecond simulated time.
//!
//! Everything is deterministic under a fixed seed: the same topology and
//! seed reproduce byte-identical outcomes, which the lab's golden
//! reports rely on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod events;
pub mod frame;
pub mod histogram;
pub mod link;
pub mod nodes;
pub mod policy;
pub mod population;
pub mod queue;
pub mod routing;
pub mod sim;
pub mod stats;
pub mod time;

pub use events::{EventTimeline, NetEvent};
pub use frame::{FrameBuf, FramePool};
pub use histogram::Histogram;
pub use link::{GilbertElliott, LinkProfile, QueueKind};
pub use nodes::{RouterNode, SinkNode};
pub use policy::{Action, MatchExpr, PolicyEngine, Rule, RuleId, Verdict};
pub use population::{
    ArrivalClock, CohortModel, PopulationNode, PopulationSinkNode, FLUID_QUANTUM,
};
pub use queue::{EnqueueResult, Queue, TokenBucket};
pub use routing::{compute_routes, RouteTable};
pub use sim::{Context, IfaceId, LinkCounters, Node, NodeId, Simulator};
pub use stats::{CounterClass, CounterId, FlowId, FlowStats, Stats, ENDPOINT_STRIPES};
pub use time::{tx_time, SimTime};
