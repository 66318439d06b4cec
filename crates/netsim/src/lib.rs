//! # nn-netsim — deterministic network simulator
//!
//! The substitute for the paper's Click/Linux testbed and for the ISPs of
//! its scenarios (see DESIGN.md §3). A single-threaded, seeded
//! discrete-event engine moves whole IPv4 frames between [`sim::Node`]s
//! over links with bandwidth, propagation delay, queue disciplines
//! ([`queue`]: drop-tail, DSCP strict priority, RED, token-bucket
//! policing) and optional fault injection.
//!
//! * [`sim`] — the event engine and the `Node` trait.
//! * [`events`] — seeded dynamic-event timelines ([`EventTimeline`]):
//!   link flaps, mid-run profile swaps, partitions/heals, node
//!   pause/resume and adversary policy switch-on, applied at exact wheel
//!   quanta so fault injection interleaves deterministically with
//!   traffic.
//! * [`frame`] — pooled [`FrameBuf`] buffers: the data path recycles
//!   frames through a per-simulator [`FramePool`] freelist instead of
//!   touching the allocator per hop.
//! * [`histogram`] — fixed-bucket log-scale [`Histogram`]s: mergeable,
//!   deterministic, shard-invariant distributions behind the per-flow
//!   delay/jitter/reorder/CE telemetry in [`stats`].
//! * [`wheel`] — the hierarchical [`TimingWheel`] event queue: amortized
//!   O(1) scheduling with the exact `(time, submission order)` contract
//!   of the binary heap it replaced.
//! * [`link`] — the composable link-impairment pipeline: [`LinkProfile`]
//!   with rate/latency/AQM stages plus loss ([`LossModel`]: Bernoulli or
//!   Gilbert–Elliott bursts), corruption and bounded-reordering stages;
//!   the ECN-capable RED stage marks CE instead of dropping.
//! * [`routing`] — latency-weighted shortest paths with anycast (the
//!   neutralizer's service address model, §3 of the paper).
//! * [`policy`] — the discriminatory-ISP adversary: DPI, encrypted-traffic
//!   and key-setup detectors, drop/delay/throttle/DSCP actions (§1, §3.6).
//! * [`nodes`] — generic router and sink nodes.
//! * [`population`] — flyweight endpoint populations: a
//!   [`PopulationNode`] multiplexes thousands-to-millions of modeled
//!   hosts as seeded statistical cohorts that emit real pooled frames
//!   but keep only per-cohort aggregate statistics, with an optional
//!   fluid mode advancing bulk cohorts as rate equations between wheel
//!   quanta.
//! * [`stats`] — the typed counter registry ([`counter_set!`]) and
//!   per-flow delay/goodput accounting.
//! * [`time`] — nanosecond simulated time.
//!
//! Everything is deterministic under a fixed seed: the same topology and
//! seed reproduce byte-identical outcomes, which EXPERIMENTS.md relies on.

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
pub mod wheel;

pub use events::{EventTimeline, NetEvent};
pub use frame::{FrameBuf, FramePool};
pub use histogram::Histogram;
pub use link::{LinkProfile, LossModel, QueueKind, StageSpec};
pub use nodes::{RouterNode, SinkNode};
pub use policy::{Action, MatchExpr, PolicyEngine, Rule, RuleId, Verdict};
pub use population::{
    ArrivalClock, CohortAggregate, CohortModel, CohortTx, PopulationNode, PopulationSinkNode,
    AGGREGATE_STRIPES, FLUID_QUANTUM,
};
pub use queue::{DropTail, DscpPriority, EnqueueResult, Queue, Red, TokenBucket};
pub use routing::{compute_routes, RouteTable};
pub use sim::{Context, IfaceId, LinkCounters, Node, NodeId, Simulator};
pub use stats::{CounterClass, CounterId, FlowId, FlowStats, Stats};
pub use time::{tx_time, SimTime};
pub use wheel::TimingWheel;
