//! Seeded, declarative network-event timelines — the dynamic control
//! plane of the simulator.
//!
//! An [`EventTimeline`] is an ordered list of `(SimTime, NetEvent)`
//! entries describing what happens *to the network* while traffic runs
//! through it: links flap ([`NetEvent::LinkDown`]/[`NetEvent::LinkUp`]),
//! a set of nodes is cut off from the rest
//! ([`NetEvent::Partition`]/[`NetEvent::Heal`]), or a middlebox goes dark
//! ([`NetEvent::NodePause`]/[`NetEvent::NodeResume`] — the
//! neutralizer-outage story of the paper's §3.5).
//!
//! Timelines are applied by [`crate::Simulator::install_timeline`]:
//! every entry becomes an engine event in the same queue as frame
//! deliveries, so an event scheduled at time *t* applies at *exactly*
//! that nanosecond, in submission order with the traffic due then — the
//! outcome of a run with events is as byte-deterministic per seed as one
//! without.
//!
//! ## Semantics
//!
//! * **Link down** acts on *both* directions of the link at
//!   `(node, iface)`. Frames already serialized onto the wire still
//!   arrive (the wire does not lose what it already carries); frames
//!   waiting in either direction's queue are flushed and counted as
//!   [`crate::LinkCounters::down_drops`], and every frame offered while
//!   the link is down is dropped the same way.
//! * **Partition** downs every link direction crossing the boundary of
//!   `group` (members keep talking to members, non-members to
//!   non-members). **Heal** re-raises exactly those crossings.
//! * **Node pause** is a hard outage: frames delivered to a paused node
//!   are discarded (counted under the `events.pause_drops` stat) and its
//!   timers are swallowed — the model for a crashed middlebox, not a
//!   suspended host.
//!
//! Every applied event increments the `events.applied` stat counter, so
//! harnesses can assert a timeline actually ran.

use crate::sim::{IfaceId, NodeId};
use crate::time::SimTime;

/// One dynamic network event, applied at its exact nanosecond.
#[derive(Debug)]
pub enum NetEvent {
    /// Takes down both directions of the link at `(node, iface)`.
    LinkDown {
        /// Either endpoint of the link.
        node: NodeId,
        /// The interface on `node` the link hangs off.
        iface: IfaceId,
    },
    /// Brings both directions of the link at `(node, iface)` back up.
    LinkUp {
        /// Either endpoint of the link.
        node: NodeId,
        /// The interface on `node` the link hangs off.
        iface: IfaceId,
    },
    /// Downs every link direction with exactly one endpoint in `group`.
    Partition {
        /// The node set cut off from the rest of the topology.
        group: Vec<NodeId>,
    },
    /// Re-raises every link direction with exactly one endpoint in
    /// `group` (the inverse of [`NetEvent::Partition`]).
    Heal {
        /// The node set to reconnect.
        group: Vec<NodeId>,
    },
    /// Hard-pauses a node: delivered frames are discarded and timers
    /// swallowed until a matching [`NetEvent::NodeResume`].
    NodePause {
        /// The node to take dark.
        node: NodeId,
    },
    /// Resumes a paused node (frames and timers dropped meanwhile are
    /// gone — this models a crash/restart, not a suspension).
    NodeResume {
        /// The node to wake.
        node: NodeId,
    },
}

/// A declarative schedule of [`NetEvent`]s, ordered by application time.
///
/// Entries may be pushed in any order; [`crate::Simulator::install_timeline`]
/// schedules each at its own time, and entries due at the same time apply
/// in the order they were pushed (the engine's submission-order contract).
#[derive(Debug, Default)]
pub struct EventTimeline {
    entries: Vec<(SimTime, NetEvent)>,
}

impl EventTimeline {
    /// An empty timeline.
    pub fn new() -> Self {
        EventTimeline::default()
    }

    /// Appends an event at `at` (builder form).
    pub fn at(mut self, at: SimTime, event: NetEvent) -> Self {
        self.push(at, event);
        self
    }

    /// Appends an event at `at`.
    pub fn push(&mut self, at: SimTime, event: NetEvent) {
        self.entries.push((at, event));
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no events are scheduled.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The scheduled entries, in push order.
    pub fn entries(&self) -> &[(SimTime, NetEvent)] {
        &self.entries
    }

    /// Consumes the timeline into its entries, in push order.
    pub fn into_entries(self) -> Vec<(SimTime, NetEvent)> {
        self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_preserves_push_order() {
        let tl = EventTimeline::new()
            .at(SimTime::from_millis(30), NetEvent::NodePause { node: 2 })
            .at(
                SimTime::from_millis(10),
                NetEvent::LinkDown { node: 0, iface: 1 },
            );
        assert_eq!(tl.len(), 2);
        assert!(!tl.is_empty());
        // Entries stay in push order (the engine orders them by time).
        assert_eq!(tl.entries()[0].0, SimTime::from_millis(30));
        let entries = tl.into_entries();
        assert!(matches!(
            entries[1].1,
            NetEvent::LinkDown { node: 0, iface: 1 }
        ));
    }
}
