//! The dynamic-events axis of the experiment matrix.
//!
//! An [`EventTimelineSpec`] is a named preset that lowers onto a
//! concrete [`nn_netsim::EventTimeline`] against a built topology: the
//! preset names *what kind* of dynamics a cell suffers, and the lowering
//! targets the shape's designated bottleneck / primary path / neutralizer
//! so the same preset is meaningful in every topology. All event times
//! are fixed fractions of the cell duration, so two cells with the same
//! axes and seed replay byte-identical timelines.

use crate::topology::BuiltTopology;
use nn_netsim::{EventTimeline, NetEvent, SimTime};
use std::time::Duration;

/// One point on the events axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventTimelineSpec {
    /// No dynamic events — the network of every pre-events matrix.
    Static,
    /// The bottleneck link flaps twice: down at 25% and 62.5% of the
    /// duration, back up at 50% and 75%.
    Flap,
    /// The topology's primary path (for single-provider shapes: the
    /// source itself) is partitioned off at 30% of the duration and
    /// healed at 65% — the flaky-ISP story.
    PartitionHeal,
}

impl EventTimelineSpec {
    /// Stable axis name (report column, seed-hash input).
    pub fn name(self) -> &'static str {
        match self {
            EventTimelineSpec::Static => "static",
            EventTimelineSpec::Flap => "flap",
            EventTimelineSpec::PartitionHeal => "partition-heal",
        }
    }

    /// Lowers the preset onto a concrete timeline for `built`, with all
    /// event times as fixed fractions of `duration`.
    pub fn lower(self, built: &BuiltTopology, duration: Duration) -> EventTimeline {
        let d = duration.as_nanos() as u64;
        let frac = |num: u64, den: u64| SimTime(d * num / den);
        let (bneck_node, bneck_iface) = built.bottleneck;
        match self {
            EventTimelineSpec::Static => EventTimeline::new(),
            EventTimelineSpec::Flap => EventTimeline::new()
                .at(
                    frac(1, 4),
                    NetEvent::LinkDown {
                        node: bneck_node,
                        iface: bneck_iface,
                    },
                )
                .at(
                    frac(1, 2),
                    NetEvent::LinkUp {
                        node: bneck_node,
                        iface: bneck_iface,
                    },
                )
                .at(
                    frac(5, 8),
                    NetEvent::LinkDown {
                        node: bneck_node,
                        iface: bneck_iface,
                    },
                )
                .at(
                    frac(3, 4),
                    NetEvent::LinkUp {
                        node: bneck_node,
                        iface: bneck_iface,
                    },
                ),
            EventTimelineSpec::PartitionHeal => {
                let group = if built.primary_path.is_empty() {
                    vec![built.src]
                } else {
                    built.primary_path.clone()
                };
                EventTimeline::new()
                    .at(
                        frac(3, 10),
                        NetEvent::Partition {
                            group: group.clone(),
                        },
                    )
                    .at(frac(13, 20), NetEvent::Heal { group })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::{named_matrix, NAMED_MATRICES};
    use crate::topology::tests::build_for_test;
    use nn_netsim::{LinkProfile, QueueKind};

    /// The position of a queue discipline in the drift guard's tally.
    /// The match has no `_` arm, so a new discipline does not compile
    /// until the guard counts it.
    fn queue_kind_slot(kind: QueueKind) -> usize {
        match kind {
            QueueKind::DropTail => 0,
            QueueKind::Red { .. } => 1,
        }
    }

    /// The position of a network event in the drift guard's tally, with
    /// no `_` arm for the same reason.
    fn net_event_slot(event: &NetEvent) -> usize {
        match event {
            NetEvent::LinkDown { .. } => 0,
            NetEvent::LinkUp { .. } => 1,
            NetEvent::Partition { .. } => 2,
            NetEvent::Heal { .. } => 3,
        }
    }

    /// Every queue discipline, the burst-loss process and every network
    /// event is built by a named matrix: lowering each matrix's own link
    /// axis onto a bottleneck and its own events axis onto its built
    /// topologies reaches every variant. A mechanism that no matrix
    /// builds is one no cell runs, and fails here.
    #[test]
    fn every_queue_kind_and_net_event_is_built_by_a_preset() {
        let native = LinkProfile::new(10_000_000, Duration::from_millis(5));
        let mut queue_kinds = [false; 2];
        let mut lossy = false;
        let mut net_events = [false; 4];
        for name in NAMED_MATRICES {
            let spec = named_matrix(name).expect("named matrix");
            for link in &spec.links {
                let profile = link.bottleneck_profile(native.clone());
                queue_kinds[queue_kind_slot(profile.queue)] = true;
                lossy |= profile.loss.is_some();
            }
            for topology in &spec.topologies {
                let (_, built) = build_for_test(topology);
                for events in &spec.events {
                    for (_, event) in events.lower(&built, spec.tuning.duration).entries() {
                        net_events[net_event_slot(event)] = true;
                    }
                }
            }
        }
        assert!(
            queue_kinds.iter().all(|&seen| seen),
            "no link preset builds some queue discipline: {queue_kinds:?}"
        );
        assert!(lossy, "no link preset builds burst loss");
        assert!(
            net_events.iter().all(|&seen| seen),
            "no events preset builds some network event: {net_events:?}"
        );
    }

    #[test]
    fn presets_lower_to_expected_shapes() {
        let (_, built) = crate::topology::tests::build_for_test(&crate::TopologySpec::Chain);
        let d = Duration::from_millis(800);
        assert!(EventTimelineSpec::Static.lower(&built, d).is_empty());
        let flap = EventTimelineSpec::Flap.lower(&built, d);
        assert_eq!(flap.len(), 4);
        assert_eq!(flap.entries()[0].0, SimTime::from_millis(200));
        assert_eq!(flap.entries()[3].0, SimTime::from_millis(600));
        // Single-provider shapes partition the source itself.
        let part = EventTimelineSpec::PartitionHeal.lower(&built, d);
        assert!(
            matches!(&part.entries()[0].1, NetEvent::Partition { group } if group == &[built.src])
        );
    }
}
