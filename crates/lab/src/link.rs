//! The link axis — one point per bottleneck impairment profile.
//!
//! Every topology generator designates one *bottleneck* link on the
//! victim's forward path (dumbbell: the shared inter-router link; chain
//! and multi-AS: the backbone hop into the neutral domain; star: the
//! hub's uplink to the neutral ISP). A [`LinkProfileSpec`] decides how
//! that link misbehaves, lowering onto an [`nn_netsim::LinkProfile`]:
//!
//! * [`LinkProfileSpec::Clean`] — the legacy wire: the topology's own
//!   rate, drop-tail queue, no loss.
//! * [`LinkProfileSpec::LossyBurst`] — Gilbert–Elliott burst loss: loss
//!   arrives in episodes, not as a coin flip per frame.
//! * [`LinkProfileSpec::EcnRed`] — a congested ECN-capable RED
//!   bottleneck: the AQM CE-marks ECT traffic on the early ramp instead
//!   of dropping it (and still hard-drops at the queue limit).
//! * [`LinkProfileSpec::Congested`] — a plain under-provisioned
//!   drop-tail bottleneck (the "your neighbours are streaming" link).
//!
//! The spec is a first-class matrix axis: it feeds the per-cell seed
//! hash, appears in JSON/CSV reports, and groups baselines (a cell's
//! baseline is the `(none, plain)` cell *of the same link profile* — a
//! lossy baseline, not a clean one).

use nn_netsim::{GilbertElliott, LinkProfile, QueueKind};

/// One point on the link axis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LinkProfileSpec {
    /// The legacy clean wire.
    Clean,
    /// Gilbert–Elliott burst loss at the bottleneck's native rate.
    LossyBurst {
        /// P(good → bad) per frame.
        p_enter_bad: f64,
        /// P(bad → good) per frame.
        p_exit_bad: f64,
        /// Loss probability in the bad state (good-state loss is 0).
        loss_bad: f64,
    },
    /// An under-provisioned bottleneck running ECN-capable RED.
    EcnRed {
        /// Bottleneck rate replacing the topology's native rate.
        bottleneck_bps: u64,
    },
    /// An under-provisioned drop-tail bottleneck.
    Congested {
        /// Bottleneck rate replacing the topology's native rate.
        bottleneck_bps: u64,
    },
}

/// Queue capacity for the under-provisioned presets: small enough that
/// congestion shows up as loss/marks within a sub-second cell, large
/// enough to absorb sub-RTT bursts.
const CONGESTED_QUEUE_BYTES: usize = 32 * 1024;

impl LinkProfileSpec {
    /// The burst-loss preset: ~7% of frames sit in a bad state that
    /// loses half of them — a stationary loss rate just under 4%,
    /// arriving in bursts averaging four frames.
    pub fn lossy_burst_default() -> Self {
        LinkProfileSpec::LossyBurst {
            p_enter_bad: 0.02,
            p_exit_bad: 0.25,
            loss_bad: 0.5,
        }
    }

    /// The ECN-RED preset: a 1.5 Mbit/s bottleneck whose AQM marks CE.
    pub fn ecn_red_default() -> Self {
        LinkProfileSpec::EcnRed {
            bottleneck_bps: 1_500_000,
        }
    }

    /// The congested preset: a 1.2 Mbit/s drop-tail bottleneck.
    pub fn congested_default() -> Self {
        LinkProfileSpec::Congested {
            bottleneck_bps: 1_200_000,
        }
    }

    /// Stable axis name (report column, seed-hash input). Parameters are
    /// part of the identity so two different burst profiles never share
    /// a label or a baseline.
    pub fn name(&self) -> String {
        match *self {
            LinkProfileSpec::Clean => "clean".to_string(),
            LinkProfileSpec::LossyBurst {
                p_enter_bad,
                p_exit_bad,
                loss_bad,
            } => format!(
                "lossy-burst-{}-{}-{}",
                prob_label(p_enter_bad),
                prob_label(p_exit_bad),
                prob_label(loss_bad)
            ),
            LinkProfileSpec::EcnRed { bottleneck_bps } => {
                format!("ecn-red-{}k", bottleneck_bps / 1000)
            }
            LinkProfileSpec::Congested { bottleneck_bps } => {
                format!("congested-{}k", bottleneck_bps / 1000)
            }
        }
    }

    /// Lowers the spec onto a concrete bottleneck profile, starting from
    /// the topology's native rate and latency for that link.
    pub fn bottleneck_profile(&self, native: LinkProfile) -> LinkProfile {
        match *self {
            LinkProfileSpec::Clean => native,
            LinkProfileSpec::LossyBurst {
                p_enter_bad,
                p_exit_bad,
                loss_bad,
            } => native.with_loss(GilbertElliott {
                p_enter_bad,
                p_exit_bad,
                loss_good: 0.0,
                loss_bad,
            }),
            LinkProfileSpec::EcnRed { bottleneck_bps } => {
                let mut p = native;
                p.bandwidth_bps = bottleneck_bps;
                // Ramp over the middle half of the queue: marking starts
                // at 25% fill and becomes certain at 75%.
                p.with_queue(
                    QueueKind::red_ecn(
                        CONGESTED_QUEUE_BYTES / 4,
                        CONGESTED_QUEUE_BYTES * 3 / 4,
                        1.0,
                    ),
                    CONGESTED_QUEUE_BYTES,
                )
            }
            LinkProfileSpec::Congested { bottleneck_bps } => {
                let mut p = native;
                p.bandwidth_bps = bottleneck_bps;
                p.with_queue(QueueKind::DropTail, CONGESTED_QUEUE_BYTES)
            }
        }
    }
}

/// Probability rendered for axis names: Rust's shortest round-trip
/// `f64` display, with the leading `0.` dropped for the common
/// sub-unity case (`0.02` → `.02`). Distinct values always render
/// distinctly, so two different burst profiles can never collide into
/// one label (a rounded per-mille would).
fn prob_label(p: f64) -> String {
    let s = p.to_string();
    s.strip_prefix("0.").map(|f| format!(".{f}")).unwrap_or(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn native() -> LinkProfile {
        LinkProfile::new(10_000_000, Duration::from_millis(10))
    }

    #[test]
    fn names_encode_parameters_and_stay_unique() {
        let specs = [
            LinkProfileSpec::Clean,
            LinkProfileSpec::lossy_burst_default(),
            LinkProfileSpec::ecn_red_default(),
            LinkProfileSpec::congested_default(),
        ];
        let names: std::collections::HashSet<String> =
            specs.iter().map(LinkProfileSpec::name).collect();
        assert_eq!(names.len(), specs.len());
        assert_eq!(LinkProfileSpec::Clean.name(), "clean");
        assert_eq!(
            LinkProfileSpec::lossy_burst_default().name(),
            "lossy-burst-.02-.25-.5"
        );
        // Nearby parameters that a rounded label would conflate stay
        // distinguishable: distinct values, distinct names.
        assert_ne!(
            LinkProfileSpec::LossyBurst {
                p_enter_bad: 0.0196,
                p_exit_bad: 0.25,
                loss_bad: 0.5
            }
            .name(),
            LinkProfileSpec::LossyBurst {
                p_enter_bad: 0.0204,
                p_exit_bad: 0.25,
                loss_bad: 0.5
            }
            .name()
        );
        assert_eq!(LinkProfileSpec::ecn_red_default().name(), "ecn-red-1500k");
        assert_ne!(
            LinkProfileSpec::EcnRed {
                bottleneck_bps: 800_000
            }
            .name(),
            LinkProfileSpec::ecn_red_default().name(),
            "different rates must not share a label"
        );
    }

    #[test]
    fn clean_is_the_identity() {
        assert_eq!(
            LinkProfileSpec::Clean.bottleneck_profile(native()),
            native()
        );
    }

    #[test]
    fn lossy_burst_keeps_rate_and_adds_one_ge_stage() {
        let p = LinkProfileSpec::lossy_burst_default().bottleneck_profile(native());
        assert_eq!(p.bandwidth_bps, native().bandwidth_bps);
        assert_eq!(
            p.loss,
            Some(GilbertElliott {
                p_enter_bad: 0.02,
                p_exit_bad: 0.25,
                loss_good: 0.0,
                loss_bad: 0.5,
            })
        );
    }

    #[test]
    fn congested_presets_cut_the_rate_and_shrink_the_queue() {
        let red = LinkProfileSpec::ecn_red_default().bottleneck_profile(native());
        assert_eq!(red.bandwidth_bps, 1_500_000);
        assert!(matches!(red.queue, QueueKind::Red { .. }));
        assert_eq!(red.queue_bytes, CONGESTED_QUEUE_BYTES);

        let plain = LinkProfileSpec::congested_default().bottleneck_profile(native());
        assert_eq!(plain.bandwidth_bps, 1_200_000);
        assert_eq!(plain.queue, QueueKind::DropTail);
        assert_eq!(plain.loss, None);
    }
}
