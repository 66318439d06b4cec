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
//! * [`LinkProfileSpec::EcnRed`] — a congested 1.5 Mbit/s ECN-capable RED
//!   bottleneck: the AQM CE-marks ECT traffic on the early ramp instead
//!   of dropping it (and still hard-drops at the queue limit).
//! * [`LinkProfileSpec::Congested`] — a plain under-provisioned
//!   1.2 Mbit/s drop-tail bottleneck (the "your neighbours are
//!   streaming" link).
//!
//! Each profile's numbers are constants of this module. The spec is a
//! first-class matrix axis: it feeds the per-cell seed hash, appears in
//! JSON/CSV reports, and groups baselines (a cell's baseline is the
//! `(none, plain)` cell *of the same link profile* — a lossy baseline,
//! not a clean one).

use nn_netsim::{GilbertElliott, LinkProfile, QueueKind};

/// One point on the link axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkProfileSpec {
    /// The legacy clean wire.
    Clean,
    /// Gilbert–Elliott burst loss at the bottleneck's native rate: about
    /// 3.7% of frames lost, in bursts averaging four frames.
    LossyBurst,
    /// A 1.5 Mbit/s bottleneck running ECN-capable RED.
    EcnRed,
    /// A 1.2 Mbit/s drop-tail bottleneck.
    Congested,
}

/// The burst-loss chain: ~7% of frames sit in a bad state that loses
/// half of them — a stationary loss rate just under 4%, arriving in
/// bursts averaging four frames.
const BURST_LOSS: GilbertElliott = GilbertElliott {
    p_enter_bad: 0.02,
    p_exit_bad: 0.25,
    loss_good: 0.0,
    loss_bad: 0.5,
};

/// The ECN-RED bottleneck's rate, replacing the topology's native rate.
const ECN_RED_BPS: u64 = 1_500_000;

/// The congested drop-tail bottleneck's rate.
const CONGESTED_BPS: u64 = 1_200_000;

/// Queue capacity for the under-provisioned presets: small enough that
/// congestion shows up as loss/marks within a sub-second cell, large
/// enough to absorb sub-RTT bursts.
const CONGESTED_QUEUE_BYTES: usize = 32 * 1024;

impl LinkProfileSpec {
    /// [`LinkProfileSpec::LossyBurst`], under the name `benchmark/` calls.
    pub fn lossy_burst_default() -> Self {
        LinkProfileSpec::LossyBurst
    }

    /// [`LinkProfileSpec::EcnRed`], under the name `benchmark/` calls.
    pub fn ecn_red_default() -> Self {
        LinkProfileSpec::EcnRed
    }

    /// Stable axis name (report column, seed-hash input), spelling the
    /// profile's numbers.
    pub fn name(&self) -> &'static str {
        match self {
            LinkProfileSpec::Clean => "clean",
            LinkProfileSpec::LossyBurst => "lossy-burst-.02-.25-.5",
            LinkProfileSpec::EcnRed => "ecn-red-1500k",
            LinkProfileSpec::Congested => "congested-1200k",
        }
    }

    /// Lowers the spec onto a concrete bottleneck profile, starting from
    /// the topology's native rate and latency for that link.
    pub fn bottleneck_profile(&self, native: LinkProfile) -> LinkProfile {
        match self {
            LinkProfileSpec::Clean => native,
            LinkProfileSpec::LossyBurst => native.with_loss(BURST_LOSS),
            LinkProfileSpec::EcnRed => {
                let mut p = native;
                p.bandwidth_bps = ECN_RED_BPS;
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
            LinkProfileSpec::Congested => {
                let mut p = native;
                p.bandwidth_bps = CONGESTED_BPS;
                p.with_queue(QueueKind::DropTail, CONGESTED_QUEUE_BYTES)
            }
        }
    }
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
            LinkProfileSpec::LossyBurst,
            LinkProfileSpec::EcnRed,
            LinkProfileSpec::Congested,
        ];
        let names: std::collections::HashSet<&str> =
            specs.iter().map(LinkProfileSpec::name).collect();
        assert_eq!(names.len(), specs.len());
        assert_eq!(LinkProfileSpec::Clean.name(), "clean");
        assert_eq!(LinkProfileSpec::LossyBurst.name(), "lossy-burst-.02-.25-.5");
        assert_eq!(LinkProfileSpec::EcnRed.name(), "ecn-red-1500k");
        assert_eq!(LinkProfileSpec::Congested.name(), "congested-1200k");
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
        let p = LinkProfileSpec::LossyBurst.bottleneck_profile(native());
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
        let red = LinkProfileSpec::EcnRed.bottleneck_profile(native());
        assert_eq!(red.bandwidth_bps, 1_500_000);
        assert!(matches!(red.queue, QueueKind::Red { .. }));
        assert_eq!(red.queue_bytes, CONGESTED_QUEUE_BYTES);

        let plain = LinkProfileSpec::Congested.bottleneck_profile(native());
        assert_eq!(plain.bandwidth_bps, 1_200_000);
        assert_eq!(plain.queue, QueueKind::DropTail);
        assert_eq!(plain.loss, None);
    }
}
