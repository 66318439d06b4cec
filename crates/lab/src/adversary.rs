//! The adversary library — named discriminatory-ISP presets.
//!
//! §2 of the paper grants the discriminatory ISP eavesdropping, traffic
//! analysis, delaying and dropping; §1 lists the motives (slow down a
//! competitor's VoIP, prioritize the ISP's own). Each preset here is one
//! such tactic compiled to a [`PolicyEngine`] over `netsim::policy`,
//! with its rates, delays and bucket sizes fixed in this module, and
//! aimed at the workload under attack so the content classifier keys on
//! the right plaintext signature.
//!
//! Not every preset is defeated by neutralization — deliberately so.
//! Content DPI, port blocking and address-based drops lose their
//! classification signal (the paper's claim); a blanket best-effort tier
//! throttle still bites, because it needs no signal at all. The matrix
//! makes that boundary measurable instead of asserted.

use crate::topology::DST_PREFIX;
use crate::workload::WorkloadSpec;
use nn_netsim::{Action, MatchExpr, PolicyEngine, Rule};
use std::time::Duration;

/// UDP port the plain host stacks use (mirrors `hosts::APP_PORT`).
use crate::hosts::APP_PORT;

/// One point on the adversary axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdversarySpec {
    /// No discrimination — the neutral-network baseline.
    None,
    /// Content DPI: match the workload's plaintext marker and police the
    /// flow to 64 kbit/s with a 3000-byte bucket (§1's "slow down
    /// competing VoIP").
    ContentDpi,
    /// Port blocking: drop everything to the application's UDP port.
    PortBlock,
    /// Address-based drop: drop everything addressed into the
    /// destination's `/16` (the signal sealed address blocks remove).
    AddressDrop,
    /// Delay/jitter injection against the application port, 20–80 ms
    /// per frame — the attack that degrades interactive traffic without
    /// dropping a byte.
    DelayJitter,
    /// Tiered prioritization: traffic already marked premium (DSCP ≥ 40)
    /// passes; everything best-effort is policed to 128 kbit/s with a
    /// 4000-byte bucket. Needs no classification signal, so
    /// neutralization alone cannot defeat it.
    TieredPriority,
}

impl AdversarySpec {
    /// [`AdversarySpec::ContentDpi`], under the name `benchmark/` calls.
    pub fn content_dpi_default() -> Self {
        AdversarySpec::ContentDpi
    }

    /// [`AdversarySpec::AddressDrop`], under the name `benchmark/` calls.
    pub fn address_drop_default() -> Self {
        AdversarySpec::AddressDrop
    }

    /// [`AdversarySpec::DelayJitter`], under the name `benchmark/` calls.
    pub fn delay_jitter_default() -> Self {
        AdversarySpec::DelayJitter
    }

    /// [`AdversarySpec::TieredPriority`], under the name `benchmark/`
    /// calls.
    pub fn tiered_default() -> Self {
        AdversarySpec::TieredPriority
    }

    /// Stable axis name (report column).
    pub fn name(&self) -> &'static str {
        match self {
            AdversarySpec::None => "none",
            AdversarySpec::ContentDpi => "content-dpi",
            AdversarySpec::PortBlock => "port-block",
            AdversarySpec::AddressDrop => "address-drop",
            AdversarySpec::DelayJitter => "delay-jitter",
            AdversarySpec::TieredPriority => "tiered-priority",
        }
    }

    /// Compiles the preset into a policy engine targeting `workload`.
    /// [`AdversarySpec::None`] compiles to an empty (all-forward) engine.
    pub fn build(&self, workload: &WorkloadSpec) -> PolicyEngine {
        match self {
            AdversarySpec::None => PolicyEngine::new(),
            AdversarySpec::ContentDpi => PolicyEngine::new().with(Rule::new(
                format!("dpi-throttle-{}", workload.name()),
                MatchExpr::PayloadContains(workload.marker().to_vec()),
                Action::Throttle {
                    rate_bps: 64_000,
                    burst_bytes: 3_000,
                },
            )),
            AdversarySpec::PortBlock => PolicyEngine::new().with(Rule::new(
                "block-app-port",
                MatchExpr::DstPort(APP_PORT),
                Action::Drop { prob: 1.0 },
            )),
            AdversarySpec::AddressDrop => PolicyEngine::new().with(Rule::new(
                "drop-dst-prefix",
                MatchExpr::DstPrefix(DST_PREFIX),
                Action::Drop { prob: 1.0 },
            )),
            AdversarySpec::DelayJitter => PolicyEngine::new().with(Rule::new(
                "delay-inject",
                MatchExpr::Any(vec![
                    MatchExpr::DstPort(APP_PORT),
                    MatchExpr::SrcPort(APP_PORT),
                ]),
                Action::Jitter {
                    min: Duration::from_millis(20),
                    max: Duration::from_millis(80),
                },
            )),
            AdversarySpec::TieredPriority => PolicyEngine::new()
                .with(Rule::new(
                    "tier-premium",
                    MatchExpr::DscpAtLeast(40),
                    Action::Allow,
                ))
                .with(Rule::new(
                    "tier-besteffort",
                    MatchExpr::True,
                    Action::Throttle {
                        rate_bps: 128_000,
                        burst_bytes: 4_000,
                    },
                )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nn_netsim::Verdict;
    use nn_packet::{build_udp, Ipv4Addr};

    fn voip_frame() -> Vec<u8> {
        let mut payload = Vec::new();
        crate::workload::marked_payload(&mut payload, b"VOIP/RTP", 0, 160);
        build_udp(
            Ipv4Addr::new(203, 0, 113, 10),
            Ipv4Addr::new(10, 7, 0, 99),
            0,
            APP_PORT,
            APP_PORT,
            &payload,
        )
        .unwrap()
    }

    #[test]
    fn none_forwards_everything() {
        let mut pe = AdversarySpec::None.build(&WorkloadSpec::Voip);
        assert!(pe.is_empty());
        assert_eq!(pe.evaluate(0, &voip_frame(), 0.0), Verdict::Forward);
    }

    #[test]
    fn content_dpi_rule_targets_the_workload_marker() {
        let w = WorkloadSpec::Voip;
        let mut pe = AdversarySpec::ContentDpi.build(&w);
        // First packet conforms to the bucket; flooding exceeds it.
        assert_eq!(pe.evaluate(0, &voip_frame(), 0.0), Verdict::Forward);
        let mut dropped = 0;
        for _ in 0..100 {
            if let Verdict::Drop(rule) = pe.evaluate(0, &voip_frame(), 0.0) {
                assert_eq!(pe.rule_name(rule), "dpi-throttle-voip");
                dropped += 1;
            }
        }
        assert!(dropped > 50, "throttle must bite: {dropped}/100");
    }

    #[test]
    fn port_block_and_address_drop_kill_plain_traffic() {
        for spec in [AdversarySpec::PortBlock, AdversarySpec::AddressDrop] {
            let mut pe = spec.build(&WorkloadSpec::Voip);
            assert!(
                matches!(pe.evaluate(0, &voip_frame(), 0.5), Verdict::Drop(_)),
                "{} must drop the plain frame",
                spec.name()
            );
        }
    }

    #[test]
    fn jitter_delays_without_dropping() {
        let mut pe = AdversarySpec::DelayJitter.build(&WorkloadSpec::Voip);
        match pe.evaluate(0, &voip_frame(), 0.5) {
            Verdict::Delay(d) => {
                assert!(d >= Duration::from_millis(20) && d <= Duration::from_millis(80))
            }
            other => panic!("expected delay, got {other:?}"),
        }
    }

    #[test]
    fn tiered_spares_premium_traffic_only() {
        let mut pe = AdversarySpec::TieredPriority.build(&WorkloadSpec::Voip);
        let premium = build_udp(
            Ipv4Addr::new(203, 0, 113, 10),
            Ipv4Addr::new(10, 7, 0, 99),
            46,
            APP_PORT,
            APP_PORT,
            b"premium",
        )
        .unwrap();
        assert_eq!(pe.evaluate(0, &premium, 0.0), Verdict::Forward);
        // Best-effort drains the bucket eventually.
        let mut dropped = false;
        for _ in 0..200 {
            if matches!(pe.evaluate(0, &voip_frame(), 0.0), Verdict::Drop(_)) {
                dropped = true;
            }
        }
        assert!(dropped, "best-effort tier must be policed");
    }

    #[test]
    fn names_are_unique() {
        let specs = [
            AdversarySpec::None,
            AdversarySpec::ContentDpi,
            AdversarySpec::PortBlock,
            AdversarySpec::AddressDrop,
            AdversarySpec::DelayJitter,
            AdversarySpec::TieredPriority,
        ];
        let names: std::collections::HashSet<_> = specs.iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), specs.len());
    }
}
