//! The adversary library — named discriminatory-ISP presets.
//!
//! §2 of the paper grants the discriminatory ISP eavesdropping, traffic
//! analysis, delaying and dropping; §1 lists the motives (slow down a
//! competitor's VoIP, prioritize the ISP's own). Each preset here is one
//! such tactic compiled to a [`PolicyEngine`] over `netsim::policy`,
//! parameterized by the workload under attack so the content classifier
//! keys on the right plaintext signature.
//!
//! Not every preset is defeated by neutralization — deliberately so.
//! Content DPI, port blocking and address-based drops lose their
//! classification signal (the paper's claim); a blanket best-effort tier
//! throttle still bites, because it needs no signal at all. The matrix
//! makes that boundary measurable instead of asserted.

use crate::workload::WorkloadSpec;
use nn_netsim::{Action, MatchExpr, PolicyEngine, Rule};
use nn_packet::{Ipv4Addr, Ipv4Cidr};
use std::time::Duration;

/// UDP port the plain host stacks use (mirrors `hosts::APP_PORT`).
use crate::hosts::APP_PORT;

/// One point on the adversary axis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdversarySpec {
    /// No discrimination — the neutral-network baseline.
    None,
    /// Content DPI: match the workload's plaintext marker, police the
    /// flow to a trickle (§1's "slow down competing VoIP").
    ContentDpi {
        /// Policing rate, bits/sec on the wire.
        rate_bps: u64,
        /// Token-bucket depth, bytes.
        burst_bytes: usize,
    },
    /// Port blocking: drop everything to the application's UDP port.
    PortBlock,
    /// Address-based drop: drop everything addressed into the
    /// destination prefix (the signal sealed address blocks remove).
    AddressDrop {
        /// The prefix being censored.
        prefix: Ipv4Cidr,
    },
    /// Delay/jitter injection against the application port — the attack
    /// that degrades interactive traffic without dropping a byte.
    DelayJitter {
        /// Smallest injected extra delay.
        min: Duration,
        /// Largest injected extra delay.
        max: Duration,
    },
    /// Tiered prioritization: traffic already marked premium (high DSCP)
    /// passes; everything best-effort is policed. Needs no
    /// classification signal, so neutralization alone cannot defeat it.
    TieredPriority {
        /// DSCP at or above which traffic rides the premium tier.
        premium_dscp: u8,
        /// Best-effort policing rate, bits/sec.
        rate_bps: u64,
        /// Token-bucket depth, bytes.
        burst_bytes: usize,
    },
}

impl AdversarySpec {
    /// The content-DPI preset the `paper` matrix runs
    /// (64 kbit/s police, 3000-byte bucket).
    pub fn content_dpi_default() -> Self {
        AdversarySpec::ContentDpi {
            rate_bps: 64_000,
            burst_bytes: 3_000,
        }
    }

    /// The address-drop preset against the legacy destination prefix.
    pub fn address_drop_default() -> Self {
        AdversarySpec::AddressDrop {
            prefix: Ipv4Cidr::new(Ipv4Addr::new(10, 7, 0, 0), 16),
        }
    }

    /// The jitter preset: 20–80 ms of injected delay.
    pub fn delay_jitter_default() -> Self {
        AdversarySpec::DelayJitter {
            min: Duration::from_millis(20),
            max: Duration::from_millis(80),
        }
    }

    /// The tiered-priority preset: DSCP ≥ 40 rides free, the rest is
    /// policed to 128 kbit/s.
    pub fn tiered_default() -> Self {
        AdversarySpec::TieredPriority {
            premium_dscp: 40,
            rate_bps: 128_000,
            burst_bytes: 4_000,
        }
    }

    /// Stable axis name (report column).
    pub fn name(&self) -> &'static str {
        match self {
            AdversarySpec::None => "none",
            AdversarySpec::ContentDpi { .. } => "content-dpi",
            AdversarySpec::PortBlock => "port-block",
            AdversarySpec::AddressDrop { .. } => "address-drop",
            AdversarySpec::DelayJitter { .. } => "delay-jitter",
            AdversarySpec::TieredPriority { .. } => "tiered-priority",
        }
    }

    /// Names of the rules [`Self::build`] installs whose `Drop` verdicts
    /// should count as discrimination drops in reports.
    pub fn drop_rule_names(&self, workload: &WorkloadSpec) -> Vec<String> {
        match self {
            AdversarySpec::None | AdversarySpec::DelayJitter { .. } => Vec::new(),
            AdversarySpec::ContentDpi { .. } => {
                vec![format!("dpi-throttle-{}", workload.name())]
            }
            AdversarySpec::PortBlock => vec!["block-app-port".to_string()],
            AdversarySpec::AddressDrop { .. } => vec!["drop-dst-prefix".to_string()],
            AdversarySpec::TieredPriority { .. } => vec!["tier-besteffort".to_string()],
        }
    }

    /// Compiles the preset into a policy engine targeting `workload`.
    /// [`AdversarySpec::None`] compiles to an empty (all-forward) engine.
    pub fn build(&self, workload: &WorkloadSpec) -> PolicyEngine {
        match *self {
            AdversarySpec::None => PolicyEngine::new(),
            AdversarySpec::ContentDpi {
                rate_bps,
                burst_bytes,
            } => PolicyEngine::new().with(Rule::new(
                format!("dpi-throttle-{}", workload.name()),
                MatchExpr::PayloadContains(workload.marker().to_vec()),
                Action::Throttle {
                    rate_bps,
                    burst_bytes,
                },
            )),
            AdversarySpec::PortBlock => PolicyEngine::new().with(Rule::new(
                "block-app-port",
                MatchExpr::DstPort(APP_PORT),
                Action::Drop { prob: 1.0 },
            )),
            AdversarySpec::AddressDrop { prefix } => PolicyEngine::new().with(Rule::new(
                "drop-dst-prefix",
                MatchExpr::DstPrefix(prefix),
                Action::Drop { prob: 1.0 },
            )),
            AdversarySpec::DelayJitter { min, max } => PolicyEngine::new().with(Rule::new(
                "delay-inject",
                MatchExpr::Any(vec![
                    MatchExpr::DstPort(APP_PORT),
                    MatchExpr::SrcPort(APP_PORT),
                ]),
                Action::Jitter { min, max },
            )),
            AdversarySpec::TieredPriority {
                premium_dscp,
                rate_bps,
                burst_bytes,
            } => PolicyEngine::new()
                .with(Rule::new(
                    "tier-premium",
                    MatchExpr::DscpAtLeast(premium_dscp),
                    Action::Allow,
                ))
                .with(Rule::new(
                    "tier-besteffort",
                    MatchExpr::True,
                    Action::Throttle {
                        rate_bps,
                        burst_bytes,
                    },
                )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nn_netsim::Verdict;
    use nn_packet::build_udp;

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
        let mut pe = AdversarySpec::None.build(&WorkloadSpec::voip_default());
        assert!(pe.is_empty());
        assert_eq!(pe.evaluate(0, &voip_frame(), 0.0), Verdict::Forward);
    }

    #[test]
    fn content_dpi_rule_targets_the_workload_marker() {
        let w = WorkloadSpec::voip_default();
        let mut pe = AdversarySpec::content_dpi_default().build(&w);
        // First packet conforms to the bucket; flooding exceeds it.
        assert_eq!(pe.evaluate(0, &voip_frame(), 0.0), Verdict::Forward);
        let mut dropped = 0;
        for _ in 0..100 {
            if matches!(pe.evaluate(0, &voip_frame(), 0.0), Verdict::Drop(_)) {
                dropped += 1;
            }
        }
        assert!(dropped > 50, "throttle must bite: {dropped}/100");
        assert_eq!(
            AdversarySpec::content_dpi_default().drop_rule_names(&w),
            vec!["dpi-throttle-voip".to_string()]
        );
    }

    #[test]
    fn port_block_and_address_drop_kill_plain_traffic() {
        for spec in [
            AdversarySpec::PortBlock,
            AdversarySpec::address_drop_default(),
        ] {
            let mut pe = spec.build(&WorkloadSpec::voip_default());
            assert!(
                matches!(pe.evaluate(0, &voip_frame(), 0.5), Verdict::Drop(_)),
                "{} must drop the plain frame",
                spec.name()
            );
        }
    }

    #[test]
    fn jitter_delays_without_dropping() {
        let mut pe = AdversarySpec::delay_jitter_default().build(&WorkloadSpec::voip_default());
        match pe.evaluate(0, &voip_frame(), 0.5) {
            Verdict::Delay(d) => {
                assert!(d >= Duration::from_millis(20) && d <= Duration::from_millis(80))
            }
            other => panic!("expected delay, got {other:?}"),
        }
        assert!(AdversarySpec::delay_jitter_default()
            .drop_rule_names(&WorkloadSpec::voip_default())
            .is_empty());
    }

    #[test]
    fn tiered_spares_premium_traffic_only() {
        let mut pe = AdversarySpec::tiered_default().build(&WorkloadSpec::voip_default());
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
            AdversarySpec::content_dpi_default(),
            AdversarySpec::PortBlock,
            AdversarySpec::address_drop_default(),
            AdversarySpec::delay_jitter_default(),
            AdversarySpec::tiered_default(),
        ];
        let names: std::collections::HashSet<_> = specs.iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), specs.len());
    }
}
