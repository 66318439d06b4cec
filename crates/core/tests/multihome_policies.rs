//! Determinism battery for [`nn_core::multihome`]'s trial-and-error
//! selector.
//!
//! The lab wires the selector into every neutralized source, so its
//! behavior is load-bearing for the golden-trace suite: `choose` takes
//! no RNG, so it cannot perturb the seeded stream single-homed cells
//! share, and its scoring must be a pure function of the reported
//! history.

use nn_core::multihome::NeutralizerSelector;
use nn_packet::Ipv4Addr;

fn addrs() -> Vec<Ipv4Addr> {
    vec![
        Ipv4Addr::new(198, 18, 0, 1),
        Ipv4Addr::new(198, 18, 1, 1),
        Ipv4Addr::new(198, 18, 2, 1),
    ]
}

/// Probe scoring is srtt × (1 + 4·failures): one failure on a fast
/// provider must outweigh a clean slower one only when the penalty
/// crosses the slower srtt — pin the crossover arithmetic.
#[test]
fn probe_penalty_crossover_matches_the_scoring_formula() {
    let a = addrs();
    let mut s = NeutralizerSelector::new(a.clone());
    // a[0]: 10ms, a[1]: 45ms, a[2]: slow decoy.
    s.report_success(a[0], 0.010);
    s.report_success(a[1], 0.045);
    s.report_success(a[2], 0.500);
    // One failure: 10ms × 5 = 50ms > 45ms — a[1] wins.
    s.report_failure(a[0]);
    assert_eq!(s.choose(), a[1]);
    // Recovery resets the failure count: a[0] wins again.
    s.report_success(a[0], 0.010);
    assert_eq!(s.choose(), a[0]);
}

/// The EWMA is 7/8 old + 1/8 new: a single slow sample must not unseat
/// a long-established fast provider.
#[test]
fn probe_srtt_is_smoothed_not_replaced() {
    let a = addrs();
    let mut s = NeutralizerSelector::new(a.clone());
    s.report_success(a[0], 0.010);
    s.report_success(a[1], 0.020);
    s.report_success(a[2], 0.500);
    // One 100ms outlier on a[0]: EWMA = 0.875·10 + 0.125·100 ≈ 21.25ms.
    s.report_success(a[0], 0.100);
    assert_eq!(
        s.choose(),
        a[1],
        "one outlier nudges past 20ms, so a[1] takes over"
    );
    // But a[0]'s estimate recovers quickly with fresh fast samples.
    s.report_success(a[0], 0.010);
    s.report_success(a[0], 0.010);
    assert_eq!(s.choose(), a[0]);
}

/// A failure on a never-probed address must stop it looking like an
/// unexplored (score −1) candidate — otherwise a dead provider would be
/// re-chosen forever.
#[test]
fn failed_unexplored_address_loses_exploration_priority() {
    let a = addrs();
    let mut s = NeutralizerSelector::new(a.clone());
    s.report_failure(a[0]);
    // a[1]/a[2] are still unexplored; the failed a[0] must not win.
    let pick = s.choose();
    assert_ne!(pick, a[0], "a failed address is no longer 'unexplored'");
}

/// The full failover-then-recover cycle the lab's liveness timer drives:
/// primary dies (consecutive failures), the selector steers to the
/// fallback, the primary heals and wins back the traffic.
#[test]
fn failover_then_recover_round_trip() {
    let a = addrs();
    let mut s = NeutralizerSelector::new(a.clone());
    s.report_success(a[0], 0.010);
    s.report_success(a[1], 0.030);
    s.report_success(a[2], 0.030);
    assert_eq!(s.choose(), a[0], "primary preferred while healthy");
    for _ in 0..3 {
        s.report_failure(a[0]);
    }
    let fallback = s.choose();
    assert_ne!(fallback, a[0], "dead primary abandoned");
    // More failures keep it away (saturating, no overflow panic).
    for _ in 0..1000 {
        s.report_failure(a[0]);
    }
    assert_eq!(s.choose(), fallback);
    // Heal: one good round trip clears the penalty entirely.
    s.report_success(a[0], 0.010);
    assert_eq!(s.choose(), a[0], "healed primary wins back");
}
