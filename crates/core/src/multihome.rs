//! Multi-homed neutralizer selection (§3.5 of the paper).
//!
//! A site connected to several neutral providers publishes one neutralizer
//! address per provider in its `NEUT` record. Sources then control which
//! provider carries the traffic by choosing an address — the paper notes
//! this takes path selection away from the site's BGP and suggests
//! borrowing IPv6 multihoming techniques, with "trial-and-error to find a
//! path that's working" as the universal fallback. This module implements
//! that trial-and-error selector on the source side: it prefers the
//! address with the best observed success/latency record and fails over
//! on timeouts. It is a pure function of the reported history and never
//! draws randomness.

use nn_packet::Ipv4Addr;
use std::collections::HashMap;

/// Per-address quality estimate.
#[derive(Debug, Clone, Copy, Default)]
struct AddrScore {
    /// Exponentially weighted RTT estimate, seconds.
    srtt: Option<f64>,
    /// Consecutive failures.
    failures: u32,
}

/// Source-side trial-and-error neutralizer selector.
#[derive(Debug)]
pub struct NeutralizerSelector {
    addrs: Vec<Ipv4Addr>,
    scores: HashMap<Ipv4Addr, AddrScore>,
}

impl NeutralizerSelector {
    /// Builds a selector over the addresses from a `NEUT` record.
    pub fn new(addrs: Vec<Ipv4Addr>) -> Self {
        assert!(
            !addrs.is_empty(),
            "a NEUT record lists at least one neutralizer"
        );
        NeutralizerSelector {
            addrs,
            scores: HashMap::new(),
        }
    }

    /// The candidate set.
    pub fn addrs(&self) -> &[Ipv4Addr] {
        &self.addrs
    }

    /// Picks an address for a new session: the lowest srtt penalized by
    /// failures, with never-tried addresses first (optimistic
    /// exploration) and ties going to the earliest listed.
    pub fn choose(&self) -> Ipv4Addr {
        let mut best = self.addrs[0];
        let mut best_score = f64::INFINITY;
        for &a in &self.addrs {
            let s = self.scores.get(&a).copied().unwrap_or_default();
            let score = match s.srtt {
                None => -1.0, // never tried: explore immediately
                Some(rtt) => rtt * (1.0 + s.failures as f64 * 4.0),
            };
            if score < best_score {
                best_score = score;
                best = a;
            }
        }
        best
    }

    /// Records a successful exchange through `addr`.
    pub fn report_success(&mut self, addr: Ipv4Addr, rtt_secs: f64) {
        let s = self.scores.entry(addr).or_default();
        s.failures = 0;
        s.srtt = Some(match s.srtt {
            None => rtt_secs,
            Some(old) => 0.875 * old + 0.125 * rtt_secs,
        });
    }

    /// Records a timeout/failure through `addr`.
    pub fn report_failure(&mut self, addr: Ipv4Addr) {
        let s = self.scores.entry(addr).or_default();
        s.failures = s.failures.saturating_add(1);
        // A failed address with no RTT yet must stop looking "unexplored".
        if s.srtt.is_none() {
            s.srtt = Some(10.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addrs() -> Vec<Ipv4Addr> {
        vec![
            Ipv4Addr::new(198, 18, 0, 1),
            Ipv4Addr::new(198, 18, 1, 1),
            Ipv4Addr::new(198, 18, 2, 1),
        ]
    }

    #[test]
    fn probe_explores_then_prefers_fastest() {
        let a = addrs();
        let mut s = NeutralizerSelector::new(a.clone());
        // Feed measurements: a[1] is fastest.
        s.report_success(a[0], 0.050);
        s.report_success(a[1], 0.010);
        s.report_success(a[2], 0.030);
        assert_eq!(s.choose(), a[1]);
    }

    #[test]
    fn probe_fails_over_on_failures() {
        let a = addrs();
        let mut s = NeutralizerSelector::new(a.clone());
        s.report_success(a[0], 0.010);
        s.report_success(a[1], 0.012);
        s.report_success(a[2], 0.060);
        assert_eq!(s.choose(), a[0]);
        // The preferred path dies: repeated failures push selection away.
        s.report_failure(a[0]);
        s.report_failure(a[0]);
        assert_eq!(s.choose(), a[1], "fail over to next-best");
        // Recovery resets the penalty.
        s.report_success(a[0], 0.010);
        assert_eq!(s.choose(), a[0]);
    }

    #[test]
    fn probe_tries_unknown_addresses_first() {
        let a = addrs();
        let mut s = NeutralizerSelector::new(a.clone());
        s.report_success(a[0], 0.001);
        // a[1] and a[2] unexplored: exploration wins over the known-fast.
        let pick = s.choose();
        assert!(pick == a[1] || pick == a[2]);
    }

    #[test]
    #[should_panic(expected = "at least one neutralizer")]
    fn empty_candidate_set_rejected() {
        let _ = NeutralizerSelector::new(vec![]);
    }
}
