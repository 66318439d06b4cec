//! Link directions.
//!
//! A [`LinkProfile`] describes one direction of a point-to-point link:
//! rate shaping (`bandwidth_bps`), a byte-capped queue (drop-tail, or
//! [`QueueKind::Red`], which CE-marks ECN-capable frames on its ramp
//! instead of dropping them), propagation delay (`latency`) and, when
//! set, a two-state [`GilbertElliott`] burst-loss process applied to
//! each frame as it leaves the serializer. Every random draw comes from
//! the one seeded simulation RNG, so a (topology, seed) pair reproduces
//! a byte-identical drop and mark trace.

use std::time::Duration;

/// Queue discipline for a link direction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QueueKind {
    /// FIFO tail-drop.
    DropTail,
    /// Random early detection with ECN (RFC 3168): on the early-drop
    /// ramp, ECT-capable frames are CE-marked and the rest dropped. Any
    /// frame above `max_bytes` drops.
    Red {
        /// Early-drop ramp start (bytes).
        min_bytes: usize,
        /// Certain-drop threshold (bytes).
        max_bytes: usize,
        /// Drop probability at the ramp top.
        max_prob: f64,
    },
}

impl QueueKind {
    /// ECN-capable RED with the given ramp.
    pub fn red_ecn(min_bytes: usize, max_bytes: usize, max_prob: f64) -> Self {
        QueueKind::Red {
            min_bytes,
            max_bytes,
            max_prob,
        }
    }
}

/// The two-state Gilbert–Elliott burst-loss process: the link sits in a
/// *good* or *bad* state, each with its own loss probability, and flips
/// state per frame with the given transition probabilities. Bursts arise
/// because `p_exit_bad` is small. The chain starts good.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GilbertElliott {
    /// P(good → bad) per frame.
    pub p_enter_bad: f64,
    /// P(bad → good) per frame.
    pub p_exit_bad: f64,
    /// Loss probability while in the good state.
    pub loss_good: f64,
    /// Loss probability while in the bad state.
    pub loss_bad: f64,
}

impl GilbertElliott {
    /// The long-run expected loss rate, `π_bad·loss_bad +
    /// π_good·loss_good` with the stationary distribution `π_bad =
    /// p_enter/(p_enter + p_exit)`. The property tests assert empirical
    /// convergence to this value.
    pub fn stationary_loss(&self) -> f64 {
        let denom = self.p_enter_bad + self.p_exit_bad;
        if denom <= 0.0 {
            // No transitions ever happen; the chain stays good.
            return self.loss_good;
        }
        let pi_bad = self.p_enter_bad / denom;
        pi_bad * self.loss_bad + (1.0 - pi_bad) * self.loss_good
    }
}

/// One direction of a point-to-point link.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkProfile {
    /// Serialization rate in bits per second.
    pub bandwidth_bps: u64,
    /// Propagation delay.
    pub latency: Duration,
    /// Queue capacity in bytes.
    pub queue_bytes: usize,
    /// Queue discipline.
    pub queue: QueueKind,
    /// Burst loss applied to each frame as it leaves the serializer.
    pub loss: Option<GilbertElliott>,
}

impl LinkProfile {
    /// A sensible default: `bandwidth`, `latency`, 256 KiB drop-tail,
    /// no loss.
    pub fn new(bandwidth_bps: u64, latency: Duration) -> Self {
        LinkProfile {
            bandwidth_bps,
            latency,
            queue_bytes: 256 * 1024,
            queue: QueueKind::DropTail,
            loss: None,
        }
    }

    /// Replaces the queue discipline.
    pub fn with_queue(mut self, kind: QueueKind, capacity_bytes: usize) -> Self {
        self.queue = kind;
        self.queue_bytes = capacity_bytes;
        self
    }

    /// Sets the burst-loss process.
    pub fn with_loss(mut self, model: GilbertElliott) -> Self {
        self.loss = Some(model);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stationary_loss_matches_the_chain_algebra() {
        let ge = GilbertElliott {
            p_enter_bad: 0.1,
            p_exit_bad: 0.3,
            loss_good: 0.0,
            loss_bad: 0.8,
        };
        // π_bad = 0.1/0.4 = 0.25 ⇒ loss = 0.25·0.8 = 0.2.
        assert!((ge.stationary_loss() - 0.2).abs() < 1e-12);
        // Degenerate chain with no transitions stays good.
        let frozen = GilbertElliott {
            p_enter_bad: 0.0,
            p_exit_bad: 0.0,
            loss_good: 0.01,
            loss_bad: 1.0,
        };
        assert_eq!(frozen.stationary_loss(), 0.01);
    }
}
