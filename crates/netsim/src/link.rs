//! The composable link-impairment pipeline.
//!
//! A [`LinkProfile`] describes one direction of a point-to-point link as
//! an ordered pipeline: rate shaping (`bandwidth_bps`), an AQM stage
//! (the direction's [`crate::Queue`]: drop-tail, or [`QueueKind::Red`],
//! which may mark CE instead of dropping), propagation delay
//! (`latency`), and then any number of post-serializer [`StageSpec`]
//! impairments — loss ([`LossModel`]: Bernoulli, or a two-state
//! Gilbert–Elliott burst process), byte corruption, and bounded
//! reordering. The engine evaluates the stages per frame, in order, with
//! every random draw taken from the one seeded simulation RNG, so a
//! (topology, seed) pair reproduces a byte-identical drop/mark/reorder
//! trace.

use std::time::Duration;

/// Queue discipline for a link direction (the pipeline's AQM stage).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QueueKind {
    /// FIFO tail-drop.
    DropTail,
    /// Random early detection, optionally ECN-capable.
    Red {
        /// Early-drop ramp start (bytes).
        min_bytes: usize,
        /// Certain-drop threshold (bytes).
        max_bytes: usize,
        /// Drop probability at the ramp top.
        max_prob: f64,
        /// When true, ECT-capable frames are CE-marked on the early-drop
        /// ramp instead of dropped (RFC 3168 behaviour). Frames without
        /// ECT, and any frame above `max_bytes`, still drop.
        ecn_mark: bool,
    },
}

impl QueueKind {
    /// Plain RED with the given ramp, dropping (never marking).
    pub fn red(min_bytes: usize, max_bytes: usize, max_prob: f64) -> Self {
        QueueKind::Red {
            min_bytes,
            max_bytes,
            max_prob,
            ecn_mark: false,
        }
    }

    /// ECN-capable RED: the early ramp marks CE on ECT frames.
    pub fn red_ecn(min_bytes: usize, max_bytes: usize, max_prob: f64) -> Self {
        QueueKind::Red {
            min_bytes,
            max_bytes,
            max_prob,
            ecn_mark: true,
        }
    }
}

/// A per-frame loss process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LossModel {
    /// Independent per-frame loss.
    Bernoulli {
        /// Probability each frame is dropped.
        prob: f64,
    },
    /// The two-state Gilbert–Elliott burst-loss process: the link sits
    /// in a *good* or *bad* state, each with its own loss probability,
    /// and flips state per frame with the given transition
    /// probabilities. Bursts arise because `p_exit_bad` is small.
    GilbertElliott {
        /// P(good → bad) per frame.
        p_enter_bad: f64,
        /// P(bad → good) per frame.
        p_exit_bad: f64,
        /// Loss probability while in the good state.
        loss_good: f64,
        /// Loss probability while in the bad state.
        loss_bad: f64,
    },
}

impl LossModel {
    /// The long-run expected loss rate: for Bernoulli simply `prob`, for
    /// Gilbert–Elliott `π_bad·loss_bad + π_good·loss_good` with the
    /// stationary distribution `π_bad = p_enter/(p_enter + p_exit)`.
    /// The property tests assert empirical convergence to this value.
    pub fn stationary_loss(&self) -> f64 {
        match *self {
            LossModel::Bernoulli { prob } => prob,
            LossModel::GilbertElliott {
                p_enter_bad,
                p_exit_bad,
                loss_good,
                loss_bad,
            } => {
                let denom = p_enter_bad + p_exit_bad;
                if denom <= 0.0 {
                    // No transitions ever happen; the chain stays good.
                    return loss_good;
                }
                let pi_bad = p_enter_bad / denom;
                pi_bad * loss_bad + (1.0 - pi_bad) * loss_good
            }
        }
    }
}

/// One post-serializer impairment stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StageSpec {
    /// Drop frames according to a [`LossModel`].
    Loss(LossModel),
    /// Flip one random bit in one random byte with probability `prob`.
    Corrupt {
        /// Per-frame corruption probability.
        prob: f64,
    },
    /// With probability `prob`, hold the frame back by a uniform extra
    /// delay in `(0, max_extra]`, letting later frames overtake it.
    /// `max_extra` bounds how far a frame can fall behind.
    Reorder {
        /// Per-frame reorder probability.
        prob: f64,
        /// Upper bound on the extra holding delay.
        max_extra: Duration,
    },
}

/// One direction of a point-to-point link: the full impairment pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkProfile {
    /// Serialization rate in bits per second.
    pub bandwidth_bps: u64,
    /// Propagation delay.
    pub latency: Duration,
    /// Queue capacity in bytes.
    pub queue_bytes: usize,
    /// Queue discipline (the AQM stage).
    pub queue: QueueKind,
    /// Ordered post-serializer impairment stages.
    pub stages: Vec<StageSpec>,
}

impl LinkProfile {
    /// A sensible default: `bandwidth`, `latency`, 256 KiB drop-tail,
    /// no impairment stages.
    pub fn new(bandwidth_bps: u64, latency: Duration) -> Self {
        LinkProfile {
            bandwidth_bps,
            latency,
            queue_bytes: 256 * 1024,
            queue: QueueKind::DropTail,
            stages: Vec::new(),
        }
    }

    /// Replaces the queue discipline.
    pub fn with_queue(mut self, kind: QueueKind, capacity_bytes: usize) -> Self {
        self.queue = kind;
        self.queue_bytes = capacity_bytes;
        self
    }

    /// Appends one impairment stage to the pipeline.
    pub fn with_stage(mut self, stage: StageSpec) -> Self {
        self.stages.push(stage);
        self
    }

    /// Appends a loss stage.
    pub fn with_loss(self, model: LossModel) -> Self {
        self.with_stage(StageSpec::Loss(model))
    }

    /// Fresh per-stage mutable state (one slot per stage, in order).
    pub(crate) fn initial_state(&self) -> Vec<StageState> {
        self.stages
            .iter()
            .map(|s| match s {
                // Gilbert–Elliott starts in the good state.
                StageSpec::Loss(LossModel::GilbertElliott { .. }) => StageState::Ge { bad: false },
                _ => StageState::Stateless,
            })
            .collect()
    }
}

/// Mutable per-link state for stages that need it.
#[derive(Debug, Clone, Copy)]
pub(crate) enum StageState {
    /// The stage draws fresh randomness each frame and keeps nothing.
    Stateless,
    /// Current Gilbert–Elliott channel state.
    Ge {
        /// True while the channel sits in the bad (bursty-loss) state.
        bad: bool,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stationary_loss_matches_the_chain_algebra() {
        let ge = LossModel::GilbertElliott {
            p_enter_bad: 0.1,
            p_exit_bad: 0.3,
            loss_good: 0.0,
            loss_bad: 0.8,
        };
        // π_bad = 0.1/0.4 = 0.25 ⇒ loss = 0.25·0.8 = 0.2.
        assert!((ge.stationary_loss() - 0.2).abs() < 1e-12);
        assert_eq!(LossModel::Bernoulli { prob: 0.07 }.stationary_loss(), 0.07);
        // Degenerate chain with no transitions stays good.
        let frozen = LossModel::GilbertElliott {
            p_enter_bad: 0.0,
            p_exit_bad: 0.0,
            loss_good: 0.01,
            loss_bad: 1.0,
        };
        assert_eq!(frozen.stationary_loss(), 0.01);
    }

    #[test]
    fn ge_stages_get_stateful_slots() {
        let p = LinkProfile::new(1, Duration::ZERO)
            .with_loss(LossModel::Bernoulli { prob: 0.1 })
            .with_loss(LossModel::GilbertElliott {
                p_enter_bad: 0.1,
                p_exit_bad: 0.1,
                loss_good: 0.0,
                loss_bad: 1.0,
            });
        let state = p.initial_state();
        assert!(matches!(state[0], StageState::Stateless));
        assert!(matches!(state[1], StageState::Ge { bad: false }));
    }
}
