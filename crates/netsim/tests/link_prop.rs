//! Property tests for link directions.
//!
//! Gilbert–Elliott loss must converge to its analytic stationary loss
//! rate over a long seeded run — otherwise "bursty loss at rate p" cells
//! would measure a different p than they report — and a link's drops and
//! marks must be byte-for-byte deterministic under a fixed seed, because
//! every matrix cell's reproducibility claim rests on it.

use nn_netsim::{
    Context, FrameBuf, GilbertElliott, IfaceId, LinkCounters, LinkProfile, Node, QueueKind,
    SimTime, Simulator,
};
use nn_packet::{build_udp, ecn, Ipv4Addr, Ipv4Packet};
use proptest::prelude::*;
use std::time::Duration;

const SRC: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 10);
const DST: Ipv4Addr = Ipv4Addr::new(10, 7, 0, 99);

/// Sends `n` sequence-numbered frames: back-to-back when `interval` is
/// zero (to load the queue), otherwise one per timer tick (so every
/// frame meets an idle serializer and only the loss process acts on it).
struct Blaster {
    n: u64,
    sent: u64,
    interval: Duration,
    ect: bool,
}

impl Blaster {
    fn frame(&self, seq: u64) -> Vec<u8> {
        let mut frame = build_udp(SRC, DST, 0, 7, 7, &seq.to_be_bytes()).expect("frame builds");
        if self.ect {
            Ipv4Packet::new_unchecked(&mut frame[..]).set_ecn(ecn::ECT0);
        }
        frame
    }
}

impl Node for Blaster {
    fn on_start(&mut self, ctx: &mut Context) {
        if self.interval.is_zero() {
            for seq in 0..self.n {
                ctx.send(0, self.frame(seq));
            }
            self.sent = self.n;
        } else {
            ctx.send(0, self.frame(0));
            self.sent = 1;
            if self.n > 1 {
                ctx.set_timer(self.interval, 0);
            }
        }
    }
    fn on_timer(&mut self, ctx: &mut Context, _token: u64) {
        ctx.send(0, self.frame(self.sent));
        self.sent += 1;
        if self.sent < self.n {
            ctx.set_timer(self.interval, 0);
        }
    }
    fn on_packet(&mut self, ctx: &mut Context, _: IfaceId, frame: FrameBuf) {
        ctx.recycle(frame);
    }
}

/// Records every delivered frame verbatim, in arrival order.
#[derive(Default)]
struct Recorder {
    frames: Vec<Vec<u8>>,
}

impl Node for Recorder {
    fn on_packet(&mut self, _: &mut Context, _: IfaceId, frame: FrameBuf) {
        self.frames.push(frame.into_vec());
    }
}

/// Runs `n` frames through `profile` and returns the delivered frames
/// plus the forward-direction counters.
fn run_link(
    seed: u64,
    n: u64,
    interval: Duration,
    ect: bool,
    profile: LinkProfile,
) -> (Vec<Vec<u8>>, LinkCounters) {
    let mut sim = Simulator::new(seed);
    let tx = sim.add_node(
        "tx",
        Box::new(Blaster {
            n,
            sent: 0,
            interval,
            ect,
        }),
    );
    let rx = sim.add_node("rx", Box::<Recorder>::default());
    // Fast reverse path so only the forward profile shapes the outcome.
    let clean = LinkProfile::new(1_000_000_000, Duration::from_micros(1));
    sim.connect(tx, rx, profile, clean);
    sim.run_until(SimTime::from_secs(600));
    let counters = sim.link_counters(tx, 0);
    let frames = std::mem::take(&mut sim.node_mut::<Recorder>(rx).unwrap().frames);
    (frames, counters)
}

fn ge(p_enter_bad: f64, p_exit_bad: f64, loss_good: f64, loss_bad: f64) -> GilbertElliott {
    GilbertElliott {
        p_enter_bad,
        p_exit_bad,
        loss_good,
        loss_bad,
    }
}

#[test]
fn gilbert_elliott_converges_to_stationary_loss() {
    // π_bad = 0.02/0.27 ≈ 0.074 ⇒ expected loss ≈ 4.07%.
    let model = ge(0.02, 0.25, 0.005, 0.5);
    let expected = model.stationary_loss();
    let n = 30_000u64;
    for seed in [1, 7, 42] {
        let profile = LinkProfile::new(1_000_000_000, Duration::from_micros(10)).with_loss(model);
        let (frames, counters) = run_link(seed, n, Duration::from_micros(1), false, profile);
        assert_eq!(counters.tx_frames, n);
        assert_eq!(counters.fault_drops + counters.delivered, n);
        let empirical = counters.fault_drops as f64 / n as f64;
        // Correlated losses converge slower than Bernoulli; ±1.5 points
        // of absolute tolerance is ~5 sigma for this chain at n=30k.
        assert!(
            (empirical - expected).abs() < 0.015,
            "seed {seed}: empirical loss {empirical:.4} vs stationary {expected:.4}"
        );
        assert_eq!(frames.len() as u64, counters.delivered);
        assert!(
            counters.burst_episodes > 100,
            "the chain must actually visit the bad state: {} episodes",
            counters.burst_episodes
        );
    }
}

/// Burstiness, not just rate: with a sticky bad state, consecutive-drop
/// runs must be much longer than an independent coin flip of the same
/// average loss would produce.
#[test]
fn gilbert_elliott_losses_arrive_in_bursts() {
    let model = ge(0.01, 0.1, 0.0, 1.0); // bad state drops everything
    let n = 20_000u64;
    let profile = LinkProfile::new(1_000_000_000, Duration::from_micros(10)).with_loss(model);
    let (frames, counters) = run_link(3, n, Duration::from_micros(1), false, profile);
    // Reconstruct the drop pattern from delivered sequence numbers.
    let mut delivered = vec![false; n as usize];
    for f in &frames {
        let p = Ipv4Packet::new_checked(&f[..]).unwrap();
        let seq = u64::from_be_bytes(p.payload()[8..16].try_into().unwrap());
        delivered[seq as usize] = true;
    }
    let mut max_run = 0usize;
    let mut run = 0usize;
    for d in delivered {
        if d {
            run = 0;
        } else {
            run += 1;
            max_run = max_run.max(run);
        }
    }
    // Mean bad-state dwell is 1/0.1 = 10 frames; an independent ~9% loss
    // process would almost never produce an 8-drop run in 20k frames.
    assert!(
        max_run >= 8,
        "expected a burst of consecutive drops, longest run {max_run}"
    );
    assert!(counters.burst_episodes > 50);
}

/// Same seed ⇒ byte-identical drop/mark trace; different seeds
/// diverge. This is the reproducibility contract every matrix cell
/// inherits.
#[test]
fn pipeline_trace_is_byte_identical_for_a_seed() {
    let profile = || {
        LinkProfile::new(2_000_000, Duration::from_millis(1))
            .with_queue(QueueKind::red_ecn(4_000, 12_000, 1.0), 16_000)
            .with_loss(ge(0.05, 0.3, 0.01, 0.6))
    };
    let (frames_a, counters_a) = run_link(11, 2_000, Duration::ZERO, true, profile());
    let (frames_b, counters_b) = run_link(11, 2_000, Duration::ZERO, true, profile());
    assert_eq!(counters_a, counters_b, "counters must reproduce exactly");
    assert_eq!(frames_a, frames_b, "delivered bytes must reproduce exactly");
    let (frames_c, _) = run_link(12, 2_000, Duration::ZERO, true, profile());
    assert_ne!(frames_a, frames_c, "different seeds must diverge");
}

#[test]
fn ecn_red_marks_instead_of_dropping_under_congestion() {
    // A slow serializer with a RED queue small enough to sit on the
    // marking ramp while 300 back-to-back frames drain.
    let profile = LinkProfile::new(500_000, Duration::from_millis(1))
        .with_queue(QueueKind::red_ecn(2_000, 10_000, 1.0), 12_000);
    let (frames, counters) = run_link(9, 300, Duration::ZERO, true, profile);
    assert!(counters.ce_marks > 0, "RED must mark under congestion");
    let ce_delivered = frames
        .iter()
        .filter(|f| Ipv4Packet::new_checked(&f[..]).unwrap().ecn() == ecn::CE)
        .count() as u64;
    assert_eq!(
        ce_delivered, counters.ce_marks,
        "every counted mark arrives CE-stamped (and vice versa)"
    );
    // The same offered load without ECT falls back to dropping.
    let profile = LinkProfile::new(500_000, Duration::from_millis(1))
        .with_queue(QueueKind::red_ecn(2_000, 10_000, 1.0), 12_000);
    let (_, not_ect) = run_link(9, 300, Duration::ZERO, false, profile);
    assert_eq!(not_ect.ce_marks, 0);
    assert!(not_ect.queue_drops > counters.queue_drops);
}

proptest! {
    /// Determinism holds for arbitrary Gilbert–Elliott parameters, and
    /// accounting is conserved: every offered frame is either lost,
    /// dropped by the queue, or delivered.
    #[test]
    fn prop_ge_accounting_conserved_and_deterministic(
        seed in any::<u64>(),
        enter_pm in 1u64..500,   // per-mille probabilities keep the
        exit_pm in 1u64..1000,   // chain irreducible
        loss_bad_pm in 0u64..1000,
    ) {
        let model = ge(
            enter_pm as f64 / 1000.0,
            exit_pm as f64 / 1000.0,
            0.0,
            loss_bad_pm as f64 / 1000.0,
        );
        let profile = || LinkProfile::new(100_000_000, Duration::from_micros(10))
            .with_loss(model);
        let (frames_a, a) = run_link(seed, 400, Duration::from_micros(1), false, profile());
        let (frames_b, b) = run_link(seed, 400, Duration::from_micros(1), false, profile());
        prop_assert_eq!(a, b);
        prop_assert_eq!(frames_a, frames_b);
        prop_assert_eq!(a.tx_frames, 400);
        prop_assert_eq!(a.fault_drops + a.delivered, 400);
        prop_assert!(model.stationary_loss() <= 1.0);
    }
}
