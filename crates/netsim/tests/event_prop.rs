//! Property tests for the dynamic-event control plane.
//!
//! A timeline must never break the engine's two core guarantees:
//!
//! * **Frame conservation** — every frame a node offers is accounted
//!   for exactly once: delivered, queue-dropped, fault-dropped, or
//!   down-dropped. Link flaps at arbitrary times must not leak or
//!   double-count a single frame.
//! * **Determinism** — a run with a timeline is as byte-identical per
//!   seed as one without: events share one queue with traffic, so
//!   repeating a (seed, timeline) pair reproduces the exact delivered
//!   frame sequence, counters and stats.
//!
//! Plus the events' own semantics: frames offered strictly inside a
//! down window are never delivered.
//!
//! Under all of it sits the engine's ordering contract, tested here on a
//! running `Simulator`: events fire in due-time order, and events due at
//! the same time fire in the order they were scheduled.

use nn_netsim::{
    Context, EventTimeline, FrameBuf, IfaceId, LinkCounters, LinkProfile, NetEvent, Node, SimTime,
    Simulator,
};
use nn_packet::{build_udp, Ipv4Addr};
use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

const SRC: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 10);
const DST: Ipv4Addr = Ipv4Addr::new(10, 7, 0, 99);

/// Sends one sequence-numbered frame per millisecond tick, starting at
/// t = 1ms, recording each frame's sequence number as it goes.
struct Ticker {
    n: u64,
    sent: u64,
}

impl Ticker {
    fn frame(seq: u64) -> Vec<u8> {
        build_udp(SRC, DST, 0, 7, 7, &seq.to_be_bytes()).expect("frame builds")
    }
}

impl Node for Ticker {
    fn on_start(&mut self, ctx: &mut Context) {
        ctx.set_timer(Duration::from_millis(1), 0);
    }
    fn on_timer(&mut self, ctx: &mut Context, _token: u64) {
        ctx.send(0, Self::frame(self.sent));
        self.sent += 1;
        if self.sent < self.n {
            ctx.set_timer(Duration::from_millis(1), 0);
        }
    }
    fn on_packet(&mut self, ctx: &mut Context, _: IfaceId, frame: FrameBuf) {
        ctx.recycle(frame);
    }
}

/// Records the sequence number of every delivered frame, in order.
#[derive(Default)]
struct Recorder {
    seqs: Vec<u64>,
}

impl Node for Recorder {
    fn on_packet(&mut self, ctx: &mut Context, _: IfaceId, frame: FrameBuf) {
        let payload = &frame.as_slice()[frame.len() - 8..];
        self.seqs
            .push(u64::from_be_bytes(payload.try_into().expect("8-byte seq")));
        ctx.recycle(frame);
    }
}

/// A fast clean link: a 60-byte frame serializes in ~5µs and crosses in
/// 100µs, so a frame sent at tick `k` ms is fully delivered well before
/// `k + 0.5` ms — window edges at half-ticks are unambiguous.
fn fast_link() -> LinkProfile {
    LinkProfile::new(100_000_000, Duration::from_micros(100))
}

/// Runs `n` 1ms-spaced frames over a link that is down during
/// `[down_at, up_at)` (both at half-tick offsets), returning the
/// delivered sequence numbers, the forward counters, the sender's count
/// and the `events.applied` stat.
fn run_flap(seed: u64, n: u64, down_ms: u64, up_ms: u64) -> (Vec<u64>, LinkCounters, u64, u64) {
    let mut sim = Simulator::new(seed);
    let tx = sim.add_node("tx", Box::new(Ticker { n, sent: 0 }));
    let rx = sim.add_node("rx", Box::new(Recorder::default()));
    sim.connect_sym(tx, rx, fast_link());
    let half = 500_000; // 0.5ms in ns
    sim.install_timeline(
        EventTimeline::new()
            .at(
                SimTime(down_ms * 1_000_000 + half),
                NetEvent::LinkDown { node: tx, iface: 0 },
            )
            .at(
                SimTime(up_ms * 1_000_000 + half),
                NetEvent::LinkUp { node: tx, iface: 0 },
            ),
    );
    sim.run_until(SimTime::from_millis(n + 50));
    let counters = sim.link_counters(tx, 0);
    let applied = sim.stats().counter("events.applied");
    let sent = sim.node_ref::<Ticker>(tx).expect("ticker").sent;
    let seqs = sim.node_ref::<Recorder>(rx).expect("recorder").seqs.clone();
    (seqs, counters, sent, applied)
}

/// Every timer set and every timer fired, across all nodes, in the order
/// the engine saw them: `(due or firing time, token)`.
#[derive(Default)]
struct TimerLog {
    scheduled: Vec<(SimTime, u64)>,
    fired: Vec<(SimTime, u64)>,
}

/// Sets scripted timers from `on_start` and from `on_timer`, logging each
/// one into a log shared by every node.
struct TimerScript {
    /// `(delay, token)` pairs set from `on_start`.
    roots: Vec<(Duration, u64)>,
    /// `children[token]`: the `(delay, token)` pairs set when `token` fires.
    children: Vec<Vec<(Duration, u64)>>,
    log: Rc<RefCell<TimerLog>>,
}

impl TimerScript {
    fn set(&self, ctx: &mut Context, timers: &[(Duration, u64)]) {
        for &(delay, token) in timers {
            ctx.set_timer(delay, token);
            self.log
                .borrow_mut()
                .scheduled
                .push((ctx.now + delay, token));
        }
    }
}

impl Node for TimerScript {
    fn on_start(&mut self, ctx: &mut Context) {
        self.set(ctx, &self.roots);
    }
    fn on_timer(&mut self, ctx: &mut Context, token: u64) {
        self.log.borrow_mut().fired.push((ctx.now, token));
        self.set(ctx, &self.children[token as usize]);
    }
    fn on_packet(&mut self, ctx: &mut Context, _: IfaceId, frame: FrameBuf) {
        ctx.recycle(frame);
    }
}

/// A delay from a `(kind, raw)` draw. The fixed kinds make equal due
/// times common; the others span nanoseconds to hours.
fn delay_of(kind: u8, raw: u64) -> Duration {
    const HOUR: u64 = 3_600_000_000_000;
    Duration::from_nanos(match kind {
        0 => 0,
        1 => 1,
        2 => 2_000,
        3 => 1_000_000,
        4 => HOUR,
        5 => raw % 4_096,
        6 => raw % 10_000_000_000,
        _ => raw % (3 * HOUR),
    })
}

proptest! {
    /// Timers fire in the order they were set, stably sorted by due time:
    /// earlier due times first, equal due times in submission order.
    /// Three nodes set arbitrary timers (zero, equal and nanosecond to
    /// hour delays) from `on_start` and from `on_timer`; the run is cut
    /// once by `run_until` at an arbitrary time, then drained by `run`.
    #[test]
    fn timers_fire_in_due_time_then_submission_order(
        // (node, (delay kind, raw delay), parent draw): a timer is set
        // from `on_start` by `node`, or, for two parent draws in three,
        // by the node owning an earlier timer when that timer fires.
        specs in proptest::collection::vec((0usize..3, (0u8..8, any::<u64>()), any::<u64>()), 1..120),
        cut in (0u8..8, any::<u64>()),
    ) {
        let log = Rc::new(RefCell::new(TimerLog::default()));
        let mut nodes: Vec<TimerScript> = (0..3)
            .map(|_| TimerScript {
                roots: Vec::new(),
                children: vec![Vec::new(); specs.len()],
                log: Rc::clone(&log),
            })
            .collect();
        let mut owner: Vec<usize> = Vec::with_capacity(specs.len());
        for (i, &(node, (kind, raw), parent)) in specs.iter().enumerate() {
            let timer = (delay_of(kind, raw), i as u64);
            if i > 0 && parent % 3 != 0 {
                let p = (parent % i as u64) as usize;
                owner.push(owner[p]);
                nodes[owner[p]].children[p].push(timer);
            } else {
                owner.push(node);
                nodes[node].roots.push(timer);
            }
        }
        let mut sim = Simulator::new(1);
        for (i, node) in nodes.into_iter().enumerate() {
            sim.add_node(format!("n{i}"), Box::new(node));
        }
        sim.run_until(SimTime::ZERO + delay_of(cut.0, cut.1));
        sim.run(u64::MAX);

        let log = log.borrow();
        prop_assert_eq!(log.scheduled.len(), specs.len(), "every scripted timer was set");
        let mut expected = log.scheduled.clone();
        expected.sort_by_key(|&(at, _)| at);
        prop_assert_eq!(&log.fired, &expected);
    }

    /// For arbitrary down windows, every offered frame is accounted for
    /// exactly once (conservation), frames offered strictly inside the
    /// window never arrive, and frames outside it always do.
    #[test]
    fn flapped_link_conserves_frames_and_drops_only_the_window(
        seed in any::<u64>(),
        down in 0u64..40,
        len in 1u64..40,
    ) {
        let n = 80u64;
        let up = down + len;
        let (seqs, c, sent, applied) = run_flap(seed, n, down, up);
        prop_assert_eq!(sent, n, "ticker finished its schedule");
        prop_assert_eq!(applied, 2, "both timeline entries applied");
        // Conservation: offered == delivered + dropped, each exactly once.
        prop_assert_eq!(
            sent,
            c.delivered + c.queue_drops + c.fault_drops + c.down_drops,
            "a frame leaked or double-counted: {c:?}"
        );
        prop_assert_eq!(c.fault_drops, 0, "clean link never fault-drops");
        // Seq k is sent at (k+1)ms; the window covers sends in
        // [down + 0.5, up + 0.5) ms, i.e. seqs in [down, up).
        let expected: Vec<u64> = (0..n)
            .filter(|&k| {
                let tick = k + 1;
                !(tick * 2 > down * 2 + 1 && tick * 2 < up * 2 + 1)
            })
            .collect();
        prop_assert_eq!(&seqs, &expected, "delivered set must be exactly the up-window sends");
        prop_assert_eq!(c.down_drops, n - expected.len() as u64);
    }

    /// Repeating a (seed, timeline) pair reproduces the run exactly:
    /// same delivered sequence, same counters, same stat totals.
    #[test]
    fn event_runs_are_byte_identical_per_seed(
        seed in any::<u64>(),
        down in 0u64..40,
        len in 1u64..40,
    ) {
        let a = run_flap(seed, 80, down, down + len);
        let b = run_flap(seed, 80, down, down + len);
        prop_assert_eq!(a.0, b.0, "delivered sequences diverged");
        prop_assert_eq!(a.1, b.1, "link counters diverged");
        prop_assert_eq!((a.2, a.3), (b.2, b.3), "sender/stat totals diverged");
    }
}
