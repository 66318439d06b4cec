//! The active measurement plane: probe trains an edge user can run
//! without ISP cooperation.
//!
//! The paper's neutralizer gives users a traffic variant an ISP cannot
//! classify; this module turns that into an *instrument*. A
//! [`ProbeNode`] at the customer edge emits scheduled trains toward a
//! [`ProbeResponderNode`] on the far side of the suspected
//! discriminator:
//!
//! * **Differential pairs** — back-to-back twins on the same path: one
//!   probe dressed as the application (its UDP port, its DPI-visible
//!   content marker) and one unclassifiable twin. Any policy keyed on
//!   classification treats the twins differently; the delivery and RTT
//!   gap between them *is* the discrimination signal.
//! * **Hop trains** — TTL-limited probes that expire at successive
//!   routers; with [`RouterNode::enable_ttl_replies`] the reply carries
//!   the router's name and clock, attributing delay to path segments.
//! * **Size and reorder trains** — MTU ceiling and path reordering.
//!
//! Probe traffic is accounted *only* under `probe.*` counters and the
//! [`ProbeSummary`] harvested from the node — it never touches
//! `stats.flows`, so goodput numbers stay application-only by
//! construction.
//!
//! [`RouterNode::enable_ttl_replies`]: nn_netsim::RouterNode::enable_ttl_replies

use crate::hosts::APP_PORT;
use crate::schema::fields;
use nn_core::probe::{ProbeKind, ProbePayload};
use nn_netsim::nodes::TTL_REPLY_MAGIC;
use nn_netsim::{Context, CounterClass, CounterId, FrameBuf, Histogram, IfaceId, Node};
use nn_packet::{build_udp_into, parse_udp, Ipv4Addr, Ipv4Packet};
use std::time::Duration;

/// UDP port of the unclassifiable probe variants (traceroute's base).
pub const NEUT_PROBE_PORT: u16 = 33434;
/// UDP port of the TTL-limited hop train.
const HOP_PROBE_PORT: u16 = 33435;

/// First differential pair goes out after the cell has warmed up.
const PAIR_START: Duration = Duration::from_millis(100);
/// Differential-pair cadence.
const PAIR_INTERVAL: Duration = Duration::from_millis(25);
/// First hop sweep.
const HOP_START: Duration = Duration::from_millis(150);
/// Hop-sweep cadence.
const HOP_INTERVAL: Duration = Duration::from_millis(200);
/// The one-shot size train fires here.
const SIZE_AT: Duration = Duration::from_millis(300);
/// The one-shot reorder burst fires here.
const REORDER_AT: Duration = Duration::from_millis(400);
/// Both differential twins are padded to this payload size, so the
/// policer sees identical byte cost and the only difference is
/// classifiability.
const PAIR_PAYLOAD: usize = 64;
/// Size-train payload steps.
const SIZE_STEPS: [usize; 3] = [256, 512, 1024];
/// Reorder-burst length.
const REORDER_BURST: u32 = 8;

const TOKEN_PAIR: u64 = 0xB1;
const TOKEN_HOP: u64 = 0xB2;
const TOKEN_SIZE: u64 = 0xB3;
const TOKEN_REORDER: u64 = 0xB4;

nn_netsim::counter_set! {
    /// The prober's counters, `probe.<field>`. A hop probe that outlived
    /// the path (`hop_echo_rx`) is not evidence, so it stays internal.
    struct ProbeCounters {
        pairs_tx: Reported,
        hops_tx: Reported,
        hop_rx: Reported,
        plain_rx: Reported,
        neut_rx: Reported,
        size_rx: Reported,
        reorder_rx: Reported,
        hop_echo_rx: Internal,
    }
}

fields! {
    /// Per-TTL observations from the hop train.
    #[derive(Debug, Clone, Default, PartialEq)]
    pub struct HopReport: Encode + Decode {
        /// Emitted TTL (1 = first router past the prober).
        pub ttl: u8,
        /// The answering router's stats name.
        pub router: String,
        /// Time-exceeded replies received for this TTL.
        pub replies: u64,
        /// Mean round trip to the router, milliseconds.
        pub rtt_ms: f64,
        /// Mean one-way delay to the router (its clock minus the probe's
        /// send stamp — simulator clocks are synchronized), milliseconds.
        pub fwd_ms: f64,
    }
}

fields! {
    /// What the measurement plane learned in one cell — the raw evidence
    /// the finalize pass turns into a verdict.
    #[derive(Debug, Clone, Default, PartialEq)]
    pub struct ProbeSummary: Encode + Decode {
        /// Application-lookalike probes sent.
        pub plain_tx: u64,
        /// Application-lookalike echoes received.
        pub plain_rx: u64,
        /// Mean lookalike round trip, milliseconds (NaN when none came back).
        pub plain_rtt_ms: f64,
        /// 95th-percentile lookalike round trip, milliseconds.
        pub plain_rtt_p95_ms: f64,
        /// Unclassifiable probes sent.
        pub neut_tx: u64,
        /// Unclassifiable echoes received.
        pub neut_rx: u64,
        /// Mean unclassifiable round trip, milliseconds.
        pub neut_rtt_ms: f64,
        /// 95th-percentile unclassifiable round trip, milliseconds.
        pub neut_rtt_p95_ms: f64,
        /// Per-hop delay observations, TTL order.
        pub hops: Vec<HopReport>,
        /// Largest echoed frame observed by the size train, bytes.
        pub max_echo_bytes: u64,
        /// Reorder-burst echoes that arrived out of sequence.
        pub reorders: u64,
    }
}

impl ProbeSummary {
    /// Delivery ratio of the application-lookalike train.
    pub fn plain_delivery(&self) -> f64 {
        if self.plain_tx == 0 {
            return 0.0;
        }
        self.plain_rx as f64 / self.plain_tx as f64
    }

    /// Delivery ratio of the unclassifiable train.
    pub fn neut_delivery(&self) -> f64 {
        if self.neut_tx == 0 {
            return 0.0;
        }
        self.neut_rx as f64 / self.neut_tx as f64
    }
}

/// One TTL's accumulating state inside the prober.
#[derive(Debug, Clone)]
struct HopState {
    ttl: u8,
    router: String,
    replies: u64,
    rtt_sum_ns: u64,
    fwd_sum_ns: u64,
}

/// The edge prober: emits every train on its schedule and folds the
/// responses back into a [`ProbeSummary`].
pub struct ProbeNode {
    addr: Ipv4Addr,
    responder: Ipv4Addr,
    marker: Vec<u8>,
    duration: Duration,
    max_ttl: u8,
    pair_seq: u32,
    plain_tx: u64,
    plain_rx: u64,
    plain_rtt_sum_ns: u64,
    plain_rtt: Histogram,
    neut_tx: u64,
    neut_rx: u64,
    neut_rtt_sum_ns: u64,
    neut_rtt: Histogram,
    hops: Vec<HopState>,
    size_tx: u64,
    max_echo_bytes: u64,
    reorder_tx: u64,
    reorder_high: Option<u32>,
    reorders: u64,
    ids: ProbeCounters,
}

impl ProbeNode {
    /// A prober at `addr` aimed at `responder`, dressing its lookalike
    /// probes in `marker` (the workload's DPI signature), probing for
    /// `duration` with hop trains up to `max_ttl`.
    pub fn new(
        addr: Ipv4Addr,
        responder: Ipv4Addr,
        marker: Vec<u8>,
        duration: Duration,
        max_ttl: u8,
    ) -> Self {
        ProbeNode {
            addr,
            responder,
            marker,
            duration,
            max_ttl,
            pair_seq: 0,
            plain_tx: 0,
            plain_rx: 0,
            plain_rtt_sum_ns: 0,
            plain_rtt: Histogram::new(),
            neut_tx: 0,
            neut_rx: 0,
            neut_rtt_sum_ns: 0,
            neut_rtt: Histogram::new(),
            hops: Vec::new(),
            size_tx: 0,
            max_echo_bytes: 0,
            reorder_tx: 0,
            reorder_high: None,
            reorders: 0,
            ids: ProbeCounters::default(),
        }
    }

    /// The evidence collected so far.
    pub fn summary(&self) -> ProbeSummary {
        let mean_ms = |sum_ns: u64, n: u64| {
            if n == 0 {
                f64::NAN
            } else {
                sum_ns as f64 / n as f64 / 1e6
            }
        };
        let p95_ms = |h: &Histogram| {
            if h.is_empty() {
                f64::NAN
            } else {
                h.quantile_upper(0.95) as f64 / 1e6
            }
        };
        let mut hops: Vec<HopReport> = self
            .hops
            .iter()
            .map(|h| HopReport {
                ttl: h.ttl,
                router: h.router.clone(),
                replies: h.replies,
                rtt_ms: mean_ms(h.rtt_sum_ns, h.replies),
                fwd_ms: mean_ms(h.fwd_sum_ns, h.replies),
            })
            .collect();
        hops.sort_by_key(|h| h.ttl);
        ProbeSummary {
            plain_tx: self.plain_tx,
            plain_rx: self.plain_rx,
            plain_rtt_ms: mean_ms(self.plain_rtt_sum_ns, self.plain_rx),
            plain_rtt_p95_ms: p95_ms(&self.plain_rtt),
            neut_tx: self.neut_tx,
            neut_rx: self.neut_rx,
            neut_rtt_ms: mean_ms(self.neut_rtt_sum_ns, self.neut_rx),
            neut_rtt_p95_ms: p95_ms(&self.neut_rtt),
            hops,
            max_echo_bytes: self.max_echo_bytes,
            reorders: self.reorders,
        }
    }

    /// Encodes a probe padded to `total` payload bytes.
    fn padded(payload: &ProbePayload, lead: &[u8], total: usize) -> Vec<u8> {
        let mut body = payload.encode(lead);
        if body.len() < total {
            body.resize(total, b'.');
        }
        body
    }

    fn build(&self, ctx: &mut Context, sport: u16, dport: u16, body: &[u8]) -> Option<FrameBuf> {
        ctx.alloc_built(|buf| build_udp_into(buf, self.addr, self.responder, 0, sport, dport, body))
    }

    /// One differential pair: the application lookalike and its
    /// unclassifiable twin, back to back. The send order alternates per
    /// sequence number so neither variant systematically wins a shared
    /// policer's remaining tokens.
    fn send_pair(&mut self, ctx: &mut Context) {
        let seq = self.pair_seq;
        self.pair_seq += 1;
        let now_ns = ctx.now.as_nanos();
        let plain_body = Self::padded(
            &ProbePayload {
                kind: ProbeKind::DiffPlain,
                seq,
                sent_ns: now_ns,
            },
            &self.marker.clone(),
            PAIR_PAYLOAD,
        );
        let neut_body = Self::padded(
            &ProbePayload {
                kind: ProbeKind::DiffNeut,
                seq,
                sent_ns: now_ns,
            },
            b"",
            PAIR_PAYLOAD,
        );
        let plain = self.build(ctx, APP_PORT, APP_PORT, &plain_body);
        let neut = self.build(ctx, NEUT_PROBE_PORT, NEUT_PROBE_PORT, &neut_body);
        let mut send = |f: Option<FrameBuf>, tx: &mut u64| {
            if let Some(frame) = f {
                *tx += 1;
                ctx.send(0, frame);
            }
        };
        if seq.is_multiple_of(2) {
            send(plain, &mut self.plain_tx);
            send(neut, &mut self.neut_tx);
        } else {
            send(neut, &mut self.neut_tx);
            send(plain, &mut self.plain_tx);
        }
        ctx.stats.bump(self.ids.pairs_tx);
    }

    /// One TTL sweep, 1..=max_ttl.
    fn send_hop_sweep(&mut self, ctx: &mut Context) {
        let now_ns = ctx.now.as_nanos();
        for ttl in 1..=self.max_ttl {
            let body = ProbePayload {
                kind: ProbeKind::Hop,
                seq: ttl as u32,
                sent_ns: now_ns,
            }
            .encode(b"");
            if let Some(mut frame) = self.build(ctx, HOP_PROBE_PORT, HOP_PROBE_PORT, &body) {
                let mut ip = Ipv4Packet::new_unchecked(&mut frame[..]);
                ip.set_ttl(ttl);
                ctx.send(0, frame);
                ctx.stats.bump(self.ids.hops_tx);
            }
        }
    }

    /// The one-shot size train.
    fn send_size_train(&mut self, ctx: &mut Context) {
        let now_ns = ctx.now.as_nanos();
        for (i, size) in SIZE_STEPS.iter().enumerate() {
            let body = Self::padded(
                &ProbePayload {
                    kind: ProbeKind::Size,
                    seq: i as u32,
                    sent_ns: now_ns,
                },
                b"",
                *size,
            );
            if let Some(frame) = self.build(ctx, NEUT_PROBE_PORT, NEUT_PROBE_PORT, &body) {
                self.size_tx += 1;
                ctx.send(0, frame);
            }
        }
    }

    /// The one-shot reorder burst: back-to-back sequenced probes whose
    /// echo order exposes path reordering.
    fn send_reorder_burst(&mut self, ctx: &mut Context) {
        let now_ns = ctx.now.as_nanos();
        for seq in 0..REORDER_BURST {
            let body = ProbePayload {
                kind: ProbeKind::Reorder,
                seq,
                sent_ns: now_ns,
            }
            .encode(b"");
            if let Some(frame) = self.build(ctx, NEUT_PROBE_PORT, NEUT_PROBE_PORT, &body) {
                self.reorder_tx += 1;
                ctx.send(0, frame);
            }
        }
    }

    /// Folds a router's time-exceeded reply into the hop table.
    fn on_ttl_reply(&mut self, ctx: &mut Context, payload: &[u8]) {
        // TTLX ‖ router_ns(8 LE) ‖ name_len(1) ‖ name ‖ quoted probe.
        if payload.len() < 13 {
            return;
        }
        let router_ns = u64::from_le_bytes(payload[4..12].try_into().unwrap());
        let name_len = payload[12] as usize;
        if payload.len() < 13 + name_len {
            return;
        }
        let router = String::from_utf8_lossy(&payload[13..13 + name_len]).into_owned();
        let Some((probe, _)) = ProbePayload::decode(&payload[13 + name_len..]) else {
            return;
        };
        if probe.kind != ProbeKind::Hop {
            return;
        }
        let ttl = probe.seq as u8;
        let rtt = ctx.now.as_nanos().saturating_sub(probe.sent_ns);
        let fwd = router_ns.saturating_sub(probe.sent_ns);
        ctx.stats.bump(self.ids.hop_rx);
        match self.hops.iter_mut().find(|h| h.ttl == ttl) {
            Some(h) => {
                h.replies += 1;
                h.rtt_sum_ns += rtt;
                h.fwd_sum_ns += fwd;
            }
            None => self.hops.push(HopState {
                ttl,
                router,
                replies: 1,
                rtt_sum_ns: rtt,
                fwd_sum_ns: fwd,
            }),
        }
    }

    /// Folds an echoed probe into the train accounting.
    fn on_echo(&mut self, ctx: &mut Context, probe: ProbePayload, frame_len: usize) {
        let rtt = ctx.now.as_nanos().saturating_sub(probe.sent_ns);
        match probe.kind {
            ProbeKind::DiffPlain => {
                self.plain_rx += 1;
                self.plain_rtt_sum_ns += rtt;
                self.plain_rtt.record(rtt);
                ctx.stats.bump(self.ids.plain_rx);
            }
            ProbeKind::DiffNeut => {
                self.neut_rx += 1;
                self.neut_rtt_sum_ns += rtt;
                self.neut_rtt.record(rtt);
                ctx.stats.bump(self.ids.neut_rx);
            }
            ProbeKind::Size => {
                self.max_echo_bytes = self.max_echo_bytes.max(frame_len as u64);
                ctx.stats.bump(self.ids.size_rx);
            }
            ProbeKind::Reorder => {
                match self.reorder_high {
                    Some(high) if probe.seq < high => self.reorders += 1,
                    _ => self.reorder_high = Some(probe.seq),
                }
                ctx.stats.bump(self.ids.reorder_rx);
            }
            // A hop probe whose TTL outlived the path comes back as an
            // ordinary echo; the hop table only wants expiry replies.
            ProbeKind::Hop => ctx.stats.bump(self.ids.hop_echo_rx),
        }
    }
}

impl Node for ProbeNode {
    fn on_start(&mut self, ctx: &mut Context) {
        self.ids = ProbeCounters::register(ctx.stats, "probe");
        ctx.set_timer(PAIR_START, TOKEN_PAIR);
        ctx.set_timer(HOP_START, TOKEN_HOP);
        ctx.set_timer(SIZE_AT, TOKEN_SIZE);
        ctx.set_timer(REORDER_AT, TOKEN_REORDER);
    }

    fn on_timer(&mut self, ctx: &mut Context, token: u64) {
        let now = Duration::from_nanos(ctx.now.as_nanos());
        if now > self.duration {
            return;
        }
        match token {
            TOKEN_PAIR => {
                self.send_pair(ctx);
                ctx.set_timer(PAIR_INTERVAL, TOKEN_PAIR);
            }
            TOKEN_HOP => {
                self.send_hop_sweep(ctx);
                ctx.set_timer(HOP_INTERVAL, TOKEN_HOP);
            }
            TOKEN_SIZE => self.send_size_train(ctx),
            TOKEN_REORDER => self.send_reorder_burst(ctx),
            _ => {}
        }
    }

    fn on_packet(&mut self, ctx: &mut Context, _iface: IfaceId, frame: FrameBuf) {
        if let Ok(parsed) = parse_udp(&frame[..]) {
            if parsed.payload.starts_with(TTL_REPLY_MAGIC) {
                let payload = parsed.payload.to_vec();
                self.on_ttl_reply(ctx, &payload);
            } else if let Some((probe, _)) = ProbePayload::decode(parsed.payload) {
                let frame_len = frame.len();
                self.on_echo(ctx, probe, frame_len);
            }
        }
        ctx.recycle(frame);
    }
}

/// The far-side responder: echoes every valid probe back to its sender
/// with addresses and ports swapped, payload untouched.
pub struct ProbeResponderNode {
    addr: Ipv4Addr,
    /// Probes echoed (exposed for harvest assertions).
    pub echoed: u64,
    /// `probe.responder_echoed`, registered at start.
    echoed_id: CounterId,
}

impl ProbeResponderNode {
    /// A responder answering on `addr`.
    pub fn new(addr: Ipv4Addr) -> Self {
        ProbeResponderNode {
            addr,
            echoed: 0,
            echoed_id: CounterId::default(),
        }
    }
}

impl Node for ProbeResponderNode {
    fn on_start(&mut self, ctx: &mut Context) {
        self.echoed_id = ctx
            .stats
            .register("probe.responder_echoed", CounterClass::Reported);
    }

    fn on_packet(&mut self, ctx: &mut Context, _iface: IfaceId, frame: FrameBuf) {
        let echo = match parse_udp(&frame[..]) {
            Ok(parsed)
                if parsed.ip.dst == self.addr && ProbePayload::decode(parsed.payload).is_some() =>
            {
                let (src, dst) = (parsed.ip.src, parsed.ip.dst);
                let (sport, dport) = (parsed.src_port, parsed.dst_port);
                let payload = parsed.payload.to_vec();
                ctx.alloc_built(|buf| build_udp_into(buf, dst, src, 0, dport, sport, &payload))
            }
            _ => None,
        };
        ctx.recycle(frame);
        if let Some(reply) = echo {
            self.echoed += 1;
            ctx.stats.bump(self.echoed_id);
            ctx.send(0, reply);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nn_netsim::{compute_routes, LinkProfile, RouterNode, Simulator};
    use nn_packet::Ipv4Cidr;

    const PROBER: Ipv4Addr = Ipv4Addr::new(203, 0, 114, 10);
    const SINK: Ipv4Addr = Ipv4Addr::new(10, 9, 0, 99);

    /// prober — r1 — r2 — responder, with TTL replies on.
    fn probe_line(marker: &[u8], duration: Duration) -> (Simulator, usize, usize) {
        let mut sim = Simulator::new(3);
        let prober = sim.add_node(
            "prober",
            Box::new(ProbeNode::new(PROBER, SINK, marker.to_vec(), duration, 4)),
        );
        let r1 = sim.add_node("r1", Box::new(RouterNode::new("r1")));
        let r2 = sim.add_node("r2", Box::new(RouterNode::new("r2")));
        let responder = sim.add_node("responder", Box::new(ProbeResponderNode::new(SINK)));
        let cfg = LinkProfile::new(10_000_000, Duration::from_millis(2));
        sim.connect_sym(prober, r1, cfg.clone());
        sim.connect_sym(r1, r2, cfg.clone());
        sim.connect_sym(r2, responder, cfg);
        let prefixes = vec![
            (Ipv4Cidr::new(PROBER, 24), prober),
            (Ipv4Cidr::new(SINK, 24), responder),
        ];
        let tables = compute_routes(sim.edges(), &prefixes, sim.node_count());
        for r in [r1, r2] {
            let router = sim.node_mut::<RouterNode>(r).unwrap();
            router.set_routes(tables[&r].clone());
            router.enable_ttl_replies();
        }
        (sim, prober, responder)
    }

    #[test]
    fn differential_pairs_echo_on_a_neutral_path() {
        let duration = Duration::from_millis(500);
        let (mut sim, prober, responder) = probe_line(b"VOIP/RTP", duration);
        sim.run_until(nn_netsim::SimTime::ZERO + duration + Duration::from_millis(200));
        let s = sim.node_ref::<ProbeNode>(prober).unwrap().summary();
        assert!(s.plain_tx >= 10, "pairs ran: {}", s.plain_tx);
        assert_eq!(s.plain_tx, s.neut_tx, "twins travel together");
        // Neutral path: both variants deliver fully with equal RTTs.
        assert_eq!(s.plain_rx, s.plain_tx);
        assert_eq!(s.neut_rx, s.neut_tx);
        assert!((s.plain_rtt_ms - s.neut_rtt_ms).abs() < 1.0);
        assert!(s.plain_rtt_ms > 0.0);
        assert!(
            sim.node_ref::<ProbeResponderNode>(responder)
                .unwrap()
                .echoed
                > 0
        );
        // Size train found the largest step; clean path reorders nothing.
        assert!(s.max_echo_bytes >= 1024);
        assert_eq!(s.reorders, 0);
    }

    #[test]
    fn hop_train_names_each_router_in_order() {
        let duration = Duration::from_millis(500);
        let (mut sim, prober, _) = probe_line(b"X/MARK", duration);
        sim.run_until(nn_netsim::SimTime::ZERO + duration + Duration::from_millis(200));
        let s = sim.node_ref::<ProbeNode>(prober).unwrap().summary();
        assert_eq!(s.hops.len(), 2, "two routers on the path: {:?}", s.hops);
        assert_eq!(s.hops[0].ttl, 1);
        assert_eq!(s.hops[0].router, "r1");
        assert_eq!(s.hops[1].ttl, 2);
        assert_eq!(s.hops[1].router, "r2");
        // Per-hop timestamps: the farther router is strictly slower, and
        // one-way forward delay is below the round trip.
        assert!(s.hops[1].rtt_ms > s.hops[0].rtt_ms);
        for h in &s.hops {
            assert!(h.replies >= 1);
            assert!(h.fwd_ms > 0.0 && h.fwd_ms < h.rtt_ms);
        }
    }

    #[test]
    fn probe_traffic_never_touches_flow_stats() {
        let duration = Duration::from_millis(300);
        let (mut sim, _, _) = probe_line(b"VOIP/RTP", duration);
        sim.run_until(nn_netsim::SimTime::ZERO + duration + Duration::from_millis(200));
        assert!(
            sim.stats().flows().next().is_none(),
            "probe plane must stay out of goodput accounting"
        );
        assert!(sim.stats().counter("probe.pairs_tx") > 0);
    }
}
