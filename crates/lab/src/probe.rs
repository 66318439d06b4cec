//! The active measurement plane: a differential probe pair an edge user
//! can run without ISP cooperation.
//!
//! The paper's neutralizer gives users a traffic variant an ISP cannot
//! classify; this module turns that into an *instrument*. A
//! [`ProbeNode`] at the customer edge sends back-to-back twins toward a
//! [`ProbeResponderNode`] on the far side of the suspected
//! discriminator: one probe dressed as the application (its UDP port,
//! its DPI-visible content marker) and one unclassifiable twin, on the
//! same path and the same schedule. Any policy keyed on classification
//! treats the twins differently; the delivery and RTT gap between them
//! *is* the discrimination signal, and it is all a [`ProbeSummary`]
//! keeps.
//!
//! Probe traffic is accounted *only* in the [`ProbeSummary`] harvested
//! from the node and the responder's `probe.responder_echoed` counter —
//! it never touches `stats.flows`, so goodput numbers stay
//! application-only by construction.

use crate::hosts::APP_PORT;
use crate::schema::fields;
use nn_core::probe::{ProbeKind, ProbePayload};
use nn_netsim::{Context, CounterClass, CounterId, FrameBuf, IfaceId, Node};
use nn_packet::{build_udp_into, parse_udp, Ipv4Addr};
use std::time::Duration;

/// UDP port of the unclassifiable twin (traceroute's base).
pub const NEUT_PROBE_PORT: u16 = 33434;

/// First differential pair goes out after the cell has warmed up.
const PAIR_START: Duration = Duration::from_millis(100);
/// Differential-pair cadence.
const PAIR_INTERVAL: Duration = Duration::from_millis(25);
/// Both differential twins are padded to this payload size, so the
/// policer sees identical byte cost and the only difference is
/// classifiability.
const PAIR_PAYLOAD: usize = 64;

fields! {
    /// What the measurement plane learned in one cell — the differential
    /// pairs' delivery and mean round trips, the raw evidence the
    /// finalize pass turns into a verdict.
    #[derive(Debug, Clone, Default, PartialEq)]
    pub struct ProbeSummary: Encode + Decode {
        /// Application-lookalike probes sent.
        pub plain_tx: u64,
        /// Application-lookalike echoes received.
        pub plain_rx: u64,
        /// Mean lookalike round trip, milliseconds (NaN when none came back).
        pub plain_rtt_ms: f64,
        /// Unclassifiable probes sent.
        pub neut_tx: u64,
        /// Unclassifiable echoes received.
        pub neut_rx: u64,
        /// Mean unclassifiable round trip, milliseconds.
        pub neut_rtt_ms: f64,
    }
}

impl ProbeSummary {
    /// Delivery ratio of the application-lookalike twin.
    pub fn plain_delivery(&self) -> f64 {
        if self.plain_tx == 0 {
            return 0.0;
        }
        self.plain_rx as f64 / self.plain_tx as f64
    }

    /// Delivery ratio of the unclassifiable twin.
    pub fn neut_delivery(&self) -> f64 {
        if self.neut_tx == 0 {
            return 0.0;
        }
        self.neut_rx as f64 / self.neut_tx as f64
    }
}

/// The edge prober: sends one differential pair per tick and folds the
/// echoes back into a [`ProbeSummary`].
pub struct ProbeNode {
    addr: Ipv4Addr,
    responder: Ipv4Addr,
    marker: Vec<u8>,
    duration: Duration,
    /// The twin being built, reused for every probe.
    body: Vec<u8>,
    pair_seq: u32,
    plain_tx: u64,
    plain_rx: u64,
    plain_rtt_sum_ns: u64,
    neut_tx: u64,
    neut_rx: u64,
    neut_rtt_sum_ns: u64,
}

impl ProbeNode {
    /// A prober at `addr` aimed at `responder`, dressing its lookalike
    /// probes in `marker` (the workload's DPI signature), probing for
    /// `duration`.
    pub fn new(addr: Ipv4Addr, responder: Ipv4Addr, marker: Vec<u8>, duration: Duration) -> Self {
        ProbeNode {
            addr,
            responder,
            marker,
            duration,
            body: Vec::new(),
            pair_seq: 0,
            plain_tx: 0,
            plain_rx: 0,
            plain_rtt_sum_ns: 0,
            neut_tx: 0,
            neut_rx: 0,
            neut_rtt_sum_ns: 0,
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
        ProbeSummary {
            plain_tx: self.plain_tx,
            plain_rx: self.plain_rx,
            plain_rtt_ms: mean_ms(self.plain_rtt_sum_ns, self.plain_rx),
            neut_tx: self.neut_tx,
            neut_rx: self.neut_rx,
            neut_rtt_ms: mean_ms(self.neut_rtt_sum_ns, self.neut_rx),
        }
    }

    /// One twin: its probe header, behind the marker for the lookalike,
    /// padded to [`PAIR_PAYLOAD`] bytes, on the twin's port.
    fn build_twin(&mut self, ctx: &mut Context, kind: ProbeKind, seq: u32) -> Option<FrameBuf> {
        let (lead, port) = match kind {
            ProbeKind::DiffPlain => (&self.marker[..], APP_PORT),
            ProbeKind::DiffNeut => (&b""[..], NEUT_PROBE_PORT),
        };
        let probe = ProbePayload {
            kind,
            seq,
            sent_ns: ctx.now.as_nanos(),
        };
        self.body.clear();
        probe.encode_into(&mut self.body, lead);
        if self.body.len() < PAIR_PAYLOAD {
            self.body.resize(PAIR_PAYLOAD, b'.');
        }
        let (src, dst, body) = (self.addr, self.responder, &self.body);
        ctx.alloc_built(|buf| build_udp_into(buf, src, dst, 0, port, port, body))
    }

    /// One differential pair: the application lookalike and its
    /// unclassifiable twin, back to back. The send order alternates per
    /// sequence number so neither variant systematically wins a shared
    /// policer's remaining tokens.
    fn send_pair(&mut self, ctx: &mut Context) {
        let seq = self.pair_seq;
        self.pair_seq += 1;
        let plain = self.build_twin(ctx, ProbeKind::DiffPlain, seq);
        let neut = self.build_twin(ctx, ProbeKind::DiffNeut, seq);
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
    }

    /// Folds an echoed twin into its round-trip sum.
    fn on_echo(&mut self, now_ns: u64, probe: ProbePayload) {
        let rtt = now_ns.saturating_sub(probe.sent_ns);
        let (rx, rtt_sum_ns) = match probe.kind {
            ProbeKind::DiffPlain => (&mut self.plain_rx, &mut self.plain_rtt_sum_ns),
            ProbeKind::DiffNeut => (&mut self.neut_rx, &mut self.neut_rtt_sum_ns),
        };
        *rx += 1;
        *rtt_sum_ns += rtt;
    }
}

impl Node for ProbeNode {
    fn on_start(&mut self, ctx: &mut Context) {
        ctx.set_timer(PAIR_START, 0);
    }

    fn on_timer(&mut self, ctx: &mut Context, _token: u64) {
        if Duration::from_nanos(ctx.now.as_nanos()) > self.duration {
            return;
        }
        self.send_pair(ctx);
        ctx.set_timer(PAIR_INTERVAL, 0);
    }

    fn on_packet(&mut self, ctx: &mut Context, _iface: IfaceId, frame: FrameBuf) {
        if let Ok(parsed) = parse_udp(&frame[..]) {
            if let Some((probe, _)) = ProbePayload::decode(parsed.payload) {
                self.on_echo(ctx.now.as_nanos(), probe);
            }
        }
        ctx.recycle(frame);
    }
}

/// The far-side responder: echoes every valid probe back to its sender
/// with addresses and ports swapped, payload untouched.
pub struct ProbeResponderNode {
    addr: Ipv4Addr,
    /// `probe.responder_echoed`, registered at start.
    echoed_id: CounterId,
}

impl ProbeResponderNode {
    /// A responder answering on `addr`.
    pub fn new(addr: Ipv4Addr) -> Self {
        ProbeResponderNode {
            addr,
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
                let (sport, dport, payload) = (parsed.src_port, parsed.dst_port, parsed.payload);
                ctx.alloc_built(|buf| build_udp_into(buf, dst, src, 0, dport, sport, payload))
            }
            _ => None,
        };
        ctx.recycle(frame);
        if let Some(reply) = echo {
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

    /// prober — r1 — r2 — responder.
    fn probe_line(marker: &[u8], duration: Duration) -> (Simulator, usize, usize) {
        let mut sim = Simulator::new(3);
        let prober = sim.add_node(
            "prober",
            Box::new(ProbeNode::new(PROBER, SINK, marker.to_vec(), duration)),
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
        }
        (sim, prober, responder)
    }

    #[test]
    fn differential_pairs_echo_on_a_neutral_path() {
        let duration = Duration::from_millis(500);
        let (mut sim, prober, _) = probe_line(b"VOIP/RTP", duration);
        sim.run_until(nn_netsim::SimTime::ZERO + duration + Duration::from_millis(200));
        let s = sim.node_ref::<ProbeNode>(prober).unwrap().summary();
        assert!(s.plain_tx >= 10, "pairs ran: {}", s.plain_tx);
        assert_eq!(s.plain_tx, s.neut_tx, "twins travel together");
        // Neutral path: both variants deliver fully with equal RTTs.
        assert_eq!(s.plain_rx, s.plain_tx);
        assert_eq!(s.neut_rx, s.neut_tx);
        assert!((s.plain_rtt_ms - s.neut_rtt_ms).abs() < 1.0);
        assert!(s.plain_rtt_ms > 0.0);
        assert_eq!(
            sim.stats().counter("probe.responder_echoed"),
            s.plain_tx + s.neut_tx
        );
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
        assert!(sim.stats().counter("probe.responder_echoed") > 0);
    }
}
