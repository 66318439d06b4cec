//! Generic forwarding nodes.
//!
//! [`RouterNode`] is the workhorse: an IP forwarder with a route table and
//! an optional discrimination [`PolicyEngine`] — a plain backbone router
//! when the policy is empty, a discriminatory ISP's router when it is not
//! (§1/§2 of the paper). [`SinkNode`] terminates and counts traffic for
//! tests and attack experiments.

use crate::frame::FrameBuf;
use crate::policy::{PolicyEngine, RuleId, Verdict};
use crate::routing::RouteTable;
use crate::sim::{Context, IfaceId, Node};
use crate::stats::{CounterClass, CounterId, Stats};
use nn_packet::Ipv4Packet;
use std::collections::HashMap;

crate::counter_set! {
    /// A router's counters, `<stats_name>.<field>`. Per-rule drop
    /// counters (`<stats_name>.policy_drop.<rule>`) are internal too and
    /// register on the rule's first drop.
    struct RouterCounters {
        parse_error: Internal,
        no_route: Internal,
        ttl_expired: Internal,
        policy_delayed: Internal,
    }
}

/// An IP router: TTL handling, policy evaluation, longest-prefix-match
/// forwarding.
pub struct RouterNode {
    routes: RouteTable,
    policy: PolicyEngine,
    /// Frames parked by `Delay` verdicts, keyed by timer token.
    pending: HashMap<u64, FrameBuf>,
    next_token: u64,
    /// Statistics prefix, usually the node name.
    stats_name: String,
    ids: RouterCounters,
    /// Per-rule drop counters, parallel to the policy's rules; `None`
    /// until the rule first drops.
    rule_drops: Vec<Option<CounterId>>,
    /// Frames the policy dropped, over every rule.
    policy_drops: u64,
}

impl RouterNode {
    /// A router with no routes and an empty (all-forward) policy.
    pub fn new(stats_name: impl Into<String>) -> Self {
        RouterNode {
            routes: RouteTable::new(),
            policy: PolicyEngine::new(),
            pending: HashMap::new(),
            next_token: 0,
            stats_name: stats_name.into(),
            ids: RouterCounters::default(),
            rule_drops: Vec::new(),
            policy_drops: 0,
        }
    }

    /// Installs the forwarding table (normally from
    /// [`crate::routing::compute_routes`]).
    pub fn set_routes(&mut self, routes: RouteTable) {
        self.routes = routes;
    }

    /// Installs a discrimination policy.
    pub fn set_policy(&mut self, policy: PolicyEngine) {
        self.rule_drops = vec![None; policy.len()];
        self.policy = policy;
    }

    /// Read access to the routes.
    pub fn routes(&self) -> &RouteTable {
        &self.routes
    }

    /// Frames this router's policy dropped, summed over its rules (each
    /// rule's own count is `<stats_name>.policy_drop.<rule>`).
    pub fn policy_drops(&self) -> u64 {
        self.policy_drops
    }

    /// The drop counter of `rule`, registered on the rule's first drop
    /// (kept out of line: it runs once per rule, not per frame).
    #[cold]
    #[inline(never)]
    fn register_rule_drop(&mut self, stats: &mut Stats, rule: RuleId) -> CounterId {
        let name = format!(
            "{}.policy_drop.{}",
            self.stats_name,
            self.policy.rule_name(rule)
        );
        let id = stats.register(&name, CounterClass::Internal);
        self.rule_drops[rule.0] = Some(id);
        id
    }

    fn forward(&mut self, ctx: &mut Context, frame: FrameBuf) {
        let Ok(ip) = Ipv4Packet::new_checked(&frame[..]) else {
            ctx.stats.bump(self.ids.parse_error);
            ctx.recycle(frame);
            return;
        };
        let dst = ip.dst_addr();
        self.forward_to(ctx, frame, dst);
    }

    /// Forward with the destination already extracted — the fast path
    /// skips re-parsing a frame the TTL pass just validated.
    fn forward_to(&mut self, ctx: &mut Context, frame: FrameBuf, dst: nn_packet::Ipv4Addr) {
        match self.routes.lookup(dst) {
            Some(iface) => ctx.send(iface, frame),
            None => {
                ctx.stats.bump(self.ids.no_route);
                ctx.recycle(frame);
            }
        }
    }
}

impl Node for RouterNode {
    fn on_start(&mut self, ctx: &mut Context) {
        self.ids = RouterCounters::register(ctx.stats, &self.stats_name);
    }

    fn on_packet(&mut self, ctx: &mut Context, _iface: IfaceId, mut frame: FrameBuf) {
        // TTL processing (the destination rides along so the forward
        // fast path never parses the header twice).
        let dst;
        {
            let Ok(mut ip) = Ipv4Packet::new_checked(frame.as_mut_slice()) else {
                ctx.stats.bump(self.ids.parse_error);
                ctx.recycle(frame);
                return;
            };
            let ttl = ip.ttl();
            if ttl <= 1 {
                ctx.stats.bump(self.ids.ttl_expired);
                ctx.recycle(frame);
                return;
            }
            ip.set_ttl(ttl - 1);
            dst = ip.dst_addr();
        }
        // Policy.
        let draw: f64 = rand::Rng::gen(ctx.rng);
        let verdict = self.policy.evaluate(ctx.now.as_nanos(), &frame, draw);
        match verdict {
            Verdict::Forward => self.forward_to(ctx, frame, dst),
            Verdict::Drop(rule) => {
                let id = match self.rule_drops[rule.0] {
                    Some(id) => id,
                    None => self.register_rule_drop(ctx.stats, rule),
                };
                ctx.stats.bump(id);
                self.policy_drops += 1;
                ctx.recycle(frame);
            }
            Verdict::Delay(extra) => {
                let token = self.next_token;
                self.next_token += 1;
                self.pending.insert(token, frame);
                ctx.set_timer(extra, token);
                ctx.stats.bump(self.ids.policy_delayed);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context, token: u64) {
        if let Some(frame) = self.pending.remove(&token) {
            self.forward(ctx, frame);
        }
    }
}

/// Terminates every frame it receives and counts by source address.
#[derive(Default)]
pub struct SinkNode {
    /// Total frames received.
    pub rx_frames: u64,
    /// Total bytes received.
    pub rx_bytes: u64,
    /// Frames per source address, unordered. A sink sees a handful of
    /// sources, so a scanned vec beats hashing on every delivery.
    sources: Vec<(u32, u64)>,
}

impl SinkNode {
    /// Empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Frames received from `src` (0 when never seen).
    pub fn from_source(&self, src: u32) -> u64 {
        self.sources
            .iter()
            .find(|&&(s, _)| s == src)
            .map_or(0, |&(_, n)| n)
    }
}

impl Node for SinkNode {
    fn on_packet(&mut self, ctx: &mut Context, _iface: IfaceId, frame: FrameBuf) {
        self.rx_frames += 1;
        self.rx_bytes += frame.len() as u64;
        if let Ok(ip) = Ipv4Packet::new_checked(&frame[..]) {
            let src = ip.src_addr().to_u32();
            match self.sources.iter_mut().find(|(s, _)| *s == src) {
                Some((_, n)) => *n += 1,
                None => self.sources.push((src, 1)),
            }
        }
        ctx.recycle(frame);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkProfile;
    use crate::policy::{Action, MatchExpr, Rule};
    use crate::routing::compute_routes;
    use crate::sim::Simulator;
    use nn_packet::{build_udp, Ipv4Addr, Ipv4Cidr};
    use std::time::Duration;

    const HOST_A: Ipv4Addr = Ipv4Addr::new(10, 0, 1, 1);
    const HOST_B: Ipv4Addr = Ipv4Addr::new(10, 0, 2, 1);

    /// host_a(sink) -- router -- host_b(sink); returns (sim, a, r, b).
    fn triangle() -> (Simulator, usize, usize, usize) {
        let mut sim = Simulator::new(11);
        let a = sim.add_node("a", Box::new(SinkNode::new()));
        let r = sim.add_node("r", Box::new(RouterNode::new("r")));
        let b = sim.add_node("b", Box::new(SinkNode::new()));
        let cfg = LinkProfile::new(1_000_000_000, Duration::from_millis(1));
        sim.connect_sym(a, r, cfg.clone());
        sim.connect_sym(r, b, cfg);
        let prefixes = vec![
            (Ipv4Cidr::new(HOST_A, 24), a),
            (Ipv4Cidr::new(HOST_B, 24), b),
        ];
        let tables = compute_routes(sim.edges(), &prefixes, sim.node_count());
        sim.node_mut::<RouterNode>(r)
            .unwrap()
            .set_routes(tables[&r].clone());
        (sim, a, r, b)
    }

    #[test]
    fn router_forwards_by_lpm() {
        let (mut sim, _a, r, b) = triangle();
        let frame = build_udp(HOST_A, HOST_B, 0, 1, 2, b"fwd").unwrap();
        sim.inject(crate::time::SimTime::ZERO, r, 0, frame);
        sim.run(100);
        assert_eq!(sim.node_ref::<SinkNode>(b).unwrap().rx_frames, 1);
    }

    #[test]
    fn router_decrements_ttl_and_drops_expired() {
        let (mut sim, _a, r, b) = triangle();
        let mut frame = build_udp(HOST_A, HOST_B, 0, 1, 2, b"x").unwrap();
        // Force TTL 1: router must drop.
        {
            let mut ip = Ipv4Packet::new_unchecked(&mut frame[..]);
            ip.set_ttl(1);
        }
        sim.inject(crate::time::SimTime::ZERO, r, 0, frame);
        sim.run(100);
        assert_eq!(sim.node_ref::<SinkNode>(b).unwrap().rx_frames, 0);
        assert_eq!(sim.stats().counter("r.ttl_expired"), 1);
    }

    #[test]
    fn router_counts_unroutable() {
        let (mut sim, _a, r, _b) = triangle();
        let frame = build_udp(HOST_A, Ipv4Addr::new(99, 9, 9, 9), 0, 1, 2, b"x").unwrap();
        sim.inject(crate::time::SimTime::ZERO, r, 0, frame);
        sim.run(100);
        assert_eq!(sim.stats().counter("r.no_route"), 1);
    }

    #[test]
    fn policy_drop_blocks_victim_only() {
        let (mut sim, _a, r, b) = triangle();
        let victim_rule = Rule::new(
            "block-victim",
            MatchExpr::SrcPrefix(Ipv4Cidr::new(HOST_A, 32)),
            Action::Drop { prob: 1.0 },
        );
        let second = Ipv4Addr::new(10, 0, 2, 99);
        let second_rule = Rule::new(
            "block-second",
            MatchExpr::SrcPrefix(Ipv4Cidr::new(second, 32)),
            Action::Drop { prob: 1.0 },
        );
        sim.node_mut::<RouterNode>(r)
            .unwrap()
            .set_policy(PolicyEngine::new().with(victim_rule).with(second_rule));
        let from_victim = build_udp(HOST_A, HOST_B, 0, 1, 2, b"v").unwrap();
        let from_other = build_udp(Ipv4Addr::new(10, 0, 1, 99), HOST_B, 0, 1, 2, b"o").unwrap();
        let from_second = build_udp(second, HOST_B, 0, 1, 2, b"s").unwrap();
        for frame in [from_victim, from_other, from_second] {
            sim.inject(crate::time::SimTime::ZERO, r, 0, frame);
        }
        sim.run(100);
        let sink = sim.node_ref::<SinkNode>(b).unwrap();
        assert_eq!(sink.rx_frames, 1);
        assert_eq!(sim.stats().counter("r.policy_drop.block-victim"), 1);
        assert_eq!(sim.stats().counter("r.policy_drop.block-second"), 1);
        // The router's total counts every rule's drops.
        assert_eq!(sim.node_ref::<RouterNode>(r).unwrap().policy_drops(), 2);
    }

    #[test]
    fn policy_delay_adds_latency() {
        let (mut sim, _a, r, b) = triangle();
        sim.node_mut::<RouterNode>(r)
            .unwrap()
            .set_policy(PolicyEngine::new().with(Rule::new(
                "lag",
                MatchExpr::True,
                Action::Jitter {
                    min: Duration::from_millis(50),
                    max: Duration::from_millis(50),
                },
            )));
        let frame = build_udp(HOST_A, HOST_B, 0, 1, 2, b"slow").unwrap();
        sim.inject(crate::time::SimTime::ZERO, r, 0, frame);
        sim.run(100);
        // Delivery = 50ms policy delay + serialization + 1ms link.
        assert!(sim.now() >= crate::time::SimTime::from_millis(51));
        assert_eq!(sim.node_ref::<SinkNode>(b).unwrap().rx_frames, 1);
        assert_eq!(sim.stats().counter("r.policy_delayed"), 1);
    }

    #[test]
    fn sink_counts_by_source() {
        let (mut sim, a, _r, _b) = triangle();
        let f1 = build_udp(HOST_B, HOST_A, 0, 1, 2, b"1").unwrap();
        let f2 = build_udp(HOST_B, HOST_A, 0, 1, 2, b"2").unwrap();
        let f3 = build_udp(Ipv4Addr::new(9, 9, 9, 9), HOST_A, 0, 1, 2, b"3").unwrap();
        for f in [f1, f2, f3] {
            sim.inject(crate::time::SimTime::ZERO, a, 0, f);
        }
        sim.run(100);
        let sink = sim.node_ref::<SinkNode>(a).unwrap();
        assert_eq!(sink.rx_frames, 3);
        assert_eq!(sink.from_source(HOST_B.to_u32()), 2);
    }
}
