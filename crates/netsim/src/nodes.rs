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
use nn_packet::{build_udp_into, parse_udp, Ipv4Packet};
use std::collections::HashMap;

/// Magic prefix of a TTL time-exceeded reply payload.
const TTL_REPLY_MAGIC: &[u8; 4] = b"TTLX";

/// How many bytes of the expired packet's UDP payload a TTL reply
/// quotes back (enough for a probe header, like ICMP's quoted bytes).
const TTL_REPLY_QUOTE: usize = 32;

/// The payload of a router's time-exceeded reply (see
/// [`RouterNode::enable_ttl_replies`]), on the wire
/// `TTLX ‖ router_ns(8 LE) ‖ name_len(1) ‖ name ‖ quote`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TtlReply<'a> {
    /// The answering router's clock when the packet expired.
    pub router_ns: u64,
    /// The router's stats name; the wire keeps its first 255 bytes.
    pub router: &'a [u8],
    /// The first bytes of the expired packet's UDP payload.
    pub quote: &'a [u8],
}

impl<'a> TtlReply<'a> {
    /// Appends the wire form to `out`.
    pub fn emit(&self, out: &mut Vec<u8>) {
        let name = &self.router[..self.router.len().min(255)];
        out.reserve(TTL_REPLY_MAGIC.len() + 8 + 1 + name.len() + self.quote.len());
        out.extend_from_slice(TTL_REPLY_MAGIC);
        out.extend_from_slice(&self.router_ns.to_le_bytes());
        out.push(name.len() as u8);
        out.extend_from_slice(name);
        out.extend_from_slice(self.quote);
    }

    /// Reads a reply payload in place: `None` on a wrong magic or a
    /// payload that ends inside the header or the name.
    pub fn parse(payload: &'a [u8]) -> Option<Self> {
        let rest = payload.strip_prefix(TTL_REPLY_MAGIC)?;
        let (router_ns, rest) = rest.split_first_chunk::<8>()?;
        let (&name_len, rest) = rest.split_first()?;
        let (router, quote) = rest.split_at_checked(name_len as usize)?;
        Some(TtlReply {
            router_ns: u64::from_le_bytes(*router_ns),
            router,
            quote,
        })
    }
}

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
    /// Whether expired-TTL UDP packets earn a time-exceeded reply
    /// (off by default; see [`RouterNode::enable_ttl_replies`]).
    ttl_replies: bool,
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
            ttl_replies: false,
        }
    }

    /// Turns on TTL time-exceeded replies: when a UDP packet expires
    /// here, the router answers the sender with a pooled [`TtlReply`]
    /// carrying this router's clock (the per-hop timestamp a
    /// traceroute-style prober attributes path segments with), its stats
    /// name, and the first quoted bytes of the expired payload. Off by
    /// default so ordinary cells keep byte-identical event streams.
    pub fn enable_ttl_replies(&mut self) {
        self.ttl_replies = true;
    }

    /// Builds the time-exceeded reply for an expired UDP frame. `None`
    /// when the frame is not UDP or the reply cannot be built.
    fn ttl_reply(
        &self,
        ctx: &mut Context,
        frame: &FrameBuf,
    ) -> Option<(FrameBuf, nn_packet::Ipv4Addr)> {
        let parsed = parse_udp(&frame[..]).ok()?;
        let quote = &parsed.payload[..parsed.payload.len().min(TTL_REPLY_QUOTE)];
        let mut payload = Vec::new();
        TtlReply {
            router_ns: ctx.now.as_nanos(),
            router: self.stats_name.as_bytes(),
            quote,
        }
        .emit(&mut payload);
        let (src, dst) = (parsed.ip.src, parsed.ip.dst);
        let (sport, dport) = (parsed.src_port, parsed.dst_port);
        let reply = ctx.alloc_built(|buf| {
            // Addressed back to the expired packet's sender; the reply's
            // source is the original destination (routers here own no
            // address), and the payload names the answering hop.
            build_udp_into(buf, dst, src, 0, dport, sport, &payload)
        })?;
        Some((reply, src))
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
                if self.ttl_replies {
                    if let Some((reply, to)) = self.ttl_reply(ctx, &frame) {
                        self.forward_to(ctx, reply, to);
                    }
                }
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

    /// With TTL replies enabled, an expired probe earns a time-exceeded
    /// answer routed back to its sender, carrying the router's name and
    /// clock — the hop-attribution primitive traceroute-style probing
    /// builds on. Disabled routers (the default) stay silent.
    #[test]
    fn router_answers_expired_ttl_when_enabled() {
        let (mut sim, a, r, b) = triangle();
        sim.node_mut::<RouterNode>(r).unwrap().enable_ttl_replies();
        let mut frame = build_udp(HOST_A, HOST_B, 0, 7001, 7002, b"probe payload").unwrap();
        {
            let mut ip = Ipv4Packet::new_unchecked(&mut frame[..]);
            ip.set_ttl(1);
        }
        sim.inject(crate::time::SimTime::ZERO, r, 0, frame);
        sim.run(100);
        // The expired packet never reaches b; the reply reaches a,
        // sourced from the original destination address.
        assert_eq!(sim.node_ref::<SinkNode>(b).unwrap().rx_frames, 0);
        let sink = sim.node_ref::<SinkNode>(a).unwrap();
        assert_eq!(sink.rx_frames, 1);
        assert_eq!(sink.from_source(HOST_B.to_u32()), 1);
        assert_eq!(sim.stats().counter("r.ttl_expired"), 1);
    }

    /// A reply reads back field for field; a wrong magic, or a payload
    /// that ends inside the header or the name, reads as `None`.
    #[test]
    fn ttl_reply_round_trips_and_rejects_truncation() {
        let reply = TtlReply {
            router_ns: 0x0102_0304_0506_0708,
            router: b"isp-r1",
            quote: b"NNPR quoted probe",
        };
        let mut wire = Vec::new();
        reply.emit(&mut wire);
        assert_eq!(TtlReply::parse(&wire), Some(reply));
        let quote_at = wire.len() - reply.quote.len();
        for cut in 0..quote_at {
            assert_eq!(TtlReply::parse(&wire[..cut]), None, "cut at {cut}");
        }
        assert_eq!(TtlReply::parse(&wire[..quote_at]).unwrap().quote, b"");
        wire[0] ^= 1;
        assert_eq!(TtlReply::parse(&wire), None);
        // A name longer than its length byte keeps its first 255 bytes.
        let long = [b'r'; 300];
        let mut wire = Vec::new();
        TtlReply {
            router: &long,
            ..reply
        }
        .emit(&mut wire);
        let back = TtlReply::parse(&wire).unwrap();
        assert_eq!((back.router, back.quote), (&long[..255], reply.quote));
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
