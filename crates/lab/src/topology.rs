//! Topology presets — one axis of the experiment matrix.
//!
//! The paper evaluates one path: a source outside the neutral domain, a
//! discriminating ISP, the neutralizer at the neutral ISP's border, and
//! the destination customer. Every single-provider shape is that path,
//! `src — r0 — … — r(k-1) — neut — dst`, stated as its routers, one link
//! profile per hop, the bottleneck hop (whose forward direction the link
//! axis degrades) and the discriminator, plus the shape's own extras:
//!
//! * [`TopologySpec::Chain`] — the paper's one discriminating ISP.
//! * [`TopologySpec::Dumbbell`] — two access routers joined by a
//!   5 Mbit/s bottleneck, a stub customer off each, and
//!   `background_flows` bulk cross-traffic customers, so
//!   congestion-dependent cells (ECN marking, tiered priority) have
//!   competition to act on.
//! * [`TopologySpec::Star`] — a discriminating eyeball-ISP hub with five
//!   spokes; [`TopologySpec::Metro`] adds a population plane.
//! * [`TopologySpec::MultiAs`] — three ASes, each an ingress/egress
//!   router pair, the middle AS's egress discriminating.
//!
//! [`TopologySpec::Multihomed`] is §3.5's fork instead: two neutralizing
//! providers behind one discriminating access router. Every shape ends
//! alike: the probe plane attaches beside the first and last routers,
//! and route tables come from [`nn_netsim::compute_routes`] over the
//! built graph, so anycast addressing works identically everywhere.
//! Each shape's numbers are constants of this module; a spec sets only
//! the dumbbell's cross-traffic count and the metro shape's spokes and
//! population.

use crate::hosts::{PlainSourceNode, APP_PORT};
use crate::link::LinkProfileSpec;
use crate::population::PopulationSpec;
use nn_core::neutralizer::NeutralizerNode;
use nn_netsim::{
    compute_routes, IfaceId, LinkProfile, Node, NodeId, PopulationNode, PopulationSinkNode,
    RouterNode, Simulator, SinkNode,
};
use nn_packet::{Ipv4Addr, Ipv4Cidr};
use std::time::Duration;

/// The source host's address (outside the neutral domain).
pub const SRC_ADDR: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 10);
/// The destination customer's address (inside the neutral domain).
pub const DST_ADDR: Ipv4Addr = Ipv4Addr::new(10, 7, 0, 99);
/// The destination customer's `/16`: the prefix its route advertises,
/// the neutralizer's domain and what the address-drop adversary censors.
pub const DST_PREFIX: Ipv4Cidr = Ipv4Cidr::new(DST_ADDR, 16);
/// The neutralizer anycast service address.
pub const ANYCAST_ADDR: Ipv4Addr = Ipv4Addr::new(198, 18, 0, 1);
/// The secondary provider's anycast service address — only advertised by
/// the [`TopologySpec::Multihomed`] shape, and listed second in the
/// destination's `NEUT` record (§3.5).
pub const SECONDARY_ANYCAST: Ipv4Addr = Ipv4Addr::new(198, 18, 1, 1);
/// The measurement-plane prober's address: its own prefix beside the
/// source's (the prober is another customer of the same access ISP).
pub const PROBER_ADDR: Ipv4Addr = Ipv4Addr::new(203, 0, 114, 10);
/// The probe responder's address: its own prefix inside the destination
/// side, distinct from the application destination's `10.7.0.0/16` so
/// address-keyed policies against the app never touch probe traffic.
pub const PROBE_SINK_ADDR: Ipv4Addr = Ipv4Addr::new(10, 9, 0, 99);

/// The population multiplexer's address in the `metro` shape.
pub const POP_ADDR: Ipv4Addr = Ipv4Addr::new(10, 230, 0, 1);
/// The population sink's address inside the neutral domain, distinct
/// from the application destination's `10.7.0.0/16` so address-keyed
/// policies against the app never touch population traffic.
pub const POP_SINK_ADDR: Ipv4Addr = Ipv4Addr::new(10, 240, 0, 99);

/// Bandwidth of every non-bottleneck link (10 Mbit/s, the legacy value).
const LINK_BPS: u64 = 10_000_000;

fn edge_link() -> LinkProfile {
    LinkProfile::new(LINK_BPS, Duration::from_millis(2))
}

/// The population's fat access links (10 Gbit/s): a metro cell's
/// million modeled endpoints must contend at the hub's uplink — the
/// discriminator bottleneck — not on their own aggregation edge.
fn pop_edge_link() -> LinkProfile {
    LinkProfile::new(10_000_000_000, Duration::from_millis(2))
}

fn backbone_link() -> LinkProfile {
    LinkProfile::new(LINK_BPS, Duration::from_millis(10))
}

/// The dumbbell's bottleneck rate (5 Mbit/s).
const DUMBBELL_BOTTLENECK_BPS: u64 = 5_000_000;

/// The star's spokes: the source, three stub customers and the neutral
/// domain.
const STAR_SPOKES: usize = 5;

/// One point on the topology axis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologySpec {
    /// `src — isp — neut — dst`: the paper's single-ISP topology. The
    /// ISP discriminates, and its hop into the neutral domain is the
    /// bottleneck.
    Chain,
    /// Two access routers joined by a 5 Mbit/s bottleneck:
    /// `src — isp =bottleneck= core — neut — dst`, with one stub
    /// customer hanging off each access router. The near-side access
    /// router discriminates.
    Dumbbell {
        /// Cross-traffic customers on the near side, each pushing a
        /// bulk schedule across the bottleneck to the far-side stub.
        background_flows: usize,
    },
    /// An eyeball-ISP hub with five spokes: the source and three stub
    /// customers attach directly to the hub, the neutral domain hangs
    /// off it. The hub discriminates.
    Star,
    /// The population-scale eyeball star: the [`TopologySpec::Star`]
    /// skeleton (hub discriminates, hub→neut uplink carries the link
    /// axis) plus a [`PopulationSpec`] of flyweight cohorts multiplexed
    /// behind one [`nn_netsim::PopulationNode`] on a fat access link,
    /// terminating at a [`nn_netsim::PopulationSinkNode`] inside the
    /// neutral domain. Population traffic crosses the discriminator and
    /// the bottleneck exactly like foreground flows, so content DPI,
    /// port blocks and tiered priority act on whole cohorts.
    Metro {
        /// Total spokes including the source and the neutral-domain
        /// branch (≥ 2).
        spokes: usize,
        /// The flyweight cohorts feeding the discriminator bottleneck.
        population: PopulationSpec,
    },
    /// A path of three autonomous systems, each an ingress/egress router
    /// pair with a fast intra-AS and a slow inter-AS link. The middle
    /// AS's egress discriminates.
    MultiAs,
    /// The paper's §3.5 multihoming shape: the destination's domain is
    /// reachable through two independent neutralizing providers.
    ///
    /// ```text
    /// src — isp — prov-a — neut   (primary,   ANYCAST_ADDR)
    ///          \_ prov-b — neut-b (secondary, SECONDARY_ANYCAST)
    ///                neut ⟍
    ///                      dstr — dst
    ///              neut-b ⟋
    /// ```
    ///
    /// The shared access router `isp` discriminates (it sits before the
    /// fork, so switching providers does not dodge the adversary — only
    /// neutralization does); the `prov-a → neut` hop carries the link
    /// axis and is the natural target for flap/partition timelines.
    Multihomed,
}

/// The measurement plane's two nodes, attached by every shape at the
/// same logical points: the prober beside the source (behind the
/// discriminator) and the responder on the destination side, so the
/// differential pairs cross the policy engine exactly like application
/// traffic.
pub struct ProbePlane {
    /// The probing node (typically [`crate::probe::ProbeNode`]).
    pub prober: Box<dyn Node>,
    /// The echoing node (typically [`crate::probe::ProbeResponderNode`]).
    pub responder: Box<dyn Node>,
}

/// What a generator built: endpoint ids, the discriminator, and the
/// advertised prefixes (for assertions and reports).
#[derive(Debug, Clone)]
pub struct BuiltTopology {
    /// The source host.
    pub src: NodeId,
    /// The destination host.
    pub dst: NodeId,
    /// The router carrying the adversary's policy engine.
    pub discriminator: NodeId,
    /// Every router added (including the discriminator).
    pub routers: Vec<NodeId>,
    /// Every prefix advertised into routing, with its owner.
    pub advertised: Vec<(Ipv4Cidr, NodeId)>,
    /// The forward direction the link axis impaired, as a
    /// `(node, iface)` pair for [`nn_netsim::Simulator::link_counters`].
    pub bottleneck: (NodeId, IfaceId),
    /// The measurement-plane prober, when a [`ProbePlane`] was attached.
    pub prober: Option<NodeId>,
    /// The nodes that make up the primary provider's path — the set a
    /// partition timeline cuts off to force multihome failover. Empty
    /// for single-provider shapes.
    pub primary_path: Vec<NodeId>,
}

impl TopologySpec {
    /// [`TopologySpec::Chain`], under the name `benchmark/` calls.
    pub fn chain() -> Self {
        TopologySpec::Chain
    }

    /// The dumbbell with two competing bulk customers, under the name
    /// `benchmark/` calls.
    pub fn dumbbell_crossed() -> Self {
        TopologySpec::Dumbbell {
            background_flows: 2,
        }
    }

    /// [`TopologySpec::Star`], under the name `benchmark/` calls.
    pub fn star_default() -> Self {
        TopologySpec::Star
    }

    /// [`TopologySpec::MultiAs`], under the name `benchmark/` calls.
    pub fn multi_as_default() -> Self {
        TopologySpec::MultiAs
    }

    /// Stable axis name (report column, seed-hash input). The
    /// cross-traffic count and the population are part of the identity:
    /// two dumbbells or metros that differ in them must not share a
    /// report label (or a baseline).
    pub fn name(&self) -> String {
        match self {
            TopologySpec::Chain => "chain".to_string(),
            TopologySpec::Dumbbell {
                background_flows: 0,
            } => "dumbbell-5000k".to_string(),
            TopologySpec::Dumbbell { background_flows } => {
                format!("dumbbell-5000k-bg{background_flows}")
            }
            TopologySpec::Star => "star5".to_string(),
            TopologySpec::Metro { spokes, population } => {
                format!("metro{spokes}-{}", population.token())
            }
            TopologySpec::MultiAs => "multi-as3-d1".to_string(),
            TopologySpec::Multihomed => "multihomed".to_string(),
        }
    }

    /// The population the shape carries: the `metro` shape's cohorts,
    /// each one registered flow of the cell.
    pub fn population(&self) -> Option<&PopulationSpec> {
        match self {
            TopologySpec::Metro { population, .. } => Some(population),
            _ => None,
        }
    }

    /// The neutralizer service addresses a destination behind this shape
    /// lists in its `NEUT` record, primary first (§3.5): one per
    /// provider, and [`TopologySpec::build`] takes one neutralizer each.
    pub fn neut_addrs(&self) -> &'static [Ipv4Addr] {
        match self {
            TopologySpec::Multihomed => &[ANYCAST_ADDR, SECONDARY_ANYCAST],
            _ => &[ANYCAST_ADDR],
        }
    }

    /// Builds the topology into `sim`: adds the nodes, connects links,
    /// and computes and installs route tables. `neutralizers` holds one
    /// [`NeutralizerNode`] per [`TopologySpec::neut_addrs`] entry, in
    /// that order; a multihomed destination's providers must share one
    /// master key so sessions survive failover (the neutralizers are
    /// stateless, §3). The `link` axis is lowered onto the bottleneck's
    /// forward direction only (the return path keeps the native wire, so
    /// degradation is attributable). `probe` optionally attaches the
    /// measurement plane (see [`ProbePlane`]).
    pub fn build(
        &self,
        sim: &mut Simulator,
        src_node: Box<dyn Node>,
        neutralizers: Vec<Box<dyn Node>>,
        dst_node: Box<dyn Node>,
        link: &LinkProfileSpec,
        probe: Option<ProbePlane>,
    ) -> BuiltTopology {
        assert_eq!(
            neutralizers.len(),
            self.neut_addrs().len(),
            "{} takes one neutralizer per provider",
            self.name()
        );
        let mut providers = neutralizers.into_iter();
        let mut provider = || providers.next().expect("one neutralizer per provider");
        let mut wired = match self.path() {
            Some(path) => path.wire(sim, src_node, provider(), dst_node, link),
            None => multihomed(sim, src_node, provider(), provider(), dst_node, link),
        };
        let routers = &wired.built.routers;
        let (first, last) = (routers[0], routers[routers.len() - 1]);
        let neut = wired.neuts[0];
        let advertised = &mut wired.built.advertised;
        match *self {
            TopologySpec::Dumbbell { background_flows } => {
                // One stub customer off each access router, and near-side
                // cross traffic flooding the far-side stub, across the
                // bottleneck.
                let leaf_l = sim.add_node("leaf-l", Box::new(SinkNode::new()));
                let leaf_r = sim.add_node("leaf-r", Box::new(SinkNode::new()));
                sim.connect_sym(first, leaf_l, edge_link());
                sim.connect_sym(last, leaf_r, edge_link());
                advertised.push((stub_prefix(1), leaf_l));
                advertised.push((stub_prefix(2), leaf_r));
                attach_background(sim, background_flows, first, advertised);
            }
            TopologySpec::Star => attach_leaves(sim, STAR_SPOKES, first, advertised),
            TopologySpec::Metro {
                spokes,
                ref population,
            } => {
                attach_leaves(sim, spokes, first, advertised);
                // The population plane: every cohort multiplexed behind
                // one node on a fat access link into the hub, its sink
                // on a fat link inside the neutral domain. Population
                // frames cross the hub (the discriminator) and the
                // bottleneck uplink like any foreground flow.
                let models = population.models();
                let sink = PopulationSinkNode::for_models(&models);
                let pop = sim.add_node(
                    "pop",
                    Box::new(PopulationNode::new(
                        POP_ADDR,
                        POP_SINK_ADDR,
                        APP_PORT,
                        models,
                    )),
                );
                sim.connect_sym(first, pop, pop_edge_link());
                let pop_sink = sim.add_node("pop-sink", Box::new(sink));
                sim.connect_sym(neut, pop_sink, pop_edge_link());
                advertised.push((Ipv4Cidr::new(POP_ADDR, 24), pop));
                advertised.push((Ipv4Cidr::new(POP_SINK_ADDR, 24), pop_sink));
            }
            _ => {}
        }
        wired.finish(sim, probe)
    }

    /// The single-provider path `src — r0 — … — r(k-1) — neut — dst`
    /// this shape is built on; `None` for the §3.5 multihomed fork.
    fn path(&self) -> Option<PathShape> {
        let path = match self {
            // The ISP's hop into the neutral domain is the bottleneck.
            TopologySpec::Chain => PathShape {
                routers: &["isp"],
                hops: vec![edge_link(), backbone_link()],
                bottleneck: 1,
                discriminator: 0,
            },
            // Two access routers joined by the bottleneck; the near one
            // discriminates.
            TopologySpec::Dumbbell { .. } => PathShape {
                routers: &["isp", "core"],
                hops: vec![
                    edge_link(),
                    LinkProfile::new(DUMBBELL_BOTTLENECK_BPS, Duration::from_millis(10)),
                    edge_link(),
                ],
                bottleneck: 1,
                discriminator: 0,
            },
            // The hub discriminates; its uplink into the neutral domain
            // is the bottleneck every spoke contends on.
            TopologySpec::Star | TopologySpec::Metro { .. } => PathShape {
                routers: &["hub"],
                hops: vec![edge_link(), backbone_link()],
                bottleneck: 1,
                discriminator: 0,
            },
            // Per AS, a fast intra-AS hop, then a slow inter-AS one; the
            // last, into the neutral domain, is the bottleneck, and the
            // middle AS's egress discriminates.
            TopologySpec::MultiAs => {
                let intra = LinkProfile::new(LINK_BPS, Duration::from_millis(1));
                PathShape {
                    routers: &["as0-in", "as0-eg", "as1-in", "as1-eg", "as2-in", "as2-eg"],
                    hops: vec![
                        edge_link(),
                        intra.clone(),
                        backbone_link(),
                        intra.clone(),
                        backbone_link(),
                        intra,
                        backbone_link(),
                    ],
                    bottleneck: 6,
                    discriminator: 3,
                }
            }
            TopologySpec::Multihomed => return None,
        };
        Some(path)
    }
}

/// One shape's path `src — r0 — … — r(k-1) — neut — dst`: its routers,
/// one native link profile per hop, the hop that carries the link axis
/// and the router that discriminates.
struct PathShape {
    /// Router names, source side first (`k ≥ 1`).
    routers: &'static [&'static str],
    /// The native profiles of the `k + 1` hops from `src — r0` to
    /// `r(k-1) — neut`; `neut — dst` is an edge link in every shape.
    hops: Vec<LinkProfile>,
    /// Index into `hops` of the hop whose forward direction is impaired.
    bottleneck: usize,
    /// Index into `routers` of the discriminator.
    discriminator: usize,
}

impl PathShape {
    /// Adds the path's nodes in order (source, routers, neutralizer,
    /// destination) and connects its hops, source side first.
    fn wire(
        self,
        sim: &mut Simulator,
        src_node: Box<dyn Node>,
        neut_node: Box<dyn Node>,
        dst_node: Box<dyn Node>,
        link: &LinkProfileSpec,
    ) -> Wired {
        let src = sim.add_node("src", src_node);
        let routers: Vec<NodeId> = self
            .routers
            .iter()
            .map(|&name| sim.add_node(name, Box::new(RouterNode::new(name))))
            .collect();
        let neut = sim.add_node("neut", neut_node);
        let dst = sim.add_node("dst", dst_node);
        let mut bottleneck = None;
        let mut from = src;
        let path = routers.iter().copied().chain([neut]);
        for (hop, (to, native)) in path.zip(self.hops).enumerate() {
            if hop == self.bottleneck {
                let impaired = link.bottleneck_profile(native.clone());
                let (iface, _) = sim.connect(from, to, impaired, native);
                bottleneck = Some((from, iface));
            } else {
                sim.connect_sym(from, to, native);
            }
            from = to;
        }
        sim.connect_sym(neut, dst, edge_link());
        let built = BuiltTopology {
            src,
            dst,
            discriminator: routers[self.discriminator],
            advertised: base_prefixes(src, dst, neut),
            bottleneck: bottleneck.expect("the bottleneck is one of the path's hops"),
            routers,
            prober: None,
            primary_path: Vec::new(),
        };
        Wired {
            built,
            neuts: vec![neut],
        }
    }
}

/// The §3.5 fork: the shared access router `isp` discriminates before
/// the providers split, and the `prov-a → neut` hop carries the link
/// axis (and is what flap timelines target), so failover has something
/// to route around.
fn multihomed(
    sim: &mut Simulator,
    src_node: Box<dyn Node>,
    neut_node: Box<dyn Node>,
    neut_b_node: Box<dyn Node>,
    dst_node: Box<dyn Node>,
    link: &LinkProfileSpec,
) -> Wired {
    let router = |name: &str| Box::new(RouterNode::new(name));
    let src = sim.add_node("src", src_node);
    let isp = sim.add_node("isp", router("isp"));
    let prov_a = sim.add_node("prov-a", router("prov-a"));
    let prov_b = sim.add_node("prov-b", router("prov-b"));
    let neut = sim.add_node("neut", neut_node);
    let neut_b = sim.add_node("neut-b", neut_b_node);
    let dstr = sim.add_node("dstr", router("dstr"));
    let dst = sim.add_node("dst", dst_node);

    sim.connect_sym(src, isp, edge_link());
    sim.connect_sym(isp, prov_a, backbone_link());
    sim.connect_sym(isp, prov_b, backbone_link());
    let impaired = link.bottleneck_profile(backbone_link());
    let (bneck_iface, _) = sim.connect(prov_a, neut, impaired, backbone_link());
    sim.connect_sym(prov_b, neut_b, backbone_link());
    sim.connect_sym(neut, dstr, edge_link());
    sim.connect_sym(neut_b, dstr, edge_link());
    sim.connect_sym(dstr, dst, edge_link());

    let mut advertised = base_prefixes(src, dst, neut);
    advertised.push((Ipv4Cidr::new(SECONDARY_ANYCAST, 24), neut_b));
    let built = BuiltTopology {
        src,
        dst,
        discriminator: isp,
        routers: vec![isp, prov_a, prov_b, dstr],
        advertised,
        bottleneck: (prov_a, bneck_iface),
        prober: None,
        // Cutting off {prov-a, neut} severs isp—prov-a and neut—dstr:
        // the primary provider is unreachable while the secondary path
        // stays intact.
        primary_path: vec![prov_a, neut],
    };
    Wired {
        built,
        neuts: vec![neut, neut_b],
    }
}

/// A shape wired up, before [`Wired::finish`] attaches the probe plane
/// and routes it.
struct Wired {
    /// The topology so far, its routers listed from the source's access
    /// router to the last one before the destination side.
    built: BuiltTopology,
    /// One neutralizer per provider, primary first.
    neuts: Vec<NodeId>,
}

impl Wired {
    /// Attaches the [`ProbePlane`], when there is one: the prober beside
    /// the source's access router and the responder off the last router,
    /// both with their own advertised /24s. Then computes shortest-path
    /// tables over the built graph and installs them on every router and
    /// every neutralizer.
    fn finish(self, sim: &mut Simulator, probe: Option<ProbePlane>) -> BuiltTopology {
        let Wired { mut built, neuts } = self;
        if let Some(plane) = probe {
            let (routers, advertised) = (&built.routers, &mut built.advertised);
            let prober = sim.add_node("prober", plane.prober);
            let responder = sim.add_node("responder", plane.responder);
            sim.connect_sym(routers[0], prober, edge_link());
            sim.connect_sym(routers[routers.len() - 1], responder, edge_link());
            advertised.push((Ipv4Cidr::new(PROBER_ADDR, 24), prober));
            advertised.push((Ipv4Cidr::new(PROBE_SINK_ADDR, 24), responder));
            built.prober = Some(prober);
        }
        let mut tables = compute_routes(sim.edges(), &built.advertised, sim.node_count());
        for &r in &built.routers {
            if let Some(table) = tables.remove(&r) {
                let router = sim.node_mut::<RouterNode>(r).expect("router node");
                router.set_routes(table);
            }
        }
        for &neut in &neuts {
            if let Some(table) = tables.remove(&neut) {
                let neutralizer = sim.node_mut::<NeutralizerNode>(neut);
                neutralizer.expect("neutralizer node").set_routes(table);
            }
        }
        built
    }
}

/// The prefixes every topology advertises, in the legacy order.
fn base_prefixes(src: NodeId, dst: NodeId, neut: NodeId) -> Vec<(Ipv4Cidr, NodeId)> {
    vec![
        (Ipv4Cidr::new(SRC_ADDR, 24), src),
        (DST_PREFIX, dst),
        (Ipv4Cidr::new(ANYCAST_ADDR, 24), neut),
    ]
}

/// A /24 for the i-th stub customer.
fn stub_prefix(i: u8) -> Ipv4Cidr {
    Ipv4Cidr::new(Ipv4Addr::new(10, 200, i, 0), 24)
}

/// Attaches a star's `spokes - 2` stub customers to `hub`, each a sink
/// with its own advertised /24.
fn attach_leaves(
    sim: &mut Simulator,
    spokes: usize,
    hub: NodeId,
    advertised: &mut Vec<(Ipv4Cidr, NodeId)>,
) {
    // The source's and the neutral domain's spokes, plus stub customers
    // on distinct 10.200.i.0/24 prefixes: one u8 octet bounds how many
    // fit.
    assert!((2..=250).contains(&spokes), "{spokes} spokes out of range");
    for i in 0..spokes - 2 {
        let leaf = sim.add_node(format!("leaf{i}"), Box::new(SinkNode::new()));
        sim.connect_sym(hub, leaf, edge_link());
        advertised.push((stub_prefix(i as u8 + 1), leaf));
    }
}

/// Attaches `count` plain bulk customers to the dumbbell's near-side
/// access router `isp`, each pushing cross-traffic across the
/// bottleneck to the far-side stub, and advertises their /24s.
///
/// Each stub is a thin wrapper over one cohort of
/// [`PopulationSpec::background`]: a one-endpoint bulk class (1200-byte
/// frames at 2 Mbit/s) lowered onto a full host stack via
/// [`crate::population::CohortApp`] — the same arrival lattice the
/// `metro` shape runs at population scale. The schedule is produced
/// lazily on the timer clock for as long as the cell runs, and its
/// `BG/CROSS` marker deliberately matches no [`crate::workload`] DPI
/// signature: cross traffic competes for capacity, not for the
/// adversary's classifier.
fn attach_background(
    sim: &mut Simulator,
    count: usize,
    isp: NodeId,
    advertised: &mut Vec<(Ipv4Cidr, NodeId)>,
) {
    assert!(count <= 250, "at most 250 background flows fit the octet");
    // An address inside the far-side stub's `stub_prefix(2)`.
    let target = Ipv4Addr::new(10, 200, 2, 99);
    let population = PopulationSpec::background(count);
    for (i, cohort) in population.cohorts.iter().enumerate() {
        let addr = Ipv4Addr::new(10, 210, i as u8, 1);
        let app = Box::new(cohort.app());
        let node = sim.add_node(
            format!("bg{i}"),
            Box::new(PlainSourceNode::new(addr, target, format!("bg{i}"), app)),
        );
        sim.connect_sym(isp, node, edge_link());
        advertised.push((Ipv4Cidr::new(addr, 24), node));
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use nn_core::neutralizer::NeutralizerConfig;

    /// Every single-valued shape, and the dumbbell without cross traffic.
    fn shapes() -> [TopologySpec; 5] {
        [
            TopologySpec::Chain,
            TopologySpec::Dumbbell {
                background_flows: 0,
            },
            TopologySpec::Star,
            TopologySpec::MultiAs,
            TopologySpec::Multihomed,
        ]
    }

    /// The `metro` matrix's shape.
    fn metro() -> TopologySpec {
        TopologySpec::Metro {
            spokes: 4,
            population: PopulationSpec::metro_default(),
        }
    }

    /// Builds `spec` with sink endpoints, a real neutralizer and a
    /// clean link axis.
    pub(crate) fn build_for_test(spec: &TopologySpec) -> (Simulator, BuiltTopology) {
        build_with_link(spec, &LinkProfileSpec::Clean)
    }

    /// One neutralizer per provider of `spec`, sharing one master key.
    fn providers(spec: &TopologySpec) -> Vec<Box<dyn Node>> {
        let domain = vec![DST_PREFIX];
        let stats_names = ["neutralizer", "neutralizer-b"];
        spec.neut_addrs()
            .iter()
            .zip(stats_names)
            .map(|(&addr, stats_name)| {
                let mut config = NeutralizerConfig::new(addr, domain.clone());
                config.stats_name = stats_name.to_string();
                Box::new(NeutralizerNode::new(config, [7u8; 16])) as Box<dyn Node>
            })
            .collect()
    }

    /// Builds `spec` with sink endpoints and a chosen link axis.
    pub(crate) fn build_with_link(
        spec: &TopologySpec,
        link: &LinkProfileSpec,
    ) -> (Simulator, BuiltTopology) {
        let mut sim = Simulator::new(1);
        let built = spec.build(
            &mut sim,
            Box::new(SinkNode::new()),
            providers(spec),
            Box::new(SinkNode::new()),
            link,
            None,
        );
        (sim, built)
    }

    /// The node that advertises the prefix holding `addr`.
    fn owner(built: &BuiltTopology, addr: Ipv4Addr) -> NodeId {
        let (_, node) = built
            .advertised
            .iter()
            .find(|(prefix, _)| prefix.contains(addr))
            .expect("advertised");
        *node
    }

    /// Every shape attaches the probe plane behind the discriminator:
    /// the prober and responder get routable prefixes, and the path
    /// between them crosses the designated discriminator.
    #[test]
    fn probe_plane_attaches_and_routes_in_every_shape() {
        for spec in shapes() {
            let mut sim = Simulator::new(1);
            let plane = ProbePlane {
                prober: Box::new(SinkNode::new()),
                responder: Box::new(SinkNode::new()),
            };
            let built = spec.build(
                &mut sim,
                Box::new(SinkNode::new()),
                providers(&spec),
                Box::new(SinkNode::new()),
                &LinkProfileSpec::Clean,
                Some(plane),
            );
            let prober = built.prober.expect("prober attached");
            let responder = owner(&built, PROBE_SINK_ADDR);
            assert_eq!(sim.node_name(prober), "prober", "{}", spec.name());
            assert_eq!(sim.node_name(responder), "responder", "{}", spec.name());
            for &r in &built.routers {
                let router = sim.node_ref::<RouterNode>(r).expect("router");
                for addr in [PROBER_ADDR, PROBE_SINK_ADDR] {
                    assert!(
                        router.routes().lookup(addr).is_some(),
                        "{}: router {} has no route to {addr}",
                        spec.name(),
                        sim.node_name(r)
                    );
                }
            }
            // The probe path crosses the discriminator: from the
            // prober's access router, the responder is reached through
            // the network (not via the prober's own edge), and the
            // discriminator itself forwards probe traffic.
            let disc = sim
                .node_ref::<RouterNode>(built.discriminator)
                .expect("discriminator is a router");
            assert!(disc.routes().lookup(PROBE_SINK_ADDR).is_some());
        }
    }

    #[test]
    fn chain_matches_legacy_layout() {
        let (sim, built) = build_for_test(&TopologySpec::Chain);
        assert_eq!(sim.node_count(), 4);
        assert_eq!(sim.node_name(built.src), "src");
        assert_eq!(sim.node_name(built.discriminator), "isp");
        assert_eq!(sim.node_name(owner(&built, ANYCAST_ADDR)), "neut");
        assert_eq!(sim.node_name(built.dst), "dst");
        // Three bidirectional links = six directed edges.
        assert_eq!(sim.edges().count(), 6);
    }

    #[test]
    fn every_generator_routes_src_to_dst_and_anycast() {
        for spec in shapes() {
            let (sim, built) = build_for_test(&spec);
            for &r in &built.routers {
                let router = sim.node_ref::<RouterNode>(r).expect("router");
                for addr in [SRC_ADDR, DST_ADDR, ANYCAST_ADDR] {
                    assert!(
                        router.routes().lookup(addr).is_some(),
                        "{}: router {} has no route to {addr}",
                        spec.name(),
                        sim.node_name(r)
                    );
                }
            }
        }
    }

    #[test]
    fn names_encode_parameters() {
        let names = shapes().map(|spec| spec.name());
        let expected = [
            "chain",
            "dumbbell-5000k",
            "star5",
            "multi-as3-d1",
            "multihomed",
        ];
        assert_eq!(names, expected);
        assert_eq!(
            TopologySpec::Dumbbell {
                background_flows: 2
            }
            .name(),
            "dumbbell-5000k-bg2"
        );
        assert_eq!(metro().name(), "metro4-voip16-20000up+neutral1000-200000uf");
    }

    /// The metro shape carries its population plane into the hub
    /// bottleneck: both cohorts' frames terminate at the sink and fill
    /// their cohorts' flow records, and the plane's prefixes are
    /// routable everywhere.
    #[test]
    fn metro_population_plane_feeds_the_bottleneck() {
        let spec = metro();
        let (mut sim, built) = build_for_test(&spec);
        assert_eq!(sim.node_name(owner(&built, POP_ADDR)), "pop");
        assert_eq!(sim.node_name(owner(&built, POP_SINK_ADDR)), "pop-sink");
        for &r in &built.routers {
            let router = sim.node_ref::<RouterNode>(r).expect("router");
            for addr in [POP_ADDR, POP_SINK_ADDR] {
                assert!(
                    router.routes().lookup(addr).is_some(),
                    "router {} has no route to {addr}",
                    sim.node_name(r)
                );
            }
        }
        sim.run_until(nn_netsim::SimTime::from_millis(500));
        let stats = sim.stats();
        assert_eq!(stats.counter("population.parse_errors"), 0);
        let population = spec.population().expect("metro carries a population");
        for i in 0..population.cohorts.len() {
            let name = population.flow_name(i);
            let flow = stats.flow(&name).expect("cohort flow");
            assert!(flow.rx_packets > 0, "cohort {name} must terminate frames");
        }
        // The fluid cohort models far more frames than it puts on the
        // wire: 1000 endpoints at 5 Hz for 0.5 s ≈ 2500 modeled frames
        // over ~50 wire frames. The VoIP cohort runs packet-accurate, one
        // wire frame per modeled frame.
        let voip = stats.flow("pop0-voip").expect("packet cohort");
        let neutral = stats.flow("pop1-neutral").expect("fluid cohort");
        let neutral_wire = stats.counter("population.wire_rx") - voip.rx_packets;
        assert!(neutral.rx_packets > 10 * neutral_wire);
        let counters = sim.link_counters(built.bottleneck.0, built.bottleneck.1);
        assert!(
            counters.tx_bytes > 50_000,
            "population load must cross the bottleneck: {counters:?}"
        );
    }

    /// Cross-traffic actually crosses the bottleneck: with background
    /// flows attached, the impaired direction carries far more bytes
    /// than the victim path alone would, and the far-side sink sees it.
    #[test]
    fn dumbbell_background_flows_congest_the_bottleneck() {
        let (mut sim, built) = build_for_test(&TopologySpec::Dumbbell {
            background_flows: 2,
        });
        for i in 0..2u8 {
            let bg = owner(&built, Ipv4Addr::new(10, 210, i, 1));
            assert_eq!(sim.node_name(bg), format!("bg{i}"));
        }
        sim.run_until(nn_netsim::SimTime::from_millis(500));
        let counters = sim.link_counters(built.bottleneck.0, built.bottleneck.1);
        // 2 × 2 Mbit/s for 0.5 s ≈ 250 KB offered across the bottleneck.
        assert!(
            counters.tx_bytes > 100_000,
            "bottleneck must carry cross traffic: {counters:?}"
        );
        let leaf_r = owner(&built, Ipv4Addr::new(10, 200, 2, 99));
        assert_eq!(sim.node_name(leaf_r), "leaf-r");
        let sink = sim.node_ref::<SinkNode>(leaf_r).expect("leaf-r sink");
        assert!(sink.rx_frames > 100, "far-side stub receives the flood");
    }

    /// The link axis lands on the designated bottleneck: the lossy-burst
    /// preset drops frames there and counts burst episodes.
    #[test]
    fn link_axis_applies_to_the_bottleneck_direction() {
        for spec in [
            TopologySpec::Chain,
            TopologySpec::Dumbbell {
                background_flows: 2,
            },
            TopologySpec::Star,
            TopologySpec::MultiAs,
        ] {
            let (mut sim, built) = build_with_link(&spec, &LinkProfileSpec::LossyBurst);
            // Push traffic across the bottleneck from its head node.
            for i in 0..200u64 {
                let frame = nn_packet::build_udp(SRC_ADDR, DST_ADDR, 0, 7, 7, &i.to_be_bytes())
                    .expect("frame");
                sim.inject(
                    nn_netsim::SimTime(i * 1_000_000),
                    built.bottleneck.0,
                    // Deliver straight to the head router; it forwards
                    // toward dst over the impaired direction.
                    0,
                    frame,
                );
            }
            sim.run_until(nn_netsim::SimTime::from_secs(2));
            let counters = sim.link_counters(built.bottleneck.0, built.bottleneck.1);
            assert!(
                counters.fault_drops > 0 && counters.burst_episodes > 0,
                "{}: burst loss must act on the bottleneck: {counters:?}",
                spec.name()
            );
        }
    }

    /// The multihomed shape routes both anycast addresses to distinct
    /// providers and names the primary path for partition timelines.
    #[test]
    fn multihomed_routes_both_providers() {
        let (sim, built) = build_for_test(&TopologySpec::Multihomed);
        assert_eq!(built.primary_path.len(), 2);
        assert_eq!(sim.node_name(built.primary_path[1]), "neut");
        let isp = sim
            .node_ref::<RouterNode>(built.discriminator)
            .expect("isp router");
        let via_a = isp.routes().lookup(ANYCAST_ADDR).expect("primary route");
        let via_b = isp
            .routes()
            .lookup(SECONDARY_ANYCAST)
            .expect("secondary route");
        assert_ne!(via_a, via_b, "the providers must fork at the isp");
        assert_eq!(TopologySpec::Multihomed.name(), "multihomed");
        assert_eq!(
            TopologySpec::Multihomed.neut_addrs(),
            vec![ANYCAST_ADDR, SECONDARY_ANYCAST]
        );
        assert_eq!(TopologySpec::Chain.neut_addrs(), vec![ANYCAST_ADDR]);
    }

    /// The topology alone decides how many providers a cell has.
    #[test]
    #[should_panic(expected = "multihomed takes one neutralizer per provider")]
    fn build_rejects_a_provider_count_the_shape_does_not_have() {
        let mut sim = Simulator::new(1);
        TopologySpec::Multihomed.build(
            &mut sim,
            Box::new(SinkNode::new()),
            providers(&TopologySpec::Chain),
            Box::new(SinkNode::new()),
            &LinkProfileSpec::Clean,
            None,
        );
    }
}
