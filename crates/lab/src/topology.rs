//! Topology generators — one axis of the experiment matrix.
//!
//! Every generator wires the same four logical endpoints — a source
//! outside the neutral domain, a discriminating ISP router, the
//! neutralizer at the neutral ISP's border, and the destination customer
//! — into a different network shape, built on
//! [`nn_netsim::Simulator::connect`]:
//!
//! * [`TopologySpec::Chain`] — the legacy PR-1 path, generalized to any
//!   hop count with the discriminator at a configurable hop.
//! * [`TopologySpec::Dumbbell`] — two access routers joined by a
//!   bottleneck link, the classic congestion topology.
//! * [`TopologySpec::Star`] — an eyeball-ISP hub with customer spokes;
//!   the hub itself discriminates.
//! * [`TopologySpec::MultiAs`] — a multi-AS path (ingress/egress router
//!   pairs per AS) with the discriminator at a configurable AS egress.
//!
//! Route tables come from [`nn_netsim::compute_routes`] over the built
//! graph, so anycast neutralizer addressing works identically in every
//! shape.
//!
//! Every generator designates one *bottleneck* direction on the victim's
//! forward path and lowers the cell's [`LinkProfileSpec`] onto it, so
//! the link axis degrades the same logical hop in every shape. Dumbbell
//! and star can additionally attach `background_flows` cross-traffic
//! customers — stub hosts pushing bulk traffic over the bottleneck — so
//! congestion-dependent cells (ECN marking, DSCP tiering) have
//! competition to act on.

use crate::hosts::PlainSourceNode;
use crate::link::LinkProfileSpec;
use crate::population::PopulationSpec;
use nn_core::neutralizer::NeutralizerNode;
use nn_netsim::{compute_routes, IfaceId, LinkProfile, Node, NodeId, RouterNode, Simulator};
use nn_packet::{Ipv4Addr, Ipv4Cidr};
use std::time::Duration;

/// The source host's address (outside the neutral domain).
pub const SRC_ADDR: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 10);
/// The destination customer's address (inside the neutral domain).
pub const DST_ADDR: Ipv4Addr = Ipv4Addr::new(10, 7, 0, 99);
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

/// One point on the topology axis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologySpec {
    /// `src — isp0 — … — isp(h-1) — neut — dst`. `hops = 1, disc_hop =
    /// 0` is the paper's single-ISP topology.
    Chain {
        /// Number of ISP routers between source and neutralizer (≥ 1).
        hops: usize,
        /// Which hop discriminates (0-based, `< hops`).
        disc_hop: usize,
    },
    /// Two access routers joined by a bottleneck:
    /// `src — isp =bottleneck= core — neut — dst`, with one stub
    /// customer hanging off each access router. The near-side access
    /// router discriminates.
    Dumbbell {
        /// Bottleneck bandwidth in bits/sec.
        bottleneck_bps: u64,
        /// Cross-traffic customers on the near side, each pushing a
        /// bulk schedule across the bottleneck to the far-side stub.
        background_flows: usize,
    },
    /// An eyeball-ISP hub: the source and `spokes - 2` stub customers
    /// attach directly to the hub, the neutral domain hangs off it. The
    /// hub discriminates.
    Star {
        /// Total spokes including the source and the neutral-domain
        /// branch (≥ 2).
        spokes: usize,
        /// Cross-traffic customers attached as extra spokes, each
        /// pushing a bulk schedule over the hub's uplink into the
        /// neutral domain (toward a dedicated background sink).
        background_flows: usize,
    },
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
    /// A path of autonomous systems, each an ingress/egress router pair
    /// with fast intra-AS and slow inter-AS links. The egress of
    /// `disc_as` discriminates.
    MultiAs {
        /// Number of ASes on the path (≥ 1).
        as_count: usize,
        /// Which AS discriminates (0-based, `< as_count`).
        disc_as: usize,
    },
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
/// discriminator) and the responder on the destination side, so probe
/// trains cross the policy engine exactly like application traffic.
/// Attaching the plane also turns on TTL time-exceeded replies on every
/// router, so hop trains get per-hop timestamps.
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
    /// The neutralizer.
    pub neut: NodeId,
    /// The destination host.
    pub dst: NodeId,
    /// The router carrying the adversary's policy engine.
    pub discriminator: NodeId,
    /// The discriminator's statistics prefix (its node name).
    pub disc_name: String,
    /// Every router added (including the discriminator).
    pub routers: Vec<NodeId>,
    /// Every prefix advertised into routing, with its owner.
    pub advertised: Vec<(Ipv4Cidr, NodeId)>,
    /// The forward direction the link axis impaired, as a
    /// `(node, iface)` pair for [`nn_netsim::Simulator::link_counters`].
    pub bottleneck: (NodeId, IfaceId),
    /// The cross-traffic source nodes (empty without background flows).
    pub background: Vec<NodeId>,
    /// The population plane, when the shape carries one: the
    /// multiplexing [`nn_netsim::PopulationNode`] and its
    /// [`nn_netsim::PopulationSinkNode`].
    pub population: Option<(NodeId, NodeId)>,
    /// The measurement-plane prober, when a [`ProbePlane`] was attached.
    pub prober: Option<NodeId>,
    /// The measurement-plane responder, when a [`ProbePlane`] was
    /// attached.
    pub responder: Option<NodeId>,
    /// The nodes that make up the primary provider's path — the set a
    /// partition timeline cuts off to force multihome failover. Empty
    /// for single-provider shapes.
    pub primary_path: Vec<NodeId>,
}

impl TopologySpec {
    /// The legacy single-ISP chain.
    pub fn chain() -> Self {
        TopologySpec::Chain {
            hops: 1,
            disc_hop: 0,
        }
    }

    /// A dumbbell with a 5 Mbit/s bottleneck and no cross-traffic.
    pub fn dumbbell_default() -> Self {
        TopologySpec::Dumbbell {
            bottleneck_bps: 5_000_000,
            background_flows: 0,
        }
    }

    /// A dumbbell whose bottleneck carries two competing bulk customers
    /// — the shape the congestion-dependent cells are studied on.
    pub fn dumbbell_crossed() -> Self {
        TopologySpec::Dumbbell {
            bottleneck_bps: 5_000_000,
            background_flows: 2,
        }
    }

    /// A five-spoke eyeball-ISP star with no cross-traffic.
    pub fn star_default() -> Self {
        TopologySpec::Star {
            spokes: 5,
            background_flows: 0,
        }
    }

    /// The default metro cell: a four-spoke eyeball star carrying the
    /// default population (a packet-accurate VoIP cohort and a fluid
    /// neutralized bulk cohort).
    pub fn metro_default() -> Self {
        TopologySpec::Metro {
            spokes: 4,
            population: PopulationSpec::metro_default(),
        }
    }

    /// A three-AS path discriminating in the middle AS.
    pub fn multi_as_default() -> Self {
        TopologySpec::MultiAs {
            as_count: 3,
            disc_as: 1,
        }
    }

    /// Stable axis name encoding the shape parameters.
    pub fn name(&self) -> String {
        match *self {
            TopologySpec::Chain {
                hops: 1,
                disc_hop: 0,
            } => "chain".to_string(),
            TopologySpec::Chain { hops, disc_hop } => format!("chain{hops}-d{disc_hop}"),
            // The bottleneck and cross-traffic count are part of the
            // identity: two dumbbells with different parameters must
            // not share a report label (or a baseline).
            TopologySpec::Dumbbell {
                bottleneck_bps,
                background_flows,
            } => format!(
                "dumbbell-{}k{}",
                bottleneck_bps / 1000,
                bg_suffix(background_flows)
            ),
            TopologySpec::Star {
                spokes,
                background_flows,
            } => format!("star{spokes}{}", bg_suffix(background_flows)),
            TopologySpec::Metro {
                spokes,
                ref population,
            } => format!("metro{spokes}-{}", population.token()),
            TopologySpec::MultiAs { as_count, disc_as } => {
                format!("multi-as{as_count}-d{disc_as}")
            }
            TopologySpec::Multihomed => "multihomed".to_string(),
        }
    }

    /// The neutralizer service addresses a destination behind this shape
    /// lists in its `NEUT` record, primary first (§3.5).
    pub fn neut_addrs(&self) -> Vec<Ipv4Addr> {
        match self {
            TopologySpec::Multihomed => vec![ANYCAST_ADDR, SECONDARY_ANYCAST],
            _ => vec![ANYCAST_ADDR],
        }
    }

    /// Builds the topology into `sim`: adds the endpoints and routers,
    /// connects links, computes and installs route tables. `neut_node`
    /// must be a [`NeutralizerNode`] (it receives the neutral domain's
    /// routes). The `link` axis is lowered onto the shape's bottleneck
    /// direction (forward path only — the return path keeps the native
    /// wire, so degradation is attributable). `secondary` is the second
    /// provider's neutralizer node, which must share the primary's master
    /// key so sessions survive failover (the neutralizers are stateless,
    /// §3): required by the [`TopologySpec::Multihomed`] shape, rejected
    /// by every other.
    /// `probe` optionally attaches the measurement plane: the prober
    /// lands beside the source, the responder on the destination side,
    /// and every router answers expired-TTL probes.
    #[allow(clippy::too_many_arguments)]
    pub fn build(
        &self,
        sim: &mut Simulator,
        src_node: Box<dyn Node>,
        neut_node: Box<dyn Node>,
        secondary: Option<Box<dyn Node>>,
        dst_node: Box<dyn Node>,
        link: &LinkProfileSpec,
        probe: Option<ProbePlane>,
    ) -> BuiltTopology {
        assert!(
            secondary.is_none() || matches!(self, TopologySpec::Multihomed),
            "only the multihomed shape takes a secondary provider"
        );
        match *self {
            TopologySpec::Chain { hops, disc_hop } => {
                assert!(hops >= 1, "chain needs at least one ISP hop");
                assert!(disc_hop < hops, "disc_hop out of range");
                let src = sim.add_node("src", src_node);
                let routers: Vec<NodeId> = (0..hops)
                    .map(|i| {
                        let name = if hops == 1 {
                            "isp".to_string()
                        } else {
                            format!("isp{i}")
                        };
                        sim.add_node(name.clone(), Box::new(RouterNode::new(name)))
                    })
                    .collect();
                let neut = sim.add_node("neut", neut_node);
                let dst = sim.add_node("dst", dst_node);

                sim.connect_sym(src, routers[0], edge_link());
                for w in routers.windows(2) {
                    sim.connect_sym(w[0], w[1], backbone_link());
                }
                // The backbone hop into the neutral domain is the
                // chain's bottleneck.
                let last = *routers.last().unwrap();
                let (bneck_iface, _) = sim.connect(
                    last,
                    neut,
                    link.bottleneck_profile(backbone_link()),
                    backbone_link(),
                );
                sim.connect_sym(neut, dst, edge_link());

                let mut advertised = base_prefixes(src, dst, neut);
                let (prober, responder) =
                    attach_probe_plane(sim, probe, routers[0], last, &routers, &mut advertised);
                install_routes(sim, &routers, &[neut], &advertised);
                BuiltTopology {
                    src,
                    neut,
                    dst,
                    discriminator: routers[disc_hop],
                    disc_name: sim.node_name(routers[disc_hop]).to_string(),
                    routers,
                    advertised,
                    bottleneck: (last, bneck_iface),
                    background: Vec::new(),
                    population: None,
                    prober,
                    responder,
                    primary_path: Vec::new(),
                }
            }
            TopologySpec::Dumbbell {
                bottleneck_bps,
                background_flows,
            } => {
                let src = sim.add_node("src", src_node);
                let isp = sim.add_node("isp", Box::new(RouterNode::new("isp")));
                let core = sim.add_node("core", Box::new(RouterNode::new("core")));
                let neut = sim.add_node("neut", neut_node);
                let dst = sim.add_node("dst", dst_node);
                let leaf_l = sim.add_node("leaf-l", Box::new(nn_netsim::SinkNode::new()));
                let leaf_r = sim.add_node("leaf-r", Box::new(nn_netsim::SinkNode::new()));

                sim.connect_sym(src, isp, edge_link());
                let native = LinkProfile::new(bottleneck_bps, Duration::from_millis(10));
                let (bneck_iface, _) =
                    sim.connect(isp, core, link.bottleneck_profile(native.clone()), native);
                sim.connect_sym(core, neut, edge_link());
                sim.connect_sym(neut, dst, edge_link());
                sim.connect_sym(isp, leaf_l, edge_link());
                sim.connect_sym(core, leaf_r, edge_link());

                let mut advertised = base_prefixes(src, dst, neut);
                advertised.push((stub_prefix(1), leaf_l));
                advertised.push((stub_prefix(2), leaf_r));
                // Cross traffic: near-side customers flooding the
                // far-side stub, across the bottleneck.
                let background = attach_background(
                    sim,
                    background_flows,
                    isp,
                    Ipv4Addr::new(10, 200, 2, 99),
                    &mut advertised,
                );
                let (prober, responder) =
                    attach_probe_plane(sim, probe, isp, core, &[isp, core], &mut advertised);
                let routers = vec![isp, core];
                install_routes(sim, &routers, &[neut], &advertised);
                BuiltTopology {
                    src,
                    neut,
                    dst,
                    discriminator: isp,
                    disc_name: "isp".to_string(),
                    routers,
                    advertised,
                    bottleneck: (isp, bneck_iface),
                    background,
                    population: None,
                    prober,
                    responder,
                    primary_path: Vec::new(),
                }
            }
            TopologySpec::Star {
                spokes,
                background_flows,
            } => {
                assert!(spokes >= 2, "star needs the source and neutral spokes");
                // Stub customers get distinct 10.200.i.0/24 prefixes;
                // one u8 octet bounds how many fit.
                assert!(spokes <= 250, "star supports at most 250 spokes");
                let src = sim.add_node("src", src_node);
                let hub = sim.add_node("hub", Box::new(RouterNode::new("hub")));
                let neut = sim.add_node("neut", neut_node);
                let dst = sim.add_node("dst", dst_node);
                sim.connect_sym(src, hub, edge_link());
                // The hub's uplink into the neutral domain is the
                // star's bottleneck.
                let (bneck_iface, _) = sim.connect(
                    hub,
                    neut,
                    link.bottleneck_profile(backbone_link()),
                    backbone_link(),
                );
                sim.connect_sym(neut, dst, edge_link());

                let mut advertised = base_prefixes(src, dst, neut);
                for i in 0..spokes.saturating_sub(2) {
                    let leaf =
                        sim.add_node(format!("leaf{i}"), Box::new(nn_netsim::SinkNode::new()));
                    sim.connect_sym(hub, leaf, edge_link());
                    advertised.push((stub_prefix(i as u8 + 1), leaf));
                }
                // Cross traffic: extra spokes flooding a dedicated sink
                // inside the neutral domain, over the hub's uplink.
                let background = if background_flows > 0 {
                    let bg_sink = sim.add_node("bg-sink", Box::new(nn_netsim::SinkNode::new()));
                    sim.connect_sym(neut, bg_sink, edge_link());
                    advertised.push((Ipv4Cidr::new(Ipv4Addr::new(10, 220, 0, 0), 24), bg_sink));
                    attach_background(
                        sim,
                        background_flows,
                        hub,
                        Ipv4Addr::new(10, 220, 0, 99),
                        &mut advertised,
                    )
                } else {
                    Vec::new()
                };
                let (prober, responder) =
                    attach_probe_plane(sim, probe, hub, hub, &[hub], &mut advertised);
                let routers = vec![hub];
                install_routes(sim, &routers, &[neut], &advertised);
                BuiltTopology {
                    src,
                    neut,
                    dst,
                    discriminator: hub,
                    disc_name: "hub".to_string(),
                    routers,
                    advertised,
                    bottleneck: (hub, bneck_iface),
                    background,
                    population: None,
                    prober,
                    responder,
                    primary_path: Vec::new(),
                }
            }
            TopologySpec::Metro {
                spokes,
                ref population,
            } => {
                assert!(spokes >= 2, "metro needs the source and neutral spokes");
                assert!(spokes <= 250, "metro supports at most 250 spokes");
                let src = sim.add_node("src", src_node);
                let hub = sim.add_node("hub", Box::new(RouterNode::new("hub")));
                let neut = sim.add_node("neut", neut_node);
                let dst = sim.add_node("dst", dst_node);
                sim.connect_sym(src, hub, edge_link());
                // As in the star, the hub's uplink into the neutral
                // domain is the bottleneck every cohort contends on.
                let (bneck_iface, _) = sim.connect(
                    hub,
                    neut,
                    link.bottleneck_profile(backbone_link()),
                    backbone_link(),
                );
                sim.connect_sym(neut, dst, edge_link());

                let mut advertised = base_prefixes(src, dst, neut);
                for i in 0..spokes.saturating_sub(2) {
                    let leaf =
                        sim.add_node(format!("leaf{i}"), Box::new(nn_netsim::SinkNode::new()));
                    sim.connect_sym(hub, leaf, edge_link());
                    advertised.push((stub_prefix(i as u8 + 1), leaf));
                }
                // The population plane: every cohort multiplexed behind
                // one node on a fat access link into the hub, its sink
                // on a fat link inside the neutral domain. Population
                // frames cross the hub (the discriminator) and the
                // bottleneck uplink like any foreground flow.
                let models = population.models();
                let pop = sim.add_node(
                    "pop",
                    Box::new(nn_netsim::PopulationNode::new(
                        POP_ADDR,
                        POP_SINK_ADDR,
                        crate::hosts::APP_PORT,
                        crate::hosts::APP_PORT,
                        0,
                        models.clone(),
                    )),
                );
                sim.connect_sym(hub, pop, pop_edge_link());
                let pop_sink = sim.add_node(
                    "pop-sink",
                    Box::new(nn_netsim::PopulationSinkNode::for_models(&models)),
                );
                sim.connect_sym(neut, pop_sink, pop_edge_link());
                advertised.push((Ipv4Cidr::new(POP_ADDR, 24), pop));
                advertised.push((Ipv4Cidr::new(POP_SINK_ADDR, 24), pop_sink));

                let (prober, responder) =
                    attach_probe_plane(sim, probe, hub, hub, &[hub], &mut advertised);
                let routers = vec![hub];
                install_routes(sim, &routers, &[neut], &advertised);
                BuiltTopology {
                    src,
                    neut,
                    dst,
                    discriminator: hub,
                    disc_name: "hub".to_string(),
                    routers,
                    advertised,
                    bottleneck: (hub, bneck_iface),
                    background: Vec::new(),
                    population: Some((pop, pop_sink)),
                    prober,
                    responder,
                    primary_path: Vec::new(),
                }
            }
            TopologySpec::MultiAs { as_count, disc_as } => {
                assert!(as_count >= 1, "need at least one AS");
                assert!(disc_as < as_count, "disc_as out of range");
                let src = sim.add_node("src", src_node);
                let mut routers = Vec::with_capacity(as_count * 2);
                for i in 0..as_count {
                    for role in ["in", "eg"] {
                        let name = format!("as{i}-{role}");
                        routers.push(sim.add_node(name.clone(), Box::new(RouterNode::new(name))));
                    }
                }
                let neut = sim.add_node("neut", neut_node);
                let dst = sim.add_node("dst", dst_node);

                sim.connect_sym(src, routers[0], edge_link());
                for i in 0..as_count {
                    // Intra-AS: ingress to egress, fast.
                    sim.connect_sym(
                        routers[2 * i],
                        routers[2 * i + 1],
                        LinkProfile::new(LINK_BPS, Duration::from_millis(1)),
                    );
                    // Inter-AS: egress to next ingress, slow.
                    if i + 1 < as_count {
                        sim.connect_sym(routers[2 * i + 1], routers[2 * i + 2], backbone_link());
                    }
                }
                // The last inter-domain hop into the neutral domain is
                // the multi-AS path's bottleneck.
                let last = *routers.last().unwrap();
                let (bneck_iface, _) = sim.connect(
                    last,
                    neut,
                    link.bottleneck_profile(backbone_link()),
                    backbone_link(),
                );
                sim.connect_sym(neut, dst, edge_link());

                let mut advertised = base_prefixes(src, dst, neut);
                let (prober, responder) =
                    attach_probe_plane(sim, probe, routers[0], last, &routers, &mut advertised);
                install_routes(sim, &routers, &[neut], &advertised);
                let discriminator = routers[2 * disc_as + 1];
                BuiltTopology {
                    src,
                    neut,
                    dst,
                    discriminator,
                    disc_name: sim.node_name(discriminator).to_string(),
                    routers,
                    advertised,
                    bottleneck: (last, bneck_iface),
                    background: Vec::new(),
                    population: None,
                    prober,
                    responder,
                    primary_path: Vec::new(),
                }
            }
            TopologySpec::Multihomed => {
                let neut_b_node =
                    secondary.expect("the multihomed shape needs a secondary provider");
                let src = sim.add_node("src", src_node);
                let isp = sim.add_node("isp", Box::new(RouterNode::new("isp")));
                let prov_a = sim.add_node("prov-a", Box::new(RouterNode::new("prov-a")));
                let prov_b = sim.add_node("prov-b", Box::new(RouterNode::new("prov-b")));
                let neut = sim.add_node("neut", neut_node);
                let neut_b = sim.add_node("neut-b", neut_b_node);
                let dstr = sim.add_node("dstr", Box::new(RouterNode::new("dstr")));
                let dst = sim.add_node("dst", dst_node);

                sim.connect_sym(src, isp, edge_link());
                sim.connect_sym(isp, prov_a, backbone_link());
                sim.connect_sym(isp, prov_b, backbone_link());
                // The hop into the primary provider's neutral domain
                // carries the link axis (and is what flap timelines
                // target): failover has something to route around.
                let (bneck_iface, _) = sim.connect(
                    prov_a,
                    neut,
                    link.bottleneck_profile(backbone_link()),
                    backbone_link(),
                );
                sim.connect_sym(prov_b, neut_b, backbone_link());
                sim.connect_sym(neut, dstr, edge_link());
                sim.connect_sym(neut_b, dstr, edge_link());
                sim.connect_sym(dstr, dst, edge_link());

                let mut advertised = base_prefixes(src, dst, neut);
                advertised.push((Ipv4Cidr::new(SECONDARY_ANYCAST, 24), neut_b));
                let (prober, responder) = attach_probe_plane(
                    sim,
                    probe,
                    isp,
                    dstr,
                    &[isp, prov_a, prov_b, dstr],
                    &mut advertised,
                );
                let routers = vec![isp, prov_a, prov_b, dstr];
                install_routes(sim, &routers, &[neut, neut_b], &advertised);
                BuiltTopology {
                    src,
                    neut,
                    dst,
                    discriminator: isp,
                    disc_name: "isp".to_string(),
                    routers,
                    advertised,
                    bottleneck: (prov_a, bneck_iface),
                    background: Vec::new(),
                    population: None,
                    prober,
                    responder,
                    // Cutting off {prov-a, neut} severs isp—prov-a and
                    // neut—dstr: the primary provider is unreachable
                    // while the secondary path stays intact.
                    primary_path: vec![prov_a, neut],
                }
            }
        }
    }
}

/// The prefixes every topology advertises, in the legacy order.
fn base_prefixes(src: NodeId, dst: NodeId, neut: NodeId) -> Vec<(Ipv4Cidr, NodeId)> {
    vec![
        (Ipv4Cidr::new(SRC_ADDR, 24), src),
        (Ipv4Cidr::new(DST_ADDR, 16), dst),
        (Ipv4Cidr::new(ANYCAST_ADDR, 24), neut),
    ]
}

/// A /24 for the i-th stub customer.
fn stub_prefix(i: u8) -> Ipv4Cidr {
    Ipv4Cidr::new(Ipv4Addr::new(10, 200, i, 0), 24)
}

/// Axis-name suffix for cross-traffic counts (empty when none).
fn bg_suffix(background_flows: usize) -> String {
    if background_flows == 0 {
        String::new()
    } else {
        format!("-bg{background_flows}")
    }
}

/// Attaches `count` plain bulk customers to `attach_to`, each pushing
/// cross-traffic toward `target`, and advertises their /24s. Returns
/// the new node ids.
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
    attach_to: NodeId,
    target: Ipv4Addr,
    advertised: &mut Vec<(Ipv4Cidr, NodeId)>,
) -> Vec<NodeId> {
    assert!(count <= 250, "at most 250 background flows fit the octet");
    let population = PopulationSpec::background(count);
    population
        .cohorts
        .iter()
        .enumerate()
        .map(|(i, cohort)| {
            let addr = Ipv4Addr::new(10, 210, i as u8, 1);
            let app = Box::new(cohort.app());
            let node = sim.add_node(
                format!("bg{i}"),
                Box::new(PlainSourceNode::new(addr, target, 0, format!("bg{i}"), app)),
            );
            sim.connect_sym(attach_to, node, edge_link());
            advertised.push((Ipv4Cidr::new(addr, 24), node));
            node
        })
        .collect()
}

/// Attaches a [`ProbePlane`]: the prober beside `near` (the source's
/// access router), the responder off `far` (the last router before the
/// destination side), both with their own advertised /24s, and turns on
/// TTL time-exceeded replies on every router so hop trains measure
/// per-hop delay. Must run before [`install_routes`].
fn attach_probe_plane(
    sim: &mut Simulator,
    plane: Option<ProbePlane>,
    near: NodeId,
    far: NodeId,
    routers: &[NodeId],
    advertised: &mut Vec<(Ipv4Cidr, NodeId)>,
) -> (Option<NodeId>, Option<NodeId>) {
    let Some(plane) = plane else {
        return (None, None);
    };
    let prober = sim.add_node("prober", plane.prober);
    let responder = sim.add_node("responder", plane.responder);
    sim.connect_sym(near, prober, edge_link());
    sim.connect_sym(far, responder, edge_link());
    advertised.push((Ipv4Cidr::new(PROBER_ADDR, 24), prober));
    advertised.push((Ipv4Cidr::new(PROBE_SINK_ADDR, 24), responder));
    for &r in routers {
        sim.node_mut::<RouterNode>(r)
            .expect("router node")
            .enable_ttl_replies();
    }
    (Some(prober), Some(responder))
}

/// Computes shortest-path tables over the built graph and installs them
/// on every router and on every neutralizer.
fn install_routes(
    sim: &mut Simulator,
    routers: &[NodeId],
    neuts: &[NodeId],
    advertised: &[(Ipv4Cidr, NodeId)],
) {
    let tables = compute_routes(sim.edges(), advertised, sim.node_count());
    for &r in routers {
        if let Some(table) = tables.get(&r) {
            sim.node_mut::<RouterNode>(r)
                .expect("router node")
                .set_routes(table.clone());
        }
    }
    for &neut in neuts {
        if let Some(table) = tables.get(&neut) {
            sim.node_mut::<NeutralizerNode>(neut)
                .expect("neutralizer node")
                .set_routes(table.clone());
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use nn_core::neutralizer::NeutralizerConfig;
    use nn_netsim::SinkNode;

    /// Builds `spec` with sink endpoints, a real neutralizer and a
    /// clean link axis.
    pub(crate) fn build_for_test(spec: &TopologySpec) -> (Simulator, BuiltTopology) {
        build_with_link(spec, &LinkProfileSpec::Clean)
    }

    /// The primary neutralizer for `spec`, plus the secondary when the
    /// shape is multihomed; both share one master key.
    fn providers(spec: &TopologySpec) -> (Box<dyn Node>, Option<Box<dyn Node>>) {
        let domain = vec![Ipv4Cidr::new(DST_ADDR, 16)];
        let config = NeutralizerConfig::new(ANYCAST_ADDR, domain.clone());
        let secondary = matches!(spec, TopologySpec::Multihomed).then(|| {
            let mut config_b = NeutralizerConfig::new(SECONDARY_ANYCAST, domain);
            config_b.stats_name = "neutralizer-b".to_string();
            Box::new(NeutralizerNode::new(config_b, [7u8; 16])) as Box<dyn Node>
        });
        (Box::new(NeutralizerNode::new(config, [7u8; 16])), secondary)
    }

    /// Builds `spec` with sink endpoints and a chosen link axis.
    pub(crate) fn build_with_link(
        spec: &TopologySpec,
        link: &LinkProfileSpec,
    ) -> (Simulator, BuiltTopology) {
        let mut sim = Simulator::new(1);
        let (neut, secondary) = providers(spec);
        let built = spec.build(
            &mut sim,
            Box::new(SinkNode::new()),
            neut,
            secondary,
            Box::new(SinkNode::new()),
            link,
            None,
        );
        (sim, built)
    }

    /// Every shape attaches the probe plane behind the discriminator:
    /// the prober and responder get routable prefixes, and the path
    /// between them crosses the designated discriminator.
    #[test]
    fn probe_plane_attaches_and_routes_in_every_shape() {
        for spec in [
            TopologySpec::chain(),
            TopologySpec::Chain {
                hops: 3,
                disc_hop: 1,
            },
            TopologySpec::dumbbell_default(),
            TopologySpec::star_default(),
            TopologySpec::multi_as_default(),
            TopologySpec::Multihomed,
        ] {
            let mut sim = Simulator::new(1);
            let (neut, secondary) = providers(&spec);
            let plane = ProbePlane {
                prober: Box::new(SinkNode::new()),
                responder: Box::new(SinkNode::new()),
            };
            let built = spec.build(
                &mut sim,
                Box::new(SinkNode::new()),
                neut,
                secondary,
                Box::new(SinkNode::new()),
                &LinkProfileSpec::Clean,
                Some(plane),
            );
            let prober = built.prober.expect("prober attached");
            let responder = built.responder.expect("responder attached");
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
        let (sim, built) = build_for_test(&TopologySpec::chain());
        assert_eq!(sim.node_count(), 4);
        assert_eq!(sim.node_name(built.src), "src");
        assert_eq!(sim.node_name(built.discriminator), "isp");
        assert_eq!(sim.node_name(built.neut), "neut");
        assert_eq!(sim.node_name(built.dst), "dst");
        assert_eq!(built.disc_name, "isp");
        // Three bidirectional links = six directed edges.
        assert_eq!(sim.edges().count(), 6);
    }

    #[test]
    fn every_generator_routes_src_to_dst_and_anycast() {
        for spec in [
            TopologySpec::chain(),
            TopologySpec::Chain {
                hops: 3,
                disc_hop: 2,
            },
            TopologySpec::dumbbell_default(),
            TopologySpec::star_default(),
            TopologySpec::multi_as_default(),
            TopologySpec::Multihomed,
        ] {
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
        assert_eq!(TopologySpec::chain().name(), "chain");
        assert_eq!(
            TopologySpec::Chain {
                hops: 4,
                disc_hop: 2
            }
            .name(),
            "chain4-d2"
        );
        assert_eq!(TopologySpec::star_default().name(), "star5");
        assert_eq!(TopologySpec::multi_as_default().name(), "multi-as3-d1");
        assert_eq!(TopologySpec::dumbbell_default().name(), "dumbbell-5000k");
        assert_eq!(
            TopologySpec::dumbbell_crossed().name(),
            "dumbbell-5000k-bg2"
        );
        assert_eq!(
            TopologySpec::Star {
                spokes: 5,
                background_flows: 3
            }
            .name(),
            "star5-bg3"
        );
        assert_ne!(
            TopologySpec::Dumbbell {
                bottleneck_bps: 1_000_000,
                background_flows: 0
            }
            .name(),
            TopologySpec::dumbbell_default().name(),
            "different bottlenecks must not share a label"
        );
        assert_eq!(
            TopologySpec::metro_default().name(),
            "metro4-voip16-20000up+neutral1000-200000uf"
        );
    }

    /// The metro shape carries its population plane into the hub
    /// bottleneck: both cohorts' frames terminate at the sink with
    /// their per-cohort aggregates filled, and the plane's prefixes are
    /// routable everywhere.
    #[test]
    fn metro_population_plane_feeds_the_bottleneck() {
        let (mut sim, built) = build_for_test(&TopologySpec::metro_default());
        let (pop, pop_sink) = built.population.expect("metro carries a population");
        assert_eq!(sim.node_name(pop), "pop");
        assert_eq!(sim.node_name(pop_sink), "pop-sink");
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
        let sink = sim
            .node_ref::<nn_netsim::PopulationSinkNode>(pop_sink)
            .expect("population sink");
        assert_eq!(sink.parse_errors, 0);
        for cohort in sink.cohorts() {
            assert!(
                cohort.rx_packets > 0,
                "cohort {} must terminate frames",
                cohort.name
            );
        }
        // The fluid cohort models far more frames than it puts on the
        // wire: 1000 endpoints at 5 Hz for 0.5 s ≈ 2500 modeled frames
        // over ~50 wire frames.
        let neutral = sink.cohort("pop1-neutral").expect("fluid cohort");
        assert!(neutral.rx_packets > 10 * neutral.wire_frames);
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
        let (mut sim, built) = build_for_test(&TopologySpec::dumbbell_crossed());
        assert_eq!(built.background.len(), 2);
        sim.run_until(nn_netsim::SimTime::from_millis(500));
        let counters = sim.link_counters(built.bottleneck.0, built.bottleneck.1);
        // 2 × 2 Mbit/s for 0.5 s ≈ 250 KB offered across the bottleneck.
        assert!(
            counters.tx_bytes > 100_000,
            "bottleneck must carry cross traffic: {counters:?}"
        );
        let (_, leaf_r_id) = *built
            .advertised
            .iter()
            .find(|(prefix, _)| *prefix == stub_prefix(2))
            .expect("leaf-r advertises its stub prefix");
        let sink = sim
            .node_ref::<nn_netsim::SinkNode>(leaf_r_id)
            .expect("leaf-r sink");
        assert!(sink.rx_frames > 100, "far-side stub receives the flood");
    }

    #[test]
    fn star_background_flows_cross_the_hub_uplink() {
        let spec = TopologySpec::Star {
            spokes: 3,
            background_flows: 2,
        };
        let (mut sim, built) = build_for_test(&spec);
        sim.run_until(nn_netsim::SimTime::from_millis(500));
        let counters = sim.link_counters(built.bottleneck.0, built.bottleneck.1);
        assert!(
            counters.tx_bytes > 100_000,
            "hub uplink must carry cross traffic: {counters:?}"
        );
    }

    /// The link axis lands on the designated bottleneck: a lossy-burst
    /// profile drops frames there and counts burst episodes.
    #[test]
    fn link_axis_applies_to_the_bottleneck_direction() {
        for spec in [
            TopologySpec::chain(),
            TopologySpec::dumbbell_crossed(),
            TopologySpec::Star {
                spokes: 3,
                background_flows: 1,
            },
            TopologySpec::multi_as_default(),
        ] {
            let lossy = LinkProfileSpec::LossyBurst {
                p_enter_bad: 0.2,
                p_exit_bad: 0.2,
                loss_bad: 1.0,
            };
            let (mut sim, built) = build_with_link(&spec, &lossy);
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
                "{}: loss stage must act on the bottleneck: {counters:?}",
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
        assert_eq!(TopologySpec::chain().neut_addrs(), vec![ANYCAST_ADDR]);
    }

    #[test]
    #[should_panic(expected = "disc_hop out of range")]
    fn chain_rejects_out_of_range_discriminator() {
        build_for_test(&TopologySpec::Chain {
            hops: 2,
            disc_hop: 2,
        });
    }
}
