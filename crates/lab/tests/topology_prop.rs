//! Property tests for the topology generators: every shape the axis can
//! produce must be a connected graph whose route tables resolve every
//! advertised host from every router — otherwise a matrix cell would
//! silently measure a black hole instead of a policy.

use nn_core::neutralizer::{NeutralizerConfig, NeutralizerNode};
use nn_lab::link::LinkProfileSpec;
use nn_lab::topology::{
    BuiltTopology, TopologySpec, ANYCAST_ADDR, DST_ADDR, SECONDARY_ANYCAST, SRC_ADDR,
};
use nn_netsim::{Node, RouterNode, Simulator, SinkNode};
use nn_packet::Ipv4Cidr;
use proptest::prelude::*;

/// Builds `spec` with sink endpoints, a real neutralizer (two for the
/// multihomed shape) and a clean link axis.
fn build(spec: &TopologySpec) -> (Simulator, BuiltTopology) {
    let mut sim = Simulator::new(1);
    let config = NeutralizerConfig::new(ANYCAST_ADDR, vec![Ipv4Cidr::new(DST_ADDR, 16)]);
    let neut = Box::new(NeutralizerNode::new(config, [7u8; 16]));
    let secondary = matches!(spec, TopologySpec::Multihomed).then(|| {
        let config_b = NeutralizerConfig::new(SECONDARY_ANYCAST, vec![Ipv4Cidr::new(DST_ADDR, 16)]);
        Box::new(NeutralizerNode::new(config_b, [7u8; 16])) as Box<dyn Node>
    });
    let built = spec.build(
        &mut sim,
        Box::new(SinkNode::new()),
        neut,
        secondary,
        Box::new(SinkNode::new()),
        &LinkProfileSpec::Clean,
        None,
    );
    (sim, built)
}

/// Undirected reachability over the built link graph.
fn connected(sim: &Simulator) -> bool {
    let n = sim.node_count();
    if n == 0 {
        return true;
    }
    let mut adj = vec![Vec::new(); n];
    for (from, _iface, to, _lat) in sim.edges() {
        adj[from].push(to);
        adj[to].push(from);
    }
    let mut seen = vec![false; n];
    let mut stack = vec![0usize];
    seen[0] = true;
    while let Some(u) = stack.pop() {
        for &v in &adj[u] {
            if !seen[v] {
                seen[v] = true;
                stack.push(v);
            }
        }
    }
    seen.into_iter().all(|s| s)
}

/// Checks the generator invariants for one spec.
fn check(spec: &TopologySpec) -> Result<(), TestCaseError> {
    let (sim, built) = build(spec);
    prop_assert!(connected(&sim), "{} is not connected", spec.name());
    prop_assert!(
        built.routers.contains(&built.discriminator),
        "{}: discriminator must be a router",
        spec.name()
    );
    // Every router resolves every advertised prefix — in particular the
    // source, the destination and the neutralizer anycast — so any
    // host pair the matrix wires up has a forwarding path.
    for &r in &built.routers {
        let router = sim.node_ref::<RouterNode>(r).expect("router node");
        prop_assert!(
            !router.routes().is_empty(),
            "{}: router {} has an empty table",
            spec.name(),
            sim.node_name(r)
        );
        for (prefix, owner) in &built.advertised {
            if *owner == r {
                continue;
            }
            prop_assert!(
                router.routes().lookup(prefix.addr).is_some(),
                "{}: router {} cannot resolve {}",
                spec.name(),
                sim.node_name(r),
                prefix
            );
        }
        for addr in [SRC_ADDR, DST_ADDR, ANYCAST_ADDR] {
            prop_assert!(
                router.routes().lookup(addr).is_some(),
                "{}: router {} cannot resolve {addr}",
                spec.name(),
                sim.node_name(r)
            );
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn chains_of_any_length_are_connected_and_routed(
        hops in 1usize..6,
        disc_seed in any::<u64>(),
    ) {
        let disc_hop = (disc_seed % hops as u64) as usize;
        check(&TopologySpec::Chain { hops, disc_hop })?;
    }

    #[test]
    fn stars_of_any_width_are_connected_and_routed(
        spokes in 2usize..8,
        background_flows in 0usize..4,
    ) {
        check(&TopologySpec::Star { spokes, background_flows })?;
    }

    #[test]
    fn multi_as_paths_are_connected_and_routed(
        as_count in 1usize..5,
        disc_seed in any::<u64>(),
    ) {
        let disc_as = (disc_seed % as_count as u64) as usize;
        check(&TopologySpec::MultiAs { as_count, disc_as })?;
    }

    #[test]
    fn dumbbells_are_connected_and_routed(
        bps in 500_000u64..20_000_000,
        background_flows in 0usize..4,
    ) {
        check(&TopologySpec::Dumbbell { bottleneck_bps: bps, background_flows })?;
    }
}

/// The multihomed shape passes the shared invariants, and additionally
/// every router resolves the *secondary* provider's anycast — the
/// forwarding precondition for failover.
#[test]
fn multihomed_is_connected_routed_and_resolves_both_anycasts() {
    let spec = TopologySpec::Multihomed;
    check(&spec).expect("shared topology invariants");
    let (sim, built) = build(&spec);
    for &r in &built.routers {
        let router = sim.node_ref::<RouterNode>(r).expect("router node");
        assert!(
            router.routes().lookup(SECONDARY_ANYCAST).is_some(),
            "router {} cannot resolve the fallback anycast",
            sim.node_name(r)
        );
    }
    assert_eq!(built.primary_path.len(), 2, "prov-a and neut");
}
