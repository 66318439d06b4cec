//! Invariants of the topology presets: every shape a named matrix runs
//! must be a connected graph whose route tables resolve every advertised
//! host from every router — otherwise a matrix cell would silently
//! measure a black hole instead of a policy.

use nn_core::neutralizer::{NeutralizerConfig, NeutralizerNode};
use nn_lab::link::LinkProfileSpec;
use nn_lab::matrix::{named_matrix, NAMED_MATRICES};
use nn_lab::topology::{
    BuiltTopology, TopologySpec, ANYCAST_ADDR, DST_ADDR, DST_PREFIX, SECONDARY_ANYCAST, SRC_ADDR,
};
use nn_netsim::{Node, RouterNode, Simulator, SinkNode};

/// Builds `spec` with sink endpoints, one real neutralizer per provider
/// and a clean link axis.
fn build(spec: &TopologySpec) -> (Simulator, BuiltTopology) {
    let mut sim = Simulator::new(1);
    let neutralizers = spec
        .neut_addrs()
        .iter()
        .map(|&addr| {
            let config = NeutralizerConfig::new(addr, vec![DST_PREFIX]);
            Box::new(NeutralizerNode::new(config, [7u8; 16])) as Box<dyn Node>
        })
        .collect();
    let built = spec.build(
        &mut sim,
        Box::new(SinkNode::new()),
        neutralizers,
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
fn check(spec: &TopologySpec) {
    let (sim, built) = build(spec);
    assert!(connected(&sim), "{} is not connected", spec.name());
    assert!(
        built.routers.contains(&built.discriminator),
        "{}: discriminator must be a router",
        spec.name()
    );
    // Every router resolves every advertised prefix — in particular the
    // source, the destination and the neutralizer anycast — so any
    // host pair the matrix wires up has a forwarding path.
    for &r in &built.routers {
        let router = sim.node_ref::<RouterNode>(r).expect("router node");
        assert!(
            !router.routes().is_empty(),
            "{}: router {} has an empty table",
            spec.name(),
            sim.node_name(r)
        );
        for (prefix, owner) in &built.advertised {
            if *owner == r {
                continue;
            }
            assert!(
                router.routes().lookup(prefix.addr).is_some(),
                "{}: router {} cannot resolve {}",
                spec.name(),
                sim.node_name(r),
                prefix
            );
        }
        for addr in [SRC_ADDR, DST_ADDR, ANYCAST_ADDR] {
            assert!(
                router.routes().lookup(addr).is_some(),
                "{}: router {} cannot resolve {addr}",
                spec.name(),
                sim.node_name(r)
            );
        }
    }
}

/// Every topology of every named matrix passes the shared invariants.
#[test]
fn every_named_topology_is_connected_and_routed() {
    for name in NAMED_MATRICES {
        for topology in &named_matrix(name).expect("named matrix").topologies {
            check(topology);
        }
    }
}

/// The multihomed shape passes the shared invariants, and additionally
/// every router resolves the *secondary* provider's anycast — the
/// forwarding precondition for failover.
#[test]
fn multihomed_is_connected_routed_and_resolves_both_anycasts() {
    let spec = TopologySpec::Multihomed;
    check(&spec);
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
