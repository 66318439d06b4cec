//! Cross-validation property test for the population engine: a
//! flyweight cohort is *exactly* N real hosts, not an approximation of
//! them.
//!
//! For small cohorts (N ≤ 8) two twin simulations run the same seeded
//! schedules through the same hop structure — a fat access edge into a
//! slow shared bottleneck:
//!
//! * **Population**: one [`nn_netsim::PopulationNode`] multiplexing all
//!   N endpoints, terminated by a [`nn_netsim::PopulationSinkNode`]; the
//!   cohort is one N-endpoint flow in the stats registry.
//! * **Per-host**: N real [`PlainSourceNode`] stacks, one per endpoint,
//!   each driving its own slice of the arrival lattice toward a
//!   [`PlainServerNode`] that keeps full per-flow stats.
//!
//! Population frames carry an 8-byte-longer in-band header (endpoint +
//! represented ids) than app frames, so the per-host flow names are
//! exactly 8 characters longer than the cohort name — wire lengths
//! match byte-for-byte, which makes serialization and queueing delays
//! on the shared bottleneck identical. The cohort's flow record must
//! then equal the merge of the N one-endpoint host flows: counts and
//! the delay histogram exact, mean delay and mean jitter up to
//! float-summation order.

use nn_core::app::AppSource;
use nn_lab::{PlainServerNode, PlainSourceNode};
use nn_netsim::{
    compute_routes, CohortModel, FlowStats, Histogram, LinkProfile, PopulationNode,
    PopulationSinkNode, RouterNode, SimTime, Simulator,
};
use nn_packet::{Ipv4Addr, Ipv4Cidr};
use proptest::prelude::*;
use std::time::Duration;

const SERVER_ADDR: Ipv4Addr = Ipv4Addr::new(10, 0, 200, 1);
const COHORT: &str = "c";

/// One endpoint's slice of the arrival lattice: frame `r` at
/// `offset + r × interval`, the same instants
/// [`nn_netsim::ArrivalClock`] assigns that endpoint.
struct EndpointApp {
    offset_ns: u64,
    interval_ns: u64,
    next_round: u64,
    frame_bytes: usize,
}

impl AppSource for EndpointApp {
    fn poll(&mut self, now: SimTime, out: &mut Vec<u8>) -> bool {
        if self.offset_ns + self.next_round * self.interval_ns > now.as_nanos() {
            return false;
        }
        out.resize(out.len() + self.frame_bytes, b'.');
        self.next_round += 1;
        true
    }

    fn next_wake(&self, _now: SimTime) -> Option<SimTime> {
        Some(SimTime(self.offset_ns + self.next_round * self.interval_ns))
    }
}

/// Fat access edge: so fast that back-to-back lattice arrivals never
/// queue on the population's single edge, keeping it indistinguishable
/// from N private edges.
fn edge() -> LinkProfile {
    LinkProfile::new(1_000_000_000, Duration::from_millis(1))
}

/// Per-endpoint flow name, exactly 8 characters longer than [`COHORT`]
/// so app frames and population frames have identical wire lengths.
fn host_flow(i: u64) -> String {
    format!("{COHORT}-host{i:03}")
}

struct CaseParams {
    endpoints: u64,
    interval_us: u64,
    frame_bytes: usize,
    bottleneck_bps: u64,
    millis: u64,
}

/// The population twin: pop — router — population sink. Returns the
/// cohort's flow record.
fn run_population(p: &CaseParams) -> FlowStats {
    let model = CohortModel {
        name: COHORT.to_string(),
        endpoints: p.endpoints,
        interval_ns: p.interval_us * 1_000,
        frame_bytes: p.frame_bytes,
        size_spread: 0,
        arrival_jitter: false,
        marker: None,
        fluid: false,
    };
    let mut sim = Simulator::new(1);
    let src_addr = Ipv4Addr::new(10, 0, 250, 1);
    let pop = sim.add_node(
        "pop",
        Box::new(PopulationNode::new(
            src_addr,
            SERVER_ADDR,
            nn_lab::hosts::APP_PORT,
            vec![model.clone()],
        )),
    );
    let r = sim.add_node("r", Box::new(RouterNode::new("r")));
    let sink = sim.add_node("sink", Box::new(PopulationSinkNode::for_models(&[model])));
    sim.connect_sym(pop, r, edge());
    sim.connect_sym(
        r,
        sink,
        LinkProfile::new(p.bottleneck_bps, Duration::from_millis(5)),
    );
    let prefixes = vec![
        (Ipv4Cidr::new(src_addr, 24), pop),
        (Ipv4Cidr::new(SERVER_ADDR, 24), sink),
    ];
    let tables = compute_routes(sim.edges(), &prefixes, sim.node_count());
    sim.node_mut::<RouterNode>(r)
        .unwrap()
        .set_routes(tables[&r].clone());
    sim.run_until(SimTime::from_millis(p.millis));
    sim.stats().flow(COHORT).expect("cohort flow").clone()
}

/// Merged per-flow stats of the per-host twin: one source per endpoint,
/// same lattice instants, same wire lengths, same hop structure.
struct MergedHosts {
    tx_packets: u64,
    tx_bytes: u64,
    rx_packets: u64,
    rx_bytes: u64,
    delay_hist: Histogram,
    delay_sum: f64,
    /// Sum over hosts of `jitter() × (rx − 1)`: each host's jitter
    /// mean back to its sum of consecutive-delivery samples.
    jitter_sum: f64,
    /// Jitter samples across hosts: `rx − 1` per host that delivered.
    jitter_samples: u64,
}

fn run_hosts(p: &CaseParams) -> MergedHosts {
    let mut sim = Simulator::new(1);
    let interval_ns = p.interval_us * 1_000;
    let r = sim.add_node("r", Box::new(RouterNode::new("r")));
    let server = sim.add_node("server", Box::new(PlainServerNode::new(SERVER_ADDR)));
    let mut prefixes = vec![(Ipv4Cidr::new(SERVER_ADDR, 24), server)];
    for i in 0..p.endpoints {
        let addr = Ipv4Addr::new(10, 0, i as u8, 1);
        let app = EndpointApp {
            // The lattice phase of endpoint i (same integer division).
            offset_ns: i * interval_ns / p.endpoints,
            interval_ns,
            next_round: 0,
            frame_bytes: p.frame_bytes,
        };
        let host = sim.add_node(
            format!("h{i}"),
            Box::new(PlainSourceNode::new(
                addr,
                SERVER_ADDR,
                host_flow(i),
                Box::new(app),
            )),
        );
        sim.connect_sym(host, r, edge());
        prefixes.push((Ipv4Cidr::new(addr, 24), host));
    }
    sim.connect_sym(
        r,
        server,
        LinkProfile::new(p.bottleneck_bps, Duration::from_millis(5)),
    );
    let tables = compute_routes(sim.edges(), &prefixes, sim.node_count());
    sim.node_mut::<RouterNode>(r)
        .unwrap()
        .set_routes(tables[&r].clone());
    sim.run_until(SimTime::from_millis(p.millis));

    let mut merged = MergedHosts {
        tx_packets: 0,
        tx_bytes: 0,
        rx_packets: 0,
        rx_bytes: 0,
        delay_hist: Histogram::new(),
        delay_sum: 0.0,
        jitter_sum: 0.0,
        jitter_samples: 0,
    };
    for i in 0..p.endpoints {
        if let Some(fs) = sim.stats().flow(&host_flow(i)) {
            merged.tx_packets += fs.tx_packets;
            merged.tx_bytes += fs.tx_bytes;
            merged.rx_packets += fs.rx_packets;
            merged.rx_bytes += fs.rx_bytes;
            merged.delay_hist.merge(&fs.delay_hist);
            merged.delay_sum += fs.mean_delay() * fs.rx_packets as f64;
            let pairs = fs.rx_packets.saturating_sub(1);
            merged.jitter_sum += fs.jitter() * pairs as f64;
            merged.jitter_samples += pairs;
        }
    }
    merged
}

fn check(p: &CaseParams) -> Result<(), TestCaseError> {
    let cohort = run_population(p);
    let hosts = run_hosts(p);

    // Modeled emission is exact: same lattice, same cutoff.
    prop_assert_eq!(cohort.tx_packets, hosts.tx_packets, "tx counts");
    prop_assert_eq!(cohort.tx_bytes, hosts.tx_bytes, "tx bytes");
    // Identical wire lengths through an identical hop structure make
    // delivery (and any in-flight tail at the cutoff) exact too.
    prop_assert_eq!(cohort.rx_packets, hosts.rx_packets, "rx counts");
    prop_assert_eq!(cohort.rx_bytes, hosts.rx_bytes, "rx bytes");
    prop_assert!(cohort.rx_packets > 0, "the case must deliver something");

    // The cohort's delay histogram equals the merged per-flow
    // histograms (buckets depend only on the sample multiset).
    prop_assert_eq!(&cohort.delay_hist, &hosts.delay_hist, "delay histograms");

    // Mean delay and mean jitter only up to float-summation order.
    let host_mean = hosts.delay_sum / hosts.rx_packets as f64;
    prop_assert!(
        (cohort.mean_delay() - host_mean).abs() < 1e-9,
        "mean delay diverged: {} vs {}",
        cohort.mean_delay(),
        host_mean
    );
    let host_jitter = if hosts.jitter_samples == 0 {
        0.0
    } else {
        hosts.jitter_sum / hosts.jitter_samples as f64
    };
    prop_assert!(
        (cohort.jitter() - host_jitter).abs() < 1e-9,
        "mean jitter diverged: {} vs {}",
        cohort.jitter(),
        host_jitter
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A cohort's N-endpoint flow record equals the merged one-endpoint
    /// flows of N real hosts on the same seeded schedules.
    #[test]
    fn cohort_aggregate_equals_merged_real_hosts(
        endpoints in 1u64..9,
        interval_us in 2_000u64..8_000,
        frame_bytes in 64usize..300,
        bottleneck_mbps in 1u64..7,
        millis in 120u64..240,
    ) {
        check(&CaseParams {
            endpoints,
            interval_us,
            frame_bytes,
            bottleneck_bps: bottleneck_mbps * 1_000_000,
            millis,
        })?;
    }
}
