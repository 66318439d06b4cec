//! Sim-level regression for the neutralizer's derived-key memo.
//!
//! The memo is a pure performance device: a run with it on must be
//! **byte-identical** — flow metrics, forwarding counters, reply
//! accounting — to a run with it off, while actually serving hits on the
//! data path. Anything the memo changes beyond the hit/miss counters is
//! a correctness bug.

use nn_core::neutralizer::{NeutralizerConfig, NeutralizerNode};
use nn_lab::hosts::{Bootstrap, NeutralizedServerNode, NeutralizedSourceNode};
use nn_lab::link::LinkProfileSpec;
use nn_lab::topology::{TopologySpec, ANYCAST_ADDR, DST_ADDR, DST_PREFIX, SRC_ADDR};
use nn_lab::workload::WorkloadSpec;
use nn_netsim::{Node, SimTime, Simulator};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;

const DURATION: Duration = Duration::from_millis(800);
const RSA_BITS: usize = 320;

/// Everything observable about one run. Float metrics are captured as
/// raw bits so equality means byte-identical, not approximately equal.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    tx_packets: u64,
    rx_packets: u64,
    goodput_bits: u64,
    mean_delay_bits: u64,
    jitter_bits: u64,
    replies: u64,
    verified_return_blocks: u64,
    data_forwarded: u64,
    return_anonymized: u64,
}

/// Memo effectiveness of one run, kept out of [`Outcome`] so the
/// equality assertion compares only behavior the memo must not change.
struct CacheStats {
    hits: u64,
    misses: u64,
}

/// Runs the chain-topology neutralized VoIP cell with the derived-key
/// memo on or off.
fn run_neutralized(key_cache: bool) -> (Outcome, CacheStats) {
    let mut setup_rng = StdRng::seed_from_u64(0x5e7);
    let dest_keypair = Arc::new(nn_crypto::generate_keypair(&mut setup_rng, RSA_BITS));
    let onetime_keypair = Arc::new(nn_crypto::generate_keypair(&mut setup_rng, RSA_BITS));
    let bootstrap = Bootstrap {
        dest: DST_ADDR,
        neutralizers: vec![ANYCAST_ADDR],
        dest_pubkey: dest_keypair.public.clone(),
    };
    let workload = WorkloadSpec::Voip;
    let app = Box::new(workload.app(DURATION));
    let src: Box<dyn Node> = Box::new(NeutralizedSourceNode::new(
        SRC_ADDR,
        bootstrap,
        onetime_keypair,
        workload.name(),
        app,
    ));
    let mut config = NeutralizerConfig::new(ANYCAST_ADDR, vec![DST_PREFIX]);
    config.key_cache = key_cache;
    let neut: Box<dyn Node> = Box::new(NeutralizerNode::new(config, [7u8; 16]));
    let dst: Box<dyn Node> = Box::new(NeutralizedServerNode::new(
        DST_ADDR,
        ANYCAST_ADDR,
        dest_keypair,
    ));
    let mut sim = Simulator::new(11);
    let built = TopologySpec::Chain.build(
        &mut sim,
        src,
        vec![neut],
        dst,
        &LinkProfileSpec::Clean,
        None,
    );
    sim.run_until(SimTime::ZERO + DURATION + Duration::from_millis(500));

    let fs = sim
        .stats()
        .flow(workload.name())
        .expect("workload flow ran");
    let source = sim
        .node_ref::<NeutralizedSourceNode>(built.src)
        .expect("neutralized source");
    let outcome = Outcome {
        tx_packets: fs.tx_packets,
        rx_packets: fs.rx_packets,
        goodput_bits: fs.goodput_bps().to_bits(),
        mean_delay_bits: fs.mean_delay().to_bits(),
        jitter_bits: fs.jitter().to_bits(),
        replies: source.replies,
        verified_return_blocks: source.verified_return_blocks,
        data_forwarded: sim.stats().counter("neutralizer.data_forwarded"),
        return_anonymized: sim.stats().counter("neutralizer.return_anonymized"),
    };
    let cache = CacheStats {
        hits: sim.stats().counter("neutralizer.key_cache_hit"),
        misses: sim.stats().counter("neutralizer.key_cache_miss"),
    };
    (outcome, cache)
}

/// The headline property: the memo changes per-packet cost, never bytes.
#[test]
fn cached_run_is_byte_identical_to_uncached_and_actually_hits() {
    let (cached, cached_stats) = run_neutralized(true);
    let (uncached, uncached_stats) = run_neutralized(false);

    // Identical goodput, delivery, delay, reply and forwarding
    // accounting — the memo is invisible outside the hit counters.
    assert_eq!(cached, uncached, "key memo must not change results");
    assert!(cached.rx_packets > 100, "the flow actually ran");
    assert!(cached.verified_return_blocks > 0, "return path exercised");

    // The cached run served real hits: a flow reuses its (nonce, src)
    // key on every data packet after the first, in both directions.
    assert!(
        cached_stats.hits > 0,
        "steady-state flow must hit the key memo"
    );
    assert!(
        cached_stats.hits > cached_stats.misses,
        "hits {} should dominate misses {}",
        cached_stats.hits,
        cached_stats.misses
    );

    // The memo switched off derives fresh every time and records no hits.
    assert_eq!(uncached_stats.hits, 0);
    assert_eq!(
        uncached_stats.misses,
        cached_stats.hits + cached_stats.misses,
        "every cached-path packet derives fresh when switched off"
    );
}
