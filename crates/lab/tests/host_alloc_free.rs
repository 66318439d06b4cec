//! Pins "allocation-free in steady state" for the host stacks: once a
//! cell is warm, the endpoints move app frames without touching the heap.
//!
//! A counting global allocator tallies every allocation made on the
//! current thread (it is per binary, hence this file). Two chain cells
//! run side by side, as `run_cell` builds them: a neutralized source,
//! neutralizer and destination, and a plain source and server. Each
//! source drives an unbounded VoIP lattice, and each server echoes.
//!
//! After a warm-up, a window of simulated time must allocate nothing
//! while the neutralized source seals records into pooled frames, the
//! destination opens them in place and echoes, the source opens the
//! replies, the plain pair sends and echoes, and every delivery and send
//! is counted against its flow.
//!
//! The warm-up confirms the record channel within milliseconds (the
//! envelopes of the first round trip are the one path that still
//! allocates). It runs six simulated seconds, a wide margin: after a
//! 100 ms warm-up the window already allocates nothing.
//!
//! The probe plane is held to the same rule: once warm, the prober
//! builds its differential pairs and the responder echoes them without
//! touching the heap.
//!
//! Every node registers its counters once per cell, so the same
//! allocator also bounds what a counter registration costs.

use nn_core::neutralizer::{NeutralizerConfig, NeutralizerNode};
use nn_lab::hosts::{Bootstrap, NeutralizedServerNode, NeutralizedSourceNode};
use nn_lab::topology::{
    BuiltTopology, ProbePlane, TopologySpec, ANYCAST_ADDR, DST_ADDR, DST_PREFIX, PROBER_ADDR,
    PROBE_SINK_ADDR, SRC_ADDR,
};
use nn_lab::{
    CohortApp, LinkProfileSpec, PlainServerNode, PlainSourceNode, ProbeNode, ProbeResponderNode,
    WorkloadSpec,
};
use nn_netsim::{Node, NodeId, SimTime, Simulator, SinkNode, Stats};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use std::time::Duration;

thread_local! {
    /// Heap allocations (and reallocations) made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    // `try_with`: allocations made while this thread's locals are torn
    // down go uncounted instead of panicking inside the allocator.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// `System`, plus a per-thread count of every allocation it serves.
struct CountingAllocator;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only addition is a bump
// of a const-initialized thread-local `Cell<u64>`, which neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        // SAFETY: `ptr` came from this allocator (hence from `System`)
        // with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator (hence from `System`)
        // with `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

const FLOW: &str = "voip";
const RSA_BITS: usize = 320;

/// The VoIP workload's lattice with no frame limit.
fn unbounded_voip() -> Box<CohortApp> {
    let w = WorkloadSpec::Voip;
    Box::new(CohortApp::new(w.marker(), 5_000_000, 1, 160, u64::MAX))
}

/// One chain cell around the given endpoints, with the probe plane if
/// one is given.
fn chain(
    seed: u64,
    src: Box<dyn Node>,
    dst: Box<dyn Node>,
    probe: Option<ProbePlane>,
) -> (Simulator, BuiltTopology) {
    let config = NeutralizerConfig::new(ANYCAST_ADDR, vec![DST_PREFIX]);
    let neut: Box<dyn Node> = Box::new(NeutralizerNode::new(config, [7u8; 16]));
    let mut sim = Simulator::new(seed);
    let built = TopologySpec::Chain.build(
        &mut sim,
        src,
        vec![neut],
        dst,
        &LinkProfileSpec::Clean,
        probe,
    );
    (sim, built)
}

fn neutralized_cell() -> (Simulator, NodeId, NodeId) {
    let mut rng = StdRng::seed_from_u64(0x5e7);
    let dest = Arc::new(nn_crypto::generate_keypair(&mut rng, RSA_BITS));
    let onetime = Arc::new(nn_crypto::generate_keypair(&mut rng, RSA_BITS));
    let bootstrap = Bootstrap {
        dest: DST_ADDR,
        neutralizers: vec![ANYCAST_ADDR],
        dest_pubkey: dest.public.clone(),
    };
    let src = NeutralizedSourceNode::new(SRC_ADDR, bootstrap, onetime, FLOW, unbounded_voip());
    let dst = NeutralizedServerNode::new(DST_ADDR, ANYCAST_ADDR, dest);
    let (sim, built) = chain(11, Box::new(src), Box::new(dst), None);
    (sim, built.src, built.dst)
}

fn plain_cell() -> (Simulator, NodeId, NodeId) {
    let src = PlainSourceNode::new(SRC_ADDR, DST_ADDR, FLOW, unbounded_voip());
    let dst = PlainServerNode::new(DST_ADDR);
    let (sim, built) = chain(12, Box::new(src), Box::new(dst), None);
    (sim, built.src, built.dst)
}

/// Every per-frame count the window must move, read between runs.
#[derive(Debug, Clone, Copy)]
struct Progress {
    /// Records the neutralized source sealed (its data packets).
    sealed: u64,
    /// Records the destination opened and delivered.
    opened: u64,
    /// Echo replies the neutralized source opened.
    replies: u64,
    neutralized_tx: u64,
    neutralized_rx: u64,
    plain_delivered: u64,
    plain_replies: u64,
    plain_tx: u64,
    plain_rx: u64,
}

/// `(tx_packets, rx_packets)` of the cell's flow.
fn flow_counts(sim: &Simulator) -> (u64, u64) {
    let f = sim.stats().flow(FLOW).expect("flow registered");
    (f.tx_packets, f.rx_packets)
}

fn progress(neut: &(Simulator, NodeId, NodeId), plain: &(Simulator, NodeId, NodeId)) -> Progress {
    let (neutralized_tx, neutralized_rx) = flow_counts(&neut.0);
    let (plain_tx, plain_rx) = flow_counts(&plain.0);
    Progress {
        sealed: neut.0.stats().counter("neutralizer.data_forwarded"),
        opened: neut
            .0
            .node_ref::<NeutralizedServerNode>(neut.2)
            .unwrap()
            .rx_frames,
        replies: neut
            .0
            .node_ref::<NeutralizedSourceNode>(neut.1)
            .unwrap()
            .replies,
        neutralized_tx,
        neutralized_rx,
        plain_delivered: plain
            .0
            .node_ref::<PlainServerNode>(plain.2)
            .unwrap()
            .rx_frames,
        plain_replies: plain
            .0
            .node_ref::<PlainSourceNode>(plain.1)
            .unwrap()
            .replies,
        plain_tx,
        plain_rx,
    }
}

#[test]
fn warm_host_stacks_seal_open_and_echo_without_allocating() {
    let mut neut = neutralized_cell();
    let mut plain = plain_cell();
    let warm = SimTime::from_secs(6);
    neut.0.run_until(warm);
    plain.0.run_until(warm);
    let before = progress(&neut, &plain);
    assert!(before.replies > 0, "the record channel is confirmed");

    let allocs_before = allocations();
    let end = SimTime::from_secs(8);
    neut.0.run_until(end);
    plain.0.run_until(end);
    let allocs = allocations() - allocs_before;

    let after = progress(&neut, &plain);
    let moved = |f: fn(&Progress) -> u64| f(&after) - f(&before);
    let window = [
        ("neutralized source seals records", moved(|p| p.sealed)),
        ("destination opens and echoes", moved(|p| p.opened)),
        ("source opens replies", moved(|p| p.replies)),
        ("neutralized flow_tx", moved(|p| p.neutralized_tx)),
        ("neutralized flow_rx", moved(|p| p.neutralized_rx)),
        ("plain server delivers", moved(|p| p.plain_delivered)),
        ("plain source gets replies", moved(|p| p.plain_replies)),
        ("plain flow_tx", moved(|p| p.plain_tx)),
        ("plain flow_rx", moved(|p| p.plain_rx)),
    ];
    for (path, frames) in window {
        assert!(frames > 0, "the window never exercised {path}: {window:?}");
    }
    assert_eq!(
        allocs, 0,
        "heap allocations while the host stacks ran warm: {window:?}"
    );
}

/// A chain with silent endpoints and the probe plane: two simulated
/// seconds warm, then a two-second window of differential pairs and
/// their echoes that must allocate nothing.
#[test]
fn warm_probe_plane_sends_and_echoes_without_allocating() {
    let marker = WorkloadSpec::Voip.marker().to_vec();
    let plane = ProbePlane {
        prober: Box::new(ProbeNode::new(
            PROBER_ADDR,
            PROBE_SINK_ADDR,
            marker,
            Duration::from_secs(5),
        )),
        responder: Box::new(ProbeResponderNode::new(PROBE_SINK_ADDR)),
    };
    let silent = || Box::new(SinkNode::new());
    let (mut sim, built) = chain(13, silent(), silent(), Some(plane));
    let prober = built.prober.expect("probe plane attached");
    let counts = |sim: &Simulator| {
        let s = sim.node_ref::<ProbeNode>(prober).unwrap().summary();
        let echoed = sim.stats().counter("probe.responder_echoed");
        [s.plain_rx, s.neut_rx, echoed]
    };

    sim.run_until(SimTime::from_secs(2));
    let before = counts(&sim);
    let allocs_before = allocations();
    sim.run_until(SimTime::from_secs(4));
    let allocs = allocations() - allocs_before;
    let after = counts(&sim);

    for (name, (b, a)) in ["plain_rx", "neut_rx", "probe.responder_echoed"]
        .iter()
        .zip(before.iter().zip(&after))
    {
        assert!(
            a > b,
            "the window never moved {name}: {before:?} -> {after:?}"
        );
    }
    assert_eq!(allocs, 0, "heap allocations while the probe plane ran warm");
}

nn_netsim::counter_set! {
    /// A set as large as the neutralizer's: 25 counters.
    struct TwentyFive {
        parse_error: Internal,
        shim_parse_error: Internal,
        transit: Reported,
        shim_transit: Internal,
        emit_parse_error: Internal,
        emit_build_error: Internal,
        no_route: Internal,
        setup_parse_error: Internal,
        setup_bad_pubkey: Internal,
        setup_key_too_long: Internal,
        setup_encrypt_fail: Internal,
        setup_served: Reported,
        data_parse_error: Internal,
        data_expired_epoch: Internal,
        key_cache_hit: Internal,
        key_cache_miss: Internal,
        data_unseal_fail: Internal,
        data_not_customer: Internal,
        data_stamped: Internal,
        data_forwarded: Reported,
        return_parse_error: Internal,
        return_not_customer: Internal,
        return_expired_epoch: Internal,
        return_anonymized: Reported,
        key_rotated: Internal,
    }
}

/// A registration stores each counter name once (shared by its slot and
/// its lookup entry) and spells the set's names in one buffer: at most
/// two allocations per counter the first time, counting the registry's
/// growth, and at most two for the whole set when it registers again
/// (a second node under the same prefix shares the set's counters).
#[test]
fn counter_registration_stores_each_name_once() {
    const COUNTERS: u64 = 25;
    let mut stats = Stats::new();
    let before = allocations();
    let first = TwentyFive::register(&mut stats, "neutralizer");
    let first_allocs = allocations() - before;
    let before = allocations();
    let again = TwentyFive::register(&mut stats, "neutralizer");
    let again_allocs = allocations() - before;

    stats.bump(first.data_forwarded);
    stats.bump(again.data_forwarded);
    assert_eq!(stats.counter("neutralizer.data_forwarded"), 2);
    assert_eq!(stats.counter("neutralizer.key_rotated"), 0);
    assert!(
        first_allocs <= 2 * COUNTERS,
        "registering {COUNTERS} counters took {first_allocs} allocations"
    );
    assert!(
        again_allocs <= 2,
        "registering {COUNTERS} counters again took {again_allocs} allocations"
    );
}
