//! Pins "allocation-free in steady state": once a simulation is warm,
//! moving frames touches no heap at all.
//!
//! A counting global allocator tallies every allocation made on the
//! current thread. The topology drives every per-frame path of the
//! population and neutralizer planes through one discriminating router:
//!
//! ```text
//!  pop (packet + fluid cohorts) ─┐                   ┌─ psink (population sink)
//!                                ├─ r1 ── neut ── r2 ┤
//!  outside (shim data + return) ─┘  DPI drop         └─ dsink (data sink, narrow link)
//! ```
//!
//! After a warm-up, a window of simulated time must allocate nothing
//! while it covers population emit (packet and fluid), router forward,
//! policy drop and queue drop, neutralizer transit, data forward and
//! return anonymize, and population-sink ingest.
//!
//! The warm-up is two simulated seconds, past the last growth: the
//! packet cohort's seeded size spread and arrival jitter reach a new
//! peak frame size or frames-in-flight count only now and then, and
//! each one grows the frame pool. After a 0.5 s warm-up the window still
//! allocates twice, both in the population's frame build (one new pooled
//! buffer, one grown); after 1 s it allocates nothing. The run is
//! seeded, so the window sees the same frames on every run.

use nn_core::neutralizer::{NeutralizerConfig, NeutralizerNode};
use nn_crypto::kdf::MasterKey;
use nn_crypto::sealed::AddrSealer;
use nn_netsim::{
    compute_routes, Action, CohortModel, Context, FrameBuf, IfaceId, LinkProfile, MatchExpr, Node,
    NodeId, PolicyEngine, PopulationNode, PopulationSinkNode, QueueKind, RouterNode, Rule, SimTime,
    Simulator, SinkNode,
};
use nn_packet::{build_shim_into, Ipv4Addr, Ipv4Cidr, ShimRepr, ShimType};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
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

const POP: Ipv4Addr = Ipv4Addr::new(10, 0, 1, 1);
const OUTSIDE: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 5);
const ANYCAST: Ipv4Addr = Ipv4Addr::new(198, 18, 0, 1);
const PSINK: Ipv4Addr = Ipv4Addr::new(10, 0, 2, 1);
const DSINK: Ipv4Addr = Ipv4Addr::new(10, 0, 3, 1);
const MASTER_KEY: [u8; 16] = [0x42; 16];
/// An epoch-0 session nonce (top byte = epoch).
const NONCE: u64 = 0x0012_3456_789a_bcde;
const MARKER: &[u8] = b"DPI!";
const TICK: Duration = Duration::from_micros(500);
/// Data packets per tick: more than the narrow `r2 → dsink` link drains
/// in one tick, so r2's queue toward it overflows every burst.
const DATA_BURST: usize = 4;

/// An outside initiator and the inside customer answering it, rolled
/// into one node: every tick it sends a burst of sealed data packets
/// toward the anycast address and one pre-anonymization return packet
/// (spoofing the customer's source address), and it terminates the
/// anonymized returns that come back.
struct ShimTraffic {
    sealed_dst: [u8; 16],
    payload: [u8; 96],
}

impl ShimTraffic {
    fn send(&self, ctx: &mut Context, src: Ipv4Addr, shim: &ShimRepr) {
        let frame =
            ctx.alloc_built(|buf| build_shim_into(buf, src, ANYCAST, 0, shim, &self.payload));
        ctx.send(0, frame.expect("shim frame builds"));
    }
}

impl Node for ShimTraffic {
    fn on_start(&mut self, ctx: &mut Context) {
        ctx.set_timer(Duration::ZERO, 0);
    }

    fn on_timer(&mut self, ctx: &mut Context, _token: u64) {
        let data = ShimRepr {
            shim_type: ShimType::Data,
            flags: 0,
            nonce: NONCE,
            addr_block: self.sealed_dst,
            stamp: None,
        };
        for _ in 0..DATA_BURST {
            self.send(ctx, OUTSIDE, &data);
        }
        let ret = ShimRepr {
            shim_type: ShimType::Return,
            flags: 0,
            nonce: NONCE,
            addr_block: ShimRepr::plain_addr_block(OUTSIDE),
            stamp: None,
        };
        self.send(ctx, DSINK, &ret);
        ctx.set_timer(TICK, 0);
    }

    fn on_packet(&mut self, ctx: &mut Context, _iface: IfaceId, frame: FrameBuf) {
        ctx.recycle(frame);
    }
}

fn cohort(name: &str, endpoints: u64, fluid: bool) -> CohortModel {
    CohortModel {
        name: name.to_string(),
        endpoints,
        interval_ns: 10_000_000,
        frame_bytes: 240,
        size_spread: if fluid { 0 } else { 64 },
        arrival_jitter: !fluid,
        marker: Some(MARKER.to_vec()).filter(|_| !fluid),
        fluid,
    }
}

struct Lab {
    sim: Simulator,
    r1: NodeId,
    r1_to_neut: IfaceId,
    r2: NodeId,
    r2_to_dsink: IfaceId,
    dsink: NodeId,
}

fn build() -> Lab {
    let mut sim = Simulator::new(7);
    let models = vec![cohort("packet", 200, false), cohort("fluid", 100_000, true)];
    let psink_node = PopulationSinkNode::for_models(&models);
    let pop = sim.add_node(
        "pop",
        Box::new(PopulationNode::new(POP, PSINK, 4000, models)),
    );
    let ks = MasterKey::new(MASTER_KEY).derive_ks(NONCE, OUTSIDE.to_u32());
    let outside = sim.add_node(
        "outside",
        Box::new(ShimTraffic {
            sealed_dst: AddrSealer::new(&ks).seal(NONCE, DSINK.to_u32()),
            payload: [0x5a; 96],
        }),
    );
    let r1 = sim.add_node("r1", Box::new(RouterNode::new("r1")));
    let config = NeutralizerConfig::new(
        ANYCAST,
        vec![Ipv4Cidr::new(PSINK, 24), Ipv4Cidr::new(DSINK, 24)],
    );
    let neut = sim.add_node("neut", Box::new(NeutralizerNode::new(config, MASTER_KEY)));
    let r2 = sim.add_node("r2", Box::new(RouterNode::new("r2")));
    let psink = sim.add_node("psink", Box::new(psink_node));
    let dsink = sim.add_node("dsink", Box::new(SinkNode::new()));

    let fast = LinkProfile::new(1_000_000_000, Duration::from_micros(100));
    sim.connect_sym(pop, r1, fast.clone());
    sim.connect_sym(outside, r1, fast.clone());
    let (r1_to_neut, _) = sim.connect_sym(r1, neut, fast.clone());
    sim.connect_sym(neut, r2, fast.clone());
    sim.connect_sym(r2, psink, fast.clone());
    // Four ~170-byte data packets per 500 µs tick against 5 Mbit/s and
    // a 400-byte drop-tail queue: the tail of every burst drops.
    let narrow = LinkProfile::new(5_000_000, Duration::from_micros(100))
        .with_queue(QueueKind::DropTail, 400);
    let (r2_to_dsink, _) = sim.connect(r2, dsink, narrow, fast);

    let prefixes = vec![
        (Ipv4Cidr::new(POP, 24), pop),
        (Ipv4Cidr::new(OUTSIDE, 24), outside),
        (Ipv4Cidr::new(ANYCAST, 32), neut),
        (Ipv4Cidr::new(PSINK, 24), psink),
        (Ipv4Cidr::new(DSINK, 24), dsink),
    ];
    let mut tables = compute_routes(sim.edges(), &prefixes, sim.node_count());
    for r in [r1, r2] {
        let router = sim.node_mut::<RouterNode>(r).unwrap();
        router.set_routes(tables.remove(&r).unwrap());
    }
    let router = sim.node_mut::<RouterNode>(r1).unwrap();
    router.set_policy(PolicyEngine::new().with(Rule::new(
        "dpi",
        MatchExpr::PayloadContains(MARKER.to_vec()),
        Action::Drop { prob: 0.5 },
    )));
    let routes = tables.remove(&neut).unwrap();
    sim.node_mut::<NeutralizerNode>(neut)
        .unwrap()
        .set_routes(routes);
    Lab {
        sim,
        r1,
        r1_to_neut,
        r2,
        r2_to_dsink,
        dsink,
    }
}

/// Every per-frame count the window must move, read between runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Progress {
    packet_tx: u64,
    fluid_tx: u64,
    forwarded: u64,
    policy_drops: u64,
    queue_drops: u64,
    transit: u64,
    data_forwarded: u64,
    return_anonymized: u64,
    packet_ingested: u64,
    fluid_ingested: u64,
    data_delivered: u64,
}

fn progress(lab: &Lab) -> Progress {
    let sim = &lab.sim;
    let counter = |name| sim.stats().counter(name);
    let cohort = |name| sim.stats().flow(name).expect("cohort flow");
    Progress {
        packet_tx: cohort("packet").tx_packets,
        fluid_tx: cohort("fluid").tx_packets,
        forwarded: sim.link_counters(lab.r1, lab.r1_to_neut).tx_frames,
        policy_drops: counter("r1.policy_drop.dpi"),
        queue_drops: sim.link_counters(lab.r2, lab.r2_to_dsink).queue_drops,
        transit: counter("neutralizer.transit"),
        data_forwarded: counter("neutralizer.data_forwarded"),
        return_anonymized: counter("neutralizer.return_anonymized"),
        packet_ingested: cohort("packet").rx_packets,
        fluid_ingested: cohort("fluid").rx_packets,
        data_delivered: sim.node_ref::<SinkNode>(lab.dsink).unwrap().rx_frames,
    }
}

#[test]
fn warm_simulation_moves_frames_without_allocating() {
    let mut lab = build();
    lab.sim.run_until(SimTime::from_secs(2));
    let before = progress(&lab);

    let allocs_before = allocations();
    lab.sim.run_until(SimTime::from_secs(4));
    let allocs = allocations() - allocs_before;

    let after = progress(&lab);
    let moved = |f: fn(&Progress) -> u64| f(&after) - f(&before);
    let window = [
        ("population packet emit", moved(|p| p.packet_tx)),
        ("population fluid emit", moved(|p| p.fluid_tx)),
        ("router forward", moved(|p| p.forwarded)),
        ("router policy drop", moved(|p| p.policy_drops)),
        ("router queue drop", moved(|p| p.queue_drops)),
        ("neutralizer transit", moved(|p| p.transit)),
        ("neutralizer data forward", moved(|p| p.data_forwarded)),
        (
            "neutralizer return anonymize",
            moved(|p| p.return_anonymized),
        ),
        (
            "population sink ingest (packet)",
            moved(|p| p.packet_ingested),
        ),
        (
            "population sink ingest (fluid)",
            moved(|p| p.fluid_ingested),
        ),
        ("data delivery", moved(|p| p.data_delivered)),
    ];
    for (path, frames) in window {
        assert!(frames > 0, "the window never exercised {path}: {window:?}");
    }
    assert_eq!(
        allocs, 0,
        "heap allocations while moving frames in steady state: {window:?}"
    );
}
