//! One cell of the experiment matrix: a single deterministic simulation
//! of (topology × workload × adversary × host stack) under one seed.
//!
//! The paper's A/B/C comparison is three such cells — `(chain, voip,
//! none, plain)`, `(chain, voip, content-dpi, plain)` and the same with
//! the neutralized stack — which the `paper` named matrix runs.

use crate::adversary::AdversarySpec;
use crate::events::EventTimelineSpec;
use crate::hosts::{
    Bootstrap, NeutralizedServerNode, NeutralizedSourceNode, PlainServerNode, PlainSourceNode,
};
use crate::link::LinkProfileSpec;
use crate::probe::{ProbeNode, ProbeResponderNode, ProbeSummary};
use crate::schema::fields;
use crate::topology::{
    BuiltTopology, ProbePlane, TopologySpec, ANYCAST_ADDR, DST_ADDR, DST_PREFIX, PROBER_ADDR,
    PROBE_SINK_ADDR, SRC_ADDR,
};
use crate::workload::WorkloadSpec;
use nn_core::neutralizer::{NeutralizerConfig, NeutralizerNode, MAX_ONETIME_KEY_BYTES};
use nn_crypto::RsaKeypair;
use nn_netsim::{FlowStats, Histogram, Node, RouterNode, SimTime, Simulator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// Which host stack carries the workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StackKind {
    /// Ordinary UDP; payload and destination visible to the ISP.
    Plain,
    /// The paper's §3.2 neutralized pipeline.
    Neutralized,
}

impl StackKind {
    /// Stable axis name (report column).
    pub fn name(self) -> &'static str {
        match self {
            StackKind::Plain => "plain",
            StackKind::Neutralized => "neutralized",
        }
    }
}

/// One cell: the six experiment axes plus the simulator seed.
#[derive(Debug, Clone)]
pub struct CellSpec {
    /// Network shape.
    pub topology: TopologySpec,
    /// Bottleneck impairment profile.
    pub link: LinkProfileSpec,
    /// Traffic generator.
    pub workload: WorkloadSpec,
    /// Discrimination policy at the topology's discriminator.
    pub adversary: AdversarySpec,
    /// Host stack.
    pub stack: StackKind,
    /// Dynamic-event timeline the network suffers mid-run.
    pub events: EventTimelineSpec,
    /// Whether the edge measurement plane runs alongside the workload
    /// (a differential-pair prober plus a far-side responder; see
    /// [`crate::probe`]).
    pub probes: bool,
    /// Simulator seed; every random choice flows from it.
    pub seed: u64,
}

/// Tuning shared by every cell of a matrix (the non-axis knobs).
/// The default is the paper's setup: 512-bit keys and a 2 s schedule.
#[derive(Debug, Clone)]
pub struct CellTuning {
    /// Length of the send schedule.
    pub duration: Duration,
    /// One-time RSA modulus bits for key setup (the paper uses 512).
    pub onetime_rsa_bits: usize,
    /// End-to-end RSA modulus bits for the destination's published key.
    pub e2e_rsa_bits: usize,
}

impl Default for CellTuning {
    fn default() -> Self {
        CellTuning {
            duration: Duration::from_secs(2),
            onetime_rsa_bits: 512,
            e2e_rsa_bits: 512,
        }
    }
}

impl CellTuning {
    /// Sized for fast test and matrix runs: shorter schedule and smaller
    /// (still paper-plausible) RSA keys.
    pub fn fast() -> Self {
        CellTuning {
            duration: Duration::from_millis(800),
            onetime_rsa_bits: 320,
            e2e_rsa_bits: 320,
        }
    }
}

fields! {
    /// Per-flow results extracted from [`nn_netsim::stats`].
    #[derive(Debug, Clone, Default, PartialEq)]
    pub struct CellFlow: Encode + Decode {
        /// Flow name (the workload's axis name).
        pub flow: String,
        /// Packets sent by the application.
        pub tx_packets: u64,
        /// Packets delivered to the destination app.
        pub rx_packets: u64,
        /// rx/tx ratio.
        pub delivery_ratio: f64,
        /// Application-byte goodput over the delivery window, bits/sec.
        pub goodput_bps: f64,
        /// Mean one-way delay, milliseconds.
        pub mean_delay_ms: f64,
        /// Median one-way delay, milliseconds. Like the other percentile
        /// columns, the upper bound of the delay-histogram bucket holding
        /// the quantile (at most 25 % above the true sample).
        pub p50_delay_ms: f64,
        /// 95th-percentile one-way delay, milliseconds (histogram bound).
        pub p95_delay_ms: f64,
        /// 99th-percentile one-way delay, milliseconds (histogram bound).
        pub p99_delay_ms: f64,
        /// Mean absolute delay variation, milliseconds.
        pub jitter_ms: f64,
        /// Delivered packets that arrived ECN CE-marked.
        pub ce_marks: u64,
    }
}

impl CellFlow {
    /// A flow's row, from its record in the stats registry: the
    /// workload's, or one population cohort's.
    fn from_flow_stats(flow: &str, fs: &FlowStats) -> CellFlow {
        CellFlow {
            flow: flow.to_string(),
            tx_packets: fs.tx_packets,
            rx_packets: fs.rx_packets,
            delivery_ratio: fs.delivery_ratio(),
            goodput_bps: fs.goodput_bps(),
            mean_delay_ms: fs.mean_delay() * 1_000.0,
            p50_delay_ms: delay_quantile_ms(&fs.delay_hist, 0.50),
            p95_delay_ms: delay_quantile_ms(&fs.delay_hist, 0.95),
            p99_delay_ms: delay_quantile_ms(&fs.delay_hist, 0.99),
            jitter_ms: fs.jitter() * 1_000.0,
            ce_marks: fs.ce_marks,
        }
    }
}

/// The `q`-quantile of a nanosecond delay histogram in milliseconds:
/// the holding bucket's upper bound, 0 when the histogram is empty.
fn delay_quantile_ms(delay_hist: &Histogram, q: f64) -> f64 {
    delay_hist.quantile_upper(q) as f64 / 1e6
}

/// The outcome of one cell run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CellReport {
    /// Per-flow accounting: the workload flow first, then one row per
    /// population cohort (sorted by cohort flow name) when the
    /// topology carries a population plane.
    pub flows: Vec<CellFlow>,
    /// Echo replies that made it back to the source.
    pub replies: u64,
    /// Anonymized return blocks that opened to the true destination
    /// (neutralized cells only).
    pub verified_return_blocks: u64,
    /// Frames the discriminator's policy dropped, over all its rules.
    pub policy_drops: u64,
    /// Selected named counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Total simulator events processed.
    pub events: u64,
    /// The measurement plane's evidence (probe-enabled cells only).
    pub probe: Option<ProbeSummary>,
}

impl CellReport {
    /// The forward flow's goodput (the headline number).
    pub fn goodput_bps(&self) -> f64 {
        self.flows.first().map(|f| f.goodput_bps).unwrap_or(0.0)
    }

    /// The forward flow's mean delay in milliseconds.
    pub fn mean_delay_ms(&self) -> f64 {
        self.flows.first().map(|f| f.mean_delay_ms).unwrap_or(0.0)
    }

    /// The forward flow's jitter in milliseconds.
    pub fn jitter_ms(&self) -> f64 {
        self.flows.first().map(|f| f.jitter_ms).unwrap_or(0.0)
    }

    /// The forward flow's 99th-percentile delay in milliseconds.
    pub fn p99_delay_ms(&self) -> f64 {
        self.flows.first().map(|f| f.p99_delay_ms).unwrap_or(0.0)
    }
}

/// Derives 16 deterministic master-key bytes from the cell seed.
fn derive_master_key(seed: u64) -> [u8; 16] {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4d4b_u64);
    rng.gen()
}

/// Seed of every memoized destination keypair (see [`CellKeys`]).
const DEST_KEY_SEED: u64 = 0x5e7;
/// Seed of every memoized one-time source keypair (see [`CellKeys`]).
const ONETIME_KEY_SEED: u64 = 0x07e;

/// The keypairs a neutralized cell runs with: the destination's
/// long-lived end-to-end key, whose public half the source is handed in
/// its §3.1 bootstrap triple, and the source's one-time key for its
/// single key setup (§3.2).
struct CellKeys {
    dest: Arc<RsaKeypair>,
    onetime: Arc<RsaKeypair>,
}

impl CellKeys {
    /// The process-wide keys for `tuning`'s modulus sizes. Each (role,
    /// bits) keypair is minted once per process from its role's fixed
    /// seed, so every cell — on any thread, shard or host — runs with
    /// the same key bytes. No report depends on them: key sizes shape
    /// the wire, key bytes do not (a unit test pins this per cell).
    ///
    /// # Panics
    ///
    /// When `tuning`'s one-time key is longer than the neutralizer
    /// serves: every key setup of the cell would be refused, and it
    /// would report zero delivery instead of failing.
    fn memoized(tuning: &CellTuning) -> CellKeys {
        assert!(
            tuning.onetime_rsa_bits.div_ceil(8) <= MAX_ONETIME_KEY_BYTES,
            "a {}-bit one-time key is over the neutralizer's {}-byte cap",
            tuning.onetime_rsa_bits,
            MAX_ONETIME_KEY_BYTES
        );
        CellKeys {
            dest: memoized_keypair(DEST_KEY_SEED, tuning.e2e_rsa_bits),
            onetime: memoized_keypair(ONETIME_KEY_SEED, tuning.onetime_rsa_bits),
        }
    }
}

/// The keypair `generate_keypair(StdRng::seed_from_u64(seed), bits)`,
/// minted on first use and shared afterwards. Concurrent first users
/// wait for one keygen rather than each running their own.
fn memoized_keypair(seed: u64, bits: usize) -> Arc<RsaKeypair> {
    static MEMO: Mutex<BTreeMap<(u64, usize), Arc<RsaKeypair>>> = Mutex::new(BTreeMap::new());
    // A keygen that panicked (bad `bits`) inserted nothing, so a
    // poisoned map is still consistent.
    let mut memo = MEMO.lock().unwrap_or_else(PoisonError::into_inner);
    let keypair = memo.entry((seed, bits)).or_insert_with(|| {
        let mut rng = StdRng::seed_from_u64(seed);
        Arc::new(nn_crypto::generate_keypair(&mut rng, bits))
    });
    Arc::clone(keypair)
}

/// Runs one cell to completion and extracts its report.
pub fn run_cell(spec: &CellSpec, tuning: &CellTuning) -> CellReport {
    let mut pool = nn_netsim::FramePool::new();
    run_cell_with_pool(spec, tuning, &mut pool)
}

/// [`run_cell`] with a caller-held frame pool: a matrix worker thread
/// passes the same pool to every cell it runs, so cell N+1's traffic
/// reuses the buffers cell N recycled instead of re-growing a freelist
/// per simulation. Results are identical either way — the pool is an
/// allocator, not state.
pub fn run_cell_with_pool(
    spec: &CellSpec,
    tuning: &CellTuning,
    pool: &mut nn_netsim::FramePool,
) -> CellReport {
    run_cell_keyed(spec, tuning, pool, || CellKeys::memoized(tuning))
}

/// [`run_cell_with_pool`] with the neutralized stack's keypairs taken
/// from `keys`, which only neutralized cells call. Tests use it to run
/// cells with keys other than the memo's.
fn run_cell_keyed(
    spec: &CellSpec,
    tuning: &CellTuning,
    pool: &mut nn_netsim::FramePool,
    keys: impl FnOnce() -> CellKeys,
) -> CellReport {
    let flow = spec.workload.name();
    // Only neutralized cells need keys; plain transports run without.
    let keys = (spec.stack == StackKind::Neutralized).then(keys);

    let mut sim = Simulator::new(spec.seed);
    sim.install_pool(std::mem::take(pool));
    let app = Box::new(spec.workload.app(tuning.duration));

    let src_node: Box<dyn Node> = if let Some(keys) = &keys {
        // §3.1's bootstrap triple, which a deployed source reads from the
        // destination's `NEUT` record. A multihomed destination lists one
        // service address per provider, primary first (§3.5).
        let bootstrap = Bootstrap {
            dest: DST_ADDR,
            neutralizers: spec.topology.neut_addrs().to_vec(),
            dest_pubkey: keys.dest.public.clone(),
        };
        Box::new(NeutralizedSourceNode::new(
            SRC_ADDR,
            bootstrap,
            Arc::clone(&keys.onetime),
            flow,
            app,
        ))
    } else {
        Box::new(PlainSourceNode::new(SRC_ADDR, DST_ADDR, flow, app))
    };
    // One neutralizer per provider the topology has, all sharing the
    // master key (the neutralizers are stateless, §3: any of them can
    // serve any session, which is exactly what makes mid-run failover
    // free). The primary counts under `neutralizer`, the secondary under
    // `neutralizer-b`.
    let master_key = derive_master_key(spec.seed);
    let neutralizers = spec
        .topology
        .neut_addrs()
        .iter()
        .zip(["", "-b"])
        .map(|(&addr, suffix)| {
            let mut config = NeutralizerConfig::new(addr, vec![DST_PREFIX]);
            config.stats_name.push_str(suffix);
            Box::new(NeutralizerNode::new(config, master_key)) as Box<dyn Node>
        })
        .collect();
    // The destination always echoes, so every cell exercises the
    // (anonymized) return path.
    let dst_node: Box<dyn Node> = if let Some(keys) = keys {
        Box::new(NeutralizedServerNode::new(
            DST_ADDR,
            ANYCAST_ADDR,
            keys.dest,
        ))
    } else {
        Box::new(PlainServerNode::new(DST_ADDR))
    };

    // The measurement plane rides beside the workload when the cell asks
    // for it: an edge prober dressed in this workload's DPI marker and a
    // far-side responder, crossing the same discriminator.
    let probe_plane = spec.probes.then(|| ProbePlane {
        prober: Box::new(ProbeNode::new(
            PROBER_ADDR,
            PROBE_SINK_ADDR,
            spec.workload.marker().to_vec(),
            tuning.duration,
        )) as Box<dyn Node>,
        responder: Box::new(ProbeResponderNode::new(PROBE_SINK_ADDR)) as Box<dyn Node>,
    });

    let built: BuiltTopology = spec.topology.build(
        &mut sim,
        src_node,
        neutralizers,
        dst_node,
        &spec.link,
        probe_plane,
    );

    // The discriminatory policy goes on the topology's designated
    // discriminator. The same rules are installed for plain and
    // neutralized cells; whether they can still *match* is exactly what
    // the neutralizer changes.
    let policy = spec.adversary.build(&spec.workload);
    if !policy.is_empty() {
        sim.node_mut::<RouterNode>(built.discriminator)
            .expect("discriminator is a router")
            .set_policy(policy);
    }

    // The events axis: lower the preset against the built shape and
    // schedule it in the engine's event queue, where it interleaves
    // deterministically with traffic.
    let timeline = spec.events.lower(&built, tuning.duration);
    if !timeline.is_empty() {
        sim.install_timeline(timeline);
    }

    // Run: schedule length plus grace for handshake and queue drain.
    sim.run_until(SimTime::ZERO + tuning.duration + Duration::from_millis(500));

    // Harvest. The discriminator counts every frame its policy dropped.
    let policy_drops = sim
        .node_ref::<RouterNode>(built.discriminator)
        .expect("discriminator is a router")
        .policy_drops();
    let (replies, verified_return_blocks) = if spec.stack == StackKind::Neutralized {
        let node = sim
            .node_ref::<NeutralizedSourceNode>(built.src)
            .expect("neutralized source");
        (node.replies, node.verified_return_blocks)
    } else {
        let node = sim
            .node_ref::<PlainSourceNode>(built.src)
            .expect("plain source");
        (node.replies, 0)
    };
    // Every nonzero counter its node classed `Reported` (see the
    // `counter_set!` declarations next to each node), e.g.
    // `source.keygens`: the logical keygens per cell, counted although
    // the memo minted the key once per process.
    let mut counters: Vec<(String, u64)> = sim
        .stats()
        .reported()
        .map(|(name, v)| (name.to_string(), v))
        .collect();
    // The bottleneck direction's queue and loss outcomes, so the link
    // axis is observable in every report.
    let bneck = sim.link_counters(built.bottleneck.0, built.bottleneck.1);
    for (name, v) in [
        ("bottleneck.tx_frames", bneck.tx_frames),
        ("bottleneck.queue_drops", bneck.queue_drops),
        ("bottleneck.ce_marks", bneck.ce_marks),
        ("bottleneck.loss_drops", bneck.fault_drops),
        ("bottleneck.burst_episodes", bneck.burst_episodes),
    ] {
        if v > 0 {
            counters.push((name.to_string(), v));
        }
    }
    // The population plane's modeled endpoints, when the cell carries
    // one; its wire and parse counters are registry counters above.
    let population = spec.topology.population();
    let endpoints: u64 = population.map_or(0, |p| p.cohorts.iter().map(|c| c.endpoints).sum());
    if endpoints > 0 {
        counters.push(("population.endpoints".to_string(), endpoints));
    }
    counters.sort();

    // The workload flow's row first (CSV summaries key off the first
    // row), then one row per population cohort, sorted by flow name.
    let mut cohorts: Vec<String> = population.map_or_else(Vec::new, |p| {
        (0..p.cohorts.len()).map(|i| p.flow_name(i)).collect()
    });
    cohorts.sort();
    let mut flows = Vec::with_capacity(1 + cohorts.len());
    for name in std::iter::once(flow).chain(cohorts.iter().map(String::as_str)) {
        if let Some(fs) = sim.stats().flow(name) {
            flows.push(CellFlow::from_flow_stats(name, fs));
        }
    }

    // Probe evidence comes off the prober node itself — never out of
    // flow stats, which the measurement plane leaves untouched.
    let probe = built
        .prober
        .map(|p| sim.node_ref::<ProbeNode>(p).expect("probe node").summary());

    let events = sim.events_processed();
    *pool = sim.take_pool();

    CellReport {
        flows,
        replies,
        verified_return_blocks,
        policy_drops,
        counters,
        events,
        probe,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::to_matrix_cell;

    /// A one-time key one byte over the neutralizer's cap fails the cell
    /// before any keygen, rather than running it with every key setup
    /// refused.
    #[test]
    #[should_panic(expected = "over the neutralizer's 64-byte cap")]
    fn onetime_keys_over_the_cap_fail_loudly() {
        let tuning = CellTuning {
            onetime_rsa_bits: 8 * MAX_ONETIME_KEY_BYTES + 8,
            ..CellTuning::default()
        };
        CellKeys::memoized(&tuning);
    }

    fn cell(adversary: AdversarySpec, stack: StackKind) -> CellSpec {
        CellSpec {
            topology: TopologySpec::Chain,
            link: LinkProfileSpec::Clean,
            workload: WorkloadSpec::Voip,
            adversary,
            stack,
            events: EventTimelineSpec::Static,
            probes: false,
            seed: 7,
        }
    }

    #[test]
    fn baseline_cell_delivers_nearly_everything() {
        let report = run_cell(
            &cell(AdversarySpec::None, StackKind::Plain),
            &CellTuning::fast(),
        );
        let f = &report.flows[0];
        assert!(f.tx_packets >= 100, "CBR schedule ran: {}", f.tx_packets);
        assert!(f.delivery_ratio > 0.99, "neutral network delivers");
        assert_eq!(report.policy_drops, 0);
        assert!(report.replies > 0, "echo path works");
    }

    #[test]
    fn dpi_collapses_plain_and_neutralization_recovers() {
        let tuning = CellTuning::fast();
        let baseline = run_cell(&cell(AdversarySpec::None, StackKind::Plain), &tuning);
        let throttled = run_cell(&cell(AdversarySpec::ContentDpi, StackKind::Plain), &tuning);
        let neutralized = run_cell(
            &cell(AdversarySpec::ContentDpi, StackKind::Neutralized),
            &tuning,
        );
        assert!(throttled.policy_drops > 0, "DPI matched and dropped");
        assert!(throttled.goodput_bps() < baseline.goodput_bps() * 0.6);
        assert_eq!(neutralized.policy_drops, 0, "nothing left to match");
        assert!(neutralized.goodput_bps() > baseline.goodput_bps() * 0.9);
        assert!(neutralized.verified_return_blocks > 0);
    }

    #[test]
    fn address_drop_defeated_by_hidden_destination() {
        let tuning = CellTuning::fast();
        let plain = run_cell(&cell(AdversarySpec::AddressDrop, StackKind::Plain), &tuning);
        let neutralized = run_cell(
            &cell(AdversarySpec::AddressDrop, StackKind::Neutralized),
            &tuning,
        );
        // Plain: every forward packet names the destination — all dropped.
        assert_eq!(plain.flows[0].rx_packets, 0, "censorship is total");
        // Neutralized: the destination address never appears on the wire.
        assert!(neutralized.flows[0].delivery_ratio > 0.9);
        assert_eq!(neutralized.policy_drops, 0);
    }

    /// Every cell of matrix `name` renders the same cell JSON with the
    /// memo's keys as with keys minted per cell from another seed.
    fn assert_reports_do_not_depend_on_key_bytes(name: &str) {
        let spec = crate::matrix::named_matrix(name).expect("named matrix");
        let tuning = &spec.tuning;
        let mut pool = nn_netsim::FramePool::new();
        for mc in spec.iter_cells() {
            let memo = run_cell_with_pool(&mc.cell, tuning, &mut pool);
            let minted = run_cell_keyed(&mc.cell, tuning, &mut pool, || {
                let mut rng = StdRng::seed_from_u64(mc.cell.seed ^ 0x6b65_7973);
                let mut mint = |bits| Arc::new(nn_crypto::generate_keypair(&mut rng, bits));
                CellKeys {
                    dest: mint(tuning.e2e_rsa_bits),
                    onetime: mint(tuning.onetime_rsa_bits),
                }
            });
            let json = |report| to_matrix_cell(&mc, report).to_json(false).render();
            assert_eq!(json(memo), json(minted), "{name} cell {}", mc.index);
        }
    }

    /// Reports do not depend on key bytes, only on key sizes: the
    /// contract that lets every cell share one keypair per (role, bits).
    /// Pinned for every named matrix but the 1152-cell `full`, one
    /// thread per matrix.
    #[test]
    fn reports_do_not_depend_on_key_bytes() {
        std::thread::scope(|scope| {
            for name in crate::matrix::NAMED_MATRICES {
                if name != "full" {
                    scope.spawn(move || assert_reports_do_not_depend_on_key_bytes(name));
                }
            }
        });
    }

    #[test]
    fn same_seed_cells_are_byte_identical() {
        let tuning = CellTuning::fast();
        let spec = cell(AdversarySpec::ContentDpi, StackKind::Neutralized);
        let a = run_cell(&spec, &tuning);
        let b = run_cell(&spec, &tuning);
        assert_eq!(a, b, "one seed must reproduce exactly");
    }

    /// The link axis is live end-to-end: a bursty bottleneck's loss
    /// process surfaces in the report; an ECN-RED bottleneck under
    /// cross-traffic CE-marks frames the destination actually observes.
    #[test]
    fn link_axis_degrades_and_is_observable() {
        let tuning = CellTuning::fast();
        let mk = |link| CellSpec {
            link,
            ..cell(AdversarySpec::None, StackKind::Plain)
        };
        let clean = run_cell(&mk(LinkProfileSpec::Clean), &tuning);
        let lossy = run_cell(&mk(LinkProfileSpec::LossyBurst), &tuning);
        assert!(clean.flows[0].delivery_ratio > 0.99);
        let get = |r: &CellReport, name: &str| {
            r.counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, v)| v)
                .unwrap_or(0)
        };
        assert!(get(&lossy, "bottleneck.burst_episodes") > 0);
        assert_eq!(get(&clean, "bottleneck.loss_drops"), 0);

        let ecn = CellSpec {
            topology: TopologySpec::Dumbbell {
                background_flows: 2,
            },
            link: LinkProfileSpec::EcnRed,
            ..cell(AdversarySpec::None, StackKind::Plain)
        };
        let report = run_cell(&ecn, &tuning);
        assert!(
            get(&report, "bottleneck.ce_marks") > 0,
            "congested RED must mark: {:?}",
            report.counters
        );
        assert!(
            report.flows[0].ce_marks > 0,
            "the destination sees CE-marked deliveries"
        );
    }

    #[test]
    fn star_topology_runs_the_same_comparison() {
        let tuning = CellTuning::fast();
        let mk = |adversary, stack| CellSpec {
            topology: TopologySpec::Star,
            link: LinkProfileSpec::Clean,
            workload: WorkloadSpec::Voip,
            adversary,
            stack,
            events: EventTimelineSpec::Static,
            probes: false,
            seed: 5,
        };
        let baseline = run_cell(&mk(AdversarySpec::None, StackKind::Plain), &tuning);
        let throttled = run_cell(&mk(AdversarySpec::ContentDpi, StackKind::Plain), &tuning);
        assert!(baseline.flows[0].delivery_ratio > 0.99);
        assert!(throttled.goodput_bps() < baseline.goodput_bps() * 0.6);
    }

    /// The probe plane rides alongside the application without touching
    /// its accounting: a probes-on cell reports the same flow metrics as
    /// the probes-off cell, plus differential evidence that catches the
    /// content-DPI discriminator red-handed.
    #[test]
    fn probe_plane_observes_dpi_without_perturbing_the_flow() {
        let tuning = CellTuning::fast();
        let quiet = cell(AdversarySpec::ContentDpi, StackKind::Plain);
        let probed = CellSpec {
            probes: true,
            ..quiet.clone()
        };
        let without = run_cell(&quiet, &tuning);
        let with = run_cell(&probed, &tuning);
        assert!(without.probe.is_none());
        let probe = with.probe.as_ref().expect("probes knob yields a summary");

        // Goodput accounting is untouched by probe traffic: the only
        // flow is still the application's, with the same send schedule.
        // (Delivery may shift by a packet or two — plain probes share
        // the discriminator's token bucket, which is physical contention
        // on the path, not accounting contamination.)
        assert_eq!(with.flows.len(), 1);
        assert_eq!(with.flows[0].flow, "voip");
        assert_eq!(without.flows[0].tx_packets, with.flows[0].tx_packets);
        assert!(
            (without.flows[0].delivery_ratio - with.flows[0].delivery_ratio).abs() < 0.05,
            "probe load must stay a light perturbation: {} vs {}",
            without.flows[0].delivery_ratio,
            with.flows[0].delivery_ratio
        );

        // Differential evidence: the application-lookalike half starves
        // under the DPI throttle while its unclassifiable twin sails.
        assert!(probe.plain_tx >= 10 && probe.plain_tx == probe.neut_tx);
        assert!(probe.neut_delivery() > 0.9, "neut twin unaffected");
        assert!(
            probe.plain_delivery() < probe.neut_delivery() * 0.65,
            "plain {} vs neut {}",
            probe.plain_delivery(),
            probe.neut_delivery()
        );
    }

    #[test]
    fn probe_summary_percentiles_populate_cell_flows() {
        let report = run_cell(
            &cell(AdversarySpec::None, StackKind::Plain),
            &CellTuning::fast(),
        );
        let f = &report.flows[0];
        assert!(f.p50_delay_ms > 0.0 && f.p50_delay_ms <= f.p95_delay_ms);
        assert!(f.p95_delay_ms <= f.p99_delay_ms);

        // Each percentile column is exactly the delay histogram's bucket
        // upper bound. Delays of 1..=100 ms put the nearest-rank p99
        // (99 ms) inside a bucket, so the upper bound differs from the
        // sample itself.
        let mut stats = nn_netsim::Stats::new();
        let voip = stats.flow_id("voip", 1);
        for ms in 1..=100u64 {
            stats.flow_rx(voip, 0, 1, 160, SimTime::ZERO, SimTime::from_millis(ms));
        }
        let fs = stats.flow("voip").unwrap();
        let row = CellFlow::from_flow_stats("voip", fs);
        let upper = |q| fs.delay_hist.quantile_upper(q) as f64 / 1e6;
        assert_eq!(row.p50_delay_ms, upper(0.50));
        assert_eq!(row.p95_delay_ms, upper(0.95));
        assert_eq!(row.p99_delay_ms, upper(0.99));
        assert!(row.p99_delay_ms > 99.0, "bucket bound, not the sample");
    }
}
