//! The benchmark suites themselves.
//!
//! Bodies live here, in the library, so every plain `cargo build`
//! compiles them and bench code cannot silently rot. The `nn-bench`
//! binary runs them:
//! `cargo run --release -p nn-bench --bin nn-bench -- --suites NAME`.
//! Iteration counts honor `NN_BENCH_ITERS` (see [`crate::iters`]).

use crate::{bench, header, iters, report_result, BenchResult};
use nn_crypto::kdf::MasterKey;
use nn_crypto::sealed::AddrSealer;
use nn_crypto::{e2e, Aes128, BigUint, Cmac, E2eSession, SealedRecord};
use nn_netsim::SimTime;
use nn_packet::Ipv4Addr;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Name, one-line description and entry point of every suite — the
/// one list `nn-bench --list` prints and `--suites` selects from.
pub const SUITES: [(&str, &str, fn()); 11] = [
    (
        "raw_crypto",
        "AES block, CMAC, CTR keystream, Ks derivation",
        raw_crypto,
    ),
    (
        "key_setup",
        "one-time RSA keygen / e=3 encrypt / CRT decrypt",
        key_setup,
    ),
    (
        "handshake",
        "hybrid end-to-end envelope seal + open",
        handshake,
    ),
    (
        "data_path",
        "neutralizer per-packet work, record channel",
        data_path,
    ),
    (
        "blinding",
        "randomized padding vs raw exponentiation",
        blinding,
    ),
    (
        "ablation_keysetup",
        "one-time key size sweep",
        ablation_keysetup,
    ),
    (
        "ablation_stateless",
        "stateless derivation vs stateful lookup",
        ablation_stateless,
    ),
    (
        "matrix",
        "nn-lab cell runs and full-matrix planning",
        matrix,
    ),
    (
        "link_pipeline",
        "netsim link-impairment pipeline per-frame cost",
        link_pipeline,
    ),
    (
        "population",
        "flyweight-cohort per-endpoint cost, packet vs fluid",
        population,
    ),
    (
        "report",
        "1 MB full-matrix report: JSON render, parse, shard wire decode",
        report,
    ),
];

/// Raw primitive costs: AES block, CMAC, CTR, and the Ks derivation —
/// the per-packet operations of the paper's §4 cost model.
pub fn raw_crypto() {
    header("raw_crypto");
    let n = iters(100_000);

    let aes = Aes128::new(&[0x2b; 16]);
    let mut block = [0x6b; 16];
    bench("aes128_encrypt_block", n, || {
        aes.encrypt_block(black_box(&mut block));
    });

    let mac = Cmac::new(&[0x2b; 16]);
    let msg = [0xa5u8; 64];
    bench("cmac_tag_64B", n, || {
        black_box(mac.tag(black_box(&msg)));
    });

    // The CTR call, eight blocks per batch on AES-NI: the kernel the
    // end-to-end records' GCM runs on.
    let mut payload = vec![0u8; 1500];
    bench("ctr_keystream_1500B", n / 10, || {
        aes.ctr_xor(black_box(7), 0, black_box(&mut payload), None);
    });

    let km = MasterKey::new([0x42; 16]);
    bench("derive_ks", n, || {
        black_box(km.derive_ks(black_box(0xdead_beef), black_box(0x0a00_0001)));
    });
}

/// Key-setup costs (§3.2/§4): one-time RSA keygen (source), the single
/// cheap e=3 encryption (neutralizer), CRT decryption (source again).
pub fn key_setup() {
    header("key_setup");
    let mut rng = StdRng::seed_from_u64(1);
    let kp = nn_crypto::generate_keypair(&mut rng, 512);
    let msg = [0x5a; 24]; // nonce(8) ‖ Ks(16)
    let ct = kp.public.encrypt(&mut rng, &msg).expect("encrypts");

    // 100 iterations, not the pre-ISSUE-10 20: the windowed-sieve keygen
    // lands near 1.5 ms/iter, and prime search has genuinely long-tailed
    // per-iteration cost (a window with a late first prime costs several
    // times the mean), so the CI tolerance gate needs enough iterations
    // to average the tail into a stable mean (~150 ms of work).
    bench("rsa512_keygen_source", iters(100), || {
        black_box(nn_crypto::generate_keypair(&mut rng, 512));
    });
    bench("rsa512_e3_encrypt_neutralizer", iters(10_000), || {
        black_box(kp.public.encrypt(&mut rng, black_box(&msg)).unwrap());
    });
    bench("rsa512_crt_decrypt_source", iters(2_000), || {
        black_box(kp.private.decrypt(black_box(&ct)).unwrap());
    });
}

/// End-to-end handshake cost: the first-packet hybrid envelope (§3.1's
/// black box) sealed to the destination's published key and opened with
/// its private key.
pub fn handshake() {
    header("handshake");
    let mut rng = StdRng::seed_from_u64(2);
    let kp = nn_crypto::generate_keypair(&mut rng, 512);
    let payload = vec![0xc3u8; 160];
    let env = e2e::seal(&mut rng, &kp.public, &payload).expect("seals");

    bench("e2e_envelope_seal_160B", iters(5_000), || {
        black_box(e2e::seal(&mut rng, &kp.public, black_box(&payload)).unwrap());
    });
    bench("e2e_envelope_open_160B", iters(2_000), || {
        black_box(e2e::open(&kp.private, black_box(&env)).unwrap());
    });
}

/// Per-packet data-path cost at the neutralizer (§4): one CMAC key
/// derivation plus one AES block operation per packet, and the
/// record-channel work at the endpoints.
pub fn data_path() {
    header("data_path");
    let n = iters(100_000);
    let km = MasterKey::new([0x11; 16]);
    let ks = km.derive_ks(7, 0x0a00_0001);
    let sealer = AddrSealer::new(&ks);
    let sealed = sealer.seal(7, 0x0a07_0063);

    // The neutralizer's forward-path inner loop: recompute Ks from the
    // packet header, open the sealed destination.
    bench("neutralizer_forward_derive_plus_open", n, || {
        let ks = km.derive_ks(black_box(7), black_box(0x0a00_0001));
        let s = AddrSealer::new(&ks);
        black_box(s.open(7, black_box(&sealed)).unwrap());
    });

    // The return path: derive + seal.
    bench("neutralizer_return_derive_plus_seal", n, || {
        let ks = km.derive_ks(black_box(7), black_box(0x0a00_0001));
        let s = AddrSealer::new(&ks);
        black_box(s.seal(7, black_box(0x0a07_0063)));
    });

    // Endpoint record channel on a 160-byte VoIP frame and a 1200-byte
    // bulk frame, as the host stacks run it: sealed straight into a
    // reused frame buffer, and opened in place. Each open first copies
    // the sealed bytes back in, as a received frame would bring them.
    // Each record is AES-GCM: the in-register CTR kernel, which makes
    // the tag mask in its first batch, and a GHASH that reduces once per
    // eight blocks. The 1200-byte rows are where both pipelines fill.
    let mut tx = E2eSession::new(&ks, true);
    let rx = E2eSession::new(&ks, false);
    let mut frame = Vec::new();
    for len in [160, 1200] {
        let payload = vec![0x77u8; len];
        let mut sealed = Vec::new();
        tx.seal_into(&mut sealed, |buf| buf.extend_from_slice(&payload));
        bench(&format!("e2e_record_seal_{len}B"), n / 10, || {
            frame.clear();
            tx.seal_into(black_box(&mut frame), |buf| {
                buf.extend_from_slice(black_box(&payload))
            });
        });
        let mut received = sealed.clone();
        bench(&format!("e2e_record_open_{len}B"), n / 10, || {
            received.copy_from_slice(&sealed);
            let record = SealedRecord::parse(black_box(&mut received)).unwrap();
            black_box(rx.open_in_place(record).unwrap());
        });
    }

    // The *simulator's* per-frame data-path cost: 1000 UDP frames pushed
    // through two forwarding routers to a sink — engine event handling,
    // link serialization, queueing and router parsing, with no crypto.
    // This is the hot loop the frame pool and the event queue serve;
    // divide ns/iter by 1000 for the per-frame cost. The second
    // run puts a content-DPI throttle on the first router, so most
    // frames die there and each drop bumps its per-rule counter — the
    // discriminating-hub path the counter registry keeps off the heap.
    sim_data_path();
}

/// Blasts 1000 small UDP frames through `src → r1 → r2 → sink`, once
/// with empty policies and once with a DPI throttle on `r1`.
fn sim_data_path() {
    use nn_netsim::{
        compute_routes, Action, Context, IfaceId, LinkProfile, MatchExpr, Node, PolicyEngine,
        RouterNode, Rule, Simulator, SinkNode,
    };
    use nn_packet::{build_udp, Ipv4Cidr};
    use std::time::Duration;

    const FRAMES: u64 = 1000;
    const SRC: Ipv4Addr = Ipv4Addr::new(10, 0, 1, 1);
    const DST: Ipv4Addr = Ipv4Addr::new(10, 0, 2, 1);
    const MARKER: &[u8] = b"VOIP/RTP";

    /// Sends `FRAMES` copies of one prebuilt frame at start, out of
    /// pooled buffers.
    struct Blast {
        template: Vec<u8>,
    }
    impl Node for Blast {
        fn on_start(&mut self, ctx: &mut Context) {
            for _ in 0..FRAMES {
                let pkt = ctx.alloc_copy(&self.template);
                ctx.send(0, pkt);
            }
        }
        fn on_packet(&mut self, ctx: &mut Context, _: IfaceId, frame: nn_netsim::FrameBuf) {
            ctx.recycle(frame);
        }
    }

    let mut payload = MARKER.to_vec();
    payload.resize(100, 0x5a);
    let template = build_udp(SRC, DST, 0, 4000, 4000, &payload).expect("frame builds");
    // A 1 Mbit/s, 1500-byte bucket: about a dozen of the thousand
    // back-to-back frames conform, the rest drop at r1.
    let throttle = || {
        PolicyEngine::new().with(Rule::new(
            "dpi-throttle",
            MatchExpr::PayloadContains(MARKER.to_vec()),
            Action::Throttle {
                rate_bps: 1_000_000,
                burst_bytes: 1500,
            },
        ))
    };
    let mut pool = nn_netsim::FramePool::new();
    let mut run = |dpi: bool| {
        let mut sim = Simulator::new(1);
        sim.install_pool(std::mem::take(&mut pool));
        let src = sim.add_node(
            "src",
            Box::new(Blast {
                template: template.clone(),
            }),
        );
        let r1 = sim.add_node("r1", Box::new(RouterNode::new("r1")));
        let r2 = sim.add_node("r2", Box::new(RouterNode::new("r2")));
        let sink = sim.add_node("sink", Box::new(SinkNode::new()));
        let cfg = LinkProfile::new(1_000_000_000, Duration::from_micros(10));
        sim.connect_sym(src, r1, cfg.clone());
        sim.connect_sym(r1, r2, cfg.clone());
        sim.connect_sym(r2, sink, cfg);
        let prefixes = vec![
            (Ipv4Cidr::new(SRC, 24), src),
            (Ipv4Cidr::new(DST, 24), sink),
        ];
        let tables = compute_routes(sim.edges(), &prefixes, sim.node_count());
        for r in [r1, r2] {
            sim.node_mut::<RouterNode>(r)
                .unwrap()
                .set_routes(tables[&r].clone());
        }
        if dpi {
            sim.node_mut::<RouterNode>(r1)
                .unwrap()
                .set_policy(throttle());
        }
        sim.run_until(nn_netsim::SimTime::from_secs(60));
        let delivered = sim.node_ref::<SinkNode>(sink).unwrap().rx_frames;
        let dropped = sim.stats().counter("r1.policy_drop.dpi-throttle");
        assert_eq!(
            delivered + dropped,
            FRAMES,
            "every frame is delivered or dropped"
        );
        if dpi {
            assert!(dropped > FRAMES * 9 / 10, "the throttle drops most frames");
        } else {
            assert_eq!(delivered, FRAMES, "clean chain delivers everything");
        }
        let n = sim.events_processed();
        pool = sim.take_pool();
        n
    };
    bench("sim_forward_2router_1kframes", iters(50), || {
        black_box(run(false));
    });
    bench("sim_dpi_drop_2router_1kframes", iters(50), || {
        black_box(run(true));
    });
}

/// Randomized-padding cost: every key-setup encryption re-randomizes its
/// PKCS#1-style padding, blinding repeated `(nonce, Ks)` payloads from
/// an observing ISP. Isolates padding + conversion overhead from the raw
/// modular exponentiation.
pub fn blinding() {
    header("blinding");
    let mut rng = StdRng::seed_from_u64(3);
    let kp = nn_crypto::generate_keypair(&mut rng, 512);
    let msg = [0x5a; 24];

    bench("padded_encrypt_512", iters(10_000), || {
        black_box(kp.public.encrypt(&mut rng, black_box(&msg)).unwrap());
    });

    let m = BigUint::from_bytes_be(&[0x7e; 63]);
    bench("raw_encrypt_512", iters(10_000), || {
        black_box(kp.public.encrypt_raw(black_box(&m)).unwrap());
    });
}

/// Key-setup ablation: one-time key size vs source minting cost and
/// neutralizer encryption cost (§3.2 argues the source should pay).
pub fn ablation_keysetup() {
    header("ablation_keysetup");
    let mut rng = StdRng::seed_from_u64(4);
    let msg = [0x5a; 24];

    for bits in [320usize, 512, 768] {
        let kp = nn_crypto::generate_keypair(&mut rng, bits);
        // Post-ISSUE-10 keygen is ~0.6–2.5 ms/iter; prime search's
        // long-tailed per-iteration cost needs ~50+ iterations for a
        // mean the 25% CI gate can rely on (the old 20/5 split dates
        // from when one 768-bit keygen cost ~20 ms).
        bench(
            &format!("keygen_{bits}"),
            iters(if bits > 512 { 50 } else { 100 }),
            || {
                black_box(nn_crypto::generate_keypair(&mut rng, bits));
            },
        );
        bench(&format!("neutralizer_encrypt_{bits}"), iters(5_000), || {
            black_box(kp.public.encrypt(&mut rng, black_box(&msg)).unwrap());
        });
    }
}

/// Stateless-design ablation: recomputing `Ks = CMAC(KM, nonce ‖ srcIP)`
/// per packet versus the hypothetical per-flow table it replaces —
/// quantifying what the anycast/fault-tolerance property costs.
pub fn ablation_stateless() {
    header("ablation_stateless");
    let n = iters(100_000);
    let km = MasterKey::new([0x11; 16]);

    let mut i = 0u64;
    bench("stateless_derive_per_packet", n, || {
        i += 1;
        black_box(km.derive_ks(black_box(i % 1024), black_box(0x0a00_0001)));
    });

    let mut table: HashMap<(u64, u32), [u8; 16]> = HashMap::new();
    for flow in 0..1024u64 {
        table.insert((flow, 0x0a00_0001), km.derive_ks(flow, 0x0a00_0001));
    }
    let mut i = 0u64;
    bench("stateful_lookup_per_packet", n, || {
        i += 1;
        black_box(table.get(&(black_box(i % 1024), black_box(0x0a00_0001))));
    });

    // The production middle ground: the neutralizer's one-entry key
    // memo serving a warm session's hit — a compare and an epoch check,
    // returning a ready AddrSealer (no CMAC, no AES key schedule). This
    // is what the data path actually pays per packet once a session is
    // warm.
    use nn_core::neutralizer::{KeyMemo, MasterKeyEpochs};
    let mut memo = KeyMemo::new(MasterKeyEpochs::new([0x11; 16]), true);
    let src = Ipv4Addr::new(10, 0, 0, 1);
    memo.sealer(7, src);
    bench("key_table_cached_sealer", n, || {
        black_box(memo.sealer(black_box(7), black_box(src)));
    });
}

/// Matrix-engine costs: one plain cell and one neutralized cell end to
/// end, and planning the full matrix. The neutralized cell's keypairs
/// are minted once per process, during warm-up, as in a sweep; its
/// per-packet crypto stays in the timed loop.
pub fn matrix() {
    header("matrix");
    use nn_lab::{
        run_cell, AdversarySpec, CellSpec, CellTuning, EventTimelineSpec, LinkProfileSpec,
        StackKind, TopologySpec, WorkloadSpec,
    };
    use std::time::Duration;

    let tuning = CellTuning {
        duration: Duration::from_millis(200),
        ..CellTuning::fast()
    };
    let plain = CellSpec {
        topology: TopologySpec::chain(),
        link: LinkProfileSpec::Clean,
        workload: WorkloadSpec::voip_default(),
        adversary: AdversarySpec::content_dpi_default(),
        stack: StackKind::Plain,
        events: EventTimelineSpec::Static,
        probes: false,
        seed: 1,
    };
    bench("cell_plain_dpi_200ms", iters(500), || {
        black_box(run_cell(black_box(&plain), &tuning));
    });

    let neutralized = CellSpec {
        stack: StackKind::Neutralized,
        ..plain.clone()
    };
    bench("cell_neutralized_dpi_200ms", iters(100), || {
        black_box(run_cell(black_box(&neutralized), &tuning));
    });

    // Planning-layer cost: lazily expanding the full 1152-cell spec into
    // an 8-shard plan — every cell's axis decomposition, spec clones and
    // FNV seed hash, but none of the simulation. This is the per-shard
    // fixed overhead a worker pays before its first cell runs.
    let full = nn_lab::named_matrix("full").expect("full matrix exists");
    bench("matrix_plan_full_1152cells_8shards", iters(200), || {
        let plan = nn_lab::ExecutionPlan::new(black_box(&full), 8);
        let mut mix = 0u64;
        for assignment in plan.assignments() {
            for cell in assignment.cells(plan.spec()) {
                mix ^= cell.cell.seed;
            }
        }
        black_box(mix);
    });
}

/// The link-pipeline hot path: one simulated link draining 1000
/// back-to-back frames, timed with 0, 1 and 3 impairment stages, so the
/// per-frame cost each stage adds stays visible. Divide the reported ns/iter by 1000 for the per-frame cost.
pub fn link_pipeline() {
    header("link_pipeline");
    use nn_netsim::{
        Context, IfaceId, LinkProfile, LossModel, Node, SimTime, Simulator, SinkNode, StageSpec,
    };
    use std::time::Duration;

    const FRAMES: u64 = 1000;

    /// Sends `FRAMES` small frames back-to-back at start.
    struct Blast;
    impl Node for Blast {
        fn on_start(&mut self, ctx: &mut Context) {
            for seq in 0..FRAMES {
                let pkt = ctx.alloc_copy(&seq.to_be_bytes());
                ctx.send(0, pkt);
            }
        }
        fn on_packet(&mut self, ctx: &mut Context, _: IfaceId, frame: nn_netsim::FrameBuf) {
            ctx.recycle(frame);
        }
    }

    let mut pool = nn_netsim::FramePool::new();
    let mut run = |profile: &LinkProfile| {
        let mut sim = Simulator::new(1);
        sim.install_pool(std::mem::take(&mut pool));
        let tx = sim.add_node("tx", Box::new(Blast));
        let rx = sim.add_node("rx", Box::new(SinkNode::new()));
        sim.connect(
            tx,
            rx,
            profile.clone(),
            LinkProfile::new(1_000_000_000, Duration::from_micros(1)),
        );
        sim.run_until(SimTime::from_secs(60));
        let n = sim.events_processed();
        pool = sim.take_pool();
        n
    };

    let base = || LinkProfile::new(1_000_000_000, Duration::from_micros(10));
    let ge = LossModel::GilbertElliott {
        p_enter_bad: 0.02,
        p_exit_bad: 0.25,
        loss_good: 0.0,
        loss_bad: 0.5,
    };
    let cases = [
        ("pipeline_0stages_1kframes", base()),
        ("pipeline_1stage_1kframes", base().with_loss(ge)),
        (
            "pipeline_3stages_1kframes",
            base()
                .with_loss(ge)
                .with_stage(StageSpec::Corrupt { prob: 0.02 })
                .with_stage(StageSpec::Reorder {
                    prob: 0.05,
                    max_extra: Duration::from_micros(50),
                }),
        ),
    ];
    for (name, profile) in &cases {
        bench(name, iters(50), || {
            black_box(run(black_box(profile)));
        });
    }
}

/// Population-engine costs: one cohort of N flyweight endpoints driven
/// for a 100 ms window (every endpoint emits about one frame), in
/// packet-accurate and fluid mode, at 1k / 100k / 1M endpoints. Each
/// scale reports the whole-sim cost plus a derived `ns_per_endpoint`
/// line — the per-endpoint price the acceptance gate pins. The closer
/// is the acceptance check itself: a 1M-endpoint `metro` cell (fluid
/// bulk cohort under the full lab pipeline) must complete in seconds.
pub fn population() {
    header("population");
    use nn_netsim::{CohortModel, LinkProfile, PopulationNode, PopulationSinkNode, Simulator};
    use std::time::Duration;

    let mut pool = nn_netsim::FramePool::new();
    let mut run = |endpoints: u64, fluid: bool| -> u64 {
        let model = CohortModel {
            name: "c".to_string(),
            endpoints,
            // One frame per endpoint inside the 100 ms window.
            interval_ns: 100_000_000,
            frame_bytes: 120,
            size_spread: 0,
            arrival_jitter: false,
            marker: None,
            fluid,
        };
        let mut sim = Simulator::new(1);
        sim.install_pool(std::mem::take(&mut pool));
        let pop = sim.add_node(
            "pop",
            Box::new(PopulationNode::new(
                Ipv4Addr::new(10, 0, 1, 1),
                Ipv4Addr::new(10, 0, 2, 1),
                16384,
                16384,
                0,
                vec![model.clone()],
            )),
        );
        let sink = sim.add_node("sink", Box::new(PopulationSinkNode::for_models(&[model])));
        sim.connect_sym(
            pop,
            sink,
            LinkProfile::new(10_000_000_000, Duration::from_micros(100)),
        );
        sim.run_until(SimTime::from_millis(100));
        let modeled = sim
            .node_ref::<PopulationSinkNode>(sink)
            .unwrap()
            .cohort("c")
            .unwrap()
            .rx_packets;
        pool = sim.take_pool();
        modeled
    };

    for (label, endpoints, reps) in [
        ("1k", 1_000u64, 50u64),
        ("100k", 100_000, 5),
        ("1m", 1_000_000, 2),
    ] {
        for (mode, fluid) in [("packet", false), ("fluid", true)] {
            let r = bench(
                &format!("{mode}_{label}_endpoints_100ms"),
                iters(reps),
                || {
                    black_box(run(black_box(endpoints), fluid));
                },
            );
            report_result(&BenchResult {
                name: format!("{mode}_{label}_ns_per_endpoint"),
                iters: r.iters,
                ns_per_iter: r.ns_per_iter / endpoints as f64,
            });
        }
    }

    // The acceptance closer: a full `metro` lab cell whose fluid bulk
    // cohort models one million endpoints — topology build, adversary,
    // host stacks, population plane, per-cohort harvest. Must finish in
    // seconds, not minutes.
    use nn_lab::population::{CohortDef, CohortKind, PopulationSpec};
    use nn_lab::{
        run_cell, AdversarySpec, CellSpec, CellTuning, EventTimelineSpec, LinkProfileSpec,
        StackKind, TopologySpec, WorkloadSpec,
    };
    let spec = CellSpec {
        topology: TopologySpec::Metro {
            spokes: 4,
            population: PopulationSpec {
                cohorts: vec![
                    CohortDef {
                        kind: CohortKind::Voip,
                        endpoints: 16,
                        interval_us: 20_000,
                        frame_bytes: 160,
                        size_spread: 0,
                        jitter: false,
                        fluid: false,
                    },
                    CohortDef {
                        kind: CohortKind::Neutral,
                        endpoints: 1_000_000,
                        interval_us: 200_000,
                        frame_bytes: 400,
                        size_spread: 0,
                        jitter: false,
                        fluid: true,
                    },
                ],
            },
        },
        link: LinkProfileSpec::Clean,
        workload: WorkloadSpec::voip_default(),
        adversary: AdversarySpec::content_dpi_default(),
        stack: StackKind::Plain,
        events: EventTimelineSpec::Static,
        probes: false,
        seed: 1,
    };
    let tuning = CellTuning::fast();
    let reps = iters(2);
    let start = Instant::now();
    for _ in 0..reps {
        let report = run_cell(black_box(&spec), &tuning);
        let bulk = report
            .flows
            .iter()
            .find(|f| f.flow == "pop1-neutral")
            .expect("bulk cohort row");
        assert!(
            bulk.rx_packets > 1_000_000,
            "the fluid cohort must model millions of frames: {}",
            bulk.rx_packets
        );
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed.as_secs_f64() / (reps as f64) < 60.0,
        "a 1M-endpoint metro cell must complete in seconds, took {:?} for {reps} reps",
        elapsed
    );
    report_result(&BenchResult {
        name: "metro_cell_1m_endpoints".into(),
        iters: reps,
        ns_per_iter: elapsed.as_nanos() as f64 / reps as f64,
    });
}

/// The report path: rendering and parsing the ~1 MB JSON report of one
/// `full` named-matrix run (1152 cells), and decoding the same cells off
/// the shard wire as a `ProcessExecutor` parent or `--merge` does. The
/// matrix runs once, outside every timed loop. Parsing is linear in the
/// input; a parser that re-scans the rest of the document per character
/// takes seconds per iteration here, so the gate fails outright on one.
pub fn report() {
    header("report");
    use nn_lab::json::Json;
    use nn_lab::{
        finalize_report, merge_shards, named_matrix, run_shard, ExecutionPlan, ShardReport,
    };

    let full = named_matrix("full").expect("full matrix exists");
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let plan = ExecutionPlan::new(&full, 1);
    let shard = run_shard(&full, &plan.assignments()[0], threads);
    let wire = shard.to_json();
    let merged = merge_shards(vec![shard]).expect("one shard is a complete set");
    let text = finalize_report(merged, &full).to_json();
    let tree = Json::parse(&text).expect("the report parses");

    bench("json_render_full_1152cells", iters(50), || {
        black_box(black_box(&tree).render());
    });
    bench("json_parse_full_1152cells", iters(50), || {
        black_box(Json::parse(black_box(&text)).expect("the report parses"));
    });
    bench("shard_from_json_full_1152cells", iters(50), || {
        black_box(ShardReport::from_json(black_box(&wire)).expect("the wire parses"));
    });
}
