//! Flyweight endpoint populations — thousands to millions of modeled
//! hosts multiplexed behind one sim node.
//!
//! The paper's regime is *mass-market* discrimination: an ISP shaping
//! aggregate demand classes at a bottleneck, not individual flows. A
//! full host stack per endpoint tops a cell out at tens of nodes, so
//! this module replaces per-host state with per-cohort statistics:
//!
//! * [`ArrivalClock`] — a deterministic superposed-CBR lattice: `N`
//!   endpoints with phases spread uniformly across one emission
//!   interval, enumerated as a single monotone arrival sequence. No
//!   per-endpoint state at all; arrival `n` belongs to endpoint
//!   `n % N` at time `(n % N)·I/N + (n / N)·I`.
//! * [`CohortModel`] — one seeded statistical traffic class: endpoint
//!   count, per-endpoint interval, frame-size mix, optional DPI-visible
//!   protocol marker, packet or fluid advancement.
//! * [`PopulationNode`] — emits *real pooled frames* onto the wire for
//!   every cohort (so queues, policies and ECN act on population
//!   traffic exactly as on foreground flows) and counts what it sends.
//! * [`PopulationSinkNode`] — the receive side.
//!
//! Each cohort is one registered flow in [`crate::stats`], sized to its
//! endpoints: the record a host's flow keeps, with one jitter chain per
//! endpoint (striped beyond [`crate::stats::ENDPOINT_STRIPES`]) and no
//! per-packet or per-host sample vector. The node credits sends and the
//! sink deliveries, through the same calls a host makes.
//!
//! In **fluid mode** a bulk cohort advances as a rate equation on the
//! population's own clock: every [`FLUID_QUANTUM`] the node integrates
//! the arrival lattice over the elapsed quantum and emits *one*
//! representative frame stamped with the represented count; the sink
//! credits the whole batch in O(1) as one delivery of that many frames.
//! Fluid traffic therefore samples the path's treatment at quantum
//! granularity instead of contending frame-by-frame — the documented
//! approximation that buys million-endpoint cells in seconds.
//!
//! Determinism: the lattice itself is pure arithmetic; optional size
//! spread and arrival micro-jitter draw from a per-cohort
//! [`StdRng`] seeded once from the simulation RNG at start, so a cell
//! seed fully pins every emitted byte.

use crate::frame::FrameBuf;
use crate::sim::{Context, IfaceId, Node};
use crate::stats::FlowId;
use crate::time::SimTime;
use nn_packet::{build_udp_into, ecn, parse_udp, Ipv4Addr, Ipv4Packet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// The population's fluid clock: the timer period at which fluid cohorts
/// integrate their rate equation and emit a representative frame.
pub const FLUID_QUANTUM: Duration = Duration::from_millis(10);

// ---------------------------------------------------------------------------
// Arrival lattice
// ---------------------------------------------------------------------------

/// One due arrival popped off an [`ArrivalClock`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Global arrival sequence number (0-based).
    pub seq: u64,
    /// Emitting endpoint, `seq % endpoints`.
    pub endpoint: u64,
    /// Scheduled arrival time in nanoseconds since sim start.
    pub at_ns: u64,
}

/// Deterministic superposed-CBR arrival lattice for `N` endpoints each
/// emitting every `interval_ns`, with phases spread uniformly across
/// one interval. Arrival times are non-decreasing in `seq`, so the
/// lattice enumerates the whole population as one monotone stream with
/// zero per-endpoint state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrivalClock {
    interval_ns: u64,
    endpoints: u64,
    next_seq: u64,
}

impl ArrivalClock {
    /// A lattice of `endpoints` sources each emitting every
    /// `interval_ns` (both forced to at least 1).
    pub fn new(interval_ns: u64, endpoints: u64) -> ArrivalClock {
        ArrivalClock {
            interval_ns: interval_ns.max(1),
            endpoints: endpoints.max(1),
            next_seq: 0,
        }
    }

    /// Endpoint count `N`.
    pub fn endpoints(&self) -> u64 {
        self.endpoints
    }

    /// Next unemitted sequence number.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Scheduled time of arrival `seq`, saturating at `u64::MAX` (the
    /// saturation keeps the function monotone for binary search).
    pub fn time_of(&self, seq: u64) -> u64 {
        let round = seq / self.endpoints;
        let phase_idx = seq % self.endpoints;
        let phase = phase_idx
            .saturating_mul(self.interval_ns)
            .checked_div(self.endpoints)
            .unwrap_or(0);
        round.saturating_mul(self.interval_ns).saturating_add(phase)
    }

    /// Time of the next unemitted arrival.
    pub fn next_time(&self) -> u64 {
        self.time_of(self.next_seq)
    }

    /// Pops the next arrival if it is due at or before `now_ns`.
    pub fn pop_due(&mut self, now_ns: u64) -> Option<Arrival> {
        let at_ns = self.next_time();
        if at_ns > now_ns {
            return None;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        Some(Arrival {
            seq,
            endpoint: seq % self.endpoints,
            at_ns,
        })
    }

    /// Counts the arrivals due at or before `now_ns` without emitting
    /// them — the fluid path's exact integral of the arrival rate over
    /// the elapsed quantum, found by binary search on the monotone
    /// lattice rather than an O(due) walk.
    pub fn due_count(&self, now_ns: u64) -> u64 {
        if self.next_time() > now_ns {
            return 0;
        }
        // Exponentially find an upper bound seq with time > now, then
        // bisect for the first such seq.
        let mut hi_off: u64 = 1;
        while self.time_of(self.next_seq.saturating_add(hi_off)) <= now_ns {
            if hi_off > u64::MAX / 2 {
                return u64::MAX - self.next_seq;
            }
            hi_off *= 2;
        }
        let (mut lo, mut hi) = (hi_off / 2, hi_off); // time(next+lo) <= now < time(next+hi)
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if self.time_of(self.next_seq.saturating_add(mid)) <= now_ns {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        hi
    }

    /// Consumes `n` arrivals (the fluid batch advance).
    pub fn advance(&mut self, n: u64) {
        self.next_seq = self.next_seq.saturating_add(n);
    }
}

// ---------------------------------------------------------------------------
// Population wire format
// ---------------------------------------------------------------------------

/// Decoded population frame payload (see [`encode_pop_payload`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PopPayload<'a> {
    /// Cohort flow name.
    pub flow: &'a str,
    /// Emitting endpoint id (`seq % N` truncated to 32 bits).
    pub endpoint: u32,
    /// How many modeled frames this wire frame represents (1 in packet
    /// mode, the integrated batch in fluid mode).
    pub represented: u32,
    /// Emission timestamp.
    pub sent: SimTime,
    /// Application body (marker + padding).
    pub body: &'a [u8],
}

/// Appends the population application payload to `out`:
/// `flow_len(1) ‖ flow ‖ endpoint(4 BE) ‖ represented(4 BE) ‖
/// sent_ns(8 BE) ‖ body`. Panics if the flow name exceeds 255 bytes.
pub fn encode_pop_payload(
    out: &mut Vec<u8>,
    flow: &str,
    endpoint: u32,
    represented: u32,
    sent: SimTime,
    body: &[u8],
) {
    assert!(flow.len() <= 255, "cohort flow name too long");
    out.push(flow.len() as u8);
    out.extend_from_slice(flow.as_bytes());
    out.extend_from_slice(&endpoint.to_be_bytes());
    out.extend_from_slice(&represented.to_be_bytes());
    out.extend_from_slice(&(sent.as_nanos()).to_be_bytes());
    out.extend_from_slice(body);
}

/// Decodes an [`encode_pop_payload`] application payload; `None` on
/// truncation or a non-UTF-8 flow name.
pub fn decode_pop_payload(bytes: &[u8]) -> Option<PopPayload<'_>> {
    let (&flow_len, rest) = bytes.split_first()?;
    let flow_len = flow_len as usize;
    if rest.len() < flow_len + 16 {
        return None;
    }
    let flow = std::str::from_utf8(&rest[..flow_len]).ok()?;
    let rest = &rest[flow_len..];
    let endpoint = u32::from_be_bytes(rest[..4].try_into().ok()?);
    let represented = u32::from_be_bytes(rest[4..8].try_into().ok()?);
    let sent_ns = u64::from_be_bytes(rest[8..16].try_into().ok()?);
    Some(PopPayload {
        flow,
        endpoint,
        represented,
        sent: SimTime(sent_ns),
        body: &rest[16..],
    })
}

// ---------------------------------------------------------------------------
// Cohort model
// ---------------------------------------------------------------------------

/// One seeded statistical traffic class inside a population.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CohortModel {
    /// Cohort flow name, under which the cohort's flow registers.
    pub name: String,
    /// Modeled endpoint count.
    pub endpoints: u64,
    /// Per-endpoint emission interval in nanoseconds.
    pub interval_ns: u64,
    /// Nominal application body length per frame (clamped up to the
    /// marker length when a marker is set).
    pub frame_bytes: usize,
    /// Uniform extra body bytes in `[0, size_spread]` drawn per frame
    /// from the cohort RNG (0 = fixed-size; ignored in fluid mode).
    pub size_spread: usize,
    /// Seeded micro-jitter on arrival wakeups, bounded inside the
    /// lattice gap so the arrival stream stays monotone (packet mode
    /// only).
    pub arrival_jitter: bool,
    /// Optional DPI-visible protocol marker prefixed to every body —
    /// what content-classification policies key on.
    pub marker: Option<Vec<u8>>,
    /// Fluid advancement: integrate arrivals per [`FLUID_QUANTUM`] and
    /// emit one representative frame per quantum instead of one frame
    /// per modeled arrival.
    pub fluid: bool,
}

impl CohortModel {
    /// Body length for one frame given an optional spread draw.
    fn body_len(&self, extra: usize) -> usize {
        let floor = self.marker.as_ref().map_or(0, |m| m.len());
        self.frame_bytes.max(floor) + extra
    }

    /// True when the cohort ever touches its seeded RNG.
    fn needs_rng(&self) -> bool {
        !self.fluid && (self.size_spread > 0 || self.arrival_jitter)
    }
}

/// Writes `len` body bytes (marker prefix then `.` padding) into `out`.
fn build_body(out: &mut Vec<u8>, marker: Option<&[u8]>, len: usize) {
    out.clear();
    if let Some(m) = marker {
        out.extend_from_slice(m);
    }
    if out.len() < len {
        out.resize(len, b'.');
    }
}

// ---------------------------------------------------------------------------
// Transmit side
// ---------------------------------------------------------------------------

struct CohortRuntime {
    model: CohortModel,
    clock: ArrivalClock,
    rng: Option<StdRng>,
    flow: FlowId,
}

crate::counter_set! {
    /// The population node's counters, `population.<field>`.
    struct PopulationCounters {
        unexpected_rx: Internal,
        wire_tx: Reported,
    }
}

/// One sim node multiplexing every cohort of a population: emits real
/// pooled UDP frames (ECT-stamped, policy-visible) on interface 0 and
/// credits each cohort's flow with the modeled frames they carry.
pub struct PopulationNode {
    src: Ipv4Addr,
    dst: Ipv4Addr,
    port: u16,
    cohorts: Vec<CohortRuntime>,
    body_scratch: Vec<u8>,
    payload_scratch: Vec<u8>,
    ids: PopulationCounters,
}

impl PopulationNode {
    /// A population at `src` sending every cohort to `dst` from and to
    /// UDP `port`, at DSCP 0.
    pub fn new(
        src: Ipv4Addr,
        dst: Ipv4Addr,
        port: u16,
        models: Vec<CohortModel>,
    ) -> PopulationNode {
        let cohorts = models
            .into_iter()
            .map(|model| {
                let clock = ArrivalClock::new(model.interval_ns, model.endpoints);
                CohortRuntime {
                    model,
                    clock,
                    rng: None,
                    flow: FlowId::default(),
                }
            })
            .collect();
        PopulationNode {
            src,
            dst,
            port,
            cohorts,
            body_scratch: Vec::new(),
            payload_scratch: Vec::new(),
            ids: PopulationCounters::default(),
        }
    }

    /// Emits one wire frame for cohort `i` carrying `represented`
    /// modeled frames whose body is already in `body_scratch`.
    fn emit(&mut self, ctx: &mut Context, i: usize, endpoint: u32, represented: u32) {
        self.payload_scratch.clear();
        encode_pop_payload(
            &mut self.payload_scratch,
            &self.cohorts[i].model.name,
            endpoint,
            represented,
            ctx.now,
            &self.body_scratch,
        );
        let built = ctx.alloc_built(|buf| {
            build_udp_into(
                buf,
                self.src,
                self.dst,
                0,
                self.port,
                self.port,
                &self.payload_scratch,
            )
        });
        if let Some(mut pkt) = built {
            Ipv4Packet::new_unchecked(pkt.as_mut_slice()).set_ecn(ecn::ECT0);
            ctx.send(0, pkt);
            let frames = u64::from(represented);
            let bytes = frames * self.body_scratch.len() as u64;
            ctx.stats.bump(self.ids.wire_tx);
            ctx.stats.flow_tx(self.cohorts[i].flow, frames, bytes);
        }
    }

    /// Packet-mode wakeup: emit every due lattice arrival, then sleep
    /// until the next one (plus optional seeded micro-jitter bounded by
    /// half the lattice gap, which keeps at most one arrival per wake).
    fn packet_tick(&mut self, ctx: &mut Context, i: usize) {
        let now_ns = ctx.now.as_nanos();
        loop {
            let arrival = self.cohorts[i].clock.pop_due(now_ns);
            let Some(arrival) = arrival else { break };
            let c = &mut self.cohorts[i];
            let extra = match (c.model.size_spread, c.rng.as_mut()) {
                (spread, Some(rng)) if spread > 0 => {
                    (rng.gen::<u64>() % (spread as u64 + 1)) as usize
                }
                _ => 0,
            };
            let len = self.cohorts[i].model.body_len(extra);
            build_body(
                &mut self.body_scratch,
                self.cohorts[i].model.marker.as_deref(),
                len,
            );
            self.emit(ctx, i, (arrival.endpoint & 0xffff_ffff) as u32, 1);
        }
        let c = &mut self.cohorts[i];
        let mut wake_ns = c.clock.next_time();
        if c.model.arrival_jitter {
            // Half the average lattice gap bounds the jitter strictly
            // below the spacing to the following arrival.
            let half_gap = (c.model.interval_ns / c.model.endpoints.max(1)) / 2;
            if half_gap > 0 {
                if let Some(rng) = c.rng.as_mut() {
                    wake_ns = wake_ns.saturating_add(rng.gen::<u64>() % half_gap);
                }
            }
        }
        ctx.set_timer(
            Duration::from_nanos(wake_ns.saturating_sub(now_ns)),
            i as u64,
        );
    }

    /// Fluid-mode wakeup: integrate the arrival lattice over the
    /// elapsed quantum and emit one representative frame for the batch.
    fn fluid_tick(&mut self, ctx: &mut Context, i: usize) {
        let now_ns = ctx.now.as_nanos();
        let c = &mut self.cohorts[i];
        let due = c.clock.due_count(now_ns);
        if due > 0 {
            let first_seq = c.clock.next_seq();
            c.clock.advance(due);
            let endpoint = (first_seq % c.model.endpoints) as u32;
            let represented = u32::try_from(due).unwrap_or(u32::MAX);
            let len = c.model.body_len(0);
            build_body(
                &mut self.body_scratch,
                self.cohorts[i].model.marker.as_deref(),
                len,
            );
            self.emit(ctx, i, endpoint, represented);
        }
        ctx.set_timer(FLUID_QUANTUM, i as u64);
    }
}

impl Node for PopulationNode {
    fn on_start(&mut self, ctx: &mut Context) {
        self.ids = PopulationCounters::register(ctx.stats, "population");
        for (i, c) in self.cohorts.iter_mut().enumerate() {
            c.flow = ctx.stats.flow_id(&c.model.name, c.model.endpoints);
            if c.model.needs_rng() {
                let seed: u64 = ctx.rng.gen();
                c.rng = Some(StdRng::seed_from_u64(seed));
            }
            // Both modes start at t=0: the first lattice arrival (and
            // the first fluid integral) are due immediately.
            ctx.set_timer(Duration::ZERO, i as u64);
        }
    }

    fn on_packet(&mut self, ctx: &mut Context, _iface: IfaceId, frame: FrameBuf) {
        // Populations are pure sources; anything delivered here (e.g. a
        // misrouted reply) is counted and recycled.
        ctx.stats.bump(self.ids.unexpected_rx);
        ctx.recycle(frame);
    }

    fn on_timer(&mut self, ctx: &mut Context, token: u64) {
        let i = token as usize;
        if i >= self.cohorts.len() {
            return;
        }
        if self.cohorts[i].model.fluid {
            self.fluid_tick(ctx, i);
        } else {
            self.packet_tick(ctx, i);
        }
    }
}

// ---------------------------------------------------------------------------
// Receive side
// ---------------------------------------------------------------------------

crate::counter_set! {
    /// The population sink's counters, `population.<field>`.
    struct PopulationSinkCounters {
        wire_rx: Reported,
        parse_errors: Reported,
    }
}

/// Terminates population traffic and credits every frame to its
/// cohort's flow.
pub struct PopulationSinkNode {
    /// The cohorts this sink was built for: flow name, endpoint count
    /// and flow id. A frame naming any other cohort is a parse error; a
    /// name read off the wire never registers a flow.
    cohorts: Vec<(String, u64, FlowId)>,
    ids: PopulationSinkCounters,
}

impl PopulationSinkNode {
    /// A sink matching a [`PopulationNode`]'s cohort models.
    pub fn for_models(models: &[CohortModel]) -> PopulationSinkNode {
        PopulationSinkNode {
            cohorts: models
                .iter()
                .map(|m| (m.name.clone(), m.endpoints, FlowId::default()))
                .collect(),
            ids: PopulationSinkCounters::default(),
        }
    }

    /// Credits one frame to its cohort's flow; false when it does not
    /// parse or names a cohort this sink was not built for.
    fn ingest(&self, ctx: &mut Context, frame: &[u8]) -> bool {
        let ce = Ipv4Packet::new_checked(frame).is_ok_and(|p| p.ecn() == ecn::CE);
        let Ok(parsed) = parse_udp(frame) else {
            return false;
        };
        let Some(pop) = decode_pop_payload(parsed.payload) else {
            return false;
        };
        let Some(&(_, _, flow)) = self.cohorts.iter().find(|(name, ..)| name == pop.flow) else {
            return false;
        };
        let frames = u64::from(pop.represented.max(1));
        let bytes = frames * pop.body.len() as u64;
        ctx.stats
            .flow_rx(flow, pop.endpoint, frames, bytes, pop.sent, ctx.now);
        if ce {
            ctx.stats.flow_ce(flow, frames);
        }
        true
    }
}

impl Node for PopulationSinkNode {
    fn on_start(&mut self, ctx: &mut Context) {
        self.ids = PopulationSinkCounters::register(ctx.stats, "population");
        for (name, endpoints, flow) in &mut self.cohorts {
            *flow = ctx.stats.flow_id(name, *endpoints);
        }
    }

    fn on_packet(&mut self, ctx: &mut Context, _iface: IfaceId, frame: FrameBuf) {
        if self.ingest(ctx, &frame) {
            ctx.stats.bump(self.ids.wire_rx);
        } else {
            ctx.stats.bump(self.ids.parse_errors);
        }
        ctx.recycle(frame);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkProfile;
    use crate::sim::Simulator;
    use crate::stats::FlowStats;

    const POP: Ipv4Addr = Ipv4Addr::new(10, 0, 1, 1);
    const SINK: Ipv4Addr = Ipv4Addr::new(10, 0, 2, 1);

    fn model(name: &str, endpoints: u64, fluid: bool) -> CohortModel {
        CohortModel {
            name: name.to_string(),
            endpoints,
            interval_ns: 20_000_000, // 20 ms per endpoint
            frame_bytes: 200,
            size_spread: 0,
            arrival_jitter: false,
            marker: Some(b"BULK/FTP".to_vec()),
            fluid,
        }
    }

    #[test]
    fn lattice_is_monotone_and_spreads_endpoints() {
        let clock = ArrivalClock::new(1_000_000, 4);
        let times: Vec<u64> = (0..12).map(|s| clock.time_of(s)).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]), "{times:?}");
        // Phases spread uniformly across one interval.
        assert_eq!(&times[..4], &[0, 250_000, 500_000, 750_000]);
        // The second round repeats the phases one interval later.
        assert_eq!(times[4], 1_000_000);
        assert_eq!(times[7], 1_750_000);
        // Endpoint identity is seq mod N.
        let mut c = ArrivalClock::new(1_000_000, 4);
        let a = c.pop_due(u64::MAX).unwrap();
        let b = c.pop_due(u64::MAX).unwrap();
        assert_eq!((a.endpoint, b.endpoint), (0, 1));
    }

    #[test]
    fn single_endpoint_lattice_is_the_background_schedule() {
        // N = 1 degenerates to emissions at seq * interval — exactly the
        // bulk background schedule attach_background used to hand-roll.
        let clock = ArrivalClock::new(4_800_000, 1);
        for seq in 0..10 {
            assert_eq!(clock.time_of(seq), seq * 4_800_000);
        }
    }

    #[test]
    fn due_count_matches_a_linear_walk() {
        for endpoints in [1u64, 3, 7, 100] {
            let mut linear = ArrivalClock::new(777_777, endpoints);
            let counting = linear.clone();
            for now in [0u64, 1, 777_776, 777_777, 5_000_000, 123_456_789] {
                let mut by_walk = 0;
                let mut walker = counting.clone();
                walker.next_seq = linear.next_seq;
                while walker.pop_due(now).is_some() {
                    by_walk += 1;
                }
                assert_eq!(linear.due_count(now), by_walk, "N={endpoints} now={now}");
                linear.advance(by_walk);
            }
        }
    }

    #[test]
    fn pop_payload_roundtrips_and_rejects_truncation() {
        let mut buf = Vec::new();
        encode_pop_payload(
            &mut buf,
            "pop0-voip",
            42,
            7,
            SimTime(123_456),
            b"VOIP/RTP....",
        );
        let p = decode_pop_payload(&buf).expect("roundtrip");
        assert_eq!(p.flow, "pop0-voip");
        assert_eq!(p.endpoint, 42);
        assert_eq!(p.represented, 7);
        assert_eq!(p.sent, SimTime(123_456));
        assert_eq!(p.body, b"VOIP/RTP....");
        for cut in 1..buf.len() - p.body.len() {
            assert!(decode_pop_payload(&buf[..cut]).is_none(), "cut={cut}");
        }
        assert!(decode_pop_payload(b"").is_none());
    }

    /// pop --(link)-- sink with one cohort, run for `millis`: the
    /// cohort's flow record and the wire frames the node emitted.
    fn run_population(model: CohortModel, seed: u64, millis: u64) -> (FlowStats, u64) {
        let mut sim = Simulator::new(seed);
        let pop = sim.add_node(
            "pop",
            Box::new(PopulationNode::new(POP, SINK, 16384, vec![model.clone()])),
        );
        let sink = sim.add_node(
            "sink",
            Box::new(PopulationSinkNode::for_models(std::slice::from_ref(&model))),
        );
        sim.connect_sym(
            pop,
            sink,
            LinkProfile::new(100_000_000, Duration::from_millis(2)),
        );
        sim.run_until(SimTime::from_millis(millis));
        let flow = sim.stats().flow(&model.name).expect("cohort flow").clone();
        (flow, sim.stats().counter("population.wire_tx"))
    }

    #[test]
    fn packet_mode_delivers_every_modeled_frame_deterministically() {
        let (f, wire_tx) = run_population(model("m0", 5, false), 11, 200);
        // 5 endpoints × one frame per 20 ms over 200 ms, phases inside
        // the first interval: every endpoint gets 10 or 11 sends.
        assert_eq!(wire_tx, f.tx_packets);
        assert!(f.tx_packets >= 50, "{}", f.tx_packets);
        // The clean link delivers everything emitted at least 2 ms early.
        assert!(f.rx_packets >= 50 && f.rx_packets <= f.tx_packets);
        assert_eq!(f.rx_bytes % 200, 0);
        assert!(f.mean_delay() > 0.0);
        assert!(f.goodput_bps() > 0.0);
        // Same seed, same run: identical records.
        let (f2, wire_tx2) = run_population(model("m0", 5, false), 11, 200);
        assert_eq!((f.tx_packets, f.tx_bytes), (f2.tx_packets, f2.tx_bytes));
        assert_eq!(wire_tx, wire_tx2);
        assert_eq!(f.delay_hist, f2.delay_hist);
        assert_eq!(f.jitter(), f2.jitter());
        assert_eq!(f.rx_packets, f2.rx_packets);
    }

    #[test]
    fn seeded_spread_and_jitter_stay_deterministic() {
        let mut m = model("m0", 8, false);
        m.size_spread = 64;
        m.arrival_jitter = true;
        let (f, _) = run_population(m.clone(), 99, 150);
        let (f2, _) = run_population(m, 99, 150);
        assert_eq!((f.tx_packets, f.tx_bytes), (f2.tx_packets, f2.tx_bytes));
        assert_eq!(f.rx_bytes, f2.rx_bytes);
        assert_eq!(f.delay_hist, f2.delay_hist);
        // The spread actually varied frame sizes: bytes are not a
        // multiple of the fixed 200-byte body.
        assert!(f.tx_bytes > f.tx_packets * 200);
    }

    #[test]
    fn fluid_mode_matches_packet_mode_totals_with_fewer_wire_frames() {
        let (p, p_wire) = run_population(model("m0", 40, false), 5, 300);
        let (f, f_wire) = run_population(model("m0", 40, true), 5, 300);
        // The lattice integral is exact: both modes model the same
        // arrival count (quantum boundaries may defer the tail batch).
        assert!(f.tx_packets >= p.tx_packets.saturating_sub(40));
        assert!(f.tx_packets <= p.tx_packets);
        assert!(
            f_wire * 10 < f.tx_packets * 10 + 10,
            "fluid must batch: {f_wire} wire for {} modeled",
            f.tx_packets
        );
        assert!(f_wire < p_wire / 5);
        // The sink credits whole batches (the final quantum's batch may
        // still be in flight at the cutoff).
        assert!(f.rx_packets >= f.tx_packets.saturating_sub(40));
        assert_eq!(f.rx_bytes, f.rx_packets * 200);
        assert!(p.rx_packets >= f.rx_packets.saturating_sub(40));
        assert_eq!(f.delay_hist.total(), f.rx_packets);
    }

    /// Garbage and a well-formed frame naming a cohort the sink was not
    /// built for each count one parse error; neither registers a flow.
    #[test]
    fn sink_counts_unparseable_frames() {
        let mut sim = Simulator::new(1);
        let sink = sim.add_node(
            "sink",
            Box::new(PopulationSinkNode::for_models(&[model("coh", 4, false)])),
        );
        let frame = |flow: &str| {
            let mut payload = Vec::new();
            encode_pop_payload(&mut payload, flow, 1, 1, SimTime(0), b"BULK/FTP");
            nn_packet::build_udp(POP, SINK, 0, 16384, 16384, &payload).expect("frame")
        };
        sim.inject(SimTime(1_000), sink, 0, b"not a frame".to_vec());
        sim.inject(SimTime(2_000), sink, 0, frame("other"));
        sim.inject(SimTime(3_000), sink, 0, frame("coh"));
        sim.run_until(SimTime::from_millis(1));
        let stats = sim.stats();
        assert_eq!(stats.counter("population.parse_errors"), 2);
        assert_eq!(stats.counter("population.wire_rx"), 1);
        assert_eq!(stats.flow("coh").expect("sink's cohort").rx_packets, 1);
        let names: Vec<&str> = stats.flows().map(|(name, _)| name).collect();
        assert_eq!(names, ["coh"], "a name off the wire registers no flow");
    }
}
