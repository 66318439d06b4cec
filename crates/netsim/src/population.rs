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
//!   traffic exactly as on foreground flows) while keeping only O(1)
//!   counters per cohort.
//! * [`PopulationSinkNode`] / [`CohortAggregate`] — the receive side:
//!   per-cohort aggregate flow statistics (counts, bytes, a delay
//!   [`Histogram`] and a jitter sum) that replicate
//!   [`crate::stats::Stats::flow_rx`] semantics without a per-packet or
//!   per-host sample vector.
//!
//! In **fluid mode** a bulk cohort advances as a rate equation on the
//! population's own clock: every [`FLUID_QUANTUM`] the node integrates
//! the arrival lattice over the elapsed quantum and emits *one*
//! representative frame stamped with the represented count; the sink
//! credits the whole batch in O(1) with the weighted histogram path.
//! Fluid traffic therefore samples the path's treatment at quantum
//! granularity instead of contending frame-by-frame — the documented
//! approximation that buys million-endpoint cells in seconds.
//!
//! Determinism: the lattice itself is pure arithmetic; optional size
//! spread and arrival micro-jitter draw from a per-cohort
//! [`StdRng`] seeded once from the simulation RNG at start, so a cell
//! seed fully pins every emitted byte.

use crate::frame::FrameBuf;
use crate::histogram::Histogram;
use crate::sim::{Context, IfaceId, Node};
use crate::stats::{CounterClass, CounterId};
use crate::time::SimTime;
use nn_packet::{build_udp_into, ecn, parse_udp, Ipv4Addr, Ipv4Packet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// The population's fluid clock: the timer period at which fluid cohorts
/// integrate their rate equation and emit a representative frame.
pub const FLUID_QUANTUM: Duration = Duration::from_millis(10);

/// Stripe count cap for per-endpoint receive tracks: aggregates keep
/// `min(endpoints, AGGREGATE_STRIPES)` previous-delay slots (endpoint
/// `e` maps to slot `e % stripes`), so jitter chains are exact per
/// endpoint up to this population size and hash-striped — bounded
/// memory — beyond it.
pub const AGGREGATE_STRIPES: usize = 4096;

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
    /// Cohort flow name (also the per-cohort stats key downstream).
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

/// Transmit-side aggregate for one cohort (harvested by the lab).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CohortTx {
    /// Cohort flow name.
    pub name: String,
    /// Modeled endpoint count.
    pub endpoints: u64,
    /// Modeled frames sent (fluid batches count every represented
    /// frame).
    pub tx_packets: u64,
    /// Modeled application bytes sent.
    pub tx_bytes: u64,
    /// Actual wire frames emitted (equals `tx_packets` in packet mode).
    pub wire_frames: u64,
    /// Whether the cohort ran fluid.
    pub fluid: bool,
}

struct CohortRuntime {
    model: CohortModel,
    clock: ArrivalClock,
    rng: Option<StdRng>,
    tx_packets: u64,
    tx_bytes: u64,
    wire_frames: u64,
}

/// One sim node multiplexing every cohort of a population: emits real
/// pooled UDP frames (ECT-stamped, policy-visible) on interface 0 and
/// keeps only per-cohort counters.
pub struct PopulationNode {
    src: Ipv4Addr,
    dst: Ipv4Addr,
    src_port: u16,
    dst_port: u16,
    dscp: u8,
    cohorts: Vec<CohortRuntime>,
    body_scratch: Vec<u8>,
    payload_scratch: Vec<u8>,
    /// `population.unexpected_rx`, registered at start.
    unexpected_rx: CounterId,
}

impl PopulationNode {
    /// A population at `src` sending every cohort to `dst` on the given
    /// UDP port pair.
    pub fn new(
        src: Ipv4Addr,
        dst: Ipv4Addr,
        src_port: u16,
        dst_port: u16,
        dscp: u8,
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
                    tx_packets: 0,
                    tx_bytes: 0,
                    wire_frames: 0,
                }
            })
            .collect();
        PopulationNode {
            src,
            dst,
            src_port,
            dst_port,
            dscp,
            cohorts,
            body_scratch: Vec::new(),
            payload_scratch: Vec::new(),
            unexpected_rx: CounterId::default(),
        }
    }

    /// Per-cohort transmit aggregates, in model order.
    pub fn tx_stats(&self) -> Vec<CohortTx> {
        self.cohorts
            .iter()
            .map(|c| CohortTx {
                name: c.model.name.clone(),
                endpoints: c.model.endpoints,
                tx_packets: c.tx_packets,
                tx_bytes: c.tx_bytes,
                wire_frames: c.wire_frames,
                fluid: c.model.fluid,
            })
            .collect()
    }

    /// Total wire frames emitted across every cohort.
    pub fn wire_frames(&self) -> u64 {
        self.cohorts.iter().map(|c| c.wire_frames).sum()
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
                self.dscp,
                self.src_port,
                self.dst_port,
                &self.payload_scratch,
            )
        });
        if let Some(mut pkt) = built {
            Ipv4Packet::new_unchecked(pkt.as_mut_slice()).set_ecn(ecn::ECT0);
            ctx.send(0, pkt);
            let c = &mut self.cohorts[i];
            let body_len = self.body_scratch.len() as u64;
            c.wire_frames += 1;
            c.tx_packets += represented as u64;
            c.tx_bytes += represented as u64 * body_len;
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
        self.unexpected_rx = ctx
            .stats
            .register("population.unexpected_rx", CounterClass::Internal);
        for i in 0..self.cohorts.len() {
            if self.cohorts[i].model.needs_rng() {
                let seed: u64 = ctx.rng.gen();
                self.cohorts[i].rng = Some(StdRng::seed_from_u64(seed));
            }
            // Both modes start at t=0: the first lattice arrival (and
            // the first fluid integral) are due immediately.
            ctx.set_timer(Duration::ZERO, i as u64);
        }
    }

    fn on_packet(&mut self, ctx: &mut Context, _iface: IfaceId, frame: FrameBuf) {
        // Populations are pure sources; anything delivered here (e.g. a
        // misrouted reply) is counted and recycled.
        ctx.stats.bump(self.unexpected_rx);
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

/// Aggregate flow statistics for one cohort — the population-scale
/// stand-in for [`crate::stats::FlowStats`]. Counters, the delay
/// histogram and the jitter sum replicate
/// [`crate::stats::Stats::flow_rx`] / [`crate::stats::Stats::flow_ce`]
/// semantics exactly (per endpoint, up to [`AGGREGATE_STRIPES`]
/// endpoints), but no per-packet sample vector is kept: memory is
/// O(stripes), not O(received frames).
#[derive(Debug, Clone)]
pub struct CohortAggregate {
    /// Cohort flow name.
    pub name: String,
    /// Modeled endpoint count.
    pub endpoints: u64,
    /// Modeled frames received (a fluid batch credits its whole
    /// represented count).
    pub rx_packets: u64,
    /// Modeled application bytes received.
    pub rx_bytes: u64,
    /// Wire frames received for this cohort.
    pub wire_frames: u64,
    /// Modeled frames that arrived CE-marked.
    pub ce_marks: u64,
    /// One-way delay distribution (nanosecond resolution).
    pub delay_hist: Histogram,
    /// First delivery time.
    pub first_rx: Option<SimTime>,
    /// Last delivery time.
    pub last_rx: Option<SimTime>,
    delay_sum: f64,
    jitter_sum: f64,
    jitter_count: u64,
    /// Each stripe's previous one-way delay, seconds (jitter chains).
    last_delays: Vec<Option<f64>>,
}

impl CohortAggregate {
    /// An empty aggregate for `endpoints` modeled hosts.
    pub fn new(name: impl Into<String>, endpoints: u64) -> CohortAggregate {
        let stripes = (endpoints.max(1) as usize).min(AGGREGATE_STRIPES);
        CohortAggregate {
            name: name.into(),
            endpoints,
            rx_packets: 0,
            rx_bytes: 0,
            wire_frames: 0,
            ce_marks: 0,
            delay_hist: Histogram::new(),
            first_rx: None,
            last_rx: None,
            delay_sum: 0.0,
            jitter_sum: 0.0,
            jitter_count: 0,
            last_delays: vec![None; stripes],
        }
    }

    /// Credits one wire frame carrying `represented` modeled frames of
    /// `body_bytes` each, sent at `sent` and delivered at `now`.
    ///
    /// The update order mirrors [`crate::stats::Stats::flow_rx`]
    /// followed (when `ce`) by [`crate::stats::Stats::flow_ce`]: jitter
    /// against the endpoint's previous delay *before* it is replaced. A
    /// fluid batch (`represented > 1`) shares one delay sample, so the
    /// batch contributes `represented − 1` zero jitter samples beyond
    /// the transition from the previous delivery.
    pub fn record(
        &mut self,
        endpoint: u32,
        represented: u32,
        body_bytes: u64,
        sent: SimTime,
        now: SimTime,
        ce: bool,
    ) {
        let rep = represented.max(1) as u64;
        self.wire_frames += 1;
        self.rx_packets += rep;
        self.rx_bytes += rep * body_bytes;
        let delay = (now - sent).as_secs_f64();
        let slot = (endpoint as usize) % self.last_delays.len();
        if let Some(prev) = self.last_delays[slot] {
            self.jitter_sum += (delay - prev).abs();
            self.jitter_count += 1;
        }
        self.jitter_count += rep - 1;
        self.last_delays[slot] = Some(delay);
        self.delay_hist.record_secs_n(delay, rep);
        self.delay_sum += delay * rep as f64;
        if self.first_rx.is_none() {
            self.first_rx = Some(now);
        }
        self.last_rx = Some(now);
        if ce {
            self.ce_marks += rep;
        }
    }

    /// Mean one-way delay in seconds (0.0 before any delivery).
    pub fn mean_delay(&self) -> f64 {
        if self.rx_packets == 0 {
            0.0
        } else {
            self.delay_sum / self.rx_packets as f64
        }
    }

    /// Mean absolute delay variation in seconds (0.0 with fewer than
    /// two samples on every endpoint chain).
    pub fn jitter(&self) -> f64 {
        if self.jitter_count == 0 {
            0.0
        } else {
            self.jitter_sum / self.jitter_count as f64
        }
    }

    /// Application-byte goodput over the first-to-last delivery window
    /// (0.0 until the window has positive width).
    pub fn goodput_bps(&self) -> f64 {
        match (self.first_rx, self.last_rx) {
            (Some(first), Some(last)) if last > first => {
                self.rx_bytes as f64 * 8.0 / (last - first).as_secs_f64()
            }
            _ => 0.0,
        }
    }
}

/// Terminates population traffic and folds every frame into its
/// cohort's [`CohortAggregate`].
pub struct PopulationSinkNode {
    cohorts: Vec<CohortAggregate>,
    /// Frames that failed UDP/population parsing or named an unknown
    /// cohort.
    pub parse_errors: u64,
}

impl PopulationSinkNode {
    /// A sink expecting the given `(cohort name, endpoints)` set.
    pub fn new(cohorts: impl IntoIterator<Item = (String, u64)>) -> PopulationSinkNode {
        PopulationSinkNode {
            cohorts: cohorts
                .into_iter()
                .map(|(name, endpoints)| CohortAggregate::new(name, endpoints))
                .collect(),
            parse_errors: 0,
        }
    }

    /// A sink matching a [`PopulationNode`]'s cohort models.
    pub fn for_models(models: &[CohortModel]) -> PopulationSinkNode {
        PopulationSinkNode::new(models.iter().map(|m| (m.name.clone(), m.endpoints)))
    }

    /// Per-cohort receive aggregates, in registration order.
    pub fn cohorts(&self) -> &[CohortAggregate] {
        &self.cohorts
    }

    /// Looks up one cohort's aggregate by flow name.
    pub fn cohort(&self, name: &str) -> Option<&CohortAggregate> {
        self.cohorts.iter().find(|c| c.name == name)
    }

    fn ingest(&mut self, now: SimTime, frame: &[u8]) -> bool {
        let ce = Ipv4Packet::new_checked(frame).is_ok_and(|p| p.ecn() == ecn::CE);
        let Ok(parsed) = parse_udp(frame) else {
            return false;
        };
        let Some(pop) = decode_pop_payload(parsed.payload) else {
            return false;
        };
        let Some(agg) = self.cohorts.iter_mut().find(|c| c.name == pop.flow) else {
            return false;
        };
        agg.record(
            pop.endpoint,
            pop.represented,
            pop.body.len() as u64,
            pop.sent,
            now,
            ce,
        );
        true
    }
}

impl Node for PopulationSinkNode {
    fn on_packet(&mut self, ctx: &mut Context, _iface: IfaceId, frame: FrameBuf) {
        if !self.ingest(ctx.now, &frame) {
            self.parse_errors += 1;
        }
        ctx.recycle(frame);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkProfile;
    use crate::sim::Simulator;
    use crate::stats::Stats;

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

    /// pop --(link)-- sink, run for `millis`, return the sink aggregates
    /// plus the node's tx stats.
    fn run_population(
        models: Vec<CohortModel>,
        seed: u64,
        millis: u64,
    ) -> (Vec<CohortTx>, Vec<CohortAggregate>) {
        let mut sim = Simulator::new(seed);
        let pop = sim.add_node(
            "pop",
            Box::new(PopulationNode::new(
                POP,
                SINK,
                16384,
                16384,
                0,
                models.clone(),
            )),
        );
        let sink = sim.add_node("sink", Box::new(PopulationSinkNode::for_models(&models)));
        sim.connect_sym(
            pop,
            sink,
            LinkProfile::new(100_000_000, Duration::from_millis(2)),
        );
        sim.run_until(SimTime::from_millis(millis));
        let tx = sim
            .node_ref::<PopulationNode>(pop)
            .expect("population node")
            .tx_stats();
        let rx = sim
            .node_ref::<PopulationSinkNode>(sink)
            .expect("population sink")
            .cohorts()
            .to_vec();
        (tx, rx)
    }

    #[test]
    fn packet_mode_delivers_every_modeled_frame_deterministically() {
        let models = vec![model("m0", 5, false)];
        let (tx, rx) = run_population(models.clone(), 11, 200);
        // 5 endpoints × one frame per 20 ms over 200 ms, phases inside
        // the first interval: every endpoint gets 10 or 11 sends.
        assert_eq!(tx[0].wire_frames, tx[0].tx_packets);
        assert!(tx[0].tx_packets >= 50, "{}", tx[0].tx_packets);
        let agg = &rx[0];
        // The clean link delivers everything emitted at least 2 ms early.
        assert!(agg.rx_packets >= 50 && agg.rx_packets <= tx[0].tx_packets);
        assert_eq!(agg.rx_bytes % 200, 0);
        assert!(agg.mean_delay() > 0.0);
        assert!(agg.goodput_bps() > 0.0);
        // Same seed, same run: byte-identical aggregates.
        let (tx2, rx2) = run_population(models, 11, 200);
        assert_eq!(tx[0], tx2[0]);
        assert_eq!(rx[0].delay_hist, rx2[0].delay_hist);
        assert_eq!(rx[0].jitter(), rx2[0].jitter());
        assert_eq!(rx[0].rx_packets, rx2[0].rx_packets);
    }

    #[test]
    fn seeded_spread_and_jitter_stay_deterministic() {
        let mut m = model("m0", 8, false);
        m.size_spread = 64;
        m.arrival_jitter = true;
        let (tx, rx) = run_population(vec![m.clone()], 99, 150);
        let (tx2, rx2) = run_population(vec![m], 99, 150);
        assert_eq!(tx[0], tx2[0]);
        assert_eq!(rx[0].rx_bytes, rx2[0].rx_bytes);
        assert_eq!(rx[0].delay_hist, rx2[0].delay_hist);
        // The spread actually varied frame sizes: bytes are not a
        // multiple of the fixed 200-byte body.
        assert!(tx[0].tx_bytes > tx[0].tx_packets * 200);
    }

    #[test]
    fn fluid_mode_matches_packet_mode_totals_with_fewer_wire_frames() {
        let (ptx, prx) = run_population(vec![model("m0", 40, false)], 5, 300);
        let (ftx, frx) = run_population(vec![model("m0", 40, true)], 5, 300);
        // The lattice integral is exact: both modes model the same
        // arrival count (quantum boundaries may defer the tail batch).
        assert!(ftx[0].tx_packets >= ptx[0].tx_packets.saturating_sub(40));
        assert!(ftx[0].tx_packets <= ptx[0].tx_packets);
        assert!(
            ftx[0].wire_frames * 10 < ftx[0].tx_packets * 10 + 10,
            "fluid must batch: {} wire for {} modeled",
            ftx[0].wire_frames,
            ftx[0].tx_packets
        );
        assert!(ftx[0].wire_frames < ptx[0].wire_frames / 5);
        // The sink credits whole batches (the final quantum's batch may
        // still be in flight at the cutoff).
        assert!(frx[0].rx_packets >= ftx[0].tx_packets.saturating_sub(40));
        assert_eq!(frx[0].rx_bytes, frx[0].rx_packets * 200);
        assert!(prx[0].rx_packets >= frx[0].rx_packets.saturating_sub(40));
        assert_eq!(frx[0].delay_hist.total(), frx[0].rx_packets);
    }

    /// A fluid batch shares one delay sample: beyond the transition from
    /// the endpoint's previous delivery, each of its `represented − 1`
    /// further frames adds a zero jitter sample to the mean.
    #[test]
    fn fluid_batch_adds_zero_jitter_samples() {
        let mut agg = CohortAggregate::new("coh", 1);
        let (d1, d2): (f64, f64) = (0.002, 0.005);
        agg.record(0, 1, 100, SimTime(0), SimTime(2_000_000), false);
        assert_eq!(agg.jitter(), 0.0, "one delivery has no jitter yet");
        agg.record(0, 4, 100, SimTime(10_000_000), SimTime(15_000_000), false);
        assert_eq!(agg.jitter(), (d2 - d1).abs() / 4.0);
        assert_eq!(agg.rx_packets, 5);
    }

    #[test]
    fn aggregate_replicates_flow_rx_semantics_byte_for_byte() {
        // Interleave three endpoints' deliveries (with reordering and CE
        // marks) through both accounting paths: per-endpoint FlowStats
        // merged at the end must equal the cohort aggregate exactly.
        let deliveries: &[(u32, u64, u64, bool)] = &[
            // (endpoint, sent_ns, now_ns, ce)
            (0, 0, 2_000_000, false),
            (1, 500_000, 2_600_000, false),
            (0, 1_000_000, 3_700_000, true),
            (2, 1_500_000, 3_900_000, false),
            (1, 2_000_000, 4_000_000, false),
            (0, 3_000_000, 4_100_000, false),
            (0, 2_500_000, 4_200_000, true), // reordered + CE
            (2, 3_500_000, 5_000_000, true),
            (1, 4_000_000, 5_100_000, false),
            (0, 4_500_000, 5_200_000, false),
        ];
        let mut agg = CohortAggregate::new("coh", 3);
        let mut stats = Stats::new();
        for &(ep, sent, now, ce) in deliveries {
            agg.record(ep, 1, 180, SimTime(sent), SimTime(now), ce);
            let flow = stats.flow_id(&format!("coh-ep{ep}"));
            stats.flow_rx(flow, 180, SimTime(sent), SimTime(now));
            if ce {
                stats.flow_ce(flow);
            }
        }
        let mut rx_packets = 0;
        let mut rx_bytes = 0;
        let mut ce_marks = 0;
        let mut delay = Histogram::new();
        // Jitter pools as a mean over every endpoint's consecutive pairs.
        let (mut jitter_sum, mut jitter_samples) = (0.0, 0);
        for ep in 0..3 {
            let f = stats.flow(&format!("coh-ep{ep}")).expect("flow exists");
            rx_packets += f.rx_packets;
            rx_bytes += f.rx_bytes;
            ce_marks += f.ce_marks;
            delay.merge(&f.delay_hist);
            let pairs = f.rx_packets.saturating_sub(1);
            jitter_sum += f.jitter() * pairs as f64;
            jitter_samples += pairs;
        }
        assert_eq!(agg.rx_packets, rx_packets);
        assert_eq!(agg.rx_bytes, rx_bytes);
        assert_eq!(agg.ce_marks, ce_marks);
        assert_eq!(agg.delay_hist, delay);
        assert!(agg.jitter() > 0.0);
        assert!((agg.jitter() - jitter_sum / jitter_samples as f64).abs() < 1e-12);
    }

    #[test]
    fn striping_caps_track_memory_but_keeps_global_counts() {
        let mut agg = CohortAggregate::new("big", 1_000_000);
        assert_eq!(agg.last_delays.len(), AGGREGATE_STRIPES);
        agg.record(999_999, 1000, 100, SimTime(0), SimTime(1_000_000), false);
        assert_eq!(agg.rx_packets, 1000);
        assert_eq!(agg.rx_bytes, 100_000);
        assert_eq!(agg.delay_hist.total(), 1000);
    }

    #[test]
    fn sink_counts_unparseable_frames() {
        let mut sink = PopulationSinkNode::new(vec![("coh".to_string(), 4)]);
        assert!(!sink.ingest(SimTime(0), b"not a frame"));
        assert!(sink.cohort("coh").is_some());
        assert!(sink.cohort("other").is_none());
    }
}
