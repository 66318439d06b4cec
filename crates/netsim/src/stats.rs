//! Measurement collection.
//!
//! Experiments read everything they report from here: named counters
//! and per-flow accounting (counts, running delay and jitter sums, and
//! a log-scale one-way delay histogram for the percentiles). Nodes write
//! through [`crate::sim::Context::stats`].
//!
//! Counters live in a typed registry. A node registers each counter
//! once, usually from [`crate::sim::Node::on_start`] through a
//! [`counter_set!`](crate::counter_set) struct, and keeps the returned
//! [`CounterId`]; a count is then a bump of one slot's value, with no
//! name formatting, hashing or allocation on the data path. Each
//! counter is classed [`CounterClass::Reported`] (harvested into cell
//! reports whenever nonzero) or [`CounterClass::Internal`] (readable by
//! name, never reported).
//!
//! Flows are registered the same way: [`Stats::flow_id`] hands out a
//! [`FlowId`] once per flow name, and the per-packet accounting calls
//! index a `Vec` by it instead of hashing the name. A host's flow has
//! one endpoint; a population cohort is one flow of many endpoints,
//! whose deliveries may each credit a batch of modeled frames.

use crate::histogram::Histogram;
use crate::time::SimTime;
use std::collections::HashMap;
use std::rc::Rc;

/// Cap on a flow's jitter slots: a flow of `endpoints` keeps
/// `min(endpoints, ENDPOINT_STRIPES)` previous-delay slots (endpoint `e`
/// in slot `e % slots`), so jitter chains are exact per endpoint up to
/// this population size and striped, in bounded memory, beyond it.
pub const ENDPOINT_STRIPES: usize = 4096;

/// Per-flow accounting record.
#[derive(Debug, Clone, Default)]
pub struct FlowStats {
    /// Packets delivered to the flow's sink.
    pub rx_packets: u64,
    /// Bytes delivered.
    pub rx_bytes: u64,
    /// Packets sent by the flow's source.
    pub tx_packets: u64,
    /// Bytes sent.
    pub tx_bytes: u64,
    /// Delivered packets that arrived carrying an ECN CE mark — the
    /// congestion signal an ECN-capable AQM wrote on the path.
    pub ce_marks: u64,
    /// Time of first delivery.
    pub first_rx: Option<SimTime>,
    /// Time of last delivery.
    pub last_rx: Option<SimTime>,
    /// One-way delay distribution, nanoseconds — the source of every
    /// reported delay percentile.
    pub delay_hist: Histogram,
    /// Each endpoint slot's previous one-way delay, seconds (jitter
    /// chains).
    last_delays: Vec<Option<f64>>,
    /// Sum of one-way delays in arrival order, seconds.
    delay_sum: f64,
    /// Sum of |delay(n) − delay(n−1)| along each endpoint's chain,
    /// seconds.
    jitter_sum: f64,
    /// Consecutive-delivery pairs behind `jitter_sum`.
    jitter_pairs: u64,
}

impl FlowStats {
    /// An empty record for a flow of `endpoints` endpoints.
    fn new(endpoints: u64) -> FlowStats {
        let slots = (endpoints.max(1) as usize).min(ENDPOINT_STRIPES);
        FlowStats {
            last_delays: vec![None; slots],
            ..FlowStats::default()
        }
    }

    /// Delivery ratio in [0, 1]; 1.0 when nothing was sent.
    pub fn delivery_ratio(&self) -> f64 {
        if self.tx_packets == 0 {
            1.0
        } else {
            self.rx_packets as f64 / self.tx_packets as f64
        }
    }

    /// Mean one-way delay in seconds (0 when nothing was delivered).
    pub fn mean_delay(&self) -> f64 {
        if self.rx_packets == 0 {
            0.0
        } else {
            self.delay_sum / self.rx_packets as f64
        }
    }

    /// Mean absolute delay variation between consecutive deliveries of
    /// one endpoint (simple jitter proxy), seconds; 0 until some endpoint
    /// has two deliveries.
    pub fn jitter(&self) -> f64 {
        if self.jitter_pairs == 0 {
            0.0
        } else {
            self.jitter_sum / self.jitter_pairs as f64
        }
    }

    /// Receive goodput in bits/sec over the first..last delivery window.
    pub fn goodput_bps(&self) -> f64 {
        match (self.first_rx, self.last_rx) {
            (Some(a), Some(b)) if b > a => (self.rx_bytes as f64 * 8.0) / (b - a).as_secs_f64(),
            _ => 0.0,
        }
    }
}

/// Whether cell reports include a counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterClass {
    /// Harvested into every report in which it is nonzero.
    Reported,
    /// Readable through [`Stats::counter`] (tests, diagnostics) but never
    /// harvested.
    Internal,
}

/// Handle to a registered counter: the index of its slot.
///
/// The default id is unregistered; bumping it panics. Nodes hold default
/// ids until [`crate::sim::Node::on_start`] registers the real ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CounterId(u32);

impl Default for CounterId {
    fn default() -> Self {
        CounterId(u32::MAX)
    }
}

/// Declares a node's counter set: a struct with one [`CounterId`] field
/// per counter, and a `register(stats, prefix)` constructor that
/// registers each field as `"{prefix}.{field}"` with the class written
/// after it, spelling every name in one reused buffer. Nodes call
/// `register` once, from
/// [`Node::on_start`](crate::sim::Node::on_start), and bump the fields
/// on the data path. Adding a counter is one line here plus its bumps.
///
/// ```
/// nn_netsim::counter_set! {
///     /// A toy node's counters.
///     struct ToyCounters {
///         rx: Reported,
///         bad_frame: Internal,
///     }
/// }
/// let mut stats = nn_netsim::Stats::new();
/// let ids = ToyCounters::register(&mut stats, "toy");
/// stats.bump(ids.rx);
/// assert_eq!(stats.counter("toy.rx"), 1);
/// assert_eq!(stats.reported().collect::<Vec<_>>(), vec![("toy.rx", 1)]);
/// ```
#[macro_export]
macro_rules! counter_set {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $($field:ident: $class:ident),* $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, Default)]
        $vis struct $name {
            $($field: $crate::stats::CounterId,)*
        }

        impl $name {
            /// Registers every counter of the set under `prefix`.
            $vis fn register(stats: &mut $crate::stats::Stats, prefix: &str) -> Self {
                let longest = 0usize $(.max(stringify!($field).len()))*;
                let mut buf = String::with_capacity(prefix.len() + 1 + longest);
                let mut id = |field: &str, class| {
                    buf.clear();
                    buf.push_str(prefix);
                    buf.push('.');
                    buf.push_str(field);
                    stats.register(&buf, class)
                };
                $name {
                    $($field: id(stringify!($field), $crate::stats::CounterClass::$class),)*
                }
            }
        }
    };
}

/// Handle to a registered flow: the index of its accounting record.
///
/// The default id is unregistered; accounting against it panics. Hosts
/// hold default ids until [`crate::sim::Node::on_start`] registers the
/// real ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowId(u32);

impl Default for FlowId {
    fn default() -> Self {
        FlowId(u32::MAX)
    }
}

/// A registered counter's slot.
#[derive(Debug)]
struct Counter {
    name: Rc<str>,
    class: CounterClass,
    value: u64,
}

/// Simulation-wide statistics sink.
///
/// Each counter and flow name is stored once, shared by its slot and
/// its lookup entry.
#[derive(Debug, Default)]
pub struct Stats {
    /// Name, class and value per counter, indexed by [`CounterId`].
    counters: Vec<Counter>,
    /// Name → slot, for idempotent registration and by-name reads.
    counter_ids: HashMap<Rc<str>, CounterId>,
    /// Name and record per flow, indexed by [`FlowId`].
    flows: Vec<(Rc<str>, FlowStats)>,
    /// Name → flow, for idempotent registration and by-name reads.
    flow_ids: HashMap<Rc<str>, FlowId>,
}

impl Stats {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a counter and returns its id. Idempotent: registering a
    /// name again returns the same id, so two nodes (or one policy and
    /// its replacement) that name the same counter share its count.
    ///
    /// # Panics
    ///
    /// When `name` is already registered with the other class.
    pub fn register(&mut self, name: &str, class: CounterClass) -> CounterId {
        if let Some(&id) = self.counter_ids.get(name) {
            let registered = self.counters[id.0 as usize].class;
            assert_eq!(
                registered, class,
                "counter {name} registered as {registered:?} and {class:?}"
            );
            return id;
        }
        let id = CounterId(u32::try_from(self.counters.len()).expect("counter registry overflow"));
        let name: Rc<str> = Rc::from(name);
        self.counters.push(Counter {
            name: Rc::clone(&name),
            class,
            value: 0,
        });
        self.counter_ids.insert(name, id);
        id
    }

    /// Increments a registered counter.
    ///
    /// # Panics
    ///
    /// On an unregistered (default) id.
    #[inline]
    pub fn bump(&mut self, id: CounterId) {
        self.counters[id.0 as usize].value += 1;
    }

    /// Reads a counter by name (0 if never registered).
    pub fn counter(&self, name: &str) -> u64 {
        self.counter_ids
            .get(name)
            .map_or(0, |id| self.counters[id.0 as usize].value)
    }

    /// Every nonzero [`CounterClass::Reported`] counter, in registration
    /// order — what a cell report harvests.
    pub fn reported(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters
            .iter()
            .filter(|c| c.class == CounterClass::Reported && c.value > 0)
            .map(|c| (&*c.name, c.value))
    }

    /// Registers a flow of `endpoints` endpoints (a host's flow has one)
    /// and returns its handle. Idempotent: the sending and the receiving
    /// side of one flow share its record, and the first registration
    /// fixes its endpoint count.
    pub fn flow_id(&mut self, name: &str, endpoints: u64) -> FlowId {
        if let Some(&id) = self.flow_ids.get(name) {
            return id;
        }
        let id = FlowId(u32::try_from(self.flows.len()).expect("flow registry overflow"));
        let name: Rc<str> = Rc::from(name);
        self.flows
            .push((Rc::clone(&name), FlowStats::new(endpoints)));
        self.flow_ids.insert(name, id);
        id
    }

    /// The name a flow was registered under.
    pub fn flow_name(&self, id: FlowId) -> &str {
        &self.flows[id.0 as usize].0
    }

    /// Reads a flow record by name.
    pub fn flow(&self, name: &str) -> Option<&FlowStats> {
        self.flow_ids
            .get(name)
            .map(|id| &self.flows[id.0 as usize].1)
    }

    /// All flows, in registration order, for report tables.
    pub fn flows(&self) -> impl Iterator<Item = (&str, &FlowStats)> {
        self.flows.iter().map(|(name, f)| (&**name, f))
    }

    fn flow_mut(&mut self, id: FlowId) -> &mut FlowStats {
        &mut self.flows[id.0 as usize].1
    }

    /// Records `frames` packets of `bytes` bytes in all sent on a flow.
    pub fn flow_tx(&mut self, id: FlowId, frames: u64, bytes: u64) {
        let f = self.flow_mut(id);
        f.tx_packets += frames;
        f.tx_bytes += bytes;
    }

    /// Records `frames` delivered packets that arrived CE-marked on a
    /// flow.
    pub fn flow_ce(&mut self, id: FlowId, frames: u64) {
        self.flow_mut(id).ce_marks += frames;
    }

    /// Records a delivery of `frames` (≥ 1) packets, `bytes` bytes in
    /// all, from one `endpoint` of a flow. The frames share one delay
    /// sample: each adds it to the histogram and the delay sum. Beyond
    /// the step from that endpoint's previous delivery, each further
    /// frame adds a zero jitter sample.
    pub fn flow_rx(
        &mut self,
        id: FlowId,
        endpoint: u32,
        frames: u64,
        bytes: u64,
        sent_at: SimTime,
        now: SimTime,
    ) {
        let f = self.flow_mut(id);
        f.rx_packets += frames;
        f.rx_bytes += bytes;
        let delay = (now - sent_at).as_secs_f64();
        let slot = endpoint as usize % f.last_delays.len();
        if let Some(prev) = f.last_delays[slot] {
            f.jitter_sum += (delay - prev).abs();
            f.jitter_pairs += 1;
        }
        f.jitter_pairs += frames - 1;
        f.last_delays[slot] = Some(delay);
        f.delay_hist.record_secs_n(delay, frames);
        f.delay_sum += delay * frames as f64;
        if f.first_rx.is_none() {
            f.first_rx = Some(now);
        }
        f.last_rx = Some(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut s = Stats::new();
        let drops = s.register("drops", CounterClass::Internal);
        s.bump(drops);
        // Registration is idempotent: a second registrant shares the slot.
        let again = s.register("drops", CounterClass::Internal);
        assert_eq!(again, drops);
        for _ in 0..4 {
            s.bump(again);
        }
        assert_eq!(s.counter("drops"), 5);
        assert_eq!(s.counter("never"), 0);
    }

    /// Harvest sees exactly the nonzero reported counters; internal and
    /// never-bumped ones stay out.
    #[test]
    fn reported_skips_internal_and_zero_counters() {
        let mut s = Stats::new();
        let a = s.register("a.reported", CounterClass::Reported);
        let b = s.register("b.internal", CounterClass::Internal);
        s.register("c.idle", CounterClass::Reported);
        s.bump(a);
        s.bump(b);
        s.bump(b);
        assert_eq!(s.reported().collect::<Vec<_>>(), vec![("a.reported", 1)]);
        assert_eq!(s.counter("b.internal"), 2);
        assert_eq!(s.counter("c.idle"), 0);
    }

    #[test]
    #[should_panic(expected = "registered as Reported and Internal")]
    fn register_rejects_a_class_change() {
        let mut s = Stats::new();
        s.register("x", CounterClass::Reported);
        s.register("x", CounterClass::Internal);
    }

    #[test]
    fn flow_accounting() {
        let mut s = Stats::new();
        let k = s.flow_id("voip:ann->ben", 1);
        assert_eq!(
            s.flow_id("voip:ann->ben", 1),
            k,
            "registration is idempotent"
        );
        s.flow_tx(k, 1, 100);
        s.flow_tx(k, 1, 100);
        s.flow_rx(k, 0, 1, 100, SimTime::ZERO, SimTime::from_millis(30));
        s.flow_ce(k, 1);
        let f = s.flow("voip:ann->ben").unwrap();
        assert_eq!(f.tx_packets, 2);
        assert_eq!(f.rx_packets, 1);
        assert_eq!(f.ce_marks, 1);
        assert!((f.delivery_ratio() - 0.5).abs() < 1e-12);
        assert!((f.mean_delay() - 0.030).abs() < 1e-9);
    }

    #[test]
    fn empty_flow_defaults() {
        let f = FlowStats::default();
        assert_eq!(f.delivery_ratio(), 1.0);
        assert_eq!(f.mean_delay(), 0.0);
        assert_eq!(f.jitter(), 0.0);
        assert_eq!(f.goodput_bps(), 0.0);
        assert!(f.delay_hist.is_empty());
    }

    #[test]
    fn percentiles_and_jitter() {
        let mut s = Stats::new();
        let k = s.flow_id("f", 1);
        for ms in [10, 20, 30, 40, 100] {
            s.flow_rx(k, 0, 1, 10, SimTime::ZERO, SimTime::from_millis(ms));
        }
        let f = s.flow("f").unwrap();
        // (10+20+30+40+100) / 5 = 40 ms.
        assert!((f.mean_delay() - 0.040).abs() < 1e-12);
        // |0.01|+|0.01|+|0.01|+|0.06| / 4 = 0.0225
        assert!((f.jitter() - 0.0225).abs() < 1e-12);
        // Percentiles come off the histogram: each quantile's bucket
        // brackets the nearest-rank sample.
        for (q, ms) in [(0.0, 10), (0.5, 30), (1.0, 100)] {
            let (lo, hi) = f.delay_hist.quantile_bounds(q);
            assert!(lo <= ms * 1_000_000 && ms * 1_000_000 <= hi, "q {q}");
        }
    }

    /// Pins percentile semantics at the boundaries of the delay
    /// histogram every report column reads: q=0 lands in the minimum's
    /// bucket, q=1 in the maximum's, out-of-range q clamps, and a single
    /// delivery answers every quantile.
    #[test]
    fn percentile_boundary_semantics() {
        let bucket = |ms: u64| {
            let mut one = Histogram::new();
            one.record(ms * 1_000_000);
            one.quantile_bounds(1.0)
        };
        let mut s = Stats::new();
        let f = s.flow_id("f", 1);
        for ms in [50, 10, 30] {
            // Deliberately unsorted.
            s.flow_rx(f, 0, 1, 10, SimTime::ZERO, SimTime::from_millis(ms));
        }
        let h = &s.flow("f").unwrap().delay_hist;
        assert_eq!(h.quantile_bounds(0.0), bucket(10));
        assert_eq!(h.quantile_bounds(1.0), bucket(50));
        assert_eq!(h.quantile_bounds(-1.0), bucket(10));
        assert_eq!(h.quantile_bounds(10.0), bucket(50));

        let single = s.flow_id("single", 1);
        s.flow_rx(single, 0, 1, 10, SimTime::ZERO, SimTime::from_millis(42));
        let single = &s.flow("single").unwrap().delay_hist;
        for q in [0.0, 0.37, 0.5, 0.99, 1.0] {
            assert_eq!(single.quantile_bounds(q), bucket(42));
        }
    }

    #[test]
    fn goodput_over_window() {
        let mut s = Stats::new();
        let k = s.flow_id("bulk", 1);
        s.flow_tx(k, 1, 1000);
        s.flow_rx(k, 0, 1, 1000, SimTime::ZERO, SimTime::from_secs(1));
        s.flow_tx(k, 1, 1000);
        s.flow_rx(k, 0, 1, 1000, SimTime::ZERO, SimTime::from_secs(2));
        // 2000 bytes over 1 second window = 16 kbps.
        assert!((s.flow("bulk").unwrap().goodput_bps() - 16_000.0).abs() < 1e-6);
    }

    /// The first registration sizes the record; a later one under the
    /// same name (a host resolving a name read off the wire) gets the
    /// same id and leaves the size alone.
    #[test]
    fn later_registration_keeps_the_first_size() {
        let mut s = Stats::new();
        let coh = s.flow_id("coh", 3);
        assert_eq!(s.flow_id("coh", 1), coh);
        assert_eq!(s.flow_id("coh", 1_000_000), coh);
        assert_eq!(s.flow("coh").unwrap().last_delays.len(), 3);
        let host = s.flow_id("host", 1);
        assert_eq!(s.flow_id("host", 3), host);
        assert_eq!(s.flow("host").unwrap().last_delays.len(), 1);
    }

    /// A fluid batch shares one delay sample: beyond the step from the
    /// endpoint's previous delivery, each of its `frames − 1` further
    /// frames adds a zero jitter sample to the mean.
    #[test]
    fn fluid_batch_adds_zero_jitter_samples() {
        let mut s = Stats::new();
        let coh = s.flow_id("coh", 1);
        let (d1, d2): (f64, f64) = (0.002, 0.005);
        s.flow_rx(coh, 0, 1, 100, SimTime(0), SimTime(2_000_000));
        assert_eq!(
            s.flow("coh").unwrap().jitter(),
            0.0,
            "one delivery has no jitter yet"
        );
        s.flow_rx(coh, 0, 4, 400, SimTime(10_000_000), SimTime(15_000_000));
        let f = s.flow("coh").unwrap();
        assert_eq!(f.jitter(), (d2 - d1).abs() / 4.0);
        assert_eq!(f.rx_packets, 5);
        assert_eq!(f.delay_hist.total(), 5);
        assert_eq!(f.mean_delay(), (d1 + 4.0 * d2) / 5.0);
    }

    /// Interleave three endpoints' deliveries, with reordering and CE
    /// marks, into one three-endpoint flow and into three one-endpoint
    /// flows: the merged one-endpoint records equal the three-endpoint
    /// one.
    #[test]
    fn n_endpoint_flow_equals_n_one_endpoint_flows_merged() {
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
        let mut s = Stats::new();
        let coh = s.flow_id("coh", 3);
        for &(ep, sent, now, ce) in deliveries {
            let host = s.flow_id(&format!("coh-ep{ep}"), 1);
            for (flow, endpoint) in [(coh, ep), (host, 0)] {
                s.flow_rx(flow, endpoint, 1, 180, SimTime(sent), SimTime(now));
                if ce {
                    s.flow_ce(flow, 1);
                }
            }
        }
        let mut merged = FlowStats::new(1);
        for ep in 0..3 {
            let f = s.flow(&format!("coh-ep{ep}")).expect("flow exists");
            merged.rx_packets += f.rx_packets;
            merged.rx_bytes += f.rx_bytes;
            merged.ce_marks += f.ce_marks;
            merged.delay_hist.merge(&f.delay_hist);
            // Jitter pools as a mean over every endpoint's consecutive
            // pairs.
            merged.jitter_sum += f.jitter_sum;
            merged.jitter_pairs += f.jitter_pairs;
        }
        let coh = s.flow("coh").unwrap();
        assert_eq!(coh.rx_packets, merged.rx_packets);
        assert_eq!(coh.rx_bytes, merged.rx_bytes);
        assert_eq!(coh.ce_marks, merged.ce_marks);
        assert_eq!(coh.delay_hist, merged.delay_hist);
        assert!(coh.jitter() > 0.0);
        assert!((coh.jitter() - merged.jitter()).abs() < 1e-12);
    }

    /// A flow of more endpoints than [`ENDPOINT_STRIPES`] keeps that many
    /// jitter slots: endpoints `e` and `e + ENDPOINT_STRIPES` share a
    /// chain, neighbours do not, and the counts cover every frame.
    #[test]
    fn striping_caps_track_memory_but_keeps_global_counts() {
        let mut s = Stats::new();
        let big = s.flow_id("big", 1_000_000);
        assert_eq!(s.flow("big").unwrap().last_delays.len(), ENDPOINT_STRIPES);
        s.flow_rx(big, 999_999, 1000, 100_000, SimTime(0), SimTime(1_000_000));
        let f = s.flow("big").unwrap();
        assert_eq!(f.rx_packets, 1000);
        assert_eq!(f.rx_bytes, 100_000);
        assert_eq!(f.delay_hist.total(), 1000);
        // 999_999 % 4096 = 575: endpoint 575 continues its chain, 576
        // starts its own.
        s.flow_rx(big, 575, 1, 100, SimTime(0), SimTime(3_000_000));
        s.flow_rx(big, 576, 1, 100, SimTime(0), SimTime(5_000_000));
        let (d1, d2): (f64, f64) = (0.001, 0.003);
        assert_eq!(s.flow("big").unwrap().jitter(), (d2 - d1).abs() / 1000.0);
    }
}
