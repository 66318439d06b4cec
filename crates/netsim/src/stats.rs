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
//! [`CounterId`]; a count is then a bump of one `Vec<u64>` slot, with no
//! name formatting, hashing or allocation on the data path. Each
//! counter is classed [`CounterClass::Reported`] (harvested into cell
//! reports whenever nonzero) or [`CounterClass::Internal`] (readable by
//! name, never reported).
//!
//! Flows are registered the same way: [`Stats::flow_id`] hands out a
//! [`FlowId`] once per flow name, and the per-packet accounting calls
//! index a `Vec` by it instead of hashing the name.

use crate::histogram::Histogram;
use crate::time::SimTime;
use std::collections::HashMap;

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
    /// Previous delivery's one-way delay, seconds (jitter tracking).
    last_delay: Option<f64>,
    /// Sum of one-way delays in arrival order, seconds.
    delay_sum: f64,
    /// Sum of |delay(n) − delay(n−1)| in arrival order, seconds.
    jitter_sum: f64,
}

impl FlowStats {
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

    /// Mean absolute delay variation between consecutive deliveries
    /// (simple jitter proxy), seconds; 0 with fewer than two deliveries.
    pub fn jitter(&self) -> f64 {
        if self.rx_packets < 2 {
            0.0
        } else {
            self.jitter_sum / (self.rx_packets - 1) as f64
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

/// Handle to a registered counter: the index of its value slot.
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
/// after it. Nodes call `register` once, from
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
                $name {
                    $($field: stats.register(
                        &format!("{prefix}.{}", stringify!($field)),
                        $crate::stats::CounterClass::$class,
                    ),)*
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

/// Simulation-wide statistics sink.
#[derive(Debug, Default)]
pub struct Stats {
    /// Counter values, indexed by [`CounterId`].
    counters: Vec<u64>,
    /// Name and class per counter slot, in registration order.
    counter_meta: Vec<(String, CounterClass)>,
    /// Name → slot, for idempotent registration and by-name reads.
    counter_ids: HashMap<String, CounterId>,
    /// Name and record per flow, indexed by [`FlowId`].
    flows: Vec<(String, FlowStats)>,
    /// Name → flow, for idempotent registration and by-name reads.
    flow_ids: HashMap<String, FlowId>,
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
            let registered = self.counter_meta[id.0 as usize].1;
            assert_eq!(
                registered, class,
                "counter {name} registered as {registered:?} and {class:?}"
            );
            return id;
        }
        let id = CounterId(u32::try_from(self.counters.len()).expect("counter registry overflow"));
        self.counters.push(0);
        self.counter_meta.push((name.to_string(), class));
        self.counter_ids.insert(name.to_string(), id);
        id
    }

    /// Increments a registered counter.
    ///
    /// # Panics
    ///
    /// On an unregistered (default) id.
    #[inline]
    pub fn bump(&mut self, id: CounterId) {
        self.counters[id.0 as usize] += 1;
    }

    /// Reads a counter by name (0 if never registered).
    pub fn counter(&self, name: &str) -> u64 {
        self.counter_ids
            .get(name)
            .map_or(0, |id| self.counters[id.0 as usize])
    }

    /// Every nonzero [`CounterClass::Reported`] counter, in registration
    /// order — what a cell report harvests.
    pub fn reported(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counter_meta
            .iter()
            .zip(&self.counters)
            .filter(|((_, class), &v)| *class == CounterClass::Reported && v > 0)
            .map(|((name, _), &v)| (name.as_str(), v))
    }

    /// Registers a flow and returns its handle. Idempotent: the sending
    /// and the receiving host of one flow share its record.
    pub fn flow_id(&mut self, name: &str) -> FlowId {
        if let Some(&id) = self.flow_ids.get(name) {
            return id;
        }
        let id = FlowId(u32::try_from(self.flows.len()).expect("flow registry overflow"));
        self.flows.push((name.to_string(), FlowStats::default()));
        self.flow_ids.insert(name.to_string(), id);
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
        self.flows.iter().map(|(name, f)| (name.as_str(), f))
    }

    fn flow_mut(&mut self, id: FlowId) -> &mut FlowStats {
        &mut self.flows[id.0 as usize].1
    }

    /// Records a packet transmission on a flow.
    pub fn flow_tx(&mut self, id: FlowId, bytes: usize) {
        let f = self.flow_mut(id);
        f.tx_packets += 1;
        f.tx_bytes += bytes as u64;
    }

    /// Records a delivered packet that arrived CE-marked on a flow.
    pub fn flow_ce(&mut self, id: FlowId) {
        self.flow_mut(id).ce_marks += 1;
    }

    /// Records a packet delivery on a flow.
    pub fn flow_rx(&mut self, id: FlowId, bytes: usize, sent_at: SimTime, now: SimTime) {
        let f = self.flow_mut(id);
        f.rx_packets += 1;
        f.rx_bytes += bytes as u64;
        let delay = (now - sent_at).as_secs_f64();
        if let Some(prev) = f.last_delay {
            f.jitter_sum += (delay - prev).abs();
        }
        f.last_delay = Some(delay);
        f.delay_hist.record_secs(delay);
        f.delay_sum += delay;
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
        let k = s.flow_id("voip:ann->ben");
        assert_eq!(s.flow_id("voip:ann->ben"), k, "registration is idempotent");
        s.flow_tx(k, 100);
        s.flow_tx(k, 100);
        s.flow_rx(k, 100, SimTime::ZERO, SimTime::from_millis(30));
        s.flow_ce(k);
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
        let k = s.flow_id("f");
        for ms in [10, 20, 30, 40, 100] {
            s.flow_rx(k, 10, SimTime::ZERO, SimTime::from_millis(ms));
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
        let f = s.flow_id("f");
        for ms in [50, 10, 30] {
            // Deliberately unsorted.
            s.flow_rx(f, 10, SimTime::ZERO, SimTime::from_millis(ms));
        }
        let h = &s.flow("f").unwrap().delay_hist;
        assert_eq!(h.quantile_bounds(0.0), bucket(10));
        assert_eq!(h.quantile_bounds(1.0), bucket(50));
        assert_eq!(h.quantile_bounds(-1.0), bucket(10));
        assert_eq!(h.quantile_bounds(10.0), bucket(50));

        let single = s.flow_id("single");
        s.flow_rx(single, 10, SimTime::ZERO, SimTime::from_millis(42));
        let single = &s.flow("single").unwrap().delay_hist;
        for q in [0.0, 0.37, 0.5, 0.99, 1.0] {
            assert_eq!(single.quantile_bounds(q), bucket(42));
        }
    }

    #[test]
    fn goodput_over_window() {
        let mut s = Stats::new();
        let k = s.flow_id("bulk");
        s.flow_tx(k, 1000);
        s.flow_rx(k, 1000, SimTime::ZERO, SimTime::from_secs(1));
        s.flow_tx(k, 1000);
        s.flow_rx(k, 1000, SimTime::ZERO, SimTime::from_secs(2));
        // 2000 bytes over 1 second window = 16 kbps.
        assert!((s.flow("bulk").unwrap().goodput_bps() - 16_000.0).abs() < 1e-6);
    }
}
