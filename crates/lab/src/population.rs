//! The population axis: declarative flyweight-cohort specs and their
//! lowering onto [`nn_netsim::population`].
//!
//! A [`PopulationSpec`] is a list of [`CohortDef`]s — integer-only
//! descriptions of statistical traffic classes (endpoint count,
//! per-endpoint interval, frame-size mix, DPI-visible workload kind,
//! packet vs fluid advancement) — that rides the topology axis: the
//! `metro` shape lowers it onto one [`nn_netsim::PopulationNode`] /
//! [`nn_netsim::PopulationSinkNode`] pair feeding the discriminator
//! bottleneck, and per-cohort aggregates surface as extra flow rows in
//! the cell report.
//!
//! [`CohortApp`] is the same arrival lattice as an [`AppSource`]: one
//! endpoint's schedule driving a full host stack. It is what
//! `attach_background` stubs now wrap (a background customer is just a
//! one-endpoint bulk cohort), what every workload runs as (with a frame
//! limit), and what the cross-validation tests use to run N real hosts
//! on exactly the schedules a population models.

use crate::workload::marked_payload;
use nn_core::app::AppSource;
use nn_netsim::population::ArrivalClock;
use nn_netsim::{CohortModel, SimTime};

/// The DPI-visible traffic class of a cohort, keyed to the same
/// content markers as the [`crate::workload`] axis so content-DPI
/// adversaries classify population traffic exactly like foreground
/// flows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CohortKind {
    /// VoIP-marked frames (`VOIP/RTP`), the paper's victim class.
    Voip,
    /// Bulk-transfer-marked frames (`BULK/FTP`).
    Bulk,
    /// Web-request-marked frames (`GET /index HTTP/1.1`).
    Web,
    /// Streaming-marked frames (`STREAM/TS`).
    Stream,
    /// Cross-traffic marker (`BG/CROSS`) matching no workload DPI
    /// signature — competes for capacity, not for the classifier.
    Cross,
    /// No marker at all — the neutralized cohort content policies
    /// cannot classify.
    Neutral,
}

impl CohortKind {
    /// The content marker this kind stamps on every frame (`None` for
    /// the neutralized cohort).
    pub fn marker(&self) -> Option<&'static [u8]> {
        match self {
            CohortKind::Voip => Some(b"VOIP/RTP"),
            CohortKind::Bulk => Some(b"BULK/FTP"),
            CohortKind::Web => Some(b"GET /index HTTP/1.1"),
            CohortKind::Stream => Some(b"STREAM/TS"),
            CohortKind::Cross => Some(b"BG/CROSS"),
            CohortKind::Neutral => None,
        }
    }

    /// Short stable token for axis names and flow labels.
    pub fn token(&self) -> &'static str {
        match self {
            CohortKind::Voip => "voip",
            CohortKind::Bulk => "bulk",
            CohortKind::Web => "web",
            CohortKind::Stream => "stream",
            CohortKind::Cross => "cross",
            CohortKind::Neutral => "neutral",
        }
    }
}

/// One cohort of a population — integer fields only, so the topology
/// axis that carries it stays `Eq` (baseline matching compares specs
/// structurally).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CohortDef {
    /// Traffic class (marker + label).
    pub kind: CohortKind,
    /// Modeled endpoint count.
    pub endpoints: u64,
    /// Per-endpoint emission interval, microseconds.
    pub interval_us: u64,
    /// Nominal application body bytes per frame.
    pub frame_bytes: u32,
    /// Uniform extra body bytes in `[0, size_spread]` per frame (packet
    /// mode; seeded from the cell RNG).
    pub size_spread: u32,
    /// Seeded micro-jitter on arrival wakeups (packet mode).
    pub jitter: bool,
    /// Advance this cohort as a fluid rate equation, once per
    /// [`nn_netsim::FLUID_QUANTUM`], instead of frame-by-frame.
    pub fluid: bool,
}

impl CohortDef {
    /// Stable token encoding the parameters:
    /// `{kind}{endpoints}-{interval_us}u{p|f}`.
    pub fn token(&self) -> String {
        format!(
            "{}{}-{}u{}",
            self.kind.token(),
            self.endpoints,
            self.interval_us,
            if self.fluid { "f" } else { "p" }
        )
    }

    /// Lowers the definition onto a netsim [`CohortModel`] under the
    /// given flow name.
    pub fn to_model(&self, name: impl Into<String>) -> CohortModel {
        CohortModel {
            name: name.into(),
            endpoints: self.endpoints,
            interval_ns: self.interval_us * 1_000,
            frame_bytes: self.frame_bytes as usize,
            size_spread: self.size_spread as usize,
            arrival_jitter: self.jitter,
            marker: self.kind.marker().map(|m| m.to_vec()),
            fluid: self.fluid,
        }
    }

    /// The same schedule as an unbounded [`AppSource`] driving one host
    /// stack — the thin-wrapper path background stubs and
    /// cross-validation hosts use.
    pub fn app(&self) -> CohortApp {
        CohortApp::new(
            self.kind.marker().unwrap_or(b""),
            self.interval_us * 1_000,
            self.endpoints,
            self.frame_bytes as usize,
            u64::MAX,
        )
    }
}

/// The population riding a topology: an ordered cohort list. Cohort `i`
/// gets the flow name `pop{i}-{kind}` in reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PopulationSpec {
    /// The cohorts, in report order.
    pub cohorts: Vec<CohortDef>,
}

impl PopulationSpec {
    /// The metro default: a DPI-classifiable VoIP cohort running
    /// packet-accurate (the foreground class the adversary throttles)
    /// next to a large neutralized bulk cohort advancing fluid (the
    /// mass-market load content policies cannot classify).
    pub fn metro_default() -> PopulationSpec {
        PopulationSpec {
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
                    endpoints: 1_000,
                    interval_us: 200_000,
                    frame_bytes: 400,
                    size_spread: 0,
                    jitter: false,
                    fluid: true,
                },
            ],
        }
    }

    /// `count` single-endpoint bulk cross-traffic cohorts — the small
    /// population behind `background_flows` stub customers: 1200-byte
    /// frames every 4.8 ms is 2 Mbit/s per customer, the legacy
    /// background schedule.
    pub fn background(count: usize) -> PopulationSpec {
        PopulationSpec {
            cohorts: (0..count)
                .map(|_| CohortDef {
                    kind: CohortKind::Cross,
                    endpoints: 1,
                    interval_us: 4_800,
                    frame_bytes: 1_200,
                    size_spread: 0,
                    jitter: false,
                    fluid: false,
                })
                .collect(),
        }
    }

    /// Stable token joining every cohort token with `+`.
    pub fn token(&self) -> String {
        self.cohorts
            .iter()
            .map(CohortDef::token)
            .collect::<Vec<_>>()
            .join("+")
    }

    /// Flow name of cohort `i`.
    pub fn flow_name(&self, i: usize) -> String {
        format!("pop{i}-{}", self.cohorts[i].kind.token())
    }

    /// Lowers every cohort onto its netsim model, in order.
    pub fn models(&self) -> Vec<CohortModel> {
        self.cohorts
            .iter()
            .enumerate()
            .map(|(i, c)| c.to_model(self.flow_name(i)))
            .collect()
    }
}

/// One endpoint-lattice schedule as an [`AppSource`]: writes
/// [`marked_payload`] frames into the host's buffer as the cohort's
/// arrival clock makes them due, up to a frame limit. With one endpoint
/// this is exactly the legacy background schedule (frame `seq` at
/// `seq × interval`); with `N` endpoints it drives one host through the
/// interleaved population schedule for cross-validation.
#[derive(Debug, Clone)]
pub struct CohortApp {
    marker: &'static [u8],
    frame_bytes: usize,
    clock: ArrivalClock,
    /// Frames sent in all; `u64::MAX` never runs out.
    limit: u64,
}

impl CohortApp {
    /// `endpoints` sources, each sending a `frame_bytes` payload every
    /// `interval_ns`, until `limit` frames have gone in all.
    pub fn new(
        marker: &'static [u8],
        interval_ns: u64,
        endpoints: u64,
        frame_bytes: usize,
        limit: u64,
    ) -> CohortApp {
        CohortApp {
            marker,
            frame_bytes,
            clock: ArrivalClock::new(interval_ns, endpoints),
            limit,
        }
    }
}

impl AppSource for CohortApp {
    fn poll(&mut self, now: SimTime, out: &mut Vec<u8>) -> bool {
        if self.clock.next_seq() >= self.limit {
            return false;
        }
        let Some(arrival) = self.clock.pop_due(now.as_nanos()) else {
            return false;
        };
        marked_payload(out, self.marker, arrival.seq, self.frame_bytes);
        true
    }

    fn next_wake(&self, _now: SimTime) -> Option<SimTime> {
        (self.clock.next_seq() < self.limit).then(|| SimTime(self.clock.next_time()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cohort_app_reproduces_the_legacy_background_schedule() {
        // The old BackgroundApp emitted marked_payload(b"BG/CROSS",
        // seq, 1200) at seq × 4_800_000 ns with next_wake at the next
        // multiple; a one-endpoint Cross cohort must be byte-identical.
        let def = &PopulationSpec::background(1).cohorts[0];
        let mut app = def.app();
        // seq 0, 1, 2 are due at 0 / 4.8ms / 9.6ms.
        for seq in 0..3 {
            let mut data = Vec::new();
            assert!(app.poll(SimTime(9_600_000), &mut data));
            let mut expect = Vec::new();
            marked_payload(&mut expect, b"BG/CROSS", seq, 1200);
            assert_eq!(data, expect);
        }
        assert_eq!(app.next_wake(SimTime(9_600_000)), Some(SimTime(14_400_000)));
        assert!(!app.poll(SimTime(9_600_000), &mut Vec::new()));
    }

    #[test]
    fn spec_tokens_and_models_are_stable() {
        let spec = PopulationSpec::metro_default();
        assert_eq!(spec.token(), "voip16-20000up+neutral1000-200000uf");
        assert_eq!(spec.flow_name(0), "pop0-voip");
        assert_eq!(spec.flow_name(1), "pop1-neutral");
        let models = spec.models();
        assert_eq!(models[0].marker.as_deref(), Some(&b"VOIP/RTP"[..]));
        assert_eq!(models[0].interval_ns, 20_000_000);
        assert!(models[1].marker.is_none());
        assert!(models[1].fluid);
        assert_eq!(models.iter().map(|m| m.endpoints).sum::<u64>(), 1_016);
    }
}
