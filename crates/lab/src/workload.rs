//! The workload library — one axis of the experiment matrix.
//!
//! Every workload is a deterministic one-endpoint arrival lattice (a
//! [`CohortApp`] with a frame limit), generated lazily as its payloads
//! fall due, so the same traffic runs unchanged over the plain and
//! neutralized host stacks and an A/B cell pair differs only in network
//! treatment. Each workload's frame size and interval are constants of
//! this module, and each carries a plaintext content marker (the
//! string a real protocol would leak: RTP framing, HTTP verbs,
//! transport-stream sync bytes) that a content-DPI adversary can key on
//! — and that end-to-end encryption hides.

use crate::population::CohortApp;
use std::io::Write;
use std::time::Duration;

/// A declarative traffic generator: one point on the workload axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadSpec {
    /// Constant-bit-rate VoIP: one 160-byte G.711 frame every 5 ms on a
    /// strict clock. This is the paper's victim traffic — the `paper`
    /// matrix runs exactly this workload.
    Voip,
    /// Bulk transfer: 1200-byte frames back-to-back at 2 Mbit/s, the
    /// "fill the pipe" workload (FTP-style).
    Bulk,
    /// Web-style request/response: a 400-byte request every 25 ms of
    /// think time; the echo path supplies the response.
    Web,
    /// Constant-rate media streaming: 1000-byte frames at 1 Mbit/s
    /// (MPEG-TS-style).
    Stream,
}

impl WorkloadSpec {
    /// [`WorkloadSpec::Voip`], under the name `benchmark/` calls.
    pub fn voip_default() -> Self {
        WorkloadSpec::Voip
    }

    /// [`WorkloadSpec::Bulk`], under the name `benchmark/` calls.
    pub fn bulk_default() -> Self {
        WorkloadSpec::Bulk
    }

    /// [`WorkloadSpec::Web`], under the name `benchmark/` calls.
    pub fn web_default() -> Self {
        WorkloadSpec::Web
    }

    /// [`WorkloadSpec::Stream`], under the name `benchmark/` calls.
    pub fn stream_default() -> Self {
        WorkloadSpec::Stream
    }

    /// Stable axis name (report column and flow name).
    pub fn name(&self) -> &'static str {
        match self {
            WorkloadSpec::Voip => "voip",
            WorkloadSpec::Bulk => "bulk",
            WorkloadSpec::Web => "web",
            WorkloadSpec::Stream => "stream",
        }
    }

    /// The plaintext content signature this workload leaks — what a
    /// content-DPI classifier matches on the plain stack.
    pub fn marker(&self) -> &'static [u8] {
        match self {
            WorkloadSpec::Voip => b"VOIP/RTP",
            WorkloadSpec::Bulk => b"BULK/FTP",
            WorkloadSpec::Web => b"GET /index HTTP/1.1",
            WorkloadSpec::Stream => b"STREAM/TS",
        }
    }

    /// The workload as an app over `duration`: payload `i` is
    /// [`marked_payload`] number `i`, due at `i × interval`, and at least
    /// one is sent (matching the legacy harness).
    pub fn app(&self, duration: Duration) -> CohortApp {
        let (interval, size) = match self {
            WorkloadSpec::Voip => (Duration::from_millis(5), 160),
            WorkloadSpec::Bulk => (rate_interval(1200, 2_000_000), 1200),
            WorkloadSpec::Web => (Duration::from_millis(25), 400),
            WorkloadSpec::Stream => (rate_interval(1000, 1_000_000), 1000),
        };
        let interval_ns = (interval.as_nanos() as u64).max(1);
        let frames = (duration.as_nanos() as u64 / interval_ns).max(1);
        CohortApp::new(self.marker(), interval_ns, 1, size, frames)
    }
}

/// Inter-packet gap that realizes `rate_bps` with `packet_bytes` frames.
fn rate_interval(packet_bytes: usize, rate_bps: u64) -> Duration {
    let ns = (packet_bytes as u128 * 8 * 1_000_000_000) / (rate_bps.max(1) as u128);
    Duration::from_nanos((ns as u64).max(1))
}

/// Appends one app payload to `out`: the content marker plus a sequence
/// number, padded to `size`. In plain cells this marker is exactly what
/// the adversary's content classifier matches.
pub fn marked_payload(out: &mut Vec<u8>, marker: &[u8], seq: u64, size: usize) {
    // A payload too small to carry the marker would silently turn the
    // content-DPI cells into no-ops; fail loudly instead.
    assert!(
        size >= marker.len(),
        "payload size must fit the {}-byte content marker",
        marker.len()
    );
    let start = out.len();
    out.extend_from_slice(marker);
    out.extend_from_slice(b" seq=");
    write!(out, "{seq}").expect("writing to a Vec cannot fail");
    out.resize(start + size, b'.');
}

#[cfg(test)]
mod tests {
    use super::*;
    use nn_core::app::AppSource;
    use nn_netsim::SimTime;

    /// Every `(send time, payload)` the app emits over `duration`,
    /// polled at each wake-up the way a host polls it.
    fn sends(w: &WorkloadSpec, duration: Duration) -> Vec<(SimTime, Vec<u8>)> {
        let mut app = w.app(duration);
        let mut out = Vec::new();
        let mut now = SimTime::ZERO;
        loop {
            let mut payload = Vec::new();
            while app.poll(now, &mut payload) {
                out.push((now, std::mem::take(&mut payload)));
            }
            match app.next_wake(now) {
                Some(next) => now = next,
                None => return out,
            }
        }
    }

    fn payload(marker: &[u8], seq: u64, size: usize) -> Vec<u8> {
        let mut out = Vec::new();
        marked_payload(&mut out, marker, seq, size);
        out
    }

    #[test]
    fn voip_schedule_matches_legacy_cadence() {
        let sched = sends(&WorkloadSpec::Voip, Duration::from_millis(50));
        assert_eq!(sched.len(), 10);
        assert_eq!(sched[0].0, SimTime::ZERO);
        assert_eq!(sched[1].0, SimTime::from_millis(5));
        assert_eq!(sched[9].0, SimTime::from_millis(45));
        assert_eq!(sched[0].1.len(), 160);
        assert!(sched[0].1.starts_with(b"VOIP/RTP seq=0"));
        for (seq, (_, p)) in sched.iter().enumerate() {
            assert_eq!(*p, payload(b"VOIP/RTP", seq as u64, 160));
        }
    }

    /// A late poll hands over every payload that fell due, one per
    /// call, and an app past its limit neither sends nor asks to wake.
    #[test]
    fn late_polls_catch_up_and_the_limit_ends_the_schedule() {
        let mut app = WorkloadSpec::Voip.app(Duration::from_millis(20));
        let mut out = Vec::new();
        assert!(app.poll(SimTime::ZERO, &mut out));
        assert!(!app.poll(SimTime::ZERO, &mut out));
        assert_eq!(app.next_wake(SimTime::ZERO), Some(SimTime::from_millis(5)));
        for _ in 0..3 {
            assert!(app.poll(SimTime::from_secs(1), &mut out));
        }
        assert_eq!(out.len(), 4 * 160, "payloads append to the buffer");
        assert!(!app.poll(SimTime::from_secs(1), &mut out));
        assert_eq!(out.len(), 4 * 160, "a refused poll leaves the buffer");
        assert_eq!(app.next_wake(SimTime::from_secs(1)), None);
    }

    #[test]
    fn every_workload_schedules_and_carries_its_marker() {
        for w in [
            WorkloadSpec::Voip,
            WorkloadSpec::Bulk,
            WorkloadSpec::Web,
            WorkloadSpec::Stream,
        ] {
            let sched = sends(&w, Duration::from_millis(100));
            assert!(!sched.is_empty(), "{} produced no packets", w.name());
            for (_, p) in &sched {
                assert!(
                    p.windows(w.marker().len()).any(|win| win == w.marker()),
                    "{} payload lost its marker",
                    w.name()
                );
            }
            // Schedules are strictly time-ordered.
            assert!(sched.windows(2).all(|p| p[0].0 < p[1].0));
        }
    }

    #[test]
    fn rate_interval_realizes_target_rate() {
        // 1200 B at 2 Mbit/s = 4.8 ms per packet.
        let d = rate_interval(1200, 2_000_000);
        assert_eq!(d, Duration::from_micros(4800));
    }

    #[test]
    fn tiny_duration_still_sends_one_packet() {
        let sched = sends(&WorkloadSpec::Voip, Duration::from_micros(1));
        assert_eq!(sched.len(), 1);
    }

    #[test]
    #[should_panic(expected = "content marker")]
    fn undersized_payload_fails_loudly() {
        payload(b"VOIP/RTP", 0, 3);
    }
}
