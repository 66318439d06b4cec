//! Output queues.
//!
//! Each link direction drains one of these. The QoS experiment (E8) needs
//! DSCP-aware priority queuing — the paper's §3.4 argues tiered service
//! keeps working through a neutralizer precisely because the DSCP survives
//! — and the discrimination policies need token-bucket policing and RED
//! for degradation that is throughput-shaped rather than all-or-nothing.
//!
//! Queues move pooled [`FrameBuf`]s and never free a frame themselves: a
//! rejected frame rides back to the caller in
//! [`EnqueueResult::Dropped`], so the engine can recycle its buffer —
//! queue drops are exactly the hot path of a congested simulation.

use crate::frame::FrameBuf;
use nn_packet::{ecn, Ipv4Packet};
use std::collections::VecDeque;

/// A queued frame.
#[derive(Debug, Clone)]
pub struct QueuedFrame {
    /// The wire bytes.
    pub frame: FrameBuf,
}

/// Outcome of an enqueue attempt.
#[derive(Debug, PartialEq, Eq)]
pub enum EnqueueResult {
    /// Frame accepted.
    Accepted,
    /// Frame rejected (queue policy); the buffer comes back to the
    /// caller for recycling.
    Dropped(FrameBuf),
    /// Frame accepted after an ECN CE mark: an ECN-capable AQM signalled
    /// congestion in-band instead of dropping (RFC 3168).
    Marked,
}

/// A drop-policy queue feeding a link serializer.
pub trait Queue: Send {
    /// Offers a frame; the queue may accept it or hand it back dropped.
    fn enqueue(&mut self, frame: FrameBuf, rng_draw: f64) -> EnqueueResult;
    /// Takes the next frame to serialize.
    fn dequeue(&mut self) -> Option<QueuedFrame>;
    /// Bytes currently held.
    fn len_bytes(&self) -> usize;
    /// Frames currently held.
    fn len_frames(&self) -> usize;
    /// True when nothing is queued.
    fn is_empty(&self) -> bool {
        self.len_frames() == 0
    }
}

/// Plain FIFO with a byte-capacity tail drop.
#[derive(Debug)]
pub struct DropTail {
    capacity_bytes: usize,
    bytes: usize,
    frames: VecDeque<QueuedFrame>,
}

impl DropTail {
    /// A queue holding at most `capacity_bytes`.
    pub fn new(capacity_bytes: usize) -> Self {
        DropTail {
            capacity_bytes,
            bytes: 0,
            frames: VecDeque::new(),
        }
    }
}

impl Queue for DropTail {
    fn enqueue(&mut self, frame: FrameBuf, _rng_draw: f64) -> EnqueueResult {
        if self.bytes + frame.len() > self.capacity_bytes {
            return EnqueueResult::Dropped(frame);
        }
        self.bytes += frame.len();
        self.frames.push_back(QueuedFrame { frame });
        EnqueueResult::Accepted
    }

    fn dequeue(&mut self) -> Option<QueuedFrame> {
        let f = self.frames.pop_front()?;
        self.bytes -= f.frame.len();
        Some(f)
    }

    fn len_bytes(&self) -> usize {
        self.bytes
    }

    fn len_frames(&self) -> usize {
        self.frames.len()
    }
}

/// Strict-priority DSCP queue: expedited band drains before best effort.
///
/// Bands (highest first): DSCP ≥ 40 (EF/premium), 8..40 (assured), < 8
/// (best effort). Frames that do not parse as IPv4 go to best effort.
#[derive(Debug)]
pub struct DscpPriority {
    bands: [DropTail; 3],
}

impl DscpPriority {
    /// Builds a priority queue with `capacity_bytes` per band.
    pub fn new(capacity_bytes: usize) -> Self {
        DscpPriority {
            bands: [
                DropTail::new(capacity_bytes),
                DropTail::new(capacity_bytes),
                DropTail::new(capacity_bytes),
            ],
        }
    }

    fn band_for(frame: &[u8]) -> usize {
        match Ipv4Packet::new_checked(frame) {
            Ok(p) => {
                let dscp = p.dscp();
                if dscp >= 40 {
                    0
                } else if dscp >= 8 {
                    1
                } else {
                    2
                }
            }
            Err(_) => 2,
        }
    }
}

impl Queue for DscpPriority {
    fn enqueue(&mut self, frame: FrameBuf, rng_draw: f64) -> EnqueueResult {
        let band = Self::band_for(&frame);
        self.bands[band].enqueue(frame, rng_draw)
    }

    fn dequeue(&mut self) -> Option<QueuedFrame> {
        for band in &mut self.bands {
            if let Some(f) = band.dequeue() {
                return Some(f);
            }
        }
        None
    }

    fn len_bytes(&self) -> usize {
        self.bands.iter().map(|b| b.len_bytes()).sum()
    }

    fn len_frames(&self) -> usize {
        self.bands.iter().map(|b| b.len_frames()).sum()
    }
}

/// Random Early Detection: drop probability ramps linearly between the
/// two thresholds, becoming certain above the max. With
/// [`Red::with_ecn`], the early ramp marks CE on ECT-capable frames
/// instead of dropping them (drops still happen above `max_bytes`, and
/// for frames that are not ECN-capable).
#[derive(Debug)]
pub struct Red {
    inner: DropTail,
    min_bytes: usize,
    max_bytes: usize,
    max_prob: f64,
    ecn_mark: bool,
}

impl Red {
    /// Builds a RED queue. `capacity` bounds the physical queue;
    /// `min..max` is the early-drop ramp; `max_prob` the ramp ceiling.
    pub fn new(capacity: usize, min_bytes: usize, max_bytes: usize, max_prob: f64) -> Self {
        assert!(min_bytes < max_bytes && max_bytes <= capacity);
        assert!((0.0..=1.0).contains(&max_prob));
        Red {
            inner: DropTail::new(capacity),
            min_bytes,
            max_bytes,
            max_prob,
            ecn_mark: false,
        }
    }

    /// Enables or disables CE marking on the early-drop ramp.
    pub fn with_ecn(mut self, ecn_mark: bool) -> Self {
        self.ecn_mark = ecn_mark;
        self
    }

    /// True when `frame` is an IPv4 packet carrying ECT(0) or ECT(1).
    fn is_ect_frame(frame: &[u8]) -> bool {
        Ipv4Packet::new_checked(frame)
            .map(|p| ecn::is_ect(p.ecn()))
            .unwrap_or(false)
    }
}

impl Queue for Red {
    fn enqueue(&mut self, mut frame: FrameBuf, rng_draw: f64) -> EnqueueResult {
        let occ = self.inner.len_bytes();
        if occ >= self.max_bytes {
            return EnqueueResult::Dropped(frame);
        }
        if occ > self.min_bytes {
            let ramp = (occ - self.min_bytes) as f64 / (self.max_bytes - self.min_bytes) as f64;
            if rng_draw < ramp * self.max_prob {
                if self.ecn_mark && Self::is_ect_frame(&frame) {
                    Ipv4Packet::new_unchecked(frame.as_mut_slice()).set_ecn(ecn::CE);
                    return match self.inner.enqueue(frame, rng_draw) {
                        EnqueueResult::Accepted => EnqueueResult::Marked,
                        other => other,
                    };
                }
                return EnqueueResult::Dropped(frame);
            }
        }
        self.inner.enqueue(frame, rng_draw)
    }

    fn dequeue(&mut self) -> Option<QueuedFrame> {
        self.inner.dequeue()
    }

    fn len_bytes(&self) -> usize {
        self.inner.len_bytes()
    }

    fn len_frames(&self) -> usize {
        self.inner.len_frames()
    }
}

/// Token-bucket policer used by the discriminatory rate limits.
///
/// This is a policing meter, not a shaping queue: callers ask whether a
/// frame of `len` bytes conforms at time `now_ns`, and non-conforming
/// frames are dropped by the caller.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    rate_bps: u64,
    burst_bytes: f64,
    tokens: f64,
    last_ns: u64,
}

impl TokenBucket {
    /// A bucket refilling at `rate_bps` with capacity `burst_bytes`.
    pub fn new(rate_bps: u64, burst_bytes: usize) -> Self {
        TokenBucket {
            rate_bps,
            burst_bytes: burst_bytes as f64,
            tokens: burst_bytes as f64,
            last_ns: 0,
        }
    }

    /// Returns true (and spends tokens) if a `len`-byte frame conforms.
    pub fn conforms(&mut self, now_ns: u64, len: usize) -> bool {
        let dt = now_ns.saturating_sub(self.last_ns) as f64 / 1e9;
        self.last_ns = now_ns;
        self.tokens = (self.tokens + dt * self.rate_bps as f64 / 8.0).min(self.burst_bytes);
        if self.tokens >= len as f64 {
            self.tokens -= len as f64;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nn_packet::{dscp, proto, Ipv4Addr, Ipv4Repr};

    fn ip_frame(dscp: u8, payload: usize) -> FrameBuf {
        let repr = Ipv4Repr {
            src: Ipv4Addr::new(1, 1, 1, 1),
            dst: Ipv4Addr::new(2, 2, 2, 2),
            protocol: proto::UDP,
            dscp,
            ttl: 64,
            payload_len: payload,
        };
        let mut buf = vec![0u8; repr.buffer_len()];
        repr.emit(&mut buf).unwrap();
        buf.into()
    }

    fn raw(bytes: Vec<u8>) -> FrameBuf {
        bytes.into()
    }

    fn dropped(r: EnqueueResult) -> bool {
        matches!(r, EnqueueResult::Dropped(_))
    }

    #[test]
    fn droptail_fifo_and_capacity() {
        let mut q = DropTail::new(100);
        assert_eq!(q.enqueue(raw(vec![1; 60]), 0.0), EnqueueResult::Accepted);
        // The rejected frame's buffer rides back to the caller.
        match q.enqueue(raw(vec![2; 60]), 0.0) {
            EnqueueResult::Dropped(f) => assert_eq!(f.as_slice(), &[2; 60][..]),
            other => panic!("expected Dropped, got {other:?}"),
        }
        assert_eq!(q.enqueue(raw(vec![3; 40]), 0.0), EnqueueResult::Accepted);
        assert_eq!(q.len_bytes(), 100);
        assert_eq!(q.dequeue().unwrap().frame[0], 1);
        assert_eq!(q.dequeue().unwrap().frame[0], 3);
        assert!(q.dequeue().is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn dscp_priority_ordering() {
        let mut q = DscpPriority::new(10_000);
        q.enqueue(ip_frame(dscp::BEST_EFFORT, 10), 0.0);
        q.enqueue(ip_frame(dscp::EXPEDITED, 20), 0.0);
        q.enqueue(ip_frame(dscp::AF11, 30), 0.0);
        // Premium first, then assured, then best effort.
        let sizes: Vec<usize> = std::iter::from_fn(|| q.dequeue())
            .map(|f| f.frame.len())
            .collect();
        assert_eq!(sizes, vec![40, 50, 30]);
    }

    #[test]
    fn dscp_priority_garbage_goes_best_effort() {
        let mut q = DscpPriority::new(1000);
        q.enqueue(raw(vec![0xff; 10]), 0.0);
        q.enqueue(ip_frame(dscp::EXPEDITED, 1), 0.0);
        assert_eq!(q.dequeue().unwrap().frame.len(), 21, "EF first");
        assert_eq!(q.dequeue().unwrap().frame.len(), 10);
    }

    #[test]
    fn red_ramps_drops() {
        let mut q = Red::new(1000, 100, 500, 1.0);
        // Below min: always accepted regardless of draw.
        assert_eq!(q.enqueue(raw(vec![0; 100]), 0.0), EnqueueResult::Accepted);
        // Occupancy 100, still at min boundary: accepted.
        assert_eq!(q.enqueue(raw(vec![0; 100]), 0.99), EnqueueResult::Accepted);
        // Occupancy 200 => ramp = 0.25; draw 0.1 < 0.25 => drop.
        assert!(dropped(q.enqueue(raw(vec![0; 100]), 0.1)));
        // Same occupancy, draw 0.9 => accept.
        assert_eq!(q.enqueue(raw(vec![0; 100]), 0.9), EnqueueResult::Accepted);
        // Fill to max: certain drop.
        q.enqueue(raw(vec![0; 200]), 0.99);
        assert_eq!(q.len_bytes(), 500);
        assert!(dropped(q.enqueue(raw(vec![0; 1]), 0.99)));
    }

    #[test]
    fn red_ecn_marks_ect_frames_instead_of_dropping() {
        use nn_packet::ecn;
        let mut q = Red::new(1000, 100, 500, 1.0).with_ecn(true);
        let ect_frame = |payload: usize| {
            let mut f = ip_frame(dscp::AF11, payload);
            Ipv4Packet::new_unchecked(f.as_mut_slice()).set_ecn(ecn::ECT0);
            f
        };
        // Fill past the ramp start.
        assert_eq!(q.enqueue(ect_frame(180), 0.0), EnqueueResult::Accepted);
        // Occupancy 200 ⇒ ramp 0.25; draw 0.1 would drop — ECT gets
        // marked and accepted instead.
        assert_eq!(q.enqueue(ect_frame(180), 0.1), EnqueueResult::Marked);
        // A non-ECT frame in the same spot still drops.
        assert!(dropped(q.enqueue(ip_frame(dscp::AF11, 180), 0.1)));
        // Fill to the hard limit: even ECT frames drop there.
        assert_eq!(q.enqueue(ect_frame(80), 0.99), EnqueueResult::Accepted);
        assert_eq!(q.len_bytes(), 500);
        assert!(dropped(q.enqueue(ect_frame(1), 0.0)));
        // Dequeued frames carry the mark: first frame clean, second CE.
        let first = q.dequeue().unwrap().frame;
        assert_eq!(
            Ipv4Packet::new_checked(&first[..]).unwrap().ecn(),
            ecn::ECT0
        );
        let second = q.dequeue().unwrap().frame;
        let ip = Ipv4Packet::new_checked(&second[..]).unwrap();
        assert_eq!(ip.ecn(), ecn::CE);
        assert_eq!(ip.dscp(), dscp::AF11, "mark preserves DSCP");
        assert!(ip.verify_checksum(), "mark refreshes the checksum");
    }

    #[test]
    fn red_without_ecn_never_marks() {
        use nn_packet::ecn;
        let mut q = Red::new(1000, 100, 500, 1.0);
        let mut f = ip_frame(dscp::AF11, 180);
        Ipv4Packet::new_unchecked(f.as_mut_slice()).set_ecn(ecn::ECT0);
        q.enqueue(f.clone(), 0.0);
        assert!(dropped(q.enqueue(f, 0.1)));
    }

    #[test]
    fn token_bucket_polices_rate() {
        // 8 kbps = 1000 bytes/sec, burst 500 bytes.
        let mut tb = TokenBucket::new(8_000, 500);
        assert!(tb.conforms(0, 400), "burst allows initial packets");
        assert!(!tb.conforms(0, 400), "burst exhausted");
        // After 0.5s, 500 bytes refilled (capped at burst).
        assert!(tb.conforms(500_000_000, 400));
        // Tokens now 100 + refill over 0.1s = 200 > 150.
        assert!(tb.conforms(600_000_000, 150));
    }

    #[test]
    fn token_bucket_caps_at_burst() {
        let mut tb = TokenBucket::new(8_000, 100);
        // A long idle period must not accumulate unbounded credit.
        assert!(!tb.conforms(3_600_000_000_000, 200));
        assert!(tb.conforms(3_600_000_000_000, 100));
    }
}
