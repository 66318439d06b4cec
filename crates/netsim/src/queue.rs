//! Output queues.
//!
//! Each link direction drains one [`Queue`]: a FIFO that holds at most
//! a fixed number of bytes, with an optional RED early-drop ramp that
//! CE-marks ECN-capable frames instead of dropping them. The
//! discrimination policies' token-bucket policing lives here too
//! ([`TokenBucket`]), for degradation that is throughput-shaped rather
//! than all-or-nothing.
//!
//! Queues move pooled [`FrameBuf`]s and never free a frame themselves: a
//! rejected frame rides back to the caller in
//! [`EnqueueResult::Dropped`], so the engine can recycle its buffer —
//! queue drops are exactly the hot path of a congested simulation.

use crate::frame::FrameBuf;
use crate::link::QueueKind;
use nn_packet::{ecn, Ipv4Packet};
use std::collections::VecDeque;

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

/// A link direction's output queue: a byte-capped FIFO with tail drop,
/// plus, for [`QueueKind::Red`], random early detection. The RED drop
/// probability ramps linearly between the two thresholds and becomes
/// certain above the max. The ramp marks CE on ECT-capable frames
/// instead of dropping them (RFC 3168); drops still happen above
/// `max_bytes`, and for frames that are not ECN-capable.
#[derive(Debug)]
pub struct Queue {
    capacity_bytes: usize,
    bytes: usize,
    frames: VecDeque<FrameBuf>,
    kind: QueueKind,
}

impl Queue {
    /// An empty queue of discipline `kind` holding at most
    /// `capacity_bytes`.
    ///
    /// # Panics
    ///
    /// When a RED ramp is empty, ends above the capacity, or its
    /// `max_prob` lies outside [0, 1].
    pub fn new(kind: QueueKind, capacity_bytes: usize) -> Queue {
        if let QueueKind::Red {
            min_bytes,
            max_bytes,
            max_prob,
        } = kind
        {
            assert!(min_bytes < max_bytes && max_bytes <= capacity_bytes);
            assert!((0.0..=1.0).contains(&max_prob));
        }
        Queue {
            capacity_bytes,
            bytes: 0,
            frames: VecDeque::new(),
            kind,
        }
    }

    /// Offers a frame; the queue may accept it, CE-mark it, or hand it
    /// back dropped. `rng_draw` is a uniform [0, 1) sample the RED ramp
    /// compares against.
    pub fn enqueue(&mut self, mut frame: FrameBuf, rng_draw: f64) -> EnqueueResult {
        let mut marked = false;
        if let QueueKind::Red {
            min_bytes,
            max_bytes,
            max_prob,
        } = self.kind
        {
            if self.bytes >= max_bytes {
                return EnqueueResult::Dropped(frame);
            }
            if self.bytes > min_bytes {
                let ramp = (self.bytes - min_bytes) as f64 / (max_bytes - min_bytes) as f64;
                if rng_draw < ramp * max_prob {
                    if !is_ect_frame(&frame) {
                        return EnqueueResult::Dropped(frame);
                    }
                    Ipv4Packet::new_unchecked(frame.as_mut_slice()).set_ecn(ecn::CE);
                    marked = true;
                }
            }
        }
        if self.bytes + frame.len() > self.capacity_bytes {
            return EnqueueResult::Dropped(frame);
        }
        self.bytes += frame.len();
        self.frames.push_back(frame);
        if marked {
            EnqueueResult::Marked
        } else {
            EnqueueResult::Accepted
        }
    }

    /// Takes the next frame to serialize.
    pub fn dequeue(&mut self) -> Option<FrameBuf> {
        let frame = self.frames.pop_front()?;
        self.bytes -= frame.len();
        Some(frame)
    }

    /// Bytes currently held.
    pub fn len_bytes(&self) -> usize {
        self.bytes
    }
}

/// True when `frame` is an IPv4 packet carrying ECT(0) or ECT(1).
fn is_ect_frame(frame: &[u8]) -> bool {
    Ipv4Packet::new_checked(frame)
        .map(|p| ecn::is_ect(p.ecn()))
        .unwrap_or(false)
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
        let mut q = Queue::new(QueueKind::DropTail, 100);
        assert_eq!(q.enqueue(raw(vec![1; 60]), 0.0), EnqueueResult::Accepted);
        // The rejected frame's buffer rides back to the caller.
        match q.enqueue(raw(vec![2; 60]), 0.0) {
            EnqueueResult::Dropped(f) => assert_eq!(f.as_slice(), &[2; 60][..]),
            other => panic!("expected Dropped, got {other:?}"),
        }
        assert_eq!(q.enqueue(raw(vec![3; 40]), 0.0), EnqueueResult::Accepted);
        assert_eq!(q.len_bytes(), 100);
        assert_eq!(q.dequeue().unwrap()[0], 1);
        assert_eq!(q.dequeue().unwrap()[0], 3);
        assert!(q.dequeue().is_none());
        assert_eq!(q.len_bytes(), 0);
    }

    #[test]
    fn red_ramps_drops() {
        let mut q = Queue::new(QueueKind::red_ecn(100, 500, 1.0), 1000);
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
        let mut q = Queue::new(QueueKind::red_ecn(100, 500, 1.0), 1000);
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
        let first = q.dequeue().unwrap();
        assert_eq!(
            Ipv4Packet::new_checked(&first[..]).unwrap().ecn(),
            ecn::ECT0
        );
        let second = q.dequeue().unwrap();
        let ip = Ipv4Packet::new_checked(&second[..]).unwrap();
        assert_eq!(ip.ecn(), ecn::CE);
        assert_eq!(ip.dscp(), dscp::AF11, "mark preserves DSCP");
        assert!(ip.verify_checksum(), "mark refreshes the checksum");
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
