//! The hierarchical timing wheel behind the event queue.
//!
//! A discrete-event simulator's scheduler is its hottest data structure:
//! two pushes and two pops per forwarded frame. A binary heap costs
//! `O(log n)` comparisons *and* moves per operation; the classic fix
//! (ns-3's calendar queue, Varghese & Lauck's hashed/hierarchical
//! wheels) buckets events by time so a push is an append and a pop is a
//! bitmask scan — amortized `O(1)`.
//!
//! [`TimingWheel`] keeps `LEVELS` wheels of `SLOTS` slots each.
//! Level 0 buckets time in ~2 µs quanta; each higher level is 64×
//! coarser, so the wheels jointly cover ~2.3 days of simulated time and
//! an overflow heap catches anything farther out. Events in the
//! *current* quantum sit in a tiny `ready` heap ordered by
//! `(time, submission order)` — exactly the contract the old
//! `BinaryHeap` scheduler had, so a fixed seed reproduces a
//! byte-identical event trace (`wheel_prop.rs` proves the equivalence on
//! arbitrary schedules; the golden-trace tests in `nn-lab` pin it
//! end-to-end).
//!
//! Ordering invariants, maintained at every step:
//!
//! * `ready` holds only events in quantum `cursor` (or pushed for an
//!   already-reached time), which every wheeled event postdates;
//! * each wheel level only holds events *ahead* of the cursor at that
//!   level's granularity, in its sliding 64-slot window;
//! * events beyond the top level's window overflow to a heap, and are
//!   fed back into the wheels as the cursor's horizon advances past
//!   them — so the wheels always hold everything nearer than any
//!   overflow event.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// log2 of the slot count per level.
const SLOT_BITS: u32 = 6;
/// Slots per level.
const SLOTS: u64 = 1 << SLOT_BITS;
/// log2 of the level-0 quantum in nanoseconds (2^11 = ~2 µs).
const G0_BITS: u32 = 11;
/// Wheel levels; level `l` quanta are `2^(G0_BITS + l·SLOT_BITS)` ns.
const LEVELS: usize = 6;

/// One scheduled event.
struct Entry<T> {
    /// Due time in nanoseconds.
    time: u64,
    /// Submission order — the documented tie-break for equal times.
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.time, self.seq) == (other.time, other.seq)
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// A hierarchical timing wheel ordering `(time, submission)` exactly
/// like a min-heap of `(time, seq)` pairs, with `O(1)` amortized push
/// and pop for the near-future events that dominate a simulation.
pub struct TimingWheel<T> {
    /// Current level-0 quantum (`time >> G0_BITS`). Everything in the
    /// wheels is in a later quantum; everything in `ready` is not.
    cursor: u64,
    /// Events due in the current quantum, sorted *descending* by
    /// `(time, seq)` — the next event pops off the end in O(1).
    ready: Vec<Entry<T>>,
    /// Late arrivals: events pushed for the current quantum (or earlier)
    /// *after* its slot was drained — e.g. a transmit completing within
    /// the same ~2 µs quantum. Stays tiny (drained as it fills), so the
    /// heap ops are on a handful of entries.
    late: BinaryHeap<Reverse<Entry<T>>>,
    /// `LEVELS × SLOTS` buckets, flattened.
    slots: Vec<Vec<Entry<T>>>,
    /// Per-level bitmask of non-empty slots.
    occupied: [u64; LEVELS],
    /// Per-level event counts.
    level_len: [usize; LEVELS],
    /// Events beyond the top level's window.
    overflow: BinaryHeap<Reverse<Entry<T>>>,
    /// Next submission number.
    seq: u64,
    /// Total events queued.
    len: usize,
}

impl<T> Default for TimingWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> TimingWheel<T> {
    /// An empty wheel starting at time zero.
    pub fn new() -> Self {
        TimingWheel {
            cursor: 0,
            ready: Vec::new(),
            late: BinaryHeap::new(),
            slots: (0..LEVELS as u64 * SLOTS).map(|_| Vec::new()).collect(),
            occupied: [0; LEVELS],
            level_len: [0; LEVELS],
            overflow: BinaryHeap::new(),
            seq: 0,
            len: 0,
        }
    }

    /// Events queued.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedules `payload` at `time`. Events with equal times pop in
    /// submission order.
    pub fn push(&mut self, time: SimTime, payload: T) {
        let seq = self.seq;
        self.seq += 1;
        self.len += 1;
        self.place(Entry {
            time: time.as_nanos(),
            seq,
            payload,
        });
    }

    /// Removes and returns the earliest event (ties by submission
    /// order): the smaller of the sorted run's tail and the late heap's
    /// top.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        self.pop_due(SimTime(u64::MAX))
    }

    /// Pops the earliest event only if it is due at or before `until` —
    /// the fused peek+pop the simulator's `run_until` loop uses, paying
    /// for one refill instead of two per event.
    pub fn pop_due(&mut self, until: SimTime) -> Option<(SimTime, T)> {
        self.refill();
        let (from_ready, due) = self.next_source()?;
        if due > until.as_nanos() {
            return None;
        }
        let e = if from_ready {
            self.ready.pop().expect("checked non-empty")
        } else {
            let Reverse(e) = self.late.pop().expect("checked non-empty");
            e
        };
        self.len -= 1;
        Some((SimTime(e.time), e.payload))
    }

    /// The earliest scheduled time, without removing the event. Advances
    /// internal bookkeeping (cursor, cascades), never the order.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.refill();
        self.next_source().map(|(_, due)| SimTime(due))
    }

    /// After a refill: which of the two due-now structures holds the
    /// earliest event (`true` = the sorted ready run), and its time.
    /// `None` when the wheel is empty.
    fn next_source(&self) -> Option<(bool, u64)> {
        match (self.ready.last(), self.late.peek()) {
            (Some(r), Some(Reverse(l))) => {
                if r < l {
                    Some((true, r.time))
                } else {
                    Some((false, l.time))
                }
            }
            (Some(r), None) => Some((true, r.time)),
            (None, Some(Reverse(l))) => Some((false, l.time)),
            (None, None) => None,
        }
    }

    /// Routes one entry to the late heap, a wheel slot, or overflow.
    fn place(&mut self, e: Entry<T>) {
        let q = e.time >> G0_BITS;
        if q <= self.cursor {
            // Due now (or for a quantum the cursor already reached —
            // legal when the caller's clock ran ahead through empty
            // time). The late heap keeps ordering exact either way.
            self.late.push(Reverse(e));
            return;
        }
        for level in 0..LEVELS {
            let shift = level as u32 * SLOT_BITS;
            // Fits in this level's sliding window iff the event is
            // within SLOTS level-quanta of the cursor.
            if (q >> shift) - (self.cursor >> shift) < SLOTS {
                let idx = ((q >> shift) & (SLOTS - 1)) as usize;
                self.slots[level * SLOTS as usize + idx].push(e);
                self.occupied[level] |= 1 << idx;
                self.level_len[level] += 1;
                return;
            }
        }
        self.overflow.push(Reverse(e));
    }

    /// The earliest time that does NOT fit the wheels for the current
    /// cursor — overflow events at or past this stay in the heap.
    fn horizon(&self) -> u64 {
        let top_shift = (LEVELS as u32 - 1) * SLOT_BITS;
        ((self.cursor >> top_shift) + SLOTS) << (top_shift + G0_BITS)
    }

    /// Ensures the due-now structures hold the earliest events,
    /// advancing the cursor and cascading upper wheels as needed.
    ///
    /// The loop keys on `ready` alone — NOT on `late`. A cascade can
    /// deposit a current-quantum event into `late` while a level-0 slot
    /// with an *earlier* event of the same quantum is still waiting to
    /// drain (the two slots tie on start); stopping as soon as `late`
    /// is non-empty would pop the cascaded event first and run time
    /// backwards. Draining through to a ready run (or wheel
    /// exhaustion) guarantees every due-now event sits in `ready` or
    /// `late`, and [`Self::next_source`] orders across the two.
    fn refill(&mut self) {
        while self.ready.is_empty() {
            // Re-home overflow events the advancing horizon now covers,
            // so the wheels always hold everything nearer than the heap.
            // (Empty-overflow is the overwhelmingly common case; skip
            // the horizon math entirely then.)
            if !self.overflow.is_empty() {
                let horizon = self.horizon();
                while self
                    .overflow
                    .peek()
                    .is_some_and(|Reverse(e)| e.time < horizon)
                {
                    let Reverse(e) = self.overflow.pop().expect("peeked");
                    self.place(e);
                }
            }

            if self.level_len.iter().all(|&n| n == 0) {
                // Wheels empty: jump straight to the earliest overflow
                // event (if any) and loop to re-home its cohort.
                let Some(Reverse(e)) = self.overflow.pop() else {
                    return; // truly empty
                };
                self.cursor = e.time >> G0_BITS;
                self.late.push(Reverse(e));
                continue;
            }

            // The earliest candidate per level: for level 0 the exact
            // quantum of its first occupied slot; for upper levels the
            // first quantum *covered by* their first occupied slot — a
            // lower bound on the events inside. The scan includes the
            // cursor's own slot: when the cursor entered a coarse slot's
            // span through another level's candidate at the same start,
            // that slot still holds events that are due now. Iterating
            // coarse-to-fine makes the coarser slot win start ties, so
            // it cascades *before* the finer slot drains — all events of
            // one quantum meet in the ready heap and pop in exact
            // (time, seq) order.
            let mut best_level = usize::MAX;
            let mut best_start = u64::MAX;
            for level in (0..LEVELS).rev() {
                if self.level_len[level] == 0 {
                    continue;
                }
                let shift = level as u32 * SLOT_BITS;
                // First occupied slot at/after the cursor in this
                // level's quanta. Rotating the mask makes
                // trailing_zeros count the distance.
                let base = self.cursor >> shift;
                let rotated = self.occupied[level].rotate_right((base & (SLOTS - 1)) as u32);
                let offset = rotated.trailing_zeros() as u64;
                debug_assert!(offset < SLOTS, "occupancy mask vs counts drift");
                let start = (base + offset) << shift;
                if start < best_start {
                    best_start = start;
                    best_level = level;
                }
            }
            debug_assert!(best_level < LEVELS, "non-empty wheels yield a slot");

            // Advance to that slot and empty it: level-0 events become
            // ready; upper-level events re-place into finer wheels (or
            // ready, when due at or before the cursor). A coarse slot
            // whose span the cursor already entered has start ≤ cursor —
            // never move the clock backward for it.
            self.cursor = self.cursor.max(best_start);
            let shift = best_level as u32 * SLOT_BITS;
            let idx = ((best_start >> shift) & (SLOTS - 1)) as usize;
            let slot = best_level * SLOTS as usize + idx;
            self.occupied[best_level] &= !(1 << idx);
            self.level_len[best_level] -= self.slots[slot].len();
            if best_level == 0 {
                // A level-0 slot holds exactly one quantum: it becomes
                // the ready run wholesale. One swap, one small sort, and
                // every pop after that is a Vec::pop. (`ready` is empty
                // here, so the swap also hands the slot `ready`'s spare
                // capacity back.)
                std::mem::swap(&mut self.ready, &mut self.slots[slot]);
                self.ready.sort_unstable_by(|a, b| b.cmp(a));
            } else {
                let mut drained = std::mem::take(&mut self.slots[slot]);
                for e in drained.drain(..) {
                    self.place(e);
                }
                // Hand the (empty, still-allocated) bucket back for
                // reuse. A cascaded event never lands in the slot it
                // came from: the cursor now sits inside this slot's
                // span, so re-placing always picks a finer level or the
                // late heap.
                self.slots[slot] = drained;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(w: &mut TimingWheel<u32>) -> Vec<(u64, u32)> {
        std::iter::from_fn(|| w.pop())
            .map(|(t, p)| (t.as_nanos(), p))
            .collect()
    }

    #[test]
    fn orders_by_time_then_submission() {
        let mut w = TimingWheel::new();
        w.push(SimTime(50), 1);
        w.push(SimTime(10), 2);
        w.push(SimTime(50), 3);
        w.push(SimTime(10), 4);
        assert_eq!(w.len(), 4);
        assert_eq!(drain(&mut w), vec![(10, 2), (10, 4), (50, 1), (50, 3)]);
        assert!(w.is_empty());
    }

    #[test]
    fn spans_levels_and_overflow() {
        let mut w = TimingWheel::new();
        // One event per decade from nanoseconds to hours — every wheel
        // level plus the overflow heap.
        let times: Vec<u64> = (0..14).map(|d| 10u64.pow(d)).collect();
        for (&t, i) in times.iter().zip(0u32..) {
            w.push(SimTime(t), i);
        }
        let out = drain(&mut w);
        let popped: Vec<u64> = out.iter().map(|&(t, _)| t).collect();
        assert_eq!(popped, times, "sorted by time across all levels");
    }

    #[test]
    fn interleaves_pushes_with_pops() {
        let mut w = TimingWheel::new();
        w.push(SimTime(1_000_000), 0);
        assert_eq!(w.pop().unwrap().0, SimTime(1_000_000));
        // Push at the exact popped time: still delivered (after-now
        // semantics are the caller's contract, ordering is ours).
        w.push(SimTime(1_000_000), 1);
        w.push(SimTime(2_000_000), 2);
        w.push(SimTime(1_000_001), 3);
        assert_eq!(
            drain(&mut w),
            vec![(1_000_000, 1), (1_000_001, 3), (2_000_000, 2)]
        );
    }

    #[test]
    fn peek_matches_pop_and_is_stable() {
        let mut w = TimingWheel::new();
        assert_eq!(w.peek_time(), None);
        w.push(SimTime::from_secs(3), 7);
        w.push(SimTime::from_millis(5), 8);
        assert_eq!(w.peek_time(), Some(SimTime::from_millis(5)));
        assert_eq!(w.peek_time(), Some(SimTime::from_millis(5)));
        assert_eq!(w.pop().unwrap(), (SimTime::from_millis(5), 8));
        assert_eq!(w.peek_time(), Some(SimTime::from_secs(3)));
    }

    /// Regression: a coarse-level slot whose start ties a level-0
    /// slot's quantum cascades its events into the late heap; the
    /// refill loop must still drain the level-0 slot (which holds an
    /// *earlier* event of the same quantum) before anything pops, or
    /// time runs backwards.
    #[test]
    fn tied_cascade_does_not_reorder_same_quantum_events() {
        const Q: u64 = 1 << G0_BITS;
        let mut w = TimingWheel::new();
        // Lands at level 1 (beyond the level-0 window from cursor 0).
        w.push(SimTime(64 * Q + 2000), 0);
        // Advances the cursor to quantum 60.
        w.push(SimTime(60 * Q), 1);
        assert_eq!(w.pop(), Some((SimTime(60 * Q), 1)));
        // Same quantum as the level-1 event, but earlier — lands at
        // level 0 now that the window has slid.
        w.push(SimTime(64 * Q + 100), 2);
        assert_eq!(w.pop(), Some((SimTime(64 * Q + 100), 2)));
        assert_eq!(w.pop(), Some((SimTime(64 * Q + 2000), 0)));
        assert!(w.is_empty());
    }

    #[test]
    fn dense_same_quantum_bursts_keep_submission_order() {
        let mut w = TimingWheel::new();
        for i in 0..100u32 {
            w.push(SimTime(500), i);
        }
        let out = drain(&mut w);
        assert_eq!(out.len(), 100);
        assert!(out.windows(2).all(|p| p[0].1 < p[1].1));
    }
}
