//! The interface between host stacks and application workloads.
//!
//! The same application (a VoIP call, a web fetch) must run unchanged over
//! three transports — neutralized (this crate's client/server stacks),
//! plain UDP (the baseline the discriminatory ISP can classify), and any
//! future variant — so the plain-versus-neutralized cells of a matrix
//! compare *network* treatment, not application differences. Workload generators
//! in `nn-lab` implement [`AppSource`]; host nodes drive it.
//!
//! An app writes each payload straight into a buffer the host owns and
//! reuses, so a warm host sends without touching the heap.

use nn_netsim::SimTime;

/// A pluggable application workload.
pub trait AppSource: 'static {
    /// Appends the next payload due at or before `now` to `out` and
    /// returns true, or returns false, leaving `out` as it was, once
    /// nothing more is due. Hosts call it at start and at every wake
    /// timer until it returns false.
    fn poll(&mut self, now: SimTime, out: &mut Vec<u8>) -> bool;

    /// When the host should call `poll` next; `None` = no more self-
    /// initiated traffic.
    fn next_wake(&self, now: SimTime) -> Option<SimTime>;
}

/// An application that never sends.
#[derive(Debug, Default)]
pub struct NullApp;

impl AppSource for NullApp {
    fn poll(&mut self, _now: SimTime, _out: &mut Vec<u8>) -> bool {
        false
    }
    fn next_wake(&self, _now: SimTime) -> Option<SimTime> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_app_is_silent() {
        let mut app = NullApp;
        let mut out = Vec::new();
        assert!(!app.poll(SimTime::ZERO, &mut out));
        assert!(out.is_empty());
        assert!(app.next_wake(SimTime::ZERO).is_none());
    }
}
