//! Per-rank virtual clocks.
//!
//! Each rank has one [`VClock`] in its fabric's clock table, reached by
//! every communicator of that rank through the fabric (a background
//! thread that models its own timeline, such as T-Rochdf's writer, keeps
//! a clock of its own). The clock only moves forward, by modelled
//! compute/communication/storage costs, and merges with remote clocks at
//! synchronization points (message arrival, barriers, sync calls) by taking
//! the maximum — the standard virtual-time rule.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use rocio_core::SimTime;

use crate::sched::GateBoard;

/// A monotone, thread-safe virtual clock.
///
/// Stored as the IEEE-754 bit pattern of a non-negative `f64` in an
/// `AtomicU64`. For non-negative floats the bit patterns order the same way
/// as the values, so [`VClock::merge`] is a single `fetch_max`.
///
/// Fabric-owned clocks are additionally attached to the fabric's
/// `GateBoard`: every advance reports the new time so parked gate
/// waiters can be woken when a lagging clock finally passes their scan
/// bound (the event-driven replacement for the old `GATE_POLL` loop).
#[derive(Debug, Default)]
pub struct VClock {
    bits: AtomicU64,
    /// Wake watermark of the owning fabric, if any. Standalone clocks
    /// (tests, snapshots) have none and skip the report.
    board: OnceLock<Arc<GateBoard>>,
}

impl VClock {
    /// A clock starting at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// A clock starting at `t` (must be non-negative).
    pub fn starting_at(t: SimTime) -> Self {
        assert!(t >= 0.0, "virtual time must be non-negative");
        VClock {
            bits: AtomicU64::new(t.to_bits()),
            board: OnceLock::new(),
        }
    }

    /// Attach the owning fabric's wake watermark. Idempotent; only the
    /// first attachment sticks.
    pub(crate) fn attach_board(&self, board: Arc<GateBoard>) {
        let _ = self.board.set(board);
    }

    /// Report the clock's current value to the attached board, if any.
    fn poke_board(&self) {
        if let Some(b) = self.board.get() {
            b.on_clock(self.bits.load(Ordering::Acquire));
        }
    }

    /// Current virtual time in seconds.
    pub fn now(&self) -> SimTime {
        f64::from_bits(self.bits.load(Ordering::Acquire))
    }

    /// Advance by a non-negative duration.
    ///
    /// Negative durations are clamped to zero: model formulas occasionally
    /// produce tiny negative values from floating-point cancellation and the
    /// clock must stay monotone.
    pub fn advance(&self, dt: SimTime) {
        if dt <= 0.0 {
            return;
        }
        self.bits
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |old| {
                Some((f64::from_bits(old) + dt).to_bits())
            })
            .expect("fetch_update closure never returns None");
        self.poke_board();
    }

    /// Merge with a remote timestamp: `t := max(t, other)`.
    pub fn merge(&self, other: SimTime) {
        if other > 0.0 {
            self.bits.fetch_max(other.to_bits(), Ordering::AcqRel);
            self.poke_board();
        }
    }

    /// Timer wake-up: jump forward to the absolute time `t` if the clock
    /// has not reached it yet (`now := max(now, t)`). Numerically the
    /// same operation as [`VClock::merge`], but named for deadline sleeps
    /// — a rank that parked on a retransmit timer charges itself the
    /// idle interval up to the deadline, exactly like a blocking probe
    /// charges the wait for an arrival.
    pub fn advance_to(&self, t: SimTime) {
        self.merge(t);
    }
}

impl Clone for VClock {
    fn clone(&self) -> Self {
        // A clone is a snapshot, not a fabric clock: no board.
        VClock {
            bits: AtomicU64::new(self.bits.load(Ordering::Acquire)),
            board: OnceLock::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn starts_at_zero_and_advances() {
        let c = VClock::new();
        assert_eq!(c.now(), 0.0);
        c.advance(1.5);
        c.advance(0.25);
        assert_eq!(c.now(), 1.75);
    }

    #[test]
    fn negative_advance_is_clamped() {
        let c = VClock::starting_at(2.0);
        c.advance(-1.0);
        assert_eq!(c.now(), 2.0);
    }

    #[test]
    fn merge_takes_max() {
        let c = VClock::starting_at(5.0);
        c.merge(3.0);
        assert_eq!(c.now(), 5.0);
        c.merge(7.5);
        assert_eq!(c.now(), 7.5);
    }

    #[test]
    fn advance_to_never_moves_backwards() {
        let c = VClock::starting_at(2.0);
        c.advance_to(1.0);
        assert_eq!(c.now(), 2.0);
        c.advance_to(3.5);
        assert_eq!(c.now(), 3.5);
    }

    #[test]
    fn clock_is_send_and_sync() {
        fn assert_both<T: Send + Sync>() {}
        assert_both::<VClock>();
    }

    #[test]
    fn concurrent_advances_all_land() {
        let c = Arc::new(VClock::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.advance(0.001);
                    }
                });
            }
        });
        assert!((c.now() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn clone_snapshots_current_value() {
        let c = VClock::starting_at(3.0);
        let d = c.clone();
        c.advance(1.0);
        assert_eq!(d.now(), 3.0);
        assert_eq!(c.now(), 4.0);
    }
}
