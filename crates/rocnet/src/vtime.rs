//! Per-rank virtual clocks.
//!
//! Each rank has one [`VClock`] in its fabric's clock table, moved only
//! through the rank's communicators (`Comm::advance`, `Comm::advance_to`
//! and the fabric calls), which also wake the gate waiters a move lets
//! pass. A background thread that models its own timeline, such as
//! T-Rochdf's writer, keeps a standalone clock. The clock only moves
//! forward, by modelled compute/communication/storage costs, and merges
//! with remote clocks at synchronization points (message arrival,
//! barriers, sync calls) by taking the maximum — the standard
//! virtual-time rule.

use std::sync::atomic::{AtomicU64, Ordering};

use rocio_core::SimTime;

/// A monotone, thread-safe virtual clock.
///
/// Stored as the IEEE-754 bit pattern of a non-negative `f64` in an
/// `AtomicU64`. For non-negative floats the bit patterns order the same way
/// as the values, so [`VClock::merge`] is a single `fetch_max`.
///
/// Every access is `SeqCst`: a rank publishes a move with its store and
/// then reads the fabric's lowest gate bound, while a parking gate waiter
/// publishes that bound and then reads every clock — the two-sided
/// pattern in which one side must see the other's store.
#[derive(Debug, Default)]
pub struct VClock {
    bits: AtomicU64,
}

impl VClock {
    /// A clock starting at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current virtual time in seconds.
    pub fn now(&self) -> SimTime {
        f64::from_bits(self.bits.load(Ordering::SeqCst))
    }

    /// Advance by a non-negative duration; returns the time before.
    ///
    /// Negative durations are clamped to zero: model formulas occasionally
    /// produce tiny negative values from floating-point cancellation and the
    /// clock must stay monotone.
    pub fn advance(&self, dt: SimTime) -> SimTime {
        if dt <= 0.0 {
            return self.now();
        }
        #[expect(
            clippy::expect_used,
            reason = "the fetch_update closure always returns Some"
        )]
        let old = self
            .bits
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |old| {
                Some((f64::from_bits(old) + dt).to_bits())
            })
            .expect("fetch_update closure never returns None");
        f64::from_bits(old)
    }

    /// Merge with a remote timestamp, `t := max(t, other)`; returns the
    /// time before. A rank idling until a deadline or an arrival moves
    /// its clock this way.
    pub fn merge(&self, other: SimTime) -> SimTime {
        if other > 0.0 {
            f64::from_bits(self.bits.fetch_max(other.to_bits(), Ordering::SeqCst))
        } else {
            self.now()
        }
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "concurrent clock moves are raced from threads of their own"
)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn starts_at_zero_and_advances() {
        let c = VClock::new();
        assert_eq!(c.now(), 0.0);
        assert_eq!(c.advance(1.5), 0.0);
        assert_eq!(c.advance(0.25), 1.5);
        assert_eq!(c.now(), 1.75);
    }

    #[test]
    fn negative_advance_is_clamped() {
        let c = VClock::new();
        c.merge(2.0);
        assert_eq!(c.advance(-1.0), 2.0);
        assert_eq!(c.now(), 2.0);
    }

    #[test]
    fn merge_takes_max_and_never_moves_backwards() {
        let c = VClock::new();
        c.merge(5.0);
        assert_eq!(c.merge(3.0), 5.0);
        assert_eq!(c.now(), 5.0);
        assert_eq!(c.merge(7.5), 5.0);
        assert_eq!(c.now(), 7.5);
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
}
