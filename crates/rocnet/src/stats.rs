//! Per-rank communication statistics.

use std::cell::Cell;

/// Counters accumulated by a [`crate::comm::Comm`] over its lifetime.
///
/// Experiments use these to report data volumes (e.g. bytes shipped to I/O
/// servers per snapshot) alongside virtual times.
#[derive(Debug, Default)]
pub struct CommStats {
    msgs_sent: Cell<u64>,
    bytes_sent: Cell<u64>,
    msgs_recv: Cell<u64>,
    bytes_recv: Cell<u64>,
}

/// A plain-old-data snapshot of [`CommStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    pub msgs_sent: u64,
    pub bytes_sent: u64,
    pub msgs_recv: u64,
    pub bytes_recv: u64,
}

impl CommStats {
    /// Record one sent message of `bytes` payload.
    pub(crate) fn on_send(&self, bytes: usize) {
        self.msgs_sent.set(self.msgs_sent.get() + 1);
        self.bytes_sent.set(self.bytes_sent.get() + bytes as u64);
    }

    /// Record one received message of `bytes` payload.
    pub(crate) fn on_recv(&self, bytes: usize) {
        self.msgs_recv.set(self.msgs_recv.get() + 1);
        self.bytes_recv.set(self.bytes_recv.get() + bytes as u64);
    }

    /// Current counter values.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            msgs_sent: self.msgs_sent.get(),
            bytes_sent: self.bytes_sent.get(),
            msgs_recv: self.msgs_recv.get(),
            bytes_recv: self.bytes_recv.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = CommStats::default();
        s.on_send(100);
        s.on_send(50);
        s.on_recv(10);
        let snap = s.snapshot();
        assert_eq!(snap.msgs_sent, 2);
        assert_eq!(snap.bytes_sent, 150);
        assert_eq!(snap.msgs_recv, 1);
        assert_eq!(snap.bytes_recv, 10);
    }

    #[test]
    fn snapshot_is_a_copy() {
        let s = CommStats::default();
        let before = s.snapshot();
        s.on_send(1);
        assert_eq!(before.msgs_sent, 0);
        assert_eq!(s.snapshot().msgs_sent, 1);
    }
}
