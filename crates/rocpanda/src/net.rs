//! Rocpanda's data-plane transport: raw fabric or reliability layer.
//!
//! Every client↔server protocol message goes through [`PandaNet`]. On a
//! trusted fabric it forwards straight to [`Comm`] — zero overhead, the
//! historical behaviour. When [`crate::RocpandaConfig::faulty_net`] is set,
//! it wraps the same `Comm` in [`ReliableComm`], so Rocpanda's protocol
//! survives a fabric that drops, duplicates and reorders messages
//! (deterministically, per the configured [`rocnet::FaultSpec`]).
//!
//! Split-communicator traffic (client barriers, server `FLUSH_TOKEN`
//! coordination) stays on the raw comm: fault injection only targets
//! context 0, and collectives carry no snapshot payload.
//!
//! `tests/network_chaos.rs` holds the routing: a protocol message sent on
//! the raw comm instead of through `net` is lost to the committed sweep's
//! faults, and the sweep's snapshots and restarts fail.

use rocio_core::{Result, Rope};
use rocnet::comm::{Comm, Message, ProbeInfo};
use rocnet::rocrel::ReliableComm;

/// The transport behind every Rocpanda protocol message.
pub enum PandaNet<'a> {
    /// Trusted fabric: calls forward directly to the communicator.
    Raw(&'a Comm),
    /// Degraded fabric: sequence numbers, acks and retransmissions.
    Reliable(ReliableComm<'a>),
}

impl<'a> PandaNet<'a> {
    /// Build the transport for `comm`: reliable when the configuration
    /// declares the fabric faulty, raw otherwise.
    pub fn new(comm: &'a Comm, faulty: bool) -> Self {
        if faulty {
            PandaNet::Reliable(ReliableComm::new(comm))
        } else {
            PandaNet::Raw(comm)
        }
    }

    pub fn send(&mut self, dst: usize, tag: u32, payload: &[u8]) -> Result<()> {
        match self {
            PandaNet::Raw(c) => c.send(dst, tag, payload),
            PandaNet::Reliable(r) => r.send(dst, tag, payload),
        }
    }

    /// Send a rope as one message, its parts by refcount: how every
    /// block-bearing message goes out.
    pub fn send_rope(&mut self, dst: usize, tag: u32, payload: Rope) -> Result<()> {
        match self {
            PandaNet::Raw(c) => c.send_rope(dst, tag, payload).map(drop),
            PandaNet::Reliable(r) => r.send_rope(dst, tag, payload),
        }
    }

    pub fn recv(&mut self, src: Option<usize>, tag: Option<u32>) -> Result<Message> {
        match self {
            PandaNet::Raw(c) => c.recv(src, tag),
            PandaNet::Reliable(r) => r.recv(src, tag),
        }
    }

    /// [`PandaNet::recv`] with the payload as it travelled — what the
    /// block-bearing receives use, so a block's data stays the sender's
    /// buffer.
    pub fn recv_rope(&mut self, src: Option<usize>, tag: Option<u32>) -> Result<Message<Rope>> {
        match self {
            PandaNet::Raw(c) => c.recv_rope(src, tag),
            PandaNet::Reliable(r) => r.recv_rope(src, tag),
        }
    }

    pub fn probe(&mut self, src: Option<usize>, tag: Option<u32>) -> ProbeInfo {
        match self {
            PandaNet::Raw(c) => c.probe(src, tag),
            PandaNet::Reliable(r) => r.probe(src, tag),
        }
    }

    pub fn iprobe(&mut self, src: Option<usize>, tag: Option<u32>) -> Option<ProbeInfo> {
        match self {
            PandaNet::Raw(c) => c.iprobe(src, tag),
            PandaNet::Reliable(r) => r.iprobe(src, tag),
        }
    }

    /// Block until every frame this side sent has been acknowledged.
    /// No-op on a raw transport (fabric delivery is immediate).
    pub fn drain(&mut self) {
        if let PandaNet::Reliable(r) = self {
            r.drain();
        }
    }

    /// Drop unacknowledged frames whose delivery is proven causally
    /// (a reply that presupposes them has arrived). No-op on raw.
    pub fn abandon(&mut self) {
        if let PandaNet::Reliable(r) = self {
            r.abandon();
        }
    }

    /// Re-acknowledge trailing retransmissions until the link stays quiet
    /// for `quiet` seconds of virtual time. No-op on raw.
    pub fn linger(&mut self, quiet: f64) {
        if let PandaNet::Reliable(r) = self {
            r.linger(quiet);
        }
    }
}
