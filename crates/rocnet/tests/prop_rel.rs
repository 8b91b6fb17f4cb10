//! Property tests on the reliability core (`rocrel`): the sequence/ack
//! window arithmetic is checked against brute-force reference models, and
//! a closed-loop channel simulation proves exactly-once in-order delivery
//! under arbitrary bounded drop/duplicate/reorder adversaries. The frame
//! decoder is fed hostile bytes through a running engine.

use std::collections::BTreeSet;

use proptest::prelude::*;
use rocnet::cluster::ClusterSpec;
use rocnet::rocrel::{RecvWindow, ReliableComm, SendWindow, TAG_REL};
use rocnet::run_ranks;

/// What the adversary does to one transmission event (a DATA or ACK frame
/// entering the network).
#[derive(Debug, Clone, Copy)]
enum Fate {
    Deliver,
    Drop,
    Duplicate,
}

fn fate() -> impl Strategy<Value = Fate> {
    // 3:1:1 deliver/drop/duplicate mix.
    (0u8..5).prop_map(|x| match x {
        0..=2 => Fate::Deliver,
        3 => Fate::Drop,
        _ => Fate::Duplicate,
    })
}

/// An in-flight frame: DATA carries `(seq, value)`, ACK carries the
/// receiver's `(cum, sacks)` snapshot.
#[derive(Debug, Clone)]
enum Frame {
    Data(u64, u64),
    Ack(u64, Vec<u64>),
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Closed loop: a sender window, a receiver window, and a network the
    /// adversary controls (drops and duplicates at send time, arbitrary
    /// delivery order via `picks`). The adversary script is finite, so
    /// retransmission must eventually push every message through — and
    /// the receiver must deliver exactly `0..n`, in order, once each.
    #[test]
    fn channel_delivers_exactly_once_in_order(
        n in 1u64..24,
        fates in prop::collection::vec(fate(), 0..64),
        picks in prop::collection::vec(any::<usize>(), 0..256),
    ) {
        const RTO: f64 = 1.0;
        const RTO_MAX: f64 = 8.0;
        let mut tx: SendWindow<u64> = SendWindow::new();
        let mut rx: RecvWindow<u64> = RecvWindow::new();
        let mut now = 0.0f64;
        let mut net: Vec<Frame> = Vec::new();
        let mut delivered: Vec<u64> = Vec::new();
        let mut event = 0usize; // transmission counter, indexes `fates`
        let mut pick_i = 0usize;

        let inject = |net: &mut Vec<Frame>, f: Frame, event: &mut usize| {
            let fate = fates.get(*event).copied().unwrap_or(Fate::Deliver);
            *event += 1;
            match fate {
                Fate::Deliver => net.push(f),
                Fate::Drop => {}
                Fate::Duplicate => {
                    net.push(f.clone());
                    net.push(f);
                }
            }
        };

        for v in 0..n {
            let seq = tx.push(v, now, RTO);
            prop_assert_eq!(seq, v, "sequence numbers are dense from 0");
            inject(&mut net, Frame::Data(seq, v), &mut event);
        }

        let mut steps = 0usize;
        while tx.in_flight() > 0 || !net.is_empty() {
            steps += 1;
            prop_assert!(
                steps < 10_000,
                "channel must quiesce (in_flight={}, net={})",
                tx.in_flight(),
                net.len()
            );
            if net.is_empty() {
                // Nothing to deliver: advance virtual time to the next
                // retransmit deadline and resend what is due (the
                // adversary script may eat these too, but it is finite).
                let t = tx.next_deadline().expect("in-flight frames have timers");
                prop_assert!(t > now, "timers always arm in the future");
                now = t;
                for (seq, v) in tx.due(now, RTO_MAX) {
                    inject(&mut net, Frame::Data(seq, v), &mut event);
                }
                continue;
            }
            // The adversary picks which in-flight frame arrives next —
            // arbitrary reordering, including across DATA and ACK.
            let at = picks.get(pick_i).copied().unwrap_or(0) % net.len();
            pick_i += 1;
            match net.remove(at) {
                Frame::Data(seq, v) => {
                    delivered.extend(rx.offer(seq, v));
                    let (cum, sacks) = rx.ack_state();
                    inject(&mut net, Frame::Ack(cum, sacks), &mut event);
                }
                Frame::Ack(cum, sacks) => tx.on_ack(cum, &sacks),
            }
        }

        let want: Vec<u64> = (0..n).collect();
        prop_assert_eq!(delivered, want, "exactly-once, in-order delivery");
        prop_assert_eq!(rx.ack_state(), (n, Vec::new()));
    }

    /// RecvWindow against a brute-force reference: feed an arbitrary
    /// sequence of (possibly duplicated, reordered) sequence numbers and
    /// check deliveries, ack state, and the duplicate counter after
    /// every offer.
    #[test]
    fn recv_window_matches_reference_model(
        offers in prop::collection::vec(0u64..16, 1..64),
    ) {
        let mut w: RecvWindow<u64> = RecvWindow::new();
        let mut seen = BTreeSet::new();
        let mut delivered_up_to = 0u64; // reference cumulative point
        let mut dups = 0u64;
        for &seq in &offers {
            let out = w.offer(seq, seq);
            if seen.contains(&seq) {
                dups += 1;
                prop_assert!(out.is_empty(), "duplicate {seq} must deliver nothing");
            } else {
                seen.insert(seq);
                // Reference: delivery runs from the old cumulative point
                // through the now-contiguous prefix.
                let from = delivered_up_to;
                while seen.contains(&delivered_up_to) {
                    delivered_up_to += 1;
                }
                let want: Vec<u64> = (from..delivered_up_to).collect();
                prop_assert_eq!(out, want);
            }
            let (cum, sacks) = w.ack_state();
            prop_assert_eq!(cum, delivered_up_to, "cumulative ack is the mex of seen");
            let want_sacks: Vec<u64> = seen
                .iter()
                .copied()
                .filter(|&s| s >= delivered_up_to)
                .collect();
            prop_assert_eq!(sacks, want_sacks, "sacks name the out-of-order buffer");
            prop_assert_eq!(w.duplicates(), dups);
        }
    }

    /// SendWindow ack arithmetic against set algebra: after any mix of
    /// pushes and (cum, sacks) acknowledgements — including stale and
    /// overlapping acks — the in-flight set is exactly the pushed set
    /// minus everything any ack covered.
    #[test]
    fn send_window_matches_reference_model(
        n in 1u64..20,
        acks in prop::collection::vec(
            (0u64..24, prop::collection::vec(0u64..24, 0..6)),
            0..12,
        ),
    ) {
        let mut w: SendWindow<u64> = SendWindow::new();
        for v in 0..n {
            w.push(v, 0.0, 1.0);
        }
        let mut live: BTreeSet<u64> = (0..n).collect();
        for (cum, sacks) in &acks {
            w.on_ack(*cum, sacks);
            live.retain(|&s| s >= *cum && !sacks.contains(&s));
            prop_assert_eq!(w.in_flight(), live.len());
        }
        // Timer discipline: everything due at t=2 retransmits in sequence
        // order, backs off, and is not due again at the same instant.
        let due: Vec<u64> = w.due(2.0, 8.0).into_iter().map(|(s, _)| s).collect();
        let want: Vec<u64> = live.iter().copied().collect();
        prop_assert_eq!(due, want, "due frames come out in sequence order");
        prop_assert!(w.due(2.0, 8.0).is_empty(), "re-armed timers are in the future");
        if let Some(t) = w.next_deadline() {
            prop_assert!(t > 2.0);
        } else {
            prop_assert_eq!(w.in_flight(), 0);
        }
    }
}

/// A well-formed `DATA` frame: kind 1, sequence number, application tag,
/// payload.
fn data_frame(seq: u64, tag: u32, payload: &[u8]) -> Vec<u8> {
    [&[1u8][..], &seq.to_le_bytes(), &tag.to_le_bytes(), payload].concat()
}

/// A well-formed `ACK` frame: kind 2, cumulative ack, count, selective acks.
fn ack_frame(cum: u64, sacks: &[u64]) -> Vec<u8> {
    let mut f = [&[2u8][..], &cum.to_le_bytes(), &(sacks.len() as u32).to_le_bytes()].concat();
    for s in sacks {
        f.extend_from_slice(&s.to_le_bytes());
    }
    f
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Anyone can send anything under `TAG_REL`. Rank 2 sends rank 1's
    /// engine arbitrary bytes, and valid DATA and ACK frames with one byte
    /// replaced or cut short at any length, raw; every one of them arrives
    /// before rank 0's honest message does. The engine must drop and count
    /// what does not decode — never panic — and still deliver the honest
    /// message.
    #[test]
    fn hostile_frames_are_dropped_never_panicked_on(
        junk in prop::collection::vec(any::<u8>(), 0..48),
        payload in prop::collection::vec(any::<u8>(), 0..24),
        sacks in prop::collection::vec(any::<u64>(), 0..4),
        at in any::<prop::sample::Index>(),
        byte in any::<u8>(),
    ) {
        let mut hostile = vec![junk, Vec::new(), vec![9], ack_frame(0, &[])[..12].to_vec()];
        for valid in [data_frame(3, 7, &payload), ack_frame(2, &sacks)] {
            let mut mutated = valid.clone();
            mutated[at.index(valid.len())] = byte;
            hostile.push(mutated);
            hostile.push(valid[..at.index(valid.len())].to_vec());
        }
        // A selective-ack count no frame could hold.
        hostile.push([&ack_frame(0, &[])[..9], &u32::MAX.to_le_bytes()].concat());
        let out = run_ranks(3, ClusterSpec::turing(3), |comm| {
            let mut rel = ReliableComm::new(&comm);
            match comm.rank() {
                0 => {
                    comm.advance(1.0);
                    rel.send(1, 7, b"honest").unwrap();
                    rel.drain();
                    0
                }
                1 => {
                    let m = rel.recv(Some(0), Some(7)).unwrap();
                    assert_eq!(m.payload, b"honest");
                    rel.linger(1.0);
                    rel.malformed()
                }
                _ => {
                    for frame in &hostile {
                        comm.send(1, TAG_REL, frame).unwrap();
                    }
                    0
                }
            }
        });
        // The empty frame, the unknown kind, the 12-byte ACK and the
        // impossible count are malformed whatever the random part does.
        prop_assert!((4..=hostile.len() as u64).contains(&out[1]), "{} malformed", out[1]);
    }
}
