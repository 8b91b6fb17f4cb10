//! Network cost models.
//!
//! A [`NetworkModel`] turns (source node, destination node, message size,
//! total ranks) into modelled send-side cost and in-flight transfer time.
//! Parameters approximate the two machines of the paper's evaluation:
//!
//! * **Myrinet on Turing** — decent point-to-point numbers, but the paper
//!   observes that "the message passing system does not scale well and the
//!   impact of other concurrent jobs grows as more processors are used"
//!   (§7.1), so the Turing model has a contention term that grows with the
//!   rank count.
//! * **SP Switch2 on Frost** — higher bandwidth, well-isolated batch
//!   system, near-flat contention; intra-node transfers go through shared
//!   memory at much higher bandwidth, which is what makes Rocpanda's 1→15
//!   client throughput climb in Fig. 3(a).

use rocio_core::SimTime;

/// Cost parameters of one class of link.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct LinkModel {
    /// One-way latency in seconds.
    pub latency: SimTime,
    /// Bandwidth in bytes/second.
    pub bandwidth: f64,
}

impl LinkModel {
    /// Pure transfer time of `bytes` over this link, without contention.
    pub(crate) fn transfer_time(&self, bytes: usize) -> SimTime {
        self.latency + bytes as f64 / self.bandwidth
    }
}

/// A whole-machine network model.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct NetworkModel {
    /// Human-readable name (shows up in experiment reports).
    pub name: String,
    /// Link used when source and destination share an SMP node.
    pub intra_node: LinkModel,
    /// Link used between nodes.
    pub inter_node: LinkModel,
    /// CPU cost on the sender per message (software overhead, seconds).
    pub send_overhead: SimTime,
    /// CPU cost on the sender per byte (copy into the transport).
    pub send_per_byte: SimTime,
    /// CPU cost on the receiver per message (matching, unpacking).
    pub recv_overhead: SimTime,
    /// CPU cost on the receiver per byte (copy out of the transport).
    /// This is what serializes incast at a gather root or an I/O server.
    pub recv_per_byte: SimTime,
    /// Contention growth: effective transfer time is multiplied by
    /// `1 + contention_coeff * (n_ranks - 1).powf(contention_exp)`.
    pub contention_coeff: f64,
    /// Exponent of the contention curve.
    pub contention_exp: f64,
}

impl NetworkModel {
    /// An idealized, effectively free network — useful in unit tests where
    /// only message *semantics* matter.
    pub fn ideal() -> Self {
        NetworkModel {
            name: "ideal".into(),
            intra_node: LinkModel {
                latency: 0.0,
                bandwidth: 1e15,
            },
            inter_node: LinkModel {
                latency: 0.0,
                bandwidth: 1e15,
            },
            send_overhead: 0.0,
            send_per_byte: 0.0,
            recv_overhead: 0.0,
            recv_per_byte: 0.0,
            contention_coeff: 0.0,
            contention_exp: 1.0,
        }
    }

    /// Myrinet as deployed on the Turing cluster (dual-P3 Linux nodes).
    ///
    /// The comparatively large contention coefficient models the shared,
    /// unscheduled use of Turing: "Turing's nodes are shared by multiple
    /// concurrent jobs" (§7.1).
    pub(crate) fn myrinet_turing() -> Self {
        NetworkModel {
            name: "myrinet-turing".into(),
            intra_node: LinkModel {
                latency: 2e-6,
                bandwidth: 400e6,
            },
            inter_node: LinkModel {
                latency: 15e-6,
                bandwidth: 100e6,
            },
            send_overhead: 8e-6,
            send_per_byte: 1.0 / 350e6,
            recv_overhead: 8e-6,
            recv_per_byte: 1.0 / 250e6,
            contention_coeff: 0.012,
            contention_exp: 1.0,
        }
    }

    /// SP Switch2 as deployed on ASCI Frost (16-way POWER3 SMP nodes).
    pub(crate) fn sp_switch2_frost() -> Self {
        NetworkModel {
            name: "sp-switch2-frost".into(),
            intra_node: LinkModel {
                latency: 3e-6,
                bandwidth: 1000e6,
            },
            inter_node: LinkModel {
                latency: 18e-6,
                bandwidth: 350e6,
            },
            send_overhead: 5e-6,
            send_per_byte: 1.0 / 800e6,
            recv_overhead: 5e-6,
            recv_per_byte: 1.0 / 600e6,
            contention_coeff: 0.0008,
            contention_exp: 1.0,
        }
    }

    /// Contention multiplier for a job of `n_ranks` ranks.
    pub(crate) fn contention_factor(&self, n_ranks: usize) -> f64 {
        1.0 + self.contention_coeff * ((n_ranks.saturating_sub(1)) as f64).powf(self.contention_exp)
    }

    /// Sender-side CPU cost of pushing `bytes` into the transport.
    pub(crate) fn send_cost(&self, bytes: usize) -> SimTime {
        self.send_overhead + bytes as f64 * self.send_per_byte
    }

    /// Receiver-side CPU cost of draining `bytes` out of the transport.
    pub(crate) fn recv_cost(&self, bytes: usize) -> SimTime {
        self.recv_overhead + bytes as f64 * self.recv_per_byte
    }

    /// In-flight transfer time from `src_node` to `dst_node` for `bytes`,
    /// including contention for a job of `n_ranks`.
    pub(crate) fn flight_time(
        &self,
        src_node: usize,
        dst_node: usize,
        bytes: usize,
        n_ranks: usize,
    ) -> SimTime {
        let link = if src_node == dst_node {
            &self.intra_node
        } else {
            &self.inter_node
        };
        link.transfer_time(bytes) * self.contention_factor(n_ranks)
    }
}

/// What the adversarial fabric does with one eligible message.
///
/// Produced by [`FaultSpec::decide`] (seeded rates) or scripted directly by
/// the rocsched fault explorer. `Reorder` stashes the message in the link's
/// one-slot limbo so the *next* message on the same link overtakes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Deliver normally.
    Deliver,
    /// Silently discard the message.
    Drop,
    /// Deliver the message twice back to back.
    Duplicate,
    /// Hold the message until the next send on the same link passes it.
    Reorder,
}

/// Seeded adversarial per-link fault model.
///
/// Decisions are a pure function of `(seed, src, dst, link sequence
/// number)` via counter-based hashing (a splitmix64 finalizer per action
/// class) — no RNG state, and no `rand` (rocnet's manifest names it for
/// tests only), so reruns with the same seed are bit-identical. Rates are
/// probabilities in `[0, 1]`; each action class draws independently and
/// the first hit in drop → duplicate → reorder order wins.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FaultSpec {
    /// Sweep seed: same seed ⇒ identical fault pattern across reruns.
    pub seed: u64,
    /// Per-message drop probability.
    pub drop: f64,
    /// Per-message duplication probability.
    pub duplicate: f64,
    /// Per-message reorder (one-slot overtake) probability.
    pub reorder: f64,
}

/// splitmix64 finalizer: a statistically strong 64-bit mixer.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl FaultSpec {
    /// Drop-only fault model at `rate`.
    pub fn drops(seed: u64, rate: f64) -> Self {
        FaultSpec {
            seed,
            drop: rate,
            duplicate: 0.0,
            reorder: 0.0,
        }
    }

    /// The chaos-tier mix: `drop` drops plus moderate reordering and
    /// duplication on every link.
    pub fn chaos(seed: u64, drop: f64) -> Self {
        FaultSpec {
            seed,
            drop,
            duplicate: 0.03,
            reorder: 0.05,
        }
    }

    /// A fault model that never fires — used by the charge-identity tests
    /// to show the injection plumbing itself is free.
    pub fn none(seed: u64) -> Self {
        FaultSpec {
            seed,
            drop: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
        }
    }

    /// Uniform draw in `[0, 1)` for action class `salt` on message
    /// `(src, dst, seq)`.
    fn draw(&self, src: usize, dst: usize, seq: u64, salt: u64) -> f64 {
        let h = mix64(
            self.seed
                ^ mix64(src as u64 ^ (dst as u64).rotate_left(32))
                ^ mix64(seq.wrapping_add(salt)),
        );
        // Top 53 bits → an exactly representable dyadic in [0, 1).
        (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// The fate of the `seq`-th eligible message on link `src → dst`.
    pub fn decide(&self, src: usize, dst: usize, seq: u64) -> FaultAction {
        if self.drop > 0.0 && self.draw(src, dst, seq, 0x01) < self.drop {
            FaultAction::Drop
        } else if self.duplicate > 0.0 && self.draw(src, dst, seq, 0x02) < self.duplicate {
            FaultAction::Duplicate
        } else if self.reorder > 0.0 && self.draw(src, dst, seq, 0x03) < self.reorder {
            FaultAction::Reorder
        } else {
            FaultAction::Deliver
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_network_is_free() {
        let m = NetworkModel::ideal();
        assert_eq!(m.send_cost(1 << 20), 0.0);
        assert!(m.flight_time(0, 1, 1 << 20, 64) < 1e-6);
        assert_eq!(m.contention_factor(512), 1.0);
    }

    #[test]
    fn intra_node_faster_than_inter_node() {
        for m in [NetworkModel::myrinet_turing(), NetworkModel::sp_switch2_frost()] {
            let intra = m.flight_time(3, 3, 1 << 20, 16);
            let inter = m.flight_time(3, 4, 1 << 20, 16);
            assert!(intra < inter, "{}: intra {} >= inter {}", m.name, intra, inter);
        }
    }

    #[test]
    fn contention_grows_with_ranks() {
        let m = NetworkModel::myrinet_turing();
        let f16 = m.contention_factor(16);
        let f64_ = m.contention_factor(64);
        assert!(f64_ > f16);
        assert!(f16 >= 1.0);
    }

    #[test]
    fn turing_congests_faster_than_frost() {
        let t = NetworkModel::myrinet_turing();
        let f = NetworkModel::sp_switch2_frost();
        assert!(t.contention_factor(64) > f.contention_factor(64));
    }

    #[test]
    fn transfer_time_scales_with_size() {
        let l = LinkModel {
            latency: 1e-5,
            bandwidth: 100e6,
        };
        let t1 = l.transfer_time(1 << 20);
        let t2 = l.transfer_time(2 << 20);
        assert!(t2 > t1);
        // 1 MiB at 100 MB/s is ~10.5 ms.
        assert!((t1 - (1e-5 + 1048576.0 / 100e6)).abs() < 1e-12);
    }

    #[test]
    fn send_cost_has_fixed_and_variable_parts() {
        let m = NetworkModel::sp_switch2_frost();
        let small = m.send_cost(8);
        let big = m.send_cost(1 << 20);
        assert!(small >= m.send_overhead);
        assert!(big > small * 10.0);
    }

    #[test]
    fn fault_decisions_are_a_pure_function_of_the_key() {
        let f = FaultSpec::chaos(42, 0.2);
        for seq in 0..256 {
            assert_eq!(f.decide(1, 3, seq), f.decide(1, 3, seq));
        }
    }

    #[test]
    fn fault_seeds_and_links_decorrelate() {
        let a = FaultSpec::drops(1, 0.5);
        let b = FaultSpec::drops(2, 0.5);
        let mut differ_by_seed = false;
        let mut differ_by_link = false;
        for seq in 0..64 {
            differ_by_seed |= a.decide(0, 1, seq) != b.decide(0, 1, seq);
            differ_by_link |= a.decide(0, 1, seq) != a.decide(1, 0, seq);
        }
        assert!(differ_by_seed, "seed must change the pattern");
        assert!(differ_by_link, "src/dst must change the pattern");
    }

    #[test]
    fn fault_rates_roughly_hit_their_targets() {
        let f = FaultSpec::drops(7, 0.2);
        let n = 10_000u64;
        let drops = (0..n)
            .filter(|&s| f.decide(0, 1, s) == FaultAction::Drop)
            .count() as f64;
        let rate = drops / n as f64;
        assert!((rate - 0.2).abs() < 0.02, "observed drop rate {rate}");
    }

    #[test]
    fn zero_rate_spec_never_fires() {
        let f = FaultSpec::none(99);
        for seq in 0..1024 {
            assert_eq!(f.decide(2, 5, seq), FaultAction::Deliver);
        }
    }
}
