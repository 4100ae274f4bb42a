//! Unidirectional links: a serialization rate, a propagation delay, a
//! buffer governed by a [`QueueDiscipline`], and an optional scripted
//! [`LossPattern`] used to impose the hand-crafted drop sequences of the
//! paper's smoothness experiments (Figures 17-19).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::faults::{FaultPlan, FaultState};
use crate::ids::NodeId;
use crate::packet::Packet;
use crate::queue::QueueDiscipline;
use crate::time::{transmission_time, SimDuration, SimTime};

/// Decides, per packet, whether the link artificially drops it before the
/// buffer sees it. Implementations are deterministic state machines so the
/// paper's exact loss scripts ("drop every 200th packet for six seconds,
/// then every 4th for one second") can be expressed.
pub trait LossPattern: Send {
    /// Called for every packet offered to the link, in arrival order.
    /// Return `true` to drop the packet.
    fn should_drop(&mut self, pkt: &Packet, now: SimTime) -> bool;
}

/// Drops every `n`-th packet that is eligible (data packets only by
/// default, so ACK streams on shared links are unaffected).
#[derive(Debug, Clone)]
pub struct EveryNth {
    n: u64,
    seen: u64,
    data_only: bool,
}

impl EveryNth {
    /// Drop one of every `n` data packets. `n == 0` never drops.
    pub fn data_every(n: u64) -> Self {
        EveryNth {
            n,
            seen: 0,
            data_only: true,
        }
    }
}

impl LossPattern for EveryNth {
    fn should_drop(&mut self, pkt: &Packet, _now: SimTime) -> bool {
        if self.n == 0 || (self.data_only && !pkt.is_data()) {
            return false;
        }
        self.seen += 1;
        if self.seen >= self.n {
            self.seen = 0;
            true
        } else {
            false
        }
    }
}

/// Drops each data packet independently with probability `p`, using its
/// own seeded RNG so the loss process is reproducible and independent of
/// the rest of the simulation. The standard model for validating
/// *static* TCP-compatibility (a fixed loss rate, as in the paper's
/// Section 2 definition).
#[derive(Debug, Clone)]
pub struct BernoulliLoss {
    p: f64,
    rng: SmallRng,
}

impl BernoulliLoss {
    /// Drop each data packet with probability `p` in `[0, 1]`.
    pub fn new(p: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0,1]");
        BernoulliLoss {
            p,
            rng: SmallRng::seed_from_u64(seed),
        }
    }
}

impl LossPattern for BernoulliLoss {
    fn should_drop(&mut self, pkt: &Packet, _now: SimTime) -> bool {
        pkt.is_data() && self.rng.gen::<f64>() < self.p
    }
}

/// Decides, per packet, whether the link ECN-marks it (applied before
/// the buffer, to ECN-capable packets only). Used by validation
/// experiments that need a fixed marking probability independent of the
/// queue state — the environment Section 4.2.2's convergence model
/// assumes.
pub trait MarkPattern: Send {
    /// Return `true` to mark `pkt` with congestion-experienced.
    fn should_mark(&mut self, pkt: &Packet, now: SimTime) -> bool;
}

impl MarkPattern for BernoulliLoss {
    fn should_mark(&mut self, pkt: &Packet, now: SimTime) -> bool {
        // Same decision process as the loss variant, applied as a mark.
        self.should_drop(pkt, now)
    }
}

/// A unidirectional link.
///
/// The simulator drives the link. Every offered packet passes through the
/// queue discipline; on an idle transmitter it is pulled straight back out
/// and committed to the wire, which stamps [`Link::busy_until`] with the
/// end of its serialization and schedules its arrival (serialization +
/// propagation) in one step. A packet offered while the transmitter is
/// busy waits in the buffer, and only then is a wake event scheduled at
/// `busy_until` to pull it. See DESIGN.md §5l.
pub struct Link {
    /// Where delivered packets arrive.
    pub(crate) dst: NodeId,
    /// Serialization rate in bits per second.
    pub(crate) rate_bps: f64,
    /// One-way propagation delay.
    pub(crate) delay: SimDuration,
    pub(crate) queue: Box<dyn QueueDiscipline>,
    pub(crate) loss: Option<Box<dyn LossPattern>>,
    pub(crate) marker: Option<Box<dyn MarkPattern>>,
    /// Optional scripted fault injection (see [`crate::faults`]).
    pub(crate) faults: Option<FaultState>,
    /// Private RNG stream consumed by the queue discipline (RED's drop
    /// draws). Seeded by the simulator from `(sim seed, link index)`, so
    /// each link's draw sequence depends only on the packets *it* sees,
    /// not on interleaving with other links. Placeholder-seeded here;
    /// [`crate::sim::Simulator::add_link`] installs the real stream.
    pub(crate) rng: SmallRng,
    /// When the transmitter finishes the packet it last committed to the
    /// wire (time zero on a link that never transmitted).
    pub(crate) busy_until: SimTime,
    /// Whether a wake (`LinkTxComplete`) is scheduled at `busy_until`.
    /// Invariant: while `now < busy_until`, a wake is pending exactly
    /// when the buffer is non-empty.
    pub(crate) wake_pending: bool,
    /// Serialization-time memo: the last two distinct packet sizes seen
    /// and their [`transmission_time`], most recent first. Real traffic
    /// is bimodal (data segments and ACKs), so in steady state every
    /// `start_service` is a table hit and the per-packet f64
    /// divide-and-ceil is paid only when a new size appears. Seeded with
    /// size 0 → zero duration, which is exactly what
    /// [`transmission_time`] returns for an empty packet.
    tx_memo: [(u32, SimDuration); 2],
}

impl Link {
    /// A link toward `dst` with the given rate, propagation delay and
    /// buffer discipline.
    pub fn new(
        dst: NodeId,
        rate_bps: f64,
        delay: SimDuration,
        queue: Box<dyn QueueDiscipline>,
    ) -> Self {
        assert!(rate_bps >= 0.0, "link rate must be non-negative");
        Link {
            dst,
            rate_bps,
            delay,
            queue,
            loss: None,
            marker: None,
            faults: None,
            rng: SmallRng::seed_from_u64(0),
            busy_until: SimTime::ZERO,
            wake_pending: false,
            tx_memo: [(0, SimDuration::ZERO); 2],
        }
    }

    /// Whether a packet offered at `now` must wait: the transmitter is
    /// mid-serialization, or it frees up at exactly `now` but the wake
    /// that hands it to an earlier waiter has not been dispatched yet.
    #[inline]
    pub(crate) fn busy(&self, now: SimTime) -> bool {
        self.wake_pending || now < self.busy_until
    }

    /// Serialization time for a packet of `size` bytes on this link,
    /// via the two-entry memo. Pure memoization of
    /// [`transmission_time`]: for a given size the returned duration is
    /// bit-identical to the direct computation, always.
    #[inline]
    pub(crate) fn tx_time(&mut self, size: u32) -> SimDuration {
        if self.tx_memo[0].0 == size {
            return self.tx_memo[0].1;
        }
        if self.tx_memo[1].0 == size {
            self.tx_memo.swap(0, 1);
            return self.tx_memo[0].1;
        }
        let t = transmission_time(size, self.rate_bps);
        self.tx_memo[1] = self.tx_memo[0];
        self.tx_memo[0] = (size, t);
        t
    }

    /// Attach a scripted loss pattern executed before the buffer.
    pub fn with_loss(mut self, loss: Box<dyn LossPattern>) -> Self {
        self.loss = Some(loss);
        self
    }

    /// Attach an ECN marking pattern executed before the buffer
    /// (ECN-capable packets only).
    pub fn with_marker(mut self, marker: Box<dyn MarkPattern>) -> Self {
        self.marker = Some(marker);
        self
    }

    /// Attach a deterministic fault plan (reordering, duplication,
    /// jitter, flapping) executed around the loss/mark stage. See
    /// [`crate::faults`] for the model and its audit guarantees.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(FaultState::new(plan));
        self
    }

    /// The fault plan attached to this link, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref().map(|f| f.plan())
    }

    /// Serialization rate in bits per second.
    pub fn rate_bps(&self) -> f64 {
        self.rate_bps
    }

    /// Current buffer occupancy in packets (excluding the packet being
    /// serialized).
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }
}

impl core::fmt::Debug for Link {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Link")
            .field("dst", &self.dst)
            .field("rate_bps", &self.rate_bps)
            .field("delay", &self.delay)
            .field("queue_len", &self.queue.len())
            .field("busy_until", &self.busy_until)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{AgentId, FlowId};
    use crate::packet::{AckInfo, DataInfo, Payload};

    fn pkt(uid: u64, payload: Payload) -> Packet {
        Packet {
            uid,
            flow: FlowId::from_index(0),
            seq: uid,
            size: 1000,
            payload,
            src_node: NodeId::from_index(0),
            dst_node: NodeId::from_index(1),
            src_agent: AgentId::from_index(0),
            dst_agent: AgentId::from_index(1),
            sent_at: SimTime::ZERO,
            ecn: Default::default(),
        }
    }

    #[test]
    fn tx_time_memo_matches_direct_computation() {
        use crate::queue::DropTail;
        let mut link = Link::new(
            NodeId::from_index(1),
            10e6,
            SimDuration::ZERO,
            Box::new(DropTail::new(10)),
        );
        // Bimodal steady state, an eviction (1500), a re-fault (1040)
        // and the degenerate size-0 seed entry.
        for &size in &[1040u32, 40, 1040, 40, 1500, 40, 1040, 0] {
            assert_eq!(
                link.tx_time(size),
                transmission_time(size, 10e6),
                "size {size}"
            );
        }
    }

    #[test]
    fn every_nth_drops_exactly_one_in_n_data_packets() {
        let mut p = EveryNth::data_every(4);
        let mut drops = 0;
        for uid in 0..40 {
            if p.should_drop(&pkt(uid, Payload::Data(DataInfo::default())), SimTime::ZERO) {
                drops += 1;
            }
        }
        assert_eq!(drops, 10);
    }

    #[test]
    fn every_nth_ignores_acks() {
        let mut p = EveryNth::data_every(1);
        let ack = pkt(0, Payload::Ack(AckInfo::cumulative(1, 0, SimTime::ZERO)));
        assert!(!p.should_drop(&ack, SimTime::ZERO));
        assert!(p.should_drop(&pkt(1, Payload::Data(DataInfo::default())), SimTime::ZERO));
    }

    #[test]
    fn bernoulli_loss_hits_its_probability() {
        let mut p = BernoulliLoss::new(0.1, 9);
        let n = 50_000;
        let mut drops = 0;
        for uid in 0..n {
            if p.should_drop(&pkt(uid, Payload::Data(DataInfo::default())), SimTime::ZERO) {
                drops += 1;
            }
        }
        let rate = drops as f64 / n as f64;
        assert!((rate - 0.1).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn bernoulli_extremes() {
        let mut never = BernoulliLoss::new(0.0, 1);
        let mut always = BernoulliLoss::new(1.0, 1);
        let d = pkt(0, Payload::Data(DataInfo::default()));
        assert!(!never.should_drop(&d, SimTime::ZERO));
        assert!(always.should_drop(&d, SimTime::ZERO));
        let ack = pkt(0, Payload::Ack(AckInfo::cumulative(1, 0, SimTime::ZERO)));
        assert!(!always.should_drop(&ack, SimTime::ZERO));
    }

    #[test]
    fn zero_n_never_drops() {
        let mut p = EveryNth::data_every(0);
        for uid in 0..10 {
            assert!(!p.should_drop(&pkt(uid, Payload::Data(DataInfo::default())), SimTime::ZERO));
        }
    }
}
