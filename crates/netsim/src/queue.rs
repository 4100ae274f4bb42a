//! Queue disciplines for link buffers.
//!
//! Two disciplines are provided, matching the paper's simulations:
//!
//! * [`DropTail`] — a plain FIFO with a hard packet limit.
//! * [`Red`] — Random Early Detection (Floyd & Jacobson 1993), with the
//!   count-corrected drop probability, the idle-time correction to the
//!   average queue estimate, and an optional "gentle" mode, mirroring the
//!   ns-2 implementation the paper used.
//!
//! Queue occupancy is measured in packets (the ns-2 default for these
//! experiments).
//!
//! Buffered packets live in the simulator's [`PacketPool`]; disciplines
//! store and hand back [`PacketId`]s, so queueing a packet moves four
//! bytes instead of the whole struct. On [`EnqueueResult::Dropped`] the
//! *caller* ends the packet's life in the pool (after tracing it);
//! disciplines never free ids.

use std::collections::VecDeque;

use rand::Rng;

use crate::pool::{PacketId, PacketPool};
use crate::time::{SimDuration, SimTime};

/// Outcome of offering a packet to a queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnqueueResult {
    /// The packet was accepted and buffered.
    Enqueued,
    /// The packet was rejected by the discipline (early drop or
    /// overflow); the caller accounts the drop and frees the pooled
    /// packet.
    Dropped,
    /// The packet was accepted and ECN-marked instead of being
    /// early-dropped (RED with ECN enabled, RFC 2481).
    Marked,
}

/// A queue discipline: decides whether arriving packets are buffered or
/// dropped, and hands back buffered packets in service order.
pub trait QueueDiscipline: Send {
    /// Offer the pooled packet `pkt` to the queue at time `now`. On
    /// [`EnqueueResult::Dropped`] the discipline no longer references
    /// `pkt`; the caller frees it.
    fn enqueue(
        &mut self,
        pkt: PacketId,
        pool: &mut PacketPool,
        now: SimTime,
        rng: &mut dyn rand::RngCore,
    ) -> EnqueueResult;

    /// Remove the next packet to transmit, if any.
    fn dequeue(&mut self, now: SimTime) -> Option<PacketId>;

    /// Current occupancy in packets.
    fn len(&self) -> usize;

    /// True when no packets are buffered.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A FIFO queue with a hard capacity in packets.
///
/// The buffer starts empty and grows to the deepest backlog the link
/// actually sees, as [`Red`]'s does: `capacity` is a drop threshold, not
/// an allocation. Most DropTail queues are access links that rarely hold
/// more than a few packets; pre-allocating the limit would cost the
/// 1 024-flow parking lot's 4 096 access links 61 MB.
#[derive(Debug)]
pub struct DropTail {
    buf: VecDeque<PacketId>,
    capacity: usize,
}

impl DropTail {
    /// A FIFO holding at most `capacity` packets. A capacity of zero drops
    /// everything. Allocates nothing until the first enqueue.
    pub fn new(capacity: usize) -> Self {
        DropTail {
            buf: VecDeque::new(),
            capacity,
        }
    }
}

impl QueueDiscipline for DropTail {
    #[inline]
    fn enqueue(
        &mut self,
        pkt: PacketId,
        _pool: &mut PacketPool,
        _now: SimTime,
        _rng: &mut dyn rand::RngCore,
    ) -> EnqueueResult {
        if self.buf.len() >= self.capacity {
            EnqueueResult::Dropped
        } else {
            self.buf.push_back(pkt);
            EnqueueResult::Enqueued
        }
    }

    #[inline]
    fn dequeue(&mut self, _now: SimTime) -> Option<PacketId> {
        self.buf.pop_front()
    }

    #[inline]
    fn len(&self) -> usize {
        self.buf.len()
    }
}

/// Configuration for a [`Red`] queue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RedConfig {
    /// Hard buffer limit in packets; arrivals beyond this are always
    /// dropped regardless of the average queue.
    pub capacity: usize,
    /// Lower threshold on the average queue size, in packets.
    pub min_thresh: f64,
    /// Upper threshold on the average queue size, in packets.
    pub max_thresh: f64,
    /// Maximum early-drop probability reached at `max_thresh`.
    pub max_p: f64,
    /// Weight of the exponentially weighted moving average of the queue.
    pub weight: f64,
    /// Mean packet transmission time, used to age the average across idle
    /// periods (ns-2 estimates this from the link rate; we take it
    /// explicitly).
    pub mean_pkt_time: SimDuration,
    /// Gentle RED: between `max_thresh` and `2*max_thresh` the drop
    /// probability rises linearly from `max_p` to 1 instead of jumping
    /// to 1.
    pub gentle: bool,
    /// ECN: mark ECN-capable packets instead of early-dropping them
    /// (hard-limit overflow still drops).
    pub ecn: bool,
}

impl RedConfig {
    /// The paper's configuration in terms of the bandwidth-delay product
    /// measured in packets: queue capacity 2.5x BDP, `min_thresh` 0.25x,
    /// `max_thresh` 1.25x (Section 3), with ns-2 default `weight` and
    /// `max_p`.
    pub fn paper_defaults(bdp_packets: f64, mean_pkt_time: SimDuration) -> Self {
        RedConfig {
            capacity: (2.5 * bdp_packets).round().max(4.0) as usize,
            min_thresh: (0.25 * bdp_packets).max(1.0),
            max_thresh: (1.25 * bdp_packets).max(2.0),
            max_p: 0.1,
            weight: 0.002,
            mean_pkt_time,
            gentle: false,
            ecn: false,
        }
    }
}

/// Per-arrival constants derived from [`RedConfig`], hoisted out of the
/// enqueue hot path at construction time. Every value is the *identical*
/// `f64` the inline expression produced, so precomputing preserves
/// bit-exact drop decisions.
#[derive(Debug, Clone, Copy)]
struct RedPrecomputed {
    /// `1.0 - weight` (used twice per arrival by the EWMA update).
    one_minus_weight: f64,
    /// `max_thresh - min_thresh`.
    thresh_range: f64,
    /// `2.0 * max_thresh` (gentle-mode upper bound; exact doubling).
    two_max_thresh: f64,
    /// `1.0 - max_p` (gentle-mode slope numerator).
    one_minus_max_p: f64,
}

impl RedPrecomputed {
    fn from(cfg: &RedConfig) -> Self {
        RedPrecomputed {
            one_minus_weight: 1.0 - cfg.weight,
            thresh_range: cfg.max_thresh - cfg.min_thresh,
            two_max_thresh: 2.0 * cfg.max_thresh,
            one_minus_max_p: 1.0 - cfg.max_p,
        }
    }
}

/// Random Early Detection queue.
#[derive(Debug)]
pub struct Red {
    cfg: RedConfig,
    pre: RedPrecomputed,
    buf: VecDeque<PacketId>,
    /// EWMA of the instantaneous queue length, in packets.
    avg: f64,
    /// Packets enqueued since the last early drop (or since the average
    /// last fell below `min_thresh`); -1 encodes "fresh" per RFC 2309
    /// pseudo-code, we use an Option instead.
    count: Option<u64>,
    /// When the queue went idle, if it is currently empty.
    idle_since: Option<SimTime>,
}

impl Red {
    /// A RED queue with the given configuration. Panics on inverted
    /// thresholds or out-of-range probabilities/weights.
    pub fn new(cfg: RedConfig) -> Self {
        assert!(
            cfg.min_thresh < cfg.max_thresh,
            "RED requires min_thresh < max_thresh (got {} >= {})",
            cfg.min_thresh,
            cfg.max_thresh
        );
        assert!(
            cfg.max_p > 0.0 && cfg.max_p <= 1.0,
            "RED max_p must be in (0, 1]"
        );
        assert!(
            cfg.weight > 0.0 && cfg.weight <= 1.0,
            "RED weight must be in (0, 1]"
        );
        Red {
            pre: RedPrecomputed::from(&cfg),
            cfg,
            buf: VecDeque::new(),
            avg: 0.0,
            count: None,
            idle_since: Some(SimTime::ZERO),
        }
    }

    /// Current EWMA of the queue length, exposed for instrumentation.
    pub fn average(&self) -> f64 {
        self.avg
    }

    /// Update the average for an arrival at `now`, accounting for idle time.
    fn update_average(&mut self, now: SimTime) {
        if let Some(idle_start) = self.idle_since.take() {
            // While the queue was empty the link kept "transmitting"
            // hypothetical small packets: age the average as if m packets
            // of the mean size had departed.
            let idle = now.saturating_since(idle_start);
            if !self.cfg.mean_pkt_time.is_zero() {
                let m = idle / self.cfg.mean_pkt_time;
                self.avg *= self.pre.one_minus_weight.powf(m);
            }
        }
        self.avg = self.pre.one_minus_weight * self.avg + self.cfg.weight * self.buf.len() as f64;
    }

    /// Early-drop probability for the current average, before count
    /// correction. `None` means "no early drop"; `Some(1.0)` forces a drop.
    fn base_drop_prob(&self) -> Option<f64> {
        if self.avg < self.cfg.min_thresh {
            None
        } else if self.avg < self.cfg.max_thresh {
            Some(self.cfg.max_p * (self.avg - self.cfg.min_thresh) / self.pre.thresh_range)
        } else if self.cfg.gentle && self.avg < self.pre.two_max_thresh {
            Some(
                self.cfg.max_p
                    + self.pre.one_minus_max_p * (self.avg - self.cfg.max_thresh)
                        / self.cfg.max_thresh,
            )
        } else {
            Some(1.0)
        }
    }
}

impl QueueDiscipline for Red {
    #[inline]
    fn enqueue(
        &mut self,
        pkt: PacketId,
        pool: &mut PacketPool,
        now: SimTime,
        rng: &mut dyn rand::RngCore,
    ) -> EnqueueResult {
        self.update_average(now);
        let result = self.enqueue_inner(pkt, pool, rng);
        // If the buffer is (still) empty — e.g. the arrival was dropped
        // while the average sat above max_thresh — the queue remains
        // idle: re-arm the idle clock so the average keeps decaying.
        // Without this the average freezes high and the queue blackholes
        // sparse retransmissions forever.
        if self.buf.is_empty() && self.idle_since.is_none() {
            self.idle_since = Some(now);
        }
        result
    }

    #[inline]
    fn dequeue(&mut self, now: SimTime) -> Option<PacketId> {
        let pkt = self.buf.pop_front();
        if self.buf.is_empty() && self.idle_since.is_none() {
            self.idle_since = Some(now);
        }
        pkt
    }

    #[inline]
    fn len(&self) -> usize {
        self.buf.len()
    }
}

impl Red {
    fn enqueue_inner(
        &mut self,
        pkt: PacketId,
        pool: &mut PacketPool,
        rng: &mut dyn rand::RngCore,
    ) -> EnqueueResult {
        // Hard limit applies regardless of the average (and is never an
        // ECN mark: there is physically no room).
        if self.buf.len() >= self.cfg.capacity {
            self.count = Some(0);
            return EnqueueResult::Dropped;
        }

        match self.base_drop_prob() {
            None => {
                self.count = None;
                self.buf.push_back(pkt);
                EnqueueResult::Enqueued
            }
            Some(pb) if pb >= 1.0 => {
                self.count = Some(0);
                self.drop_or_mark(pkt, pool)
            }
            Some(pb) => {
                let count = self.count.map_or(0, |c| c + 1);
                self.count = Some(count);
                // Count correction spreads drops uniformly across the
                // inter-drop interval: p_a = p_b / (1 - count * p_b).
                let denom = 1.0 - count as f64 * pb;
                let pa = if denom <= 0.0 {
                    1.0
                } else {
                    (pb / denom).min(1.0)
                };
                if rng.gen::<f64>() < pa {
                    self.count = Some(0);
                    self.drop_or_mark(pkt, pool)
                } else {
                    self.buf.push_back(pkt);
                    EnqueueResult::Enqueued
                }
            }
        }
    }

    /// Execute an early congestion signal: an ECN mark when both the
    /// queue and the packet are ECN-capable, a drop otherwise.
    fn drop_or_mark(&mut self, pkt: PacketId, pool: &mut PacketPool) -> EnqueueResult {
        if self.cfg.ecn && pool.get(pkt).ecn.is_capable() {
            pool.get_mut(pkt).ecn = crate::packet::Ecn::Marked;
            self.buf.push_back(pkt);
            EnqueueResult::Marked
        } else {
            EnqueueResult::Dropped
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{AgentId, FlowId, NodeId};
    use crate::packet::{DataInfo, Packet, Payload};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn pkt(uid: u64) -> Packet {
        Packet {
            uid,
            flow: FlowId::from_index(0),
            seq: uid,
            size: 1000,
            payload: Payload::Data(DataInfo::default()),
            src_node: NodeId::from_index(0),
            dst_node: NodeId::from_index(1),
            src_agent: AgentId::from_index(0),
            dst_agent: AgentId::from_index(1),
            sent_at: SimTime::ZERO,
            ecn: Default::default(),
        }
    }

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(42)
    }

    /// Offer a fresh packet with the given uid; on rejection, free it
    /// from the pool the way the simulator does.
    fn offer(
        q: &mut dyn QueueDiscipline,
        pool: &mut PacketPool,
        uid: u64,
        now: SimTime,
        rng: &mut SmallRng,
    ) -> EnqueueResult {
        let id = pool.insert(pkt(uid));
        let result = q.enqueue(id, pool, now, rng);
        if result == EnqueueResult::Dropped {
            pool.remove(id);
        }
        result
    }

    fn offer_ecn(
        q: &mut dyn QueueDiscipline,
        pool: &mut PacketPool,
        uid: u64,
        now: SimTime,
        rng: &mut SmallRng,
    ) -> EnqueueResult {
        use crate::packet::Ecn;
        let mut p = pkt(uid);
        p.ecn = Ecn::Capable;
        let id = pool.insert(p);
        let result = q.enqueue(id, pool, now, rng);
        if result == EnqueueResult::Dropped {
            pool.remove(id);
        }
        result
    }

    #[test]
    fn droptail_respects_capacity_and_order() {
        let mut q = DropTail::new(2);
        let mut pool = PacketPool::new();
        let mut r = rng();
        assert_eq!(
            offer(&mut q, &mut pool, 1, SimTime::ZERO, &mut r),
            EnqueueResult::Enqueued
        );
        assert_eq!(
            offer(&mut q, &mut pool, 2, SimTime::ZERO, &mut r),
            EnqueueResult::Enqueued
        );
        assert_eq!(
            offer(&mut q, &mut pool, 3, SimTime::ZERO, &mut r),
            EnqueueResult::Dropped
        );
        assert_eq!(pool.get(q.dequeue(SimTime::ZERO).unwrap()).uid, 1);
        assert_eq!(pool.get(q.dequeue(SimTime::ZERO).unwrap()).uid, 2);
        assert!(q.dequeue(SimTime::ZERO).is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn droptail_allocates_on_first_enqueue_not_at_construction() {
        let mut q = DropTail::new(10_000);
        assert_eq!(q.buf.capacity(), 0);
        let mut pool = PacketPool::new();
        offer(&mut q, &mut pool, 1, SimTime::ZERO, &mut rng());
        assert!((1..10_000).contains(&q.buf.capacity()));
    }

    fn red_cfg() -> RedConfig {
        RedConfig {
            capacity: 100,
            min_thresh: 5.0,
            max_thresh: 15.0,
            max_p: 0.1,
            weight: 0.25,
            mean_pkt_time: SimDuration::from_millis(1),
            gentle: false,
            ecn: false,
        }
    }

    #[test]
    fn red_never_drops_below_min_thresh() {
        let mut q = Red::new(red_cfg());
        let mut pool = PacketPool::new();
        let mut r = rng();
        // With an empty queue the average stays near zero: no early drops.
        for i in 0..4 {
            assert_eq!(
                offer(&mut q, &mut pool, i, SimTime::from_millis(i), &mut r),
                EnqueueResult::Enqueued
            );
            let id = q.dequeue(SimTime::from_millis(i)).unwrap();
            pool.remove(id);
        }
    }

    #[test]
    fn red_drops_everything_when_average_exceeds_max_thresh() {
        let mut cfg = red_cfg();
        cfg.weight = 1.0; // average tracks the instantaneous queue
        let mut q = Red::new(cfg);
        let mut pool = PacketPool::new();
        let mut r = rng();
        for i in 0..16 {
            offer(&mut q, &mut pool, i, SimTime::ZERO, &mut r);
        }
        // Average is now >= 15; the next arrival must be dropped.
        assert_eq!(
            offer(&mut q, &mut pool, 99, SimTime::ZERO, &mut r),
            EnqueueResult::Dropped
        );
    }

    #[test]
    fn red_hard_limit_applies() {
        let mut cfg = red_cfg();
        cfg.capacity = 3;
        cfg.min_thresh = 50.0; // never early-drop
        cfg.max_thresh = 60.0;
        let mut q = Red::new(cfg);
        let mut pool = PacketPool::new();
        let mut r = rng();
        for i in 0..3 {
            assert_eq!(
                offer(&mut q, &mut pool, i, SimTime::ZERO, &mut r),
                EnqueueResult::Enqueued
            );
        }
        assert_eq!(
            offer(&mut q, &mut pool, 4, SimTime::ZERO, &mut r),
            EnqueueResult::Dropped
        );
    }

    #[test]
    fn red_average_decays_across_idle_periods() {
        let mut cfg = red_cfg();
        cfg.weight = 0.5;
        let mut q = Red::new(cfg);
        let mut pool = PacketPool::new();
        let mut r = rng();
        for i in 0..10 {
            offer(&mut q, &mut pool, i, SimTime::ZERO, &mut r);
        }
        let avg_busy = q.average();
        assert!(avg_busy > 1.0);
        while let Some(id) = q.dequeue(SimTime::from_millis(1)) {
            pool.remove(id);
        }
        // A long idle period should decay the average dramatically.
        offer(&mut q, &mut pool, 100, SimTime::from_secs(10), &mut r);
        assert!(
            q.average() < avg_busy * 0.01,
            "avg {} not decayed",
            q.average()
        );
    }

    #[test]
    fn red_drop_rate_scales_with_average_between_thresholds() {
        // Hold the instantaneous queue at a fixed level and measure the
        // early-drop fraction; it should be close to the configured curve.
        let mut cfg = red_cfg();
        cfg.weight = 1.0;
        cfg.capacity = 1000;
        let mut q = Red::new(cfg);
        let mut pool = PacketPool::new();
        let mut r = rng();
        // Fill to 10 packets: halfway between thresholds -> pb = 0.05.
        for i in 0..10 {
            offer(&mut q, &mut pool, i, SimTime::ZERO, &mut r);
        }
        let trials = 20_000;
        let mut drops = 0;
        for i in 0..trials {
            match offer(&mut q, &mut pool, 1000 + i, SimTime::ZERO, &mut r) {
                EnqueueResult::Dropped => drops += 1,
                EnqueueResult::Enqueued | EnqueueResult::Marked => {
                    // Restore the level so the operating point is fixed.
                    let got = q.dequeue(SimTime::ZERO);
                    pool.remove(got.expect("queue should not be empty"));
                }
            }
        }
        // With the count correction the inter-drop gap is uniform on
        // [1, 1/p_b], so the long-run drop rate is 2*p_b/(1+p_b), not p_b
        // (Floyd & Jacobson 1993, "method 2" uniform marking).
        let expected = 2.0 * 0.05 / 1.05;
        let rate = drops as f64 / trials as f64;
        assert!(
            (rate - expected).abs() < 0.012,
            "measured drop rate {rate} far from {expected}"
        );
    }

    /// Regression test: when the average sits above max_thresh and the
    /// queue is empty, drops must not freeze the average — the idle clock
    /// keeps running between (dropped) arrivals so sparse retransmissions
    /// eventually get through.
    #[test]
    fn red_average_decays_even_when_arrivals_are_dropped() {
        let mut cfg = red_cfg();
        cfg.weight = 0.01;
        cfg.capacity = 1000;
        let mut q = Red::new(cfg);
        let mut pool = PacketPool::new();
        let mut r = rng();
        // Hold the queue near 40 packets for 600 arrivals so the average
        // climbs well above max_thresh (15).
        for i in 0..40 {
            offer(&mut q, &mut pool, i, SimTime::ZERO, &mut r);
        }
        for i in 0..600u64 {
            if offer(&mut q, &mut pool, 100 + i, SimTime::ZERO, &mut r) == EnqueueResult::Enqueued {
                let id = q.dequeue(SimTime::ZERO).unwrap();
                pool.remove(id);
            }
        }
        assert!(q.average() > 15.0, "setup failed: avg {}", q.average());
        while let Some(id) = q.dequeue(SimTime::from_millis(1)) {
            pool.remove(id);
        }
        // First probe shortly after drain: average still high, dropped.
        let first = offer(&mut q, &mut pool, 9000, SimTime::from_millis(2), &mut r);
        assert_eq!(first, EnqueueResult::Dropped);
        // Probe again after a long idle gap: the average must have
        // decayed across the gap even though no dequeue happened since
        // the dropped probe.
        let later = offer(&mut q, &mut pool, 9001, SimTime::from_secs(5), &mut r);
        assert_eq!(later, EnqueueResult::Enqueued);
    }

    #[test]
    fn red_with_ecn_marks_capable_packets_instead_of_dropping() {
        use crate::packet::Ecn;
        let mut cfg = red_cfg();
        cfg.weight = 1.0; // average tracks the instantaneous queue
        cfg.ecn = true;
        let mut q = Red::new(cfg);
        let mut pool = PacketPool::new();
        let mut r = rng();
        for i in 0..16 {
            offer_ecn(&mut q, &mut pool, i, SimTime::ZERO, &mut r);
        }
        // Average >= max_thresh: a capable packet is marked, not dropped.
        assert_eq!(
            offer_ecn(&mut q, &mut pool, 99, SimTime::ZERO, &mut r),
            EnqueueResult::Marked
        );
        // A non-capable packet is still dropped.
        assert_eq!(
            offer(&mut q, &mut pool, 100, SimTime::ZERO, &mut r),
            EnqueueResult::Dropped
        );
        // Marked packets come out carrying the CE codepoint (the fill
        // itself may have produced probabilistic early marks too).
        let marked = std::iter::from_fn(|| q.dequeue(SimTime::ZERO))
            .filter(|id| pool.get(*id).ecn == Ecn::Marked)
            .count();
        assert!(marked >= 1, "no CE-marked packet dequeued");
        // Hard-limit overflow always drops, even for capable packets.
        let mut cfg = red_cfg();
        cfg.capacity = 1;
        cfg.min_thresh = 50.0;
        cfg.max_thresh = 60.0;
        cfg.ecn = true;
        let mut q = Red::new(cfg);
        assert_eq!(
            offer_ecn(&mut q, &mut pool, 0, SimTime::ZERO, &mut r),
            EnqueueResult::Enqueued
        );
        assert_eq!(
            offer_ecn(&mut q, &mut pool, 1, SimTime::ZERO, &mut r),
            EnqueueResult::Dropped
        );
    }

    #[test]
    #[should_panic(expected = "min_thresh < max_thresh")]
    fn red_rejects_inverted_thresholds() {
        let mut cfg = red_cfg();
        cfg.min_thresh = 20.0;
        Red::new(cfg);
    }

    #[test]
    fn paper_defaults_follow_section_3() {
        let cfg = RedConfig::paper_defaults(62.5, SimDuration::from_micros(800));
        assert_eq!(cfg.capacity, 156);
        assert!((cfg.min_thresh - 15.625).abs() < 1e-9);
        assert!((cfg.max_thresh - 78.125).abs() < 1e-9);
    }
}
