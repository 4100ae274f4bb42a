//! TFRC — equation-based congestion control (Floyd, Handley, Padhye &
//! Widmer, SIGCOMM 2000 / RFC 3448), parameterized as TFRC(k) like the
//! paper: the receiver averages the loss event rate over the most recent
//! `k` loss intervals (the deployed default corresponds to TFRC(6)/(8)).
//!
//! Structure:
//!
//! * [`LossHistory`] — the receiver-side loss-interval estimator: weighted
//!   average over `k` closed intervals, the include-the-open-interval
//!   rule, and optional history discounting.
//! * [`TfrcSink`] — the receiver agent: groups packet losses within one
//!   (sender-stamped) RTT into loss events, measures the receive rate,
//!   and reports `(p, X_recv)` once per RTT, plus immediately when a new
//!   loss event begins.
//! * [`Tfrc`] — the sender agent: paces packets at the equation rate
//!   `X = min(X_calc, 2·X_recv)`, doubles per feedback round while no
//!   loss has been seen, and halves on a no-feedback timeout.
//!
//! The paper's `conservative_` option (Section 4.1.1 pseudo-code) is
//! implemented exactly: in the RTT after a reported loss, the sending
//! rate is capped at the reported receive rate (self-clocking by packet
//! conservation), and otherwise — outside slow-start — at `C·X_recv`
//! with `C = 1.1`.

use slowcc_netsim::packet::{AckInfo, Packet, PacketSpec, Payload};
use slowcc_netsim::sim::{Agent, Ctx, Simulator, Timer};
use slowcc_netsim::time::{SimDuration, SimTime};
use slowcc_netsim::topology::HostPair;

use crate::agent::{install_flow, FlowHandle, SenderWiring};
use crate::equation::padhye_rate_bps;
use crate::pacer::{Pacer, PacerTimer};
use crate::tcp::ACK_SIZE;

/// Maximum backoff interval: the sender never slows below one packet per
/// `T_MBI` seconds (RFC 3448 §4.3).
pub const T_MBI_SECS: f64 = 64.0;

/// RFC 3448 weight schedule, generalized to any history length `k`:
/// the newest ⌈k/2⌉ intervals weigh 1, the rest decay linearly. For
/// `k = 8` this is the canonical (1, 1, 1, 1, 0.8, 0.6, 0.4, 0.2).
pub fn tfrc_weights(k: usize) -> Vec<f64> {
    assert!(k >= 1, "history length must be >= 1");
    if k == 1 {
        return vec![1.0];
    }
    let h = k / 2;
    (0..k)
        .map(|i| {
            if i < h {
                1.0
            } else {
                1.0 - (i - h + 1) as f64 / (k - h + 1) as f64
            }
        })
        .collect()
}

/// Lower clamp on the RFC 3448 §5.5 discount factor: history is never
/// faded below a quarter of its weight in one step.
const DISCOUNT_THRESHOLD: f64 = 0.25;

/// Receiver-side loss interval history (RFC 3448 §5.4-5.5).
#[derive(Debug, Clone)]
pub struct LossHistory {
    weights: Vec<f64>,
    /// Closed intervals, newest first, in packets.
    closed: Vec<u64>,
    /// RFC 3448 §5.5 per-interval cumulative discount factors `DF_i`,
    /// parallel to `closed`. Each starts at 1 and is multiplied by the
    /// prevailing `DF` every time a later loss event closes an interval,
    /// so an interval's discount compounds as it ages past long
    /// loss-free stretches. All 1 when `discounting` is off.
    discounts: Vec<f64>,
    discounting: bool,
}

impl LossHistory {
    /// A history averaging over `k` intervals.
    pub fn new(k: usize, discounting: bool) -> Self {
        LossHistory {
            weights: tfrc_weights(k),
            closed: Vec::with_capacity(k + 1),
            discounts: Vec::with_capacity(k + 1),
            discounting,
        }
    }

    /// Record a newly closed interval of `packets` packets.
    ///
    /// RFC 3448 §5.5: at each new loss event the current discount factor
    /// is folded into every older interval (`DF_i *= DF`) before the
    /// history shifts; the interval that just closed enters with
    /// `DF_0 = 1`.
    pub fn record_interval(&mut self, packets: u64) {
        let packets = packets.max(1);
        if self.discounting && !self.closed.is_empty() {
            let df = self.discount_factor(packets);
            for d in &mut self.discounts {
                *d *= df;
            }
        }
        self.closed.insert(0, packets);
        self.discounts.insert(0, 1.0);
        if self.closed.len() > self.weights.len() {
            self.closed.truncate(self.weights.len());
            self.discounts.truncate(self.weights.len());
        }
    }

    /// Number of closed intervals currently held.
    pub fn len(&self) -> usize {
        self.closed.len()
    }

    /// True when no loss event has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.closed.is_empty()
    }

    /// Average loss interval including the still-open interval when that
    /// increases the average, in packets. `None` before the first loss.
    ///
    /// With history discounting on, this is the full RFC 3448 §5.5
    /// calculation: the history-only average weighs each closed interval
    /// by `w_i * DF_i`; the with-open average gives the open interval
    /// its full weight and each closed interval `w_(i+1) * DF_i * DF`,
    /// where `DF = 2*I_mean/I_0` (clamped at `THRESHOLD = 0.25`) when
    /// the open interval `I_0` exceeds twice the history mean. The
    /// larger of the two averages wins, so discounting only ever speeds
    /// up good news.
    pub fn mean_interval(&self, open_packets: u64) -> Option<f64> {
        if self.closed.is_empty() {
            return None;
        }
        let avg_closed = self.avg_closed();
        let df = self.discount_factor(open_packets);
        let avg_open = self.avg_with_open(open_packets.max(1), df);
        Some(avg_closed.max(avg_open))
    }

    /// Loss event rate `p = 1 / mean interval`; zero before any loss.
    pub fn loss_event_rate(&self, open_packets: u64) -> f64 {
        match self.mean_interval(open_packets) {
            Some(i) => 1.0 / i.max(1.0),
            None => 0.0,
        }
    }

    /// RFC 3448 §5.5 discount factor for an open interval of
    /// `open_packets` against the current (already-discounted) history
    /// mean. 1 unless discounting is on and the open interval exceeds
    /// twice the mean; never below [`DISCOUNT_THRESHOLD`].
    fn discount_factor(&self, open_packets: u64) -> f64 {
        if !self.discounting || self.closed.is_empty() {
            return 1.0;
        }
        let avg = self.avg_closed();
        let open = open_packets.max(1) as f64;
        if open > 2.0 * avg {
            (2.0 * avg / open).max(DISCOUNT_THRESHOLD)
        } else {
            1.0
        }
    }

    /// History-only weighted average: interval `i` weighs
    /// `w_i * DF_i` (RFC 3448 §5.4, with the §5.5 per-interval
    /// discounts).
    fn avg_closed(&self) -> f64 {
        let n = self.closed.len().min(self.weights.len());
        let mut num = 0.0;
        let mut den = 0.0;
        for i in 0..n {
            let w = self.weights[i] * self.discounts[i];
            num += w * self.closed[i] as f64;
            den += w;
        }
        if den == 0.0 {
            1.0
        } else {
            num / den
        }
    }

    /// Weighted average with the open interval as the newest sample: the
    /// open interval keeps full weight `w_0`, and each closed interval
    /// shifts one slot to weight `w_(i+1) * DF_i * DF` (RFC 3448 §5.5 —
    /// the open interval itself is never discounted).
    fn avg_with_open(&self, open_packets: u64, df: f64) -> f64 {
        let mut num = self.weights[0] * open_packets as f64;
        let mut den = self.weights[0];
        let n = self.closed.len().min(self.weights.len() - 1);
        for i in 0..n {
            let w = self.weights[i + 1] * self.discounts[i] * df;
            num += w * self.closed[i] as f64;
            den += w;
        }
        num / den
    }
}

/// Configuration shared by the TFRC sender and receiver.
#[derive(Debug, Clone, Copy)]
pub struct TfrcConfig {
    /// Number of loss intervals averaged by the receiver: the `k` in
    /// TFRC(k).
    pub k: usize,
    /// Data packet size in bytes.
    pub pkt_size: u32,
    /// The paper's `conservative_` self-clocking option.
    pub conservative: bool,
    /// The constant `C` of the conservative option (paper: 1.1; the ns-2
    /// default is 1.5 — see `examples/ablations.rs`).
    pub conservative_c: f64,
    /// Receiver-side history discounting (RFC 3448 §5.5). The paper's
    /// Figure 13 note says it was turned *off*, so off is our default.
    pub history_discounting: bool,
    /// RTT assumed before the first measurement.
    pub initial_rtt: SimDuration,
    /// Stop transmitting at this time.
    pub stop_at: Option<SimTime>,
}

impl TfrcConfig {
    /// TFRC(k) with the paper's defaults (no self-clocking, no history
    /// discounting).
    pub fn tfrc_k(k: usize, pkt_size: u32) -> Self {
        TfrcConfig {
            k,
            pkt_size,
            conservative: false,
            conservative_c: 1.1,
            history_discounting: false,
            initial_rtt: SimDuration::from_millis(50),
            stop_at: None,
        }
    }

    /// The deployed default, roughly TFRC(6)
    /// (Floyd et al.; draft-ietf-tsvwg-tfrc).
    pub fn standard(pkt_size: u32) -> Self {
        TfrcConfig::tfrc_k(6, pkt_size)
    }

    /// Enable the paper's self-clocking (`conservative_`) option.
    pub fn with_self_clocking(mut self) -> Self {
        self.conservative = true;
        self
    }

    /// Enable receiver-side history discounting.
    pub fn with_history_discounting(mut self) -> Self {
        self.history_discounting = true;
        self
    }

    /// Stop the flow at `t` (it goes permanently silent).
    pub fn with_stop_at(mut self, t: SimTime) -> Self {
        self.stop_at = Some(t);
        self
    }
}

/// The TFRC receiver agent.
pub struct TfrcSink {
    cfg: TfrcConfig,
    history: LossHistory,
    /// Next in-order sequence expected.
    expected: u64,
    /// Sequence at which the current loss event started.
    event_start_seq: u64,
    /// Losses before this time belong to the current loss event.
    event_end: SimTime,
    seen_any_loss: bool,
    /// Sender's RTT estimate from the latest data packet.
    sender_rtt: SimDuration,
    /// Bytes received since the last feedback was sent.
    bytes_this_round: u64,
    round_start: SimTime,
    /// Timestamp bookkeeping for the echo.
    last_data_sent_at: SimTime,
    last_data_arrival: SimTime,
    /// Receive rate over the previous, completed feedback round
    /// (bytes/s); used when a loss event forces an early report.
    last_recv_rate: f64,
    new_loss_since_feedback: bool,
    /// Newest data packet, kept as the template for the timer-driven
    /// feedback report.
    pending: Option<Packet>,
    /// The per-RTT feedback timer, re-armed by every report (early ones
    /// that a loss event forces included).
    feedback: Timer,
    started: bool,
}

impl TfrcSink {
    /// A fresh receiver.
    pub fn new(cfg: TfrcConfig) -> Self {
        TfrcSink {
            history: LossHistory::new(cfg.k, cfg.history_discounting),
            cfg,
            expected: 0,
            event_start_seq: 0,
            event_end: SimTime::ZERO,
            seen_any_loss: false,
            sender_rtt: SimDuration::ZERO,
            bytes_this_round: 0,
            round_start: SimTime::ZERO,
            last_data_sent_at: SimTime::ZERO,
            last_data_arrival: SimTime::ZERO,
            last_recv_rate: 0.0,
            new_loss_since_feedback: false,
            pending: None,
            feedback: Timer::default(),
            started: false,
        }
    }

    /// Number of closed loss intervals currently in the history
    /// (test/instrumentation hook).
    pub fn history_len(&self) -> usize {
        self.history.len()
    }

    /// The receiver's current loss event rate estimate.
    pub fn loss_event_rate(&self) -> f64 {
        self.history
            .loss_event_rate(self.open_interval_packets())
    }

    fn open_interval_packets(&self) -> u64 {
        self.expected.saturating_sub(self.event_start_seq)
    }

    fn rtt_for_grouping(&self) -> SimDuration {
        if self.sender_rtt.is_zero() {
            self.cfg.initial_rtt
        } else {
            self.sender_rtt
        }
    }

    /// First loss ever: synthesize the previous interval so that the
    /// equation reproduces the receive rate at the time of the loss
    /// (RFC 3448 §6.3.1), instead of remembering the whole loss-free
    /// slow-start as one giant interval.
    fn synthesize_first_interval(&self) -> u64 {
        let x = self.last_recv_rate.max(
            self.bytes_this_round as f64
                / (self.last_data_arrival.saturating_since(self.round_start))
                    .as_secs_f64()
                    .max(1e-3),
        );
        if x <= 0.0 {
            return self.expected.max(1);
        }
        let rtt = self.rtt_for_grouping().as_secs_f64();
        // Bisect p such that the equation matches the observed rate.
        let (mut lo, mut hi) = (1e-8, 1.0);
        for _ in 0..60 {
            let mid = 0.5 * (lo + hi);
            if padhye_rate_bps(self.cfg.pkt_size, mid, rtt, 4.0 * rtt) > x {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        ((1.0 / lo) as u64).clamp(1, 1_000_000)
    }

    fn send_feedback(&mut self, pkt_template: &Packet, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let elapsed = now.saturating_since(self.round_start).as_secs_f64();
        let recv_rate = if elapsed > 0.0 {
            self.bytes_this_round as f64 / elapsed
        } else {
            self.last_recv_rate
        };
        let info = AckInfo {
            cum_ack: self.expected,
            acked_seq: pkt_template.seq,
            echo_ts: self.last_data_sent_at,
            // Bounded by one feedback interval; saturating into the
            // 32-bit wire field never triggers in practice.
            echo_delay_ns: now
                .saturating_since(self.last_data_arrival)
                .as_nanos()
                .min(u32::MAX as u64) as u32,
            recv_rate_bps: recv_rate,
            loss_event_rate: self.loss_event_rate(),
            recv_count: 0,
            advertised_rate_bps: 0.0,
            new_loss_event: self.new_loss_since_feedback,
            ecn_echo: false,
        };
        ctx.send(PacketSpec::ack_to(pkt_template, ACK_SIZE, info));
        self.last_recv_rate = recv_rate;
        self.bytes_this_round = 0;
        self.round_start = now;
        self.new_loss_since_feedback = false;
        // This report supersedes any packet held for the timer-driven
        // one; keeping it would make the next timer tick re-report a
        // template (and acked_seq) that predates this report.
        self.pending = None;
        // Re-arm the per-RTT feedback timer.
        let rtt = self.rtt_for_grouping();
        ctx.arm(&mut self.feedback, rtt);
    }
}

impl Agent for TfrcSink {
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        let Payload::Data(data) = pkt.payload else {
            return;
        };
        let now = ctx.now();
        if data.sender_rtt_ns > 0 {
            self.sender_rtt = SimDuration::from_nanos(data.sender_rtt_ns);
        }
        if !self.started {
            self.started = true;
            self.round_start = now;
        }
        self.last_data_sent_at = pkt.sent_at;
        self.last_data_arrival = now;
        self.bytes_this_round += pkt.size as u64;

        let mut force_feedback = false;
        if pkt.seq > self.expected {
            // The gap [expected, seq) was lost (FIFO path preserves
            // order). Group into loss events by the sender's RTT.
            if now >= self.event_end {
                let first_lost = self.expected;
                if self.seen_any_loss {
                    let interval = first_lost.saturating_sub(self.event_start_seq);
                    self.history.record_interval(interval);
                } else {
                    self.seen_any_loss = true;
                    self.history
                        .record_interval(self.synthesize_first_interval());
                }
                self.event_start_seq = first_lost;
                self.event_end = now + self.rtt_for_grouping();
                self.new_loss_since_feedback = true;
                force_feedback = true;
            }
            self.expected = pkt.seq + 1;
        } else if pkt.seq == self.expected {
            self.expected += 1;
        }
        // pkt.seq < expected: late duplicate; counted in the rate only.

        if force_feedback {
            self.send_feedback(&pkt, ctx);
        } else if !self.feedback.is_armed() {
            // Very first packet: report immediately so the sender gets an
            // RTT measurement, then fall into the per-RTT cadence.
            self.send_feedback(&pkt, ctx);
        } else {
            // Remember the newest packet for the timer-driven feedback.
            self.pending = Some(pkt);
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>) {
        // The stop check comes first: a stopped sink must not move its
        // timer again.
        if let Some(stop) = self.cfg.stop_at {
            if ctx.now() >= stop {
                return; // flow stopped: let the feedback timer lapse
            }
        }
        if !ctx.fired(&mut self.feedback, token) {
            return;
        }
        if let Some(pkt) = self.pending.take() {
            self.send_feedback(&pkt, ctx);
        } else {
            // Nothing arrived this round: stay silent (the sender's
            // no-feedback timer handles the outage) but keep ticking.
            let rtt = self.rtt_for_grouping();
            ctx.arm(&mut self.feedback, rtt);
        }
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn audit_done(&self, now: SimTime) -> bool {
        self.cfg.stop_at.is_some_and(|stop| now >= stop)
    }
}

/// The TFRC sender agent.
///
/// ```
/// use slowcc_core::tfrc::{Tfrc, TfrcConfig};
/// use slowcc_netsim::prelude::*;
///
/// let mut sim = Simulator::new(1);
/// let db = Dumbbell::build(&mut sim, DumbbellConfig::paper(10e6));
/// let pair = db.add_host_pair(&mut sim);
/// // TFRC(6) with the paper's self-clocking (conservative_) option.
/// let cfg = TfrcConfig::standard(1000).with_self_clocking();
/// let h = Tfrc::install(&mut sim, &pair, cfg, SimTime::ZERO);
/// sim.run_until(SimTime::from_secs(20));
/// let tput = sim.stats().flow_throughput_bps(
///     h.flow,
///     SimTime::from_secs(10),
///     SimTime::from_secs(20),
/// );
/// assert!(tput > 5e6); // fills most of the clean 10 Mb/s link
/// ```
pub struct Tfrc {
    cfg: TfrcConfig,
    pacer: Pacer,
    /// Allowed sending rate in bytes per second.
    x_bps: f64,
    /// True until the first loss report.
    slow_start: bool,
}

impl Tfrc {
    /// A sender addressed by `wiring`.
    pub fn new(cfg: TfrcConfig, wiring: SenderWiring) -> Self {
        assert!(cfg.pkt_size > 0, "packet size must be positive");
        assert!(cfg.k >= 1, "TFRC(k) requires k >= 1");
        let s = cfg.pkt_size as f64;
        Tfrc {
            x_bps: s / cfg.initial_rtt.as_secs_f64(),
            slow_start: true,
            pacer: Pacer::new(wiring, cfg.pkt_size, cfg.initial_rtt),
            cfg,
        }
    }

    /// Install a forward TFRC flow across `pair`.
    pub fn install(
        sim: &mut Simulator,
        pair: &HostPair,
        cfg: TfrcConfig,
        start: SimTime,
    ) -> FlowHandle {
        install_flow(sim, pair, start, Box::new(TfrcSink::new(cfg)), |w| {
            Box::new(Tfrc::new(cfg, w))
        })
    }

    /// Current allowed sending rate in bytes per second.
    pub fn rate_bps(&self) -> f64 {
        self.x_bps
    }

    fn min_rate(&self) -> f64 {
        self.cfg.pkt_size as f64 / T_MBI_SECS
    }

    fn send_and_schedule(&mut self, ctx: &mut Ctx<'_>) {
        self.pacer
            .send_and_schedule(self.x_bps.max(self.min_rate()), ctx);
    }

    fn on_feedback(&mut self, info: &AckInfo, ctx: &mut Ctx<'_>) {
        self.pacer.sample_rtt(info, ctx.now());

        let s = self.cfg.pkt_size as f64;
        let p = info.loss_event_rate;
        let x_recv = info.recv_rate_bps.max(s / T_MBI_SECS);
        if p <= 0.0 {
            // Slow start: double per feedback round, clocked at twice the
            // receive rate (RFC 3448 §4.3).
            self.x_bps = (2.0 * self.x_bps).min(2.0 * x_recv).max(s / self.pacer.srtt_secs());
        } else {
            self.slow_start = false;
            let rtt = self.pacer.srtt_secs();
            let x_calc = padhye_rate_bps(self.cfg.pkt_size, p, rtt, 4.0 * rtt);
            let cap = if self.cfg.conservative {
                // The paper's pseudo-code (Section 4.1.1): after a loss
                // report, self-clock to the receive rate; otherwise allow
                // at most C times it.
                if info.new_loss_event {
                    x_recv
                } else {
                    self.cfg.conservative_c * x_recv
                }
            } else {
                2.0 * x_recv
            };
            // Below ~1 packet per RTT the receive-rate measurement
            // quantizes to 0-or-1 packets per feedback round, and a
            // tight cap like C·X_recv gets eaten by that noise, pinning
            // the flow at a sub-packet-per-RTT fixed point. Floor the
            // receive-rate cap at two packets per RTT (TCP's own minimum
            // operating point, its ssthresh floor); genuine congestion
            // still limits the rate through X_calc.
            let cap = cap.max(2.0 * s / rtt);
            self.x_bps = x_calc.min(cap).max(self.min_rate());
        }
        self.pacer.arm_nofeedback(self.x_bps, ctx);
    }
}

impl Agent for Tfrc {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.send_and_schedule(ctx);
        self.pacer.arm_nofeedback(self.x_bps, ctx);
    }

    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        if let Some(info) = pkt.ack().copied() {
            self.on_feedback(&info, ctx);
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>) {
        if let Some(stop) = self.cfg.stop_at {
            if ctx.now() >= stop {
                return; // flow stopped: let all timers lapse
            }
        }
        match self.pacer.live_timer(token, ctx) {
            Some(PacerTimer::Send) => self.send_and_schedule(ctx),
            Some(PacerTimer::NoFeedback) => {
                // No feedback for max(4R, 2s/X): halve the allowed rate
                // (RFC 3448 §4.4) and keep the timer running.
                self.x_bps = (self.x_bps / 2.0).max(self.min_rate());
                self.pacer.arm_nofeedback(self.x_bps, ctx);
            }
            None => {}
        }
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn audit_done(&self, now: SimTime) -> bool {
        self.cfg.stop_at.is_some_and(|stop| now >= stop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slowcc_netsim::link::LossPattern;
    use slowcc_netsim::topology::{Dumbbell, DumbbellConfig, DumbbellOptions, QueueKind};

    #[test]
    fn weights_reduce_to_rfc_schedule_at_k8() {
        let w = tfrc_weights(8);
        let expect = [1.0, 1.0, 1.0, 1.0, 0.8, 0.6, 0.4, 0.2];
        for (a, b) in w.iter().zip(expect.iter()) {
            assert!((a - b).abs() < 1e-12, "{w:?}");
        }
        assert_eq!(tfrc_weights(1), vec![1.0]);
    }

    #[test]
    fn weights_are_monotone_nonincreasing_and_positive() {
        for k in 1..=64 {
            let w = tfrc_weights(k);
            assert_eq!(w.len(), k);
            for i in 1..k {
                assert!(w[i] <= w[i - 1] + 1e-12);
                assert!(w[i] > 0.0, "k={k} w={w:?}");
            }
        }
    }

    #[test]
    fn loss_history_steady_state_rate() {
        // Intervals of exactly 100 packets -> p = 1/100.
        let mut h = LossHistory::new(8, false);
        for _ in 0..8 {
            h.record_interval(100);
        }
        let p = h.loss_event_rate(10);
        assert!((p - 0.01).abs() < 1e-9, "p = {p}");
    }

    #[test]
    fn open_interval_only_helps() {
        let mut h = LossHistory::new(8, false);
        for _ in 0..8 {
            h.record_interval(100);
        }
        // A short open interval must not increase the estimated rate.
        let p_short = h.loss_event_rate(1);
        assert!((p_short - 0.01).abs() < 1e-9);
        // A long open interval lowers it.
        let p_long = h.loss_event_rate(10_000);
        assert!(p_long < 0.01);
    }

    #[test]
    fn no_loss_means_zero_rate() {
        let h = LossHistory::new(8, false);
        assert_eq!(h.loss_event_rate(1000), 0.0);
        assert!(h.is_empty());
    }

    #[test]
    fn history_truncates_at_k() {
        let mut h = LossHistory::new(4, false);
        for i in 0..10 {
            h.record_interval(10 + i);
        }
        assert_eq!(h.len(), 4);
    }

    #[test]
    fn discounting_forgets_bad_history_faster() {
        let mut plain = LossHistory::new(8, false);
        let mut disc = LossHistory::new(8, true);
        for _ in 0..8 {
            plain.record_interval(10); // heavy loss history
            disc.record_interval(10);
        }
        // Long loss-free open interval: discounting weighs it higher.
        let p_plain = plain.loss_event_rate(500);
        let p_disc = disc.loss_event_rate(500);
        assert!(
            p_disc < p_plain,
            "discounted {p_disc} should be below plain {p_plain}"
        );
    }

    /// RFC 3448 §5.5 regression (exact values): eight closed intervals
    /// of 10 packets, then a 200-packet open interval. The history mean
    /// is 10, so DF = 2*10/200 = 0.1, clamped at THRESHOLD = 0.25. The
    /// with-open average is then
    ///   (1*200 + 0.25*(10*(1+1+1+0.8+0.6+0.4+0.2))) / (1 + 0.25*5.0)
    ///   = 212.5 / 2.25 = 94.44...
    /// The pre-fix "single discount factor" code clamped DF at 0.5 and
    /// produced 225/3.5 = 64.29, so this test fails on it.
    #[test]
    fn discount_factor_clamps_at_a_quarter() {
        let mut h = LossHistory::new(8, true);
        for _ in 0..8 {
            h.record_interval(10);
        }
        let mean = h.mean_interval(200).unwrap();
        let expected = 212.5 / 2.25;
        assert!(
            (mean - expected).abs() < 1e-9,
            "mean {mean}, expected {expected}"
        );
    }

    /// RFC 3448 §5.5 regression: when the long open interval closes, the
    /// prevailing DF is folded into every older interval (DF_i *= DF),
    /// so the history-only average stays discounted afterwards:
    ///   (1*200 + 0.25*(10*(1+1+1+0.8+0.6+0.4+0.2))) / (1 + 0.25*5.0)
    ///   = 212.5 / 2.25 = 94.44...
    /// The pre-fix code kept no per-interval state — once the interval
    /// closed, the full weight of the bad history snapped back
    /// (250/6 = 41.67), so this test fails on it.
    #[test]
    fn discounts_compound_when_the_interval_closes() {
        let mut h = LossHistory::new(8, true);
        for _ in 0..8 {
            h.record_interval(10);
        }
        h.record_interval(200);
        // Closed-only average (a short open interval cannot beat it).
        let mean = h.mean_interval(1).unwrap();
        let expected = 212.5 / 2.25;
        assert!(
            (mean - expected).abs() < 1e-9,
            "mean {mean}, expected {expected}"
        );
    }

    /// The §5.5 machinery must be inert when discounting is off: the
    /// open interval still enters the shifted average at full weight,
    /// but no DF is ever applied. Guards the paper-mode (Figure 13,
    /// discounting off) calibration.
    #[test]
    fn no_discounting_means_unit_factors() {
        let mut h = LossHistory::new(8, false);
        for _ in 0..8 {
            h.record_interval(10);
        }
        // with-open: 250/6, closed-only: 10 -> max is 41.67.
        let mean = h.mean_interval(200).unwrap();
        assert!((mean - 250.0 / 6.0).abs() < 1e-9, "mean {mean}");
        h.record_interval(200);
        let mean = h.mean_interval(1).unwrap();
        assert!((mean - 250.0 / 6.0).abs() < 1e-9, "mean {mean}");
    }

    #[test]
    fn tfrc_fills_a_clean_pipe() {
        let mut sim = Simulator::new(3);
        let db = Dumbbell::build(&mut sim, DumbbellConfig::paper(10e6));
        let pair = db.add_host_pair(&mut sim);
        let h = Tfrc::install(&mut sim, &pair, TfrcConfig::standard(1000), SimTime::ZERO);
        sim.run_until(SimTime::from_secs(60));
        let tput = sim.stats().flow_throughput_bps(
            h.flow,
            SimTime::from_secs(20),
            SimTime::from_secs(60),
        );
        assert!(
            tput > 6e6,
            "TFRC should utilize most of a clean 10 Mb/s link, got {:.2} Mb/s",
            tput / 1e6
        );
        assert!(tput < 10.1e6);
    }

    #[test]
    fn tfrc_rate_tracks_the_equation_under_periodic_loss() {
        struct EveryN(u64, u64);
        impl LossPattern for EveryN {
            fn should_drop(&mut self, pkt: &Packet, _now: SimTime) -> bool {
                if !pkt.is_data() {
                    return false;
                }
                self.1 += 1;
                self.1.is_multiple_of(self.0)
            }
        }
        let mut sim = Simulator::new(3);
        let cfg = DumbbellConfig {
            queue: QueueKind::DropTail(4000),
            ..DumbbellConfig::paper(100e6) // loss-limited, not link-limited
        };
        let db = Dumbbell::build_with(&mut sim, cfg, DumbbellOptions::new().forward_loss(Box::new(EveryN(100, 0))));
        let pair = db.add_host_pair(&mut sim);
        let h = Tfrc::install(&mut sim, &pair, TfrcConfig::standard(1000), SimTime::ZERO);
        sim.run_until(SimTime::from_secs(120));
        let tput = sim.stats().flow_throughput_bps(
            h.flow,
            SimTime::from_secs(40),
            SimTime::from_secs(120),
        );
        // p = 1%, RTT ~52 ms -> equation gives ~215 pps ~ 1.7 Mb/s.
        // Accept a generous band: loss-event grouping and rate capping
        // shift the operating point.
        let expect = padhye_rate_bps(1000, 0.01, 0.052, 4.0 * 0.052) * 8.0;
        assert!(
            tput > 0.3 * expect && tput < 2.5 * expect,
            "TFRC at p=1%: got {:.2} Mb/s, equation {:.2} Mb/s",
            tput / 1e6,
            expect / 1e6
        );
    }

    #[test]
    fn tfrc_is_smoother_than_tcp_under_same_loss() {
        struct EveryN(u64, u64);
        impl LossPattern for EveryN {
            fn should_drop(&mut self, pkt: &Packet, _now: SimTime) -> bool {
                if !pkt.is_data() {
                    return false;
                }
                self.1 += 1;
                self.1.is_multiple_of(self.0)
            }
        }
        let run_tfrc = |_: ()| {
            let mut sim = Simulator::new(3);
            let cfg = DumbbellConfig {
                queue: QueueKind::DropTail(4000),
                ..DumbbellConfig::paper(100e6)
            };
            let db = Dumbbell::build_with(&mut sim, cfg, DumbbellOptions::new().forward_loss(Box::new(EveryN(100, 0))));
            let pair = db.add_host_pair(&mut sim);
            let h = Tfrc::install(&mut sim, &pair, TfrcConfig::standard(1000), SimTime::ZERO);
            sim.run_until(SimTime::from_secs(60));
            sim.stats().flow_rate_series_bps(
                h.flow,
                SimDuration::from_millis(500),
                SimTime::from_secs(60),
            )
        };
        let run_tcp = |_: ()| {
            let mut sim = Simulator::new(3);
            let cfg = DumbbellConfig {
                queue: QueueKind::DropTail(4000),
                ..DumbbellConfig::paper(100e6)
            };
            let db = Dumbbell::build_with(&mut sim, cfg, DumbbellOptions::new().forward_loss(Box::new(EveryN(100, 0))));
            let pair = db.add_host_pair(&mut sim);
            let h = crate::tcp::Tcp::install(
                &mut sim,
                &pair,
                crate::tcp::TcpConfig::standard(1000),
                SimTime::ZERO,
            );
            sim.run_until(SimTime::from_secs(60));
            sim.stats().flow_rate_series_bps(
                h.flow,
                SimDuration::from_millis(500),
                SimTime::from_secs(60),
            )
        };
        let cov = |xs: &[f64]| {
            let xs: Vec<f64> = xs.iter().copied().filter(|v| *v > 0.0).collect();
            let n = xs.len() as f64;
            let mean = xs.iter().sum::<f64>() / n;
            let var = xs.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
            var.sqrt() / mean
        };
        let tail = |xs: Vec<f64>| xs[40..].to_vec(); // skip startup
        let cov_tfrc = cov(&tail(run_tfrc(())));
        let cov_tcp = cov(&tail(run_tcp(())));
        assert!(
            cov_tfrc < cov_tcp,
            "TFRC rate CoV {cov_tfrc:.3} should be below TCP's {cov_tcp:.3}"
        );
    }

    #[test]
    fn tfrc_halves_rate_on_feedback_blackout() {
        struct TotalLoss {
            from: SimTime,
        }
        impl LossPattern for TotalLoss {
            fn should_drop(&mut self, pkt: &Packet, now: SimTime) -> bool {
                pkt.is_data() && now >= self.from
            }
        }
        let mut sim = Simulator::new(3);
        let cfg = DumbbellConfig {
            queue: QueueKind::DropTail(1000),
            ..DumbbellConfig::paper(10e6)
        };
        let db = Dumbbell::build_with(
            &mut sim,
            cfg, DumbbellOptions::new().forward_loss(Box::new(TotalLoss {
                from: SimTime::from_secs(20),
            })),
        );
        let pair = db.add_host_pair(&mut sim);
        let h = Tfrc::install(&mut sim, &pair, TfrcConfig::standard(1000), SimTime::ZERO);
        sim.run_until(SimTime::from_secs(19));
        let before = sim
            .agent_downcast::<Tfrc>(h.sender)
            .unwrap()
            .rate_bps();
        sim.run_until(SimTime::from_secs(40));
        let after = sim
            .agent_downcast::<Tfrc>(h.sender)
            .unwrap()
            .rate_bps();
        assert!(
            after < before / 50.0,
            "no-feedback timer failed: {before:.2e} -> {after:.2e}"
        );
    }

    #[test]
    fn self_clocked_tfrc_matches_standard_in_steady_state() {
        struct EveryN(u64, u64);
        impl LossPattern for EveryN {
            fn should_drop(&mut self, pkt: &Packet, _now: SimTime) -> bool {
                if !pkt.is_data() {
                    return false;
                }
                self.1 += 1;
                self.1.is_multiple_of(self.0)
            }
        }
        let run = |conservative: bool| {
            let mut sim = Simulator::new(3);
            let cfg = DumbbellConfig {
                queue: QueueKind::DropTail(4000),
                ..DumbbellConfig::paper(100e6)
            };
            let db = Dumbbell::build_with(&mut sim, cfg, DumbbellOptions::new().forward_loss(Box::new(EveryN(100, 0))));
            let pair = db.add_host_pair(&mut sim);
            let mut tc = TfrcConfig::standard(1000);
            if conservative {
                tc = tc.with_self_clocking();
            }
            let h = Tfrc::install(&mut sim, &pair, tc, SimTime::ZERO);
            sim.run_until(SimTime::from_secs(90));
            sim.stats().flow_throughput_bps(
                h.flow,
                SimTime::from_secs(30),
                SimTime::from_secs(90),
            )
        };
        let plain = run(false);
        let cons = run(true);
        // Under static conditions the conservative option must cost
        // little throughput (the paper deploys it as a safety fix, not a
        // rate change).
        assert!(
            cons > 0.5 * plain,
            "self-clocked TFRC lost too much in steady state: {cons:.2e} vs {plain:.2e}"
        );
    }
}

#[cfg(test)]
mod sink_tests {
    use super::*;
    use slowcc_netsim::ids::{AgentId, FlowId, NodeId};
    use slowcc_netsim::sim::Simulator;
    use slowcc_netsim::topology::{Dumbbell, DumbbellConfig};

    /// Scripted sender: emits chosen (seq, time) pairs as TFRC data
    /// packets with a fixed stamped RTT, capturing feedback reports.
    struct Script {
        flow: FlowId,
        dst_node: NodeId,
        dst_agent: AgentId,
        /// (delay-from-start, seq) in firing order.
        sends: Vec<(SimDuration, u64)>,
        next: usize,
        reports: Vec<AckInfo>,
    }
    impl Agent for Script {
        fn as_any(&self) -> Option<&dyn std::any::Any> {
            Some(self)
        }
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(self.sends[0].0, 0);
        }
        fn on_packet(&mut self, pkt: Packet, _ctx: &mut Ctx<'_>) {
            if let Some(info) = pkt.ack() {
                self.reports.push(*info);
            }
        }
        fn on_timer(&mut self, _token: u64, ctx: &mut Ctx<'_>) {
            let (_, seq) = self.sends[self.next];
            ctx.send(PacketSpec::data_with_rtt(
                self.flow,
                seq,
                1000,
                self.dst_node,
                self.dst_agent,
                SimDuration::from_millis(50).as_nanos(),
            ));
            self.next += 1;
            if self.next < self.sends.len() {
                let gap = self.sends[self.next].0 - self.sends[self.next - 1].0;
                ctx.set_timer(gap, 0);
            }
        }
    }

    fn drive(sends: Vec<(SimDuration, u64)>) -> (Simulator, AgentId, AgentId) {
        let mut sim = Simulator::new(0);
        let db = Dumbbell::build(&mut sim, DumbbellConfig::paper(100e6));
        let pair = db.add_host_pair(&mut sim);
        let flow = sim.new_flow();
        let sink = sim.reserve_agent(pair.right);
        sim.install_agent(
            sink,
            Box::new(TfrcSink::new(TfrcConfig::tfrc_k(8, 1000))),
            SimTime::ZERO,
        );
        let script = sim.add_agent(
            pair.left,
            Box::new(Script {
                flow,
                dst_node: pair.right,
                dst_agent: sink,
                sends,
                next: 0,
                reports: vec![],
            }),
        );
        sim.run_until(SimTime::from_secs(5));
        (sim, sink, script)
    }

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    /// Two gaps arriving within one (stamped 50 ms) RTT form a single
    /// loss event; a gap beyond the RTT window starts a second one.
    #[test]
    fn losses_within_one_rtt_are_one_event() {
        // Seqs 0..10, skipping 3 and 6 (both gaps land ~12 ms apart,
        // inside one RTT), then a long run, then skipping 200.
        let mut sends = Vec::new();
        let mut t = 0u64;
        for seq in 0..10u64 {
            if seq == 3 || seq == 6 {
                continue;
            }
            sends.push((ms(t), seq));
            t += 6;
        }
        // A quiet gap, then a run up to 200 with 150 missing, far more
        // than one RTT after the first event.
        t += 500;
        for seq in 10..160u64 {
            if seq == 150 {
                continue;
            }
            sends.push((ms(t), seq));
            t += 2;
        }
        let (sim, sink, _) = drive(sends);
        let s: &TfrcSink = sim.agent_downcast(sink).unwrap();
        // Event one: the 3/6 pair (grouped). Event two: 150.
        // With exactly two events there is exactly one *closed* interval
        // (between the starts of event one and event two).
        assert_eq!(s.history_len(), 2, "first-loss synthetic + one closed");
    }

    /// The first loss event synthesizes a history entry from the receive
    /// rate instead of treating the whole loss-free prefix as an
    /// interval.
    #[test]
    fn first_loss_synthesizes_history() {
        let mut sends = Vec::new();
        let mut t = 0u64;
        for seq in 0..50u64 {
            if seq == 40 {
                continue;
            }
            sends.push((ms(t), seq));
            t += 2;
        }
        let (sim, sink, _) = drive(sends);
        let s: &TfrcSink = sim.agent_downcast(sink).unwrap();
        assert_eq!(s.history_len(), 1);
        assert!(s.loss_event_rate() > 0.0);
    }

    /// A loss-forced report must consume the packet held for the
    /// timer-driven report: otherwise the next timer tick re-sends
    /// feedback from a template that predates the forced report, with a
    /// stale (non-monotone) `acked_seq`.
    #[test]
    fn forced_report_clears_the_pending_template() {
        // seq 0 -> immediate first report; seq 1 -> held as pending;
        // seq 3 (seq 2 lost) -> forced loss report. A stale pending
        // would produce a third, timer-driven report echoing seq 1.
        let sends = vec![(ms(0), 0), (ms(10), 1), (ms(20), 3)];
        let (sim, _, script) = drive(sends);
        let s: &Script = sim.agent_downcast(script).unwrap();
        let acked: Vec<u64> = s.reports.iter().map(|r| r.acked_seq).collect();
        assert_eq!(
            s.reports.len(),
            2,
            "exactly the first-packet and loss-forced reports, got acked_seq {acked:?}"
        );
        assert!(
            acked.windows(2).all(|w| w[0] <= w[1]),
            "acked_seq must be monotone, got {acked:?}"
        );
    }

    /// A stopped TFRC flow must let its timers lapse on both ends; the
    /// sink's per-RTT feedback timer used to tick forever past `stop_at`,
    /// which the audit layer flags as a timer leak.
    #[test]
    fn stopped_flow_leaks_no_timers() {
        let mut sim = Simulator::new(3);
        let db = Dumbbell::build(&mut sim, DumbbellConfig::paper(10e6));
        let pair = db.add_host_pair(&mut sim);
        let cfg = TfrcConfig::standard(1000).with_stop_at(SimTime::from_secs(1));
        Tfrc::install(&mut sim, &pair, cfg, SimTime::ZERO);
        sim.run_until(SimTime::from_secs(5));
        let report = sim.finish_audit().unwrap();
        assert_eq!(
            report.timer_leaks, 0,
            "stopped TFRC flow kept ticking: {:?}",
            report.violation_messages
        );
        report.assert_clean();
    }
}
