//! TCP(b) and its binomial generalizations: a self-clocked, window-based
//! sender with slow-start, fast retransmit / fast recovery (NewReno-style
//! partial ACK handling), and exponentially backed-off retransmission
//! timeouts — the full mechanism set the paper attributes to "TCP(b)"
//! (Section 2: "TCP using AIMD(b) along with the other TCP mechanisms of
//! slow-start, retransmit timeouts, and self-clocking").
//!
//! The window update rule is pluggable ([`BinomialParams`]), so the same
//! machinery implements TCP(1/γ), SQRT(1/γ) and IIAD(1/γ): only the
//! increase/decrease arithmetic differs, exactly as in the paper.
//!
//! Self-clocking is inherent to the implementation: new data is sent only
//! from ACK processing (and the rare retransmission timeout), so when the
//! bottleneck rate collapses, the ACK clock throttles the sender within
//! one RTT — the property Section 4.1 identifies as the safety mechanism.

use std::collections::VecDeque;

use slowcc_netsim::packet::{AckInfo, Packet, PacketSpec};
use slowcc_netsim::sim::{Agent, Ctx, Simulator, Timer};
use slowcc_netsim::time::{SimDuration, SimTime};
use slowcc_netsim::topology::HostPair;

use crate::agent::{install_flow, install_reverse_flow, FlowHandle, SenderWiring};
use crate::aimd::BinomialParams;
use crate::rtt::{RttEstimator, DEFAULT_MAX_RTO, DEFAULT_MIN_RTO};

/// Size of acknowledgment packets in bytes.
pub const ACK_SIZE: u32 = 40;

/// Number of duplicate ACKs that triggers fast retransmit.
pub const DUPACK_THRESHOLD: u32 = 3;

/// Configuration of a window-based sender.
#[derive(Debug, Clone, Copy)]
pub struct TcpConfig {
    /// Window increase/decrease rule.
    pub params: BinomialParams,
    /// Data packet size in bytes.
    pub pkt_size: u32,
    /// Initial congestion window in packets.
    pub init_cwnd: f64,
    /// Initial slow-start threshold in packets (effectively "unbounded"
    /// by default, as in ns-2).
    pub init_ssthresh: f64,
    /// Hard cap on the congestion window (receiver window stand-in).
    pub max_cwnd: f64,
    /// Lower clamp on the retransmission timeout.
    pub min_rto: SimDuration,
    /// Total data packets to send; `None` means an unbounded bulk flow.
    /// Short web transfers in the flash-crowd experiments set this to 10.
    pub max_packets: Option<u64>,
    /// Stop transmitting at this time (used by experiments that remove
    /// flows mid-run, e.g. Figure 13's bandwidth doubling).
    pub stop_at: Option<SimTime>,
    /// ECN-capable transport (RFC 2481): data packets carry the capable
    /// codepoint and the sender treats an ECN echo exactly like a loss
    /// event, minus the retransmission.
    pub ecn: bool,
}

impl TcpConfig {
    /// Standard TCP: AIMD(1, 1/2), 1000-byte packets.
    pub fn standard(pkt_size: u32) -> Self {
        TcpConfig::with_params(BinomialParams::standard_tcp(), pkt_size)
    }

    /// TCP(1/γ), the paper's slowly-responsive TCP variant.
    pub fn tcp_gamma(gamma: f64, pkt_size: u32) -> Self {
        TcpConfig::with_params(BinomialParams::tcp_gamma(gamma), pkt_size)
    }

    /// SQRT(1/γ), the binomial `k = l = 1/2` instance, window-based and
    /// self-clocked like TCP (Section 4.1 groups SQRT with TCP on the
    /// self-clocked side of the comparison).
    pub fn sqrt_gamma(gamma: f64, pkt_size: u32) -> Self {
        TcpConfig::with_params(BinomialParams::sqrt_gamma(gamma), pkt_size)
    }

    /// IIAD(1/γ), the binomial `k = 1, l = 0` instance.
    pub fn iiad_gamma(gamma: f64, pkt_size: u32) -> Self {
        TcpConfig::with_params(BinomialParams::iiad_gamma(gamma), pkt_size)
    }

    /// A window sender with an explicit update rule.
    pub fn with_params(params: BinomialParams, pkt_size: u32) -> Self {
        TcpConfig {
            params,
            pkt_size,
            init_cwnd: 2.0,
            init_ssthresh: 1e9,
            max_cwnd: 1e9,
            min_rto: DEFAULT_MIN_RTO,
            max_packets: None,
            stop_at: None,
            ecn: false,
        }
    }

    /// Limit the flow to `packets` data packets (short transfers).
    pub fn with_max_packets(mut self, packets: u64) -> Self {
        self.max_packets = Some(packets);
        self
    }

    /// Stop the flow at `t` (it goes permanently silent).
    pub fn with_stop_at(mut self, t: SimTime) -> Self {
        self.stop_at = Some(t);
        self
    }

    /// Negotiate ECN-capable transport.
    pub fn with_ecn(mut self) -> Self {
        self.ecn = true;
        self
    }
}

/// Loss-recovery phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Normal operation.
    Open,
    /// Fast recovery; holds the sequence number that ends recovery
    /// (NewReno `recover`).
    Recovery { recover: u64 },
}

/// The window-based sender agent.
///
/// ```
/// use slowcc_core::tcp::{Tcp, TcpConfig};
/// use slowcc_netsim::prelude::*;
///
/// let mut sim = Simulator::new(1);
/// let db = Dumbbell::build(&mut sim, DumbbellConfig::paper(10e6));
/// let pair = db.add_host_pair(&mut sim);
/// // A 100-packet transfer with the paper's slowly-responsive TCP(1/8).
/// let cfg = TcpConfig::tcp_gamma(8.0, 1000).with_max_packets(100);
/// let h = Tcp::install(&mut sim, &pair, cfg, SimTime::ZERO);
/// sim.run_until(SimTime::from_secs(10));
/// assert_eq!(sim.stats().flow(h.flow).unwrap().total_rx_packets, 100);
/// ```
pub struct Tcp {
    cfg: TcpConfig,
    w: SenderWiring,
    cwnd: f64,
    ssthresh: f64,
    /// Next new sequence number to transmit.
    next_seq: u64,
    /// Highest cumulative ACK received (== next in-order byte the
    /// receiver expects, in packets).
    high_ack: u64,
    dup_count: u32,
    phase: Phase,
    rtt: RttEstimator,
    /// The retransmission timer, re-armed on every new ACK.
    rto: Timer,
    /// One ECN-triggered reduction per window: echoes for data below
    /// this sequence belong to an already-handled congestion signal.
    ecn_guard: u64,
    /// Lifetime count of retransmission timeouts (observability).
    timeouts: u64,
    /// Lifetime count of fast-retransmit episodes (observability).
    fast_retransmits: u64,
    /// Fast-retransmit guard (RFC 6582 "careful variant", `send_high`):
    /// the highest sequence sent when the last loss-recovery episode
    /// ended. Duplicate ACKs below this are attributed to duplicate
    /// segments from that episode (go-back-N resends, spurious
    /// retransmits) and do not start a new fast retransmit; genuinely
    /// new losses are recovered by the retransmission timer instead.
    fr_guard: u64,
    done: bool,
}

impl Tcp {
    /// A sender addressed by `wiring`.
    pub fn new(cfg: TcpConfig, wiring: SenderWiring) -> Self {
        assert!(cfg.pkt_size > 0, "packet size must be positive");
        assert!(cfg.init_cwnd >= 1.0, "initial window must be >= 1 packet");
        Tcp {
            cwnd: cfg.init_cwnd,
            ssthresh: cfg.init_ssthresh,
            rtt: RttEstimator::new(cfg.min_rto, DEFAULT_MAX_RTO),
            cfg,
            w: wiring,
            next_seq: 0,
            high_ack: 0,
            dup_count: 0,
            phase: Phase::Open,
            rto: Timer::default(),
            ecn_guard: 0,
            timeouts: 0,
            fast_retransmits: 0,
            fr_guard: 0,
            done: false,
        }
    }

    /// Install a forward `Tcp`/[`TcpSink`] pair across `pair`.
    pub fn install(
        sim: &mut Simulator,
        pair: &HostPair,
        cfg: TcpConfig,
        start: SimTime,
    ) -> FlowHandle {
        install_flow(sim, pair, start, Box::new(TcpSink::new()), |w| {
            Box::new(Tcp::new(cfg, w))
        })
    }

    /// Install a reverse-direction pair (data right -> left).
    pub fn install_reverse(
        sim: &mut Simulator,
        pair: &HostPair,
        cfg: TcpConfig,
        start: SimTime,
    ) -> FlowHandle {
        install_reverse_flow(sim, pair, start, Box::new(TcpSink::new()), |w| {
            Box::new(Tcp::new(cfg, w))
        })
    }

    /// Current congestion window in packets (for instrumentation).
    pub fn cwnd(&self) -> f64 {
        self.cwnd
    }

    /// True when a bounded flow has delivered all its data.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Lifetime count of retransmission timeouts.
    pub fn timeouts(&self) -> u64 {
        self.timeouts
    }

    /// Lifetime count of fast-retransmit episodes.
    pub fn fast_retransmits(&self) -> u64 {
        self.fast_retransmits
    }

    /// Current slow-start threshold in packets. RFC 5681 §3.1 floors
    /// every multiplicative decrease at 2*SMSS; the conformance test
    /// linked from `specs/rfc5681/3.1.toml` observes it through here.
    pub fn ssthresh(&self) -> f64 {
        self.ssthresh
    }

    /// The sender's RTT estimator (RFC 6298 state, for instrumentation
    /// and conformance tests).
    pub fn rtt_estimator(&self) -> &RttEstimator {
        &self.rtt
    }

    /// Debug snapshot of the sender state (phase, ssthresh, sequence
    /// pointers), for instrumentation and tests.
    pub fn debug_state(&self) -> String {
        format!(
            "cwnd={:.2} ssthresh={:.2} next_seq={} high_ack={} dup={} phase={:?} backoff={}",
            self.cwnd,
            self.ssthresh,
            self.next_seq,
            self.high_ack,
            self.dup_count,
            self.phase,
            self.rtt.backoff()
        )
    }

    /// Effective send window in packets: the congestion window, inflated
    /// by one packet per duplicate ACK during fast recovery (the classic
    /// Reno window inflation, expressed without mutating `cwnd`).
    fn effective_window(&self) -> u64 {
        let base = self.cwnd.min(self.cfg.max_cwnd).floor().max(1.0) as u64;
        match self.phase {
            Phase::Open => base,
            Phase::Recovery { .. } => base + self.dup_count as u64,
        }
    }

    fn send_data(&mut self, seq: u64, ctx: &mut Ctx<'_>) {
        let mut spec = PacketSpec::data(
            self.w.flow,
            seq,
            self.cfg.pkt_size,
            self.w.dst_node,
            self.w.dst_agent,
        );
        if self.cfg.ecn {
            spec = spec.with_ecn();
        }
        ctx.send(spec);
    }

    /// React to an ECN congestion-experienced echo: one multiplicative
    /// decrease per window of data, with nothing to retransmit
    /// (RFC 2481 semantics mapped onto the AIMD(a, b) rule).
    fn on_ecn_echo(&mut self, ctx: &mut Ctx<'_>) {
        if matches!(self.phase, Phase::Open) && self.high_ack >= self.ecn_guard {
            self.ssthresh = self.cfg.params.decrease(self.cwnd).max(2.0);
            self.cwnd = self.ssthresh;
            self.ecn_guard = self.next_seq;
            let _ = ctx; // reduction only; no retransmission needed
        }
    }

    /// Transmit as much new data as the window allows.
    fn try_send(&mut self, ctx: &mut Ctx<'_>) {
        let limit = self.high_ack + self.effective_window();
        while !self.done && self.next_seq < limit {
            if let Some(max) = self.cfg.max_packets {
                if self.next_seq >= max {
                    break;
                }
            }
            let seq = self.next_seq;
            self.next_seq += 1;
            self.send_data(seq, ctx);
        }
    }

    fn arm_rto(&mut self, ctx: &mut Ctx<'_>) {
        // RFC 6298 §5.5: the armed timer carries the exponential
        // backoff; §2.5's maximum bounds the backed-off value (the old
        // shift-after-clamp here could arm a 64x-over-max timer).
        let delay = self.rtt.backed_off_rto();
        ctx.arm(&mut self.rto, delay);
    }

    fn grow_window(&mut self, newly_acked: u64) {
        for _ in 0..newly_acked {
            if self.cwnd < self.ssthresh {
                self.cwnd += 1.0; // slow start
            } else {
                self.cwnd += self.cfg.params.increase_per_ack(self.cwnd);
            }
        }
        self.cwnd = self.cwnd.min(self.cfg.max_cwnd);
    }

    fn on_new_ack(&mut self, info: &AckInfo, ctx: &mut Ctx<'_>) {
        let newly = info.cum_ack - self.high_ack;
        self.high_ack = info.cum_ack;
        // A cumulative ACK can overtake a rewound go-back-N pointer:
        // everything below it needs no (re)transmission.
        self.next_seq = self.next_seq.max(self.high_ack);
        // Karn's algorithm (RFC 6298 §3): this sample is unambiguous
        // because the sink echoes the arriving copy's own transmit
        // timestamp. Feeding it also collapses any RTO backoff
        // (RFC 6298 §5) — collapse is tied to the valid measurement,
        // not to the bare arrival of a new ACK.
        let sample = ctx.now().saturating_since(info.echo_ts);
        if !sample.is_zero() {
            self.rtt.on_sample(sample);
        }
        match self.phase {
            Phase::Recovery { recover } if self.high_ack >= recover => {
                // Full ACK: leave recovery, deflate to ssthresh (RFC 6582
                // §3.2 option 2, what ns-2's NewReno does — the paper's
                // transient orderings depend on recovery exiting at
                // ssthresh rather than the option-1 flight clamp), and
                // arm the careful-variant guard against false fast
                // retransmits triggered by this episode's duplicates.
                self.phase = Phase::Open;
                self.dup_count = 0;
                self.cwnd = self.ssthresh.max(1.0);
                self.fr_guard = self.next_seq;
            }
            Phase::Recovery { .. } => {
                // Partial ACK: the next hole was also lost. Retransmit it
                // immediately and stay in recovery without a further
                // window reduction (NewReno). Deflate the inflated window
                // by the amount newly acknowledged and add back one
                // packet for the retransmission (RFC 6582 step 5), so the
                // send limit advances by at most one packet per partial
                // ACK instead of releasing the whole acked range as a
                // line-rate burst.
                self.dup_count = self
                    .dup_count
                    .saturating_sub(newly.min(u64::from(u32::MAX)) as u32)
                    .saturating_add(1);
                let hole = self.high_ack;
                self.send_data(hole, ctx);
            }
            Phase::Open => {
                self.dup_count = 0;
                self.grow_window(newly);
            }
        }
        if let Some(max) = self.cfg.max_packets {
            if self.high_ack >= max {
                self.done = true;
                return;
            }
        }
        if self.next_seq > self.high_ack {
            self.arm_rto(ctx);
        }
        self.try_send(ctx);
    }

    fn on_dup_ack(&mut self, ctx: &mut Ctx<'_>) {
        self.dup_count += 1;
        match self.phase {
            Phase::Open
                if self.dup_count == DUPACK_THRESHOLD && self.high_ack >= self.fr_guard =>
            {
                // Fast retransmit: one window reduction per loss event.
                // ssthresh floors at 2 packets (RFC 5681).
                self.ssthresh = self.cfg.params.decrease(self.cwnd).max(2.0);
                self.cwnd = self.ssthresh;
                self.fast_retransmits += 1;
                self.phase = Phase::Recovery { recover: self.next_seq };
                let hole = self.high_ack;
                self.send_data(hole, ctx);
                self.arm_rto(ctx);
            }
            Phase::Recovery { .. } => {
                // Window inflation admits new segments while dup ACKs
                // keep arriving.
                self.try_send(ctx);
            }
            Phase::Open => {}
        }
    }
}

impl Agent for Tcp {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.try_send(ctx);
        if self.next_seq > self.high_ack {
            self.arm_rto(ctx);
        }
    }

    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        if let Some(stop) = self.cfg.stop_at {
            if ctx.now() >= stop {
                self.done = true;
            }
        }
        if self.done {
            return;
        }
        let Some(info) = pkt.ack().copied() else {
            return; // Window senders consume only ACKs.
        };
        if info.ecn_echo {
            self.on_ecn_echo(ctx);
        }
        if info.cum_ack > self.high_ack {
            self.on_new_ack(&info, ctx);
        } else if info.cum_ack == self.high_ack && self.next_seq > self.high_ack {
            self.on_dup_ack(ctx);
        }
        // ACKs below high_ack are stale reordering artifacts; ignored.
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn audit_done(&self, now: SimTime) -> bool {
        self.done || self.cfg.stop_at.is_some_and(|stop| now >= stop)
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>) {
        if let Some(stop) = self.cfg.stop_at {
            if ctx.now() >= stop {
                self.done = true;
            }
        }
        if self.done || !ctx.fired(&mut self.rto, token) {
            return; // stopped, or not the RTO's due key
        }
        if self.next_seq <= self.high_ack {
            return; // nothing outstanding; timer re-armed on next send
        }
        // Retransmission timeout: multiplicative-decrease ssthresh, close
        // the window to one packet, back off the timer exponentially and
        // resume go-back-N from the first unacknowledged segment (classic
        // SACK-less TCP rewinds snd_nxt to snd_una; cumulative ACKs skip
        // the sender quickly over regions the receiver already holds).
        self.ssthresh = self.cfg.params.decrease(self.cwnd).max(2.0);
        self.cwnd = 1.0;
        self.phase = Phase::Open;
        self.dup_count = 0;
        self.timeouts += 1;
        self.rtt.on_timeout();
        self.fr_guard = self.next_seq;
        self.next_seq = self.high_ack;
        self.try_send(ctx);
        self.arm_rto(ctx);
    }
}

/// The TCP-style receiver: acknowledges every data packet cumulatively
/// and echoes the data packet's timestamp for RTT measurement. Shared by
/// TCP, the binomial window algorithms, and RAP.
///
/// The paper models TCP *without* delayed ACKs (`a = 1`); that is the
/// default here. [`TcpSink::with_delayed_acks`] enables RFC 1122-style
/// delayed ACKs (at most every second segment, bounded by a timer;
/// out-of-order and hole-filling segments are acknowledged immediately)
/// for the corresponding ablation.
pub struct TcpSink {
    /// Next in-order sequence expected.
    expected: u64,
    /// Out-of-order segments awaiting the hole to fill, sorted and
    /// unique, every one above `expected`. Reordering is nearly always
    /// an arrival past the back (a `push_back`) and a hole fill pops
    /// from the front, so a deque beats a tree here.
    ooo: VecDeque<u64>,
    /// Total data packets received.
    total: u64,
    /// Delayed-ACK mode.
    delack: bool,
    /// An unacknowledged in-order segment is pending.
    pending: Option<Packet>,
    /// Delayed-ACK timer bound (RFC 1122 allows up to 500 ms; deployed
    /// stacks use ~200 ms).
    delack_timer: SimDuration,
    /// Releases `pending`; disarmed by every ACK sent.
    ack_timer: Timer,
    /// Total ACKs emitted (observability).
    acks_sent: u64,
}

impl TcpSink {
    /// A fresh receiver expecting sequence 0.
    pub fn new() -> Self {
        TcpSink {
            expected: 0,
            ooo: VecDeque::new(),
            total: 0,
            delack: false,
            pending: None,
            delack_timer: SimDuration::from_millis(200),
            ack_timer: Timer::default(),
            acks_sent: 0,
        }
    }

    /// Enable RFC 1122 delayed ACKs.
    pub fn with_delayed_acks(mut self) -> Self {
        self.delack = true;
        self
    }

    /// Total acknowledgments emitted.
    pub fn acks_sent(&self) -> u64 {
        self.acks_sent
    }

    fn emit_ack(&mut self, template: &Packet, ctx: &mut Ctx<'_>) {
        let mut info = AckInfo::cumulative(self.expected, template.seq, template.sent_at);
        info.recv_count = self.total;
        info.ecn_echo = template.ecn == slowcc_netsim::packet::Ecn::Marked;
        ctx.send(PacketSpec::ack_to(template, ACK_SIZE, info));
        self.acks_sent += 1;
        self.pending = None;
        self.ack_timer.disarm();
    }

    /// Book the arrival of data segment `seq` into `expected` and `ooo`.
    /// Returns whether it was the in-order segment with reordered ones
    /// waiting behind it (a hole fill). Old duplicates (`seq <
    /// expected`) and repeats of a held segment change nothing.
    fn accept(&mut self, seq: u64) -> bool {
        if seq == self.expected {
            let filled_hole = !self.ooo.is_empty();
            self.expected += 1;
            while self.ooo.front() == Some(&self.expected) {
                self.ooo.pop_front();
                self.expected += 1;
            }
            return filled_hole;
        }
        if seq > self.expected {
            if self.ooo.back().is_none_or(|&back| seq > back) {
                self.ooo.push_back(seq);
            } else if let Err(at) = self.ooo.binary_search(&seq) {
                self.ooo.insert(at, seq);
            }
        }
        false
    }
}

impl Default for TcpSink {
    fn default() -> Self {
        TcpSink::new()
    }
}

impl TcpSink {
    /// Next in-order sequence the receiver expects (== data packets
    /// delivered in order so far).
    pub fn expected(&self) -> u64 {
        self.expected
    }

    /// Total data packets received, including duplicates and
    /// out-of-order arrivals.
    pub fn total_received(&self) -> u64 {
        self.total
    }
}

impl Agent for TcpSink {
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        if !pkt.is_data() {
            return;
        }
        self.total += 1;
        let in_order = pkt.seq == self.expected;
        let filled_hole = self.accept(pkt.seq);
        // Old duplicates (seq < expected) still elicit an ACK, per TCP.
        if !self.delack {
            self.emit_ack(&pkt, ctx);
            return;
        }
        // Delayed-ACK rules: acknowledge immediately for out-of-order
        // segments, duplicates, hole fills, ECN marks, and every second
        // in-order segment; otherwise hold one ACK behind a timer.
        let must_ack_now = !in_order
            || filled_hole
            || pkt.ecn == slowcc_netsim::packet::Ecn::Marked
            || self.pending.is_some();
        if must_ack_now {
            self.emit_ack(&pkt, ctx);
        } else {
            self.pending = Some(pkt);
            ctx.arm(&mut self.ack_timer, self.delack_timer);
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>) {
        if !ctx.fired(&mut self.ack_timer, token) {
            return;
        }
        if let Some(pkt) = self.pending.take() {
            self.emit_ack(&pkt, ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slowcc_netsim::link::EveryNth;
    use slowcc_netsim::topology::{Dumbbell, DumbbellConfig, DumbbellOptions, QueueKind};
    use std::collections::BTreeSet;

    fn dumbbell(bps: f64) -> DumbbellConfig {
        DumbbellConfig::paper(bps)
    }

    /// One standard TCP flow on an uncongested 10 Mb/s path should fill a
    /// large share of the pipe within a few seconds.
    #[test]
    fn single_flow_fills_the_pipe() {
        let mut sim = Simulator::new(1);
        let db = Dumbbell::build(&mut sim, dumbbell(10e6));
        let pair = db.add_host_pair(&mut sim);
        let h = Tcp::install(&mut sim, &pair, TcpConfig::standard(1000), SimTime::ZERO);
        sim.run_until(SimTime::from_secs(20));
        let tput = sim.stats().flow_throughput_bps(
            h.flow,
            SimTime::from_secs(5),
            SimTime::from_secs(20),
        );
        assert!(
            tput > 8e6,
            "TCP should utilize most of a clean 10 Mb/s link, got {:.2} Mb/s",
            tput / 1e6
        );
        // And never exceed the link rate.
        assert!(tput < 10.1e6);
    }

    /// Slow start doubles the window every RTT: after k RTTs the sender
    /// has delivered ~2^k packets.
    #[test]
    fn slow_start_doubles_per_rtt() {
        let mut sim = Simulator::new(1);
        let db = Dumbbell::build(&mut sim, dumbbell(100e6));
        let pair = db.add_host_pair(&mut sim);
        let h = Tcp::install(&mut sim, &pair, TcpConfig::standard(1000), SimTime::ZERO);
        // 6 RTTs of 50 ms: expect roughly 2+4+...+128 = 254 packets
        // delivered (init window 2), certainly more than linear growth.
        sim.run_until(SimTime::from_millis(7 * 50));
        let got = sim.stats().flow(h.flow).unwrap().total_rx_packets;
        assert!(got > 100, "slow start too slow: {got} packets in 6 RTTs");
    }

    /// A flow capped at N packets stops exactly at N.
    #[test]
    fn bounded_flow_delivers_exactly_max_packets() {
        let mut sim = Simulator::new(1);
        let db = Dumbbell::build(&mut sim, dumbbell(10e6));
        let pair = db.add_host_pair(&mut sim);
        let cfg = TcpConfig::standard(1000).with_max_packets(10);
        let h = Tcp::install(&mut sim, &pair, cfg, SimTime::ZERO);
        sim.run_until(SimTime::from_secs(5));
        assert_eq!(sim.stats().flow(h.flow).unwrap().total_rx_packets, 10);
    }

    /// With a scripted drop of every 50th packet, TCP keeps running via
    /// fast retransmit and reliably delivers the whole bounded transfer.
    #[test]
    fn recovers_from_periodic_loss_without_stalling() {
        let mut sim = Simulator::new(1);
        let cfg = DumbbellConfig {
            queue: QueueKind::DropTail(1000),
            ..dumbbell(10e6)
        };
        let db = Dumbbell::build_with(
            &mut sim,
            cfg, DumbbellOptions::new().forward_loss(Box::new(EveryNth::data_every(50))),
        );
        let pair = db.add_host_pair(&mut sim);
        let tcp_cfg = TcpConfig::standard(1000).with_max_packets(500);
        let h = Tcp::install(&mut sim, &pair, tcp_cfg, SimTime::ZERO);
        sim.run_until(SimTime::from_secs(60));
        // The receiver reached sequence 500: every segment (including the
        // ~10 scripted drops) was eventually retransmitted and delivered.
        let sink: &TcpSink = sim.agent_downcast(h.sink).unwrap();
        assert_eq!(sink.expected(), 500);
        let sender: &Tcp = sim.agent_downcast(h.sender).unwrap();
        assert!(sender.is_done());
        assert!(sim.stats().link(db.forward).unwrap().total_drops >= 9);
    }

    /// Two standard TCP flows share a bottleneck roughly equally over a
    /// long run.
    #[test]
    fn two_flows_share_fairly() {
        let mut sim = Simulator::new(5);
        let db = Dumbbell::build(&mut sim, dumbbell(10e6));
        let p1 = db.add_host_pair(&mut sim);
        let p2 = db.add_host_pair(&mut sim);
        let h1 = Tcp::install(&mut sim, &p1, TcpConfig::standard(1000), SimTime::ZERO);
        let h2 = Tcp::install(
            &mut sim,
            &p2,
            TcpConfig::standard(1000),
            SimTime::from_millis(37),
        );
        sim.run_until(SimTime::from_secs(120));
        let from = SimTime::from_secs(20);
        let to = SimTime::from_secs(120);
        let t1 = sim.stats().flow_throughput_bps(h1.flow, from, to);
        let t2 = sim.stats().flow_throughput_bps(h2.flow, from, to);
        let ratio = t1.max(t2) / t1.min(t2);
        assert!(ratio < 1.6, "unfair share: {:.2e} vs {:.2e}", t1, t2);
        // Together they should fill most of the link.
        assert!(t1 + t2 > 8e6);
    }

    /// TCP(1/8) reduces less per loss than TCP(1/2): under identical
    /// periodic loss its average window (throughput) is at least as high,
    /// and its rate is smoother.
    #[test]
    fn gentle_decrease_survives_loss_with_higher_throughput() {
        let run = |gamma: f64| {
            let mut sim = Simulator::new(9);
            let cfg = DumbbellConfig {
                queue: QueueKind::DropTail(4000),
                ..dumbbell(100e6) // fat pipe: loss-limited, not bandwidth-limited
            };
            let db = Dumbbell::build_with(
                &mut sim,
                cfg, DumbbellOptions::new().forward_loss(Box::new(EveryNth::data_every(100))),
            );
            let pair = db.add_host_pair(&mut sim);
            let h = Tcp::install(
                &mut sim,
                &pair,
                TcpConfig::tcp_gamma(gamma, 1000),
                SimTime::ZERO,
            );
            sim.run_until(SimTime::from_secs(60));
            sim.stats().flow_throughput_bps(
                h.flow,
                SimTime::from_secs(20),
                SimTime::from_secs(60),
            )
        };
        let fast = run(2.0);
        let slow = run(8.0);
        // TCP-compatibility: same loss process -> comparable throughput
        // (within a factor ~2; the deterministic drop pattern is not the
        // random-loss model underlying the equation).
        assert!(
            slow > 0.5 * fast && slow < 2.5 * fast,
            "TCP(1/8) {:.2e} vs TCP(1/2) {:.2e}",
            slow,
            fast
        );
    }

    /// After a retransmission timeout the sender must eventually resume
    /// (exponential backoff, then retransmit) — total blackout then
    /// recovery.
    #[test]
    fn survives_a_total_blackout_via_rto() {
        /// Drops every data packet while "on".
        struct Blackout {
            from: SimTime,
            to: SimTime,
        }
        impl slowcc_netsim::link::LossPattern for Blackout {
            fn should_drop(&mut self, pkt: &Packet, now: SimTime) -> bool {
                pkt.is_data() && now >= self.from && now < self.to
            }
        }
        let mut sim = Simulator::new(1);
        let cfg = DumbbellConfig {
            queue: QueueKind::DropTail(1000),
            ..dumbbell(10e6)
        };
        let db = Dumbbell::build_with(
            &mut sim,
            cfg, DumbbellOptions::new().forward_loss(Box::new(Blackout {
                from: SimTime::from_secs(5),
                to: SimTime::from_secs(8),
            })),
        );
        let pair = db.add_host_pair(&mut sim);
        let h = Tcp::install(&mut sim, &pair, TcpConfig::standard(1000), SimTime::ZERO);
        sim.run_until(SimTime::from_secs(30));
        // Throughput after the blackout recovers to a healthy level.
        let after = sim.stats().flow_throughput_bps(
            h.flow,
            SimTime::from_secs(15),
            SimTime::from_secs(30),
        );
        assert!(after > 5e6, "did not recover after blackout: {after:.2e}");
    }

    /// Karn's algorithm (RFC 6298 §3) via the timestamp carve-out: RTT
    /// samples are computed from the echoed per-copy transmit timestamp,
    /// so a retransmitted segment can never conflate the original send
    /// time with the retransmission's ACK. After a 3 s blackout full of
    /// retransmissions the smoothed RTT must still reflect the ~50 ms
    /// path, not the blackout, and the §5 backoff must have collapsed on
    /// the first valid sample. (Linked from specs/rfc6298/3.toml and
    /// specs/rfc6298/5.toml.)
    #[test]
    fn karn_retransmissions_do_not_corrupt_the_rtt_estimate() {
        struct Blackout {
            from: SimTime,
            to: SimTime,
        }
        impl slowcc_netsim::link::LossPattern for Blackout {
            fn should_drop(&mut self, pkt: &Packet, now: SimTime) -> bool {
                pkt.is_data() && now >= self.from && now < self.to
            }
        }
        let mut sim = Simulator::new(1);
        let cfg = DumbbellConfig {
            queue: QueueKind::DropTail(1000),
            ..dumbbell(10e6)
        };
        let db = Dumbbell::build_with(
            &mut sim,
            cfg,
            DumbbellOptions::new().forward_loss(Box::new(Blackout {
                from: SimTime::from_secs(5),
                to: SimTime::from_secs(8),
            })),
        );
        let pair = db.add_host_pair(&mut sim);
        let h = Tcp::install(&mut sim, &pair, TcpConfig::standard(1000), SimTime::ZERO);
        sim.run_until(SimTime::from_secs(30));
        let sender: &Tcp = sim.agent_downcast(h.sender).unwrap();
        assert!(sender.timeouts() >= 1, "blackout must have forced an RTO");
        let srtt = sender.rtt_estimator().srtt().unwrap().as_secs_f64();
        assert!(
            srtt < 0.5,
            "srtt {srtt:.3} s: an ambiguous sample pulled in the blackout duration"
        );
        assert_eq!(
            sender.rtt_estimator().backoff(),
            0,
            "backoff must collapse once valid samples resume (RFC 6298 §5)"
        );
    }

    /// A loss pattern that drops an exact set of data-packet ordinals
    /// (1-based arrival counts), once each.
    struct DropOrdinals {
        ordinals: Vec<u64>,
        seen: u64,
    }
    impl slowcc_netsim::link::LossPattern for DropOrdinals {
        fn should_drop(&mut self, pkt: &Packet, _now: SimTime) -> bool {
            if !pkt.is_data() {
                return false;
            }
            self.seen += 1;
            self.ordinals.contains(&self.seen)
        }
    }

    fn recovery_world(drops: Vec<u64>) -> (Simulator, Dumbbell) {
        let mut sim = Simulator::new(1);
        let cfg = DumbbellConfig {
            queue: QueueKind::DropTail(4000),
            ..dumbbell(100e6) // fat pipe: only the scripted drops matter
        };
        let db = Dumbbell::build_with(
            &mut sim,
            cfg, DumbbellOptions::new().forward_loss(Box::new(DropOrdinals {
                ordinals: drops,
                seen: 0,
            })),
        );
        (sim, db)
    }

    /// A single isolated drop is repaired by fast retransmit: exactly one
    /// episode, no timeout, and the transfer completes promptly.
    #[test]
    fn single_drop_uses_fast_retransmit_not_timeout() {
        let (mut sim, db) = recovery_world(vec![100]);
        let pair = db.add_host_pair(&mut sim);
        let cfg = TcpConfig::standard(1000).with_max_packets(400);
        let h = Tcp::install(&mut sim, &pair, cfg, SimTime::ZERO);
        sim.run_until(SimTime::from_secs(10));
        let sender: &Tcp = sim.agent_downcast(h.sender).unwrap();
        assert!(sender.is_done());
        assert_eq!(sender.timeouts(), 0, "no RTO should fire for one drop");
        assert_eq!(sender.fast_retransmits(), 1);
        let sink: &TcpSink = sim.agent_downcast(h.sink).unwrap();
        assert_eq!(sink.expected(), 400);
    }

    /// Two drops within one window are repaired inside a single NewReno
    /// recovery episode via the partial-ACK retransmission — still no
    /// timeout and no second window reduction.
    #[test]
    fn two_drops_in_one_window_use_partial_acks() {
        let (mut sim, db) = recovery_world(vec![100, 105]);
        let pair = db.add_host_pair(&mut sim);
        let cfg = TcpConfig::standard(1000).with_max_packets(400);
        let h = Tcp::install(&mut sim, &pair, cfg, SimTime::ZERO);
        sim.run_until(SimTime::from_secs(10));
        let sender: &Tcp = sim.agent_downcast(h.sender).unwrap();
        assert!(sender.is_done());
        assert_eq!(sender.timeouts(), 0, "NewReno should avoid the RTO");
        assert_eq!(
            sender.fast_retransmits(),
            1,
            "both holes belong to one loss event"
        );
        let sink: &TcpSink = sim.agent_downcast(h.sink).unwrap();
        assert_eq!(sink.expected(), 400);
    }

    /// RFC 6582 partial-ACK deflation: a partial ACK that cumulatively
    /// acknowledges many packets must not release them all as one
    /// back-to-back burst. The inflated window is deflated by the amount
    /// newly acked (plus one for the retransmitted hole), so recovery
    /// trickles new data out on the ACK clock instead of line-rate
    /// bursting into the bottleneck it just overflowed.
    #[test]
    fn partial_ack_does_not_release_a_burst() {
        // Two drops far apart inside one window (ordinals 100 and 120):
        // the partial ACK that repairs the first hole acknowledges ~20
        // packets at one instant.
        let (mut sim, db) = recovery_world(vec![100, 120]);
        let pair = db.add_host_pair(&mut sim);
        let cfg = TcpConfig::standard(1000).with_max_packets(400);
        let h = Tcp::install(&mut sim, &pair, cfg, SimTime::ZERO);
        sim.set_trace(Box::new(slowcc_netsim::trace::VecTrace::new(100_000)));
        sim.run_until(SimTime::from_secs(10));

        let sender: &Tcp = sim.agent_downcast(h.sender).unwrap();
        assert!(sender.is_done());
        assert_eq!(sender.timeouts(), 0, "NewReno should avoid the RTO");
        assert_eq!(sender.fast_retransmits(), 1);

        let trace = sim.take_trace().unwrap();
        let trace: &slowcc_netsim::trace::VecTrace =
            trace.as_any().unwrap().downcast_ref().unwrap();
        // Largest number of *new* data sends sharing one timestamp.
        // Slow start legitimately sends 2-3 per ACK; a deflation bug
        // releases the whole newly-acked range (~20) at once.
        let mut max_burst = 0u32;
        let mut burst = 0u32;
        let mut last_time = None;
        for ev in trace.events() {
            if !matches!(ev.kind, slowcc_netsim::trace::TraceKind::Send) || !ev.is_data {
                continue;
            }
            if last_time == Some(ev.time) {
                burst += 1;
            } else {
                burst = 1;
                last_time = Some(ev.time);
            }
            max_burst = max_burst.max(burst);
        }
        assert!(
            max_burst <= 4,
            "partial ACK released a {max_burst}-packet back-to-back burst"
        );
    }

    /// A drop of the very last packet of a bounded transfer can only be
    /// repaired by the retransmission timer (no further data to generate
    /// duplicate ACKs).
    #[test]
    fn tail_drop_is_repaired_by_the_rto() {
        let (mut sim, db) = recovery_world(vec![50]);
        let pair = db.add_host_pair(&mut sim);
        let cfg = TcpConfig::standard(1000).with_max_packets(50);
        let h = Tcp::install(&mut sim, &pair, cfg, SimTime::ZERO);
        sim.run_until(SimTime::from_secs(30));
        let sender: &Tcp = sim.agent_downcast(h.sender).unwrap();
        assert!(sender.is_done(), "tail loss must not wedge the flow");
        assert!(sender.timeouts() >= 1);
        let sink: &TcpSink = sim.agent_downcast(h.sink).unwrap();
        assert_eq!(sink.expected(), 50);
    }

    /// RFC 5681 §3.1: after a timeout, ssthresh = max(FlightSize/2,
    /// 2*SMSS) — the floor is two segments. Dropping the very first data
    /// packet forces an RTO while only two packets are in flight, so the
    /// halved value (1) must be pulled up to exactly 2. (Linked from
    /// specs/rfc5681/3.1.toml.)
    #[test]
    fn ssthresh_floors_at_two_segments_on_timeout() {
        let (mut sim, db) = recovery_world(vec![1]);
        let pair = db.add_host_pair(&mut sim);
        let cfg = TcpConfig::standard(1000).with_max_packets(10);
        let h = Tcp::install(&mut sim, &pair, cfg, SimTime::ZERO);
        sim.run_until(SimTime::from_secs(10));
        let sender: &Tcp = sim.agent_downcast(h.sender).unwrap();
        assert!(sender.is_done());
        assert_eq!(sender.timeouts(), 1, "one dup ACK cannot trigger fast rtx");
        assert_eq!(sender.fast_retransmits(), 0);
        assert_eq!(
            sender.ssthresh(),
            2.0,
            "ssthresh must floor at 2 segments (RFC 5681 §3.1)"
        );
    }

    /// RFC 5681 §3.1: after a timeout, cwnd MUST be set to no more than
    /// the loss window, LW = 1 full-sized segment. Observed by stepping
    /// the simulation finely and inspecting the window right when the
    /// timeout fires, before any ACK restarts growth. (Linked from
    /// specs/rfc5681/3.1.toml.)
    #[test]
    fn timeout_closes_the_window_to_one_segment() {
        let (mut sim, db) = recovery_world(vec![1]);
        let pair = db.add_host_pair(&mut sim);
        let cfg = TcpConfig::standard(1000).with_max_packets(10);
        let h = Tcp::install(&mut sim, &pair, cfg, SimTime::ZERO);
        let mut seen = false;
        for step in 1..=3000u64 {
            sim.run_until(SimTime::from_millis(step));
            let sender: &Tcp = sim.agent_downcast(h.sender).unwrap();
            if sender.timeouts() == 1 {
                assert_eq!(
                    sender.cwnd(),
                    1.0,
                    "cwnd right after the RTO must be LW = 1 (RFC 5681 §3.1)"
                );
                seen = true;
                break;
            }
        }
        assert!(seen, "the scripted first-packet drop must force an RTO");
    }

    /// RFC 5681 §3.1: during congestion avoidance, cwnd grows by at
    /// most one SMSS per round-trip time. With a low initial ssthresh
    /// the flow enters congestion avoidance immediately; over 20 RTTs
    /// of a clean 50 ms path the window must grow by no more than ~20
    /// packets (and must actually grow). (Linked from
    /// specs/rfc5681/3.1.toml.)
    #[test]
    fn congestion_avoidance_adds_at_most_one_segment_per_rtt() {
        let mut sim = Simulator::new(1);
        let db = Dumbbell::build(&mut sim, dumbbell(10e6));
        let pair = db.add_host_pair(&mut sim);
        let mut cfg = TcpConfig::standard(1000);
        cfg.init_ssthresh = 4.0;
        let h = Tcp::install(&mut sim, &pair, cfg, SimTime::ZERO);
        sim.run_until(SimTime::from_secs(2));
        let c1 = {
            let s: &Tcp = sim.agent_downcast(h.sender).unwrap();
            s.cwnd()
        };
        sim.run_until(SimTime::from_secs(3)); // 20 more 50 ms RTTs
        let c2 = {
            let s: &Tcp = sim.agent_downcast(h.sender).unwrap();
            s.cwnd()
        };
        let grown = c2 - c1;
        assert!(
            grown <= 21.0,
            "congestion avoidance grew {grown:.1} packets in 20 RTTs (limit ~20)"
        );
        assert!(grown >= 5.0, "window should still be growing: {grown:.1}");
    }

    /// RFC 2481 §6.1.2: the sender reacts to an ECN-Echo like a loss —
    /// halving cwnd/ssthresh — but retransmits nothing, and reduces at
    /// most once per window of data even when several marked ACKs
    /// arrive back to back. (Linked from specs/rfc2481/6.1.2.toml.)
    #[test]
    fn ecn_echo_halves_once_per_window_without_retransmit() {
        /// Truthful cumulative receiver that sets the ECN-Echo flag on
        /// arrivals 21..=23 and counts retransmitted segments.
        struct EcnScript {
            expected: u64,
            arrivals: u64,
            retransmissions: u64,
        }
        impl Agent for EcnScript {
            fn as_any(&self) -> Option<&dyn std::any::Any> {
                Some(self)
            }
            fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
                if !pkt.is_data() {
                    return;
                }
                self.arrivals += 1;
                if pkt.seq < self.expected {
                    self.retransmissions += 1;
                }
                if pkt.seq == self.expected {
                    self.expected += 1;
                }
                let mut info = AckInfo::cumulative(self.expected, pkt.seq, pkt.sent_at);
                info.ecn_echo = (21..=23).contains(&self.arrivals);
                ctx.send(PacketSpec::ack_to(&pkt, ACK_SIZE, info));
            }
        }

        let mut sim = Simulator::new(1);
        let db = Dumbbell::build(&mut sim, dumbbell(10e6));
        let pair = db.add_host_pair(&mut sim);
        let cfg = TcpConfig::standard(1000).with_ecn().with_max_packets(100);
        let script = EcnScript {
            expected: 0,
            arrivals: 0,
            retransmissions: 0,
        };
        let h = install_flow(&mut sim, &pair, SimTime::ZERO, Box::new(script), |w| {
            Box::new(Tcp::new(cfg, w))
        });
        sim.run_until(SimTime::from_secs(10));
        let sender: &Tcp = sim.agent_downcast(h.sender).unwrap();
        assert!(sender.is_done());
        assert_eq!(sender.timeouts(), 0);
        assert_eq!(sender.fast_retransmits(), 0);
        // Slow start delivered 20 unmarked ACKs first, so cwnd was
        // 2 + 20 = 22 when the first echo landed: exactly one halving.
        assert_eq!(
            sender.ssthresh(),
            11.0,
            "three marked ACKs in one window must reduce exactly once"
        );
        let sink: &EcnScript = sim.agent_downcast(h.sink).unwrap();
        assert_eq!(
            sink.retransmissions, 0,
            "an ECN echo signals congestion, not loss: nothing to retransmit"
        );
    }

    /// RFC 6582 §4 ("careful variant"): after a retransmission timeout,
    /// duplicate ACKs generated by segments the timeout already
    /// retransmitted must NOT trigger fast retransmit until the
    /// cumulative ACK passes `send_high` (our `fr_guard`). A scripted
    /// receiver drives a real sender through: normal ramp, silence (to
    /// force an RTO), three forged duplicate ACKs below the guard
    /// (suppressed), then three above it (honored). (Linked from
    /// specs/rfc6582/4.toml.)
    #[test]
    fn careful_variant_gates_fast_retransmit_on_the_rto_guard() {
        enum Ph {
            /// ACK every arrival until 10 segments are in.
            Ramp,
            /// Consume silently until the sender's RTO retransmits.
            Silent,
            /// ACK truthfully for `left` more arrivals.
            Resume { left: u32 },
            /// Send `left` more duplicate ACKs frozen at `cum`.
            Freeze { cum: u64, left: u32 },
            /// ACK truthfully until the transfer drains.
            Drain,
        }
        struct GuardScript {
            expected: u64,
            ooo: BTreeSet<u64>,
            ph: Ph,
        }
        impl GuardScript {
            fn ack(&self, pkt: &Packet, cum: u64, ctx: &mut Ctx<'_>) {
                let info = AckInfo::cumulative(cum, pkt.seq, pkt.sent_at);
                ctx.send(PacketSpec::ack_to(pkt, ACK_SIZE, info));
            }
        }
        impl Agent for GuardScript {
            fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
                if !pkt.is_data() {
                    return;
                }
                let retransmitted = pkt.seq < self.expected;
                if pkt.seq == self.expected {
                    self.expected += 1;
                    while self.ooo.remove(&self.expected) {
                        self.expected += 1;
                    }
                } else if pkt.seq > self.expected {
                    self.ooo.insert(pkt.seq);
                }
                match self.ph {
                    Ph::Ramp => {
                        self.ack(&pkt, self.expected, ctx);
                        if self.expected >= 10 {
                            self.ph = Ph::Silent;
                        }
                    }
                    Ph::Silent => {
                        // The first re-seen segment is the RTO
                        // retransmission: answer with three duplicate
                        // ACKs below the sender's fr_guard. The careful
                        // variant must swallow them.
                        if retransmitted {
                            for _ in 0..3 {
                                self.ack(&pkt, 10, ctx);
                            }
                            self.ph = Ph::Resume { left: 8 };
                        }
                    }
                    Ph::Resume { left } => {
                        self.ack(&pkt, self.expected, ctx);
                        self.ph = if left > 1 {
                            Ph::Resume { left: left - 1 }
                        } else {
                            // Past the guard now; forge a loss event.
                            Ph::Freeze { cum: self.expected, left: 3 }
                        };
                    }
                    Ph::Freeze { cum, left } => {
                        self.ack(&pkt, cum, ctx);
                        self.ph = if left > 1 {
                            Ph::Freeze { cum, left: left - 1 }
                        } else {
                            Ph::Drain
                        };
                    }
                    Ph::Drain => self.ack(&pkt, self.expected, ctx),
                }
            }
        }

        let mut sim = Simulator::new(1);
        let db = Dumbbell::build(&mut sim, dumbbell(10e6));
        let pair = db.add_host_pair(&mut sim);
        let cfg = TcpConfig::standard(1000).with_max_packets(60);
        let script = GuardScript {
            expected: 0,
            ooo: BTreeSet::new(),
            ph: Ph::Ramp,
        };
        let h = install_flow(&mut sim, &pair, SimTime::ZERO, Box::new(script), |w| {
            Box::new(Tcp::new(cfg, w))
        });
        sim.run_until(SimTime::from_secs(30));
        let sender: &Tcp = sim.agent_downcast(h.sender).unwrap();
        assert!(sender.is_done(), "state: {}", sender.debug_state());
        assert_eq!(
            sender.timeouts(),
            2,
            "silence then the suppressed episode: exactly two RTOs"
        );
        assert_eq!(
            sender.fast_retransmits(),
            1,
            "dups below fr_guard suppressed, dups above honored (RFC 6582 §4)"
        );
    }

    /// The sink's sorted-deque reorder set books every arrival exactly as
    /// the `BTreeSet` bookkeeping `GuardScript` uses: random arrival
    /// orders with gaps, duplicates of held segments, old retransmits
    /// below `expected` and late hole fills, checked after every arrival.
    #[test]
    fn sink_reorder_set_matches_the_btreeset_model() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        for seed in 0..64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut sink = TcpSink::new();
            let (mut expected, mut ooo) = (0u64, BTreeSet::new());
            // One past the highest segment sent so far.
            let mut next = 0u64;
            for step in 0..2_000 {
                let seq = match rng.gen_range_u64(0, 10) {
                    // New data, sometimes past a gap of lost segments.
                    0..=4 => {
                        if rng.gen_bool(0.3) {
                            next += rng.gen_range_u64(1, 5);
                        }
                        next += 1;
                        next - 1
                    }
                    // The hole itself.
                    5 => expected,
                    // Anywhere in the window: late fills and duplicates
                    // of held segments.
                    6 | 7 if next > expected => rng.gen_range_u64(expected, next),
                    // Old retransmits below `expected`.
                    8 if expected > 0 => rng.gen_range_u64(0, expected),
                    _ => next.saturating_sub(1),
                };
                let model_filled_hole = seq == expected && !ooo.is_empty();
                if seq == expected {
                    expected += 1;
                    while ooo.remove(&expected) {
                        expected += 1;
                    }
                } else if seq > expected {
                    ooo.insert(seq);
                }
                let filled_hole = sink.accept(seq);
                let at = format!("seed {seed} step {step} seq {seq}");
                assert_eq!(filled_hole, model_filled_hole, "{at}");
                assert_eq!(sink.expected, expected, "{at}");
                assert!(sink.ooo.iter().eq(ooo.iter()), "{at}: {:?}", sink.ooo);
            }
        }
    }

    /// The sink ACKs every data packet cumulatively, emitting duplicate
    /// ACKs while a hole exists and jumping once it fills.
    #[test]
    fn sink_cumulative_ack_semantics() {
        use slowcc_netsim::ids::{AgentId, FlowId, NodeId};

        let mut sim = Simulator::new(0);
        let db = Dumbbell::build(&mut sim, dumbbell(10e6));
        let pair = db.add_host_pair(&mut sim);

        /// Sends 0, 2, 1, 3 (out of order) and records cum_acks received.
        struct Script {
            flow: FlowId,
            dst_node: NodeId,
            dst_agent: AgentId,
            acks: Vec<u64>,
        }
        impl Agent for Script {
            fn as_any(&self) -> Option<&dyn std::any::Any> {
                Some(self)
            }
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                for seq in [0u64, 2, 1, 3] {
                    ctx.send(PacketSpec::data(self.flow, seq, 100, self.dst_node, self.dst_agent));
                }
            }
            fn on_packet(&mut self, pkt: Packet, _ctx: &mut Ctx<'_>) {
                if let Some(ai) = pkt.ack() {
                    self.acks.push(ai.cum_ack);
                }
            }
        }

        let flow = sim.new_flow();
        let sink = sim.reserve_agent(pair.right);
        sim.install_agent(sink, Box::new(TcpSink::new()), SimTime::ZERO);
        let script = sim.add_agent(
            pair.left,
            Box::new(Script {
                flow,
                dst_node: pair.right,
                dst_agent: sink,
                acks: vec![],
            }),
        );
        sim.run_until(SimTime::from_millis(200));
        let s: &Script = sim.agent_downcast(script).unwrap();
        // seq 0 -> cum 1; seq 2 (hole) -> dup cum 1; seq 1 fills -> cum 3;
        // seq 3 -> cum 4.
        assert_eq!(s.acks, vec![1, 1, 3, 4]);
        let k: &TcpSink = sim.agent_downcast(sink).unwrap();
        assert_eq!(k.expected(), 4);
        assert_eq!(k.total_received(), 4);
    }
}

#[cfg(test)]
mod delack_tests {
    use super::*;
    use crate::agent::install_flow;
    use slowcc_netsim::topology::{Dumbbell, DumbbellConfig};

    fn run_transfer(delack: bool, packets: u64) -> (u64, u64, u64, bool) {
        let mut sim = Simulator::new(1);
        let db = Dumbbell::build(&mut sim, DumbbellConfig::paper(10e6));
        let pair = db.add_host_pair(&mut sim);
        let sink = if delack {
            TcpSink::new().with_delayed_acks()
        } else {
            TcpSink::new()
        };
        let cfg = TcpConfig::standard(1000).with_max_packets(packets);
        let h = install_flow(&mut sim, &pair, SimTime::ZERO, Box::new(sink), |w| {
            Box::new(Tcp::new(cfg, w))
        });
        sim.run_until(SimTime::from_secs(60));
        let k: &TcpSink = sim.agent_downcast(h.sink).unwrap();
        let s: &Tcp = sim.agent_downcast(h.sender).unwrap();
        (k.acks_sent(), k.expected(), k.total_received(), s.is_done())
    }

    /// Delayed ACKs roughly halve the ACK volume while the transfer
    /// still completes reliably.
    #[test]
    fn delayed_acks_halve_ack_volume() {
        let (acks_plain, got_plain, rcvd_plain, done_plain) = run_transfer(false, 500);
        let (acks_delack, got_delack, _, done_delack) = run_transfer(true, 500);
        assert!(done_plain && done_delack);
        assert_eq!(got_plain, 500);
        assert_eq!(got_delack, 500);
        // A plain sink ACKs every data arrival exactly once, so the ACK
        // count equals total receptions; anything above the 500 unique
        // segments is retransmission-induced duplicates, and on this
        // clean (lossless) path there should be none.
        assert_eq!(acks_plain, rcvd_plain);
        assert_eq!(
            acks_plain, 500,
            "clean path: no duplicate segments, one ACK each"
        );
        assert!(
            acks_delack < acks_plain * 2 / 3,
            "delack {acks_delack} vs plain {acks_plain}"
        );
        assert!(
            acks_delack >= 250,
            "at least one ACK per two segments: {acks_delack}"
        );
    }

    /// Delayed ACKs slow the window growth (the paper's point that its
    /// TCP(a=1) assumes no delack): the same transfer takes longer.
    #[test]
    fn delayed_acks_slow_the_ramp() {
        let time_to_finish = |delack: bool| -> f64 {
            let mut sim = Simulator::new(1);
            let db = Dumbbell::build(&mut sim, DumbbellConfig::paper(10e6));
            let pair = db.add_host_pair(&mut sim);
            let sink = if delack {
                TcpSink::new().with_delayed_acks()
            } else {
                TcpSink::new()
            };
            let cfg = TcpConfig::standard(1000).with_max_packets(1000);
            let h = install_flow(&mut sim, &pair, SimTime::ZERO, Box::new(sink), |w| {
                Box::new(Tcp::new(cfg, w))
            });
            // March in fine steps until done (slow start with delack
            // grows ~1.5x per RTT instead of 2x, so the gap is fractions
            // of a second).
            for step in 1..=6000u64 {
                sim.run_until(SimTime::from_millis(step * 10));
                let s: &Tcp = sim.agent_downcast(h.sender).unwrap();
                if s.is_done() {
                    return step as f64 * 0.01;
                }
            }
            f64::INFINITY
        };
        let plain = time_to_finish(false);
        let slow = time_to_finish(true);
        assert!(plain.is_finite() && slow.is_finite());
        assert!(
            slow > plain,
            "delack transfer ({slow:.2} s) should be slower than plain ({plain:.2} s)"
        );
    }

    /// Scripted sender that emits a fixed sequence of data segments at
    /// start and records every (cum_ack, arrival time) it gets back.
    struct AckRecorder {
        flow: slowcc_netsim::ids::FlowId,
        dst_node: slowcc_netsim::ids::NodeId,
        dst_agent: slowcc_netsim::ids::AgentId,
        sends: Vec<u64>,
        acks: Vec<(u64, SimTime)>,
    }
    impl Agent for AckRecorder {
        fn as_any(&self) -> Option<&dyn std::any::Any> {
            Some(self)
        }
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            for &seq in &self.sends {
                ctx.send(PacketSpec::data(
                    self.flow,
                    seq,
                    1000,
                    self.dst_node,
                    self.dst_agent,
                ));
            }
        }
        fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
            if let Some(ai) = pkt.ack() {
                self.acks.push((ai.cum_ack, ctx.now()));
            }
        }
    }

    fn run_script(sends: Vec<u64>, until: SimTime) -> Vec<(u64, SimTime)> {
        let mut sim = Simulator::new(1);
        let db = Dumbbell::build(&mut sim, DumbbellConfig::paper(10e6));
        let pair = db.add_host_pair(&mut sim);
        let flow = sim.new_flow();
        let sink = sim.reserve_agent(pair.right);
        sim.install_agent(
            sink,
            Box::new(TcpSink::new().with_delayed_acks()),
            SimTime::ZERO,
        );
        let script = sim.add_agent(
            pair.left,
            Box::new(AckRecorder {
                flow,
                dst_node: pair.right,
                dst_agent: sink,
                sends,
                acks: vec![],
            }),
        );
        sim.run_until(until);
        let s: &AckRecorder = sim.agent_downcast(script).unwrap();
        s.acks.clone()
    }

    /// RFC 1122 §4.2.3.2 under loss, reordering, and duplication — not
    /// just in-order delivery: an out-of-order segment elicits an
    /// immediate (duplicate) ACK, a hole-filling segment an immediate
    /// cumulative ACK, an old duplicate an immediate ACK, and no ACK is
    /// ever withheld past the second full-sized segment. (Linked from
    /// specs/rfc1122/4.2.3.2.toml.)
    #[test]
    fn delayed_acks_stay_conformant_under_reordering_and_duplicates() {
        // 0 held; 1 -> ack 2; 2 held; 4 (out of order) -> ack 2's
        // coverage at cum 3; 3 fills the hole -> ack 5; 5 held; 6 ->
        // ack 7; 7 held; duplicate 3 -> immediate ack 8 (covers 7).
        let acks = run_script(vec![0, 1, 2, 4, 3, 5, 6, 7, 3], SimTime::from_secs(2));
        let cums: Vec<u64> = acks.iter().map(|(c, _)| *c).collect();
        assert_eq!(cums, vec![2, 3, 5, 7, 8], "ack stream {cums:?}");
        // "At least every second full-sized segment": no cumulative ACK
        // jump may exceed 2 in-order segments.
        let mut prev = 0;
        for &c in &cums {
            assert!(
                c.saturating_sub(prev) <= 2,
                "ACK withheld past the second segment: {prev} -> {c}"
            );
            prev = prev.max(c);
        }
    }

    /// RFC 1122 §4.2.3.2: the delayed-ACK timer MUST be less than
    /// 0.5 seconds. A lone segment (nothing to coalesce with) must
    /// still be acknowledged within the bound.
    #[test]
    fn delayed_ack_fires_well_inside_half_a_second() {
        let acks = run_script(vec![0], SimTime::from_secs(2));
        assert_eq!(acks.len(), 1, "the lone segment must be acknowledged");
        let (cum, at) = acks[0];
        assert_eq!(cum, 1);
        assert!(
            at.as_secs_f64() < 0.5,
            "ACK for a lone segment arrived at {:.3} s; the delay bound is < 0.5 s",
            at.as_secs_f64()
        );
    }
}
