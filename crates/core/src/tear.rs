//! TEAR — TCP Emulation At Receivers (Rhee, Ozdemir & Yi, 2000).
//!
//! Section 2 of the paper describes TEAR as "a receiver-based variant of
//! TCP, where the receiver maintains an exponentially-weighted moving
//! average of the TCP congestion window, and divides this by the
//! estimated round-trip time to obtain a TCP-compatible sending rate."
//! The paper classifies TEAR but does not include it in the measured
//! figures; it is implemented here as the natural fourth SlowCC family so
//! the harness can run the paper's experiments over it as extensions.
//!
//! The receiver runs the TCP window state machine (slow start, AIMD,
//! halving per loss event grouped within an RTT) driven by packet
//! *arrivals* instead of ACKs, smooths the emulated window with an EWMA,
//! and advertises `rate = smoothed_cwnd · s / RTT` back to the sender
//! once per RTT. The sender simply paces packets at the advertised rate —
//! rate-based transmission with TCP-derived dynamics.

use slowcc_netsim::packet::{AckInfo, Packet, PacketSpec, Payload};
use slowcc_netsim::sim::{Agent, Ctx, Simulator, Timer};
use slowcc_netsim::time::{SimDuration, SimTime};
use slowcc_netsim::topology::HostPair;

use crate::agent::{install_flow, FlowHandle, SenderWiring};
use crate::pacer::{Pacer, PacerTimer};
use crate::tcp::ACK_SIZE;

/// Configuration of a TEAR flow.
#[derive(Debug, Clone, Copy)]
pub struct TearConfig {
    /// Data packet size in bytes.
    pub pkt_size: u32,
    /// EWMA weight of the newest window sample (smaller = smoother).
    pub alpha: f64,
    /// RTT assumed before the first measurement.
    pub initial_rtt: SimDuration,
}

impl TearConfig {
    /// TEAR with the smoothing the TEAR report suggests (window averaged
    /// over on the order of 8 congestion epochs).
    pub fn standard(pkt_size: u32) -> Self {
        TearConfig {
            pkt_size,
            alpha: 0.125,
            initial_rtt: SimDuration::from_millis(50),
        }
    }
}

/// The TEAR receiver: emulates the TCP window from arrivals and
/// advertises the smoothed rate.
pub struct TearSink {
    cfg: TearConfig,
    expected: u64,
    /// Emulated congestion window, in packets.
    cwnd: f64,
    ssthresh: f64,
    /// EWMA of the emulated window, updated once per RTT.
    smoothed_cwnd: f64,
    /// Loss-event grouping (as in TFRC): losses before this time belong
    /// to the current event.
    event_end: SimTime,
    sender_rtt: SimDuration,
    last_data_sent_at: SimTime,
    last_data_arrival: SimTime,
    pending: Option<Packet>,
    /// The per-RTT feedback timer, re-armed by every report.
    feedback: Timer,
}

impl TearSink {
    /// A fresh receiver.
    pub fn new(cfg: TearConfig) -> Self {
        TearSink {
            cfg,
            expected: 0,
            cwnd: 2.0,
            ssthresh: 1e9,
            smoothed_cwnd: 2.0,
            event_end: SimTime::ZERO,
            sender_rtt: SimDuration::ZERO,
            last_data_sent_at: SimTime::ZERO,
            last_data_arrival: SimTime::ZERO,
            pending: None,
            feedback: Timer::default(),
        }
    }

    fn rtt(&self) -> SimDuration {
        if self.sender_rtt.is_zero() {
            self.cfg.initial_rtt
        } else {
            self.sender_rtt
        }
    }

    fn advertised_rate_bps(&self) -> f64 {
        self.smoothed_cwnd.max(1.0) * self.cfg.pkt_size as f64 / self.rtt().as_secs_f64()
    }

    fn send_feedback(&mut self, pkt_template: &Packet, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        // One window sample per feedback round (~1 RTT).
        self.smoothed_cwnd =
            (1.0 - self.cfg.alpha) * self.smoothed_cwnd + self.cfg.alpha * self.cwnd;
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
            recv_rate_bps: 0.0,
            loss_event_rate: 0.0,
            recv_count: 0,
            advertised_rate_bps: self.advertised_rate_bps(),
            new_loss_event: false,
            ecn_echo: false,
        };
        ctx.send(PacketSpec::ack_to(pkt_template, ACK_SIZE, info));
        let rtt = self.rtt();
        ctx.arm(&mut self.feedback, rtt);
    }
}

impl Agent for TearSink {
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        let Payload::Data(data) = pkt.payload else {
            return;
        };
        let now = ctx.now();
        if data.sender_rtt_ns > 0 {
            self.sender_rtt = SimDuration::from_nanos(data.sender_rtt_ns);
        }
        self.last_data_sent_at = pkt.sent_at;
        self.last_data_arrival = now;

        if pkt.seq > self.expected {
            // Loss detected; halve the emulated window once per RTT.
            if now >= self.event_end {
                self.ssthresh = (self.cwnd / 2.0).max(2.0);
                self.cwnd = self.ssthresh;
                self.event_end = now + self.rtt();
            }
            self.expected = pkt.seq + 1;
        } else if pkt.seq == self.expected {
            self.expected += 1;
        }
        // Emulated TCP growth per received packet.
        if self.cwnd < self.ssthresh {
            self.cwnd += 1.0;
        } else {
            self.cwnd += 1.0 / self.cwnd.max(1.0);
        }

        if !self.feedback.is_armed() {
            self.send_feedback(&pkt, ctx);
        } else {
            self.pending = Some(pkt);
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>) {
        if !ctx.fired(&mut self.feedback, token) {
            return;
        }
        if let Some(pkt) = self.pending.take() {
            self.send_feedback(&pkt, ctx);
        } else {
            let rtt = self.rtt();
            ctx.arm(&mut self.feedback, rtt);
        }
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

/// The TEAR sender: paces at the receiver-advertised rate.
pub struct Tear {
    cfg: TearConfig,
    pacer: Pacer,
    rate_bps: f64,
}

impl Tear {
    /// A sender addressed by `wiring`.
    pub fn new(cfg: TearConfig, wiring: SenderWiring) -> Self {
        let s = cfg.pkt_size as f64;
        Tear {
            rate_bps: s / cfg.initial_rtt.as_secs_f64(),
            pacer: Pacer::new(wiring, cfg.pkt_size, cfg.initial_rtt),
            cfg,
        }
    }

    /// Install a forward TEAR flow across `pair`.
    pub fn install(
        sim: &mut Simulator,
        pair: &HostPair,
        cfg: TearConfig,
        start: SimTime,
    ) -> FlowHandle {
        install_flow(sim, pair, start, Box::new(TearSink::new(cfg)), |w| {
            Box::new(Tear::new(cfg, w))
        })
    }

    /// Current sending rate in bytes per second.
    pub fn rate_bps(&self) -> f64 {
        self.rate_bps
    }

    fn min_rate(&self) -> f64 {
        self.cfg.pkt_size as f64 / 64.0
    }

    fn send_and_schedule(&mut self, ctx: &mut Ctx<'_>) {
        self.pacer
            .send_and_schedule(self.rate_bps.max(self.min_rate()), ctx);
    }
}

impl Agent for Tear {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.send_and_schedule(ctx);
        self.pacer.arm_nofeedback(self.rate_bps, ctx);
    }

    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        let Some(info) = pkt.ack().copied() else {
            return;
        };
        self.pacer.sample_rtt(&info, ctx.now());
        if info.advertised_rate_bps > 0.0 {
            self.rate_bps = info.advertised_rate_bps.max(self.min_rate());
        }
        self.pacer.arm_nofeedback(self.rate_bps, ctx);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>) {
        match self.pacer.live_timer(token, ctx) {
            Some(PacerTimer::Send) => self.send_and_schedule(ctx),
            Some(PacerTimer::NoFeedback) => {
                self.rate_bps = (self.rate_bps / 2.0).max(self.min_rate());
                self.pacer.arm_nofeedback(self.rate_bps, ctx);
            }
            None => {}
        }
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slowcc_netsim::link::LossPattern;
    use slowcc_netsim::topology::{Dumbbell, DumbbellConfig, DumbbellOptions, QueueKind};

    #[test]
    fn tear_reaches_reasonable_utilization_on_clean_pipe() {
        let mut sim = Simulator::new(4);
        let db = Dumbbell::build(&mut sim, DumbbellConfig::paper(10e6));
        let pair = db.add_host_pair(&mut sim);
        let h = Tear::install(&mut sim, &pair, TearConfig::standard(1000), SimTime::ZERO);
        sim.run_until(SimTime::from_secs(120));
        let tput = sim.stats().flow_throughput_bps(
            h.flow,
            SimTime::from_secs(60),
            SimTime::from_secs(120),
        );
        // TEAR's heavily smoothed window tracks slowly but should still
        // reach the same order as the link rate.
        assert!(
            tput > 4e6 && tput < 10.1e6,
            "TEAR throughput {:.2} Mb/s out of range",
            tput / 1e6
        );
    }

    #[test]
    fn tear_throughput_is_tcp_compatible_under_loss() {
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
        let mut sim = Simulator::new(4);
        let cfg = DumbbellConfig {
            queue: QueueKind::DropTail(4000),
            ..DumbbellConfig::paper(100e6)
        };
        let db = Dumbbell::build_with(&mut sim, cfg, DumbbellOptions::new().forward_loss(Box::new(EveryN(100, 0))));
        let pair = db.add_host_pair(&mut sim);
        let h = Tear::install(&mut sim, &pair, TearConfig::standard(1000), SimTime::ZERO);
        sim.run_until(SimTime::from_secs(120));
        let tput = sim.stats().flow_throughput_bps(
            h.flow,
            SimTime::from_secs(40),
            SimTime::from_secs(120),
        );
        // p = 1%: the emulated-TCP average window is ~12 packets/RTT
        // ~ 1.9 Mb/s; accept a factor-of-three band.
        assert!(
            tput > 0.6e6 && tput < 6e6,
            "TEAR at p=1%: {:.2} Mb/s",
            tput / 1e6
        );
    }

    #[test]
    fn tear_rate_is_smoother_than_its_emulated_window() {
        // The advertised rate is an EWMA of the window: after a halving,
        // the advertised rate must move by much less than a factor 2.
        let mut sink = TearSink::new(TearConfig::standard(1000));
        sink.cwnd = 32.0;
        sink.smoothed_cwnd = 32.0;
        sink.sender_rtt = SimDuration::from_millis(50);
        let before = sink.advertised_rate_bps();
        // Emulate a loss: window halves; one EWMA step.
        sink.cwnd = 16.0;
        sink.smoothed_cwnd =
            (1.0 - sink.cfg.alpha) * sink.smoothed_cwnd + sink.cfg.alpha * sink.cwnd;
        let after = sink.advertised_rate_bps();
        assert!(after > 0.9 * before, "rate dropped too sharply: {before} -> {after}");
    }
}
