//! The rate-paced sender plumbing TFRC and TEAR share: one data packet
//! per send-timer tick, a no-feedback timer, and the RTT estimate both
//! are scaled by. The rate law — what the rate is, its floor, and what a
//! no-feedback expiry does to it — stays with each agent, which passes
//! the rate in.
//!
//! The two timers ride one token space, told apart by the low bit. The
//! send timer is re-armed only from its own firing, so it is a plain
//! [`Ctx::set_timer`] with a constant token; the no-feedback timer moves
//! on every feedback, so it is a [`Timer`] tagged with the other bit.

use slowcc_netsim::packet::{AckInfo, PacketSpec};
use slowcc_netsim::sim::{Ctx, Timer};
use slowcc_netsim::time::{SimDuration, SimTime};

use crate::agent::SenderWiring;

const TIMER_SEND: u64 = 0;
const TIMER_NOFEEDBACK: u64 = 1;

/// Which live timer a token names.
pub(crate) enum PacerTimer {
    /// Time to send the next data packet.
    Send,
    /// No feedback for `max(4R, 2s/X)`.
    NoFeedback,
}

/// Sender-side pacing state: wiring, sequence counter, RTT estimate and
/// the no-feedback timer.
pub(crate) struct Pacer {
    w: SenderWiring,
    pkt_size: u32,
    initial_rtt: SimDuration,
    /// Smoothed RTT in seconds (EWMA with q = 0.9), when measured.
    srtt: Option<f64>,
    next_seq: u64,
    nofeedback: Timer,
}

impl Pacer {
    pub(crate) fn new(w: SenderWiring, pkt_size: u32, initial_rtt: SimDuration) -> Self {
        Pacer {
            w,
            pkt_size,
            initial_rtt,
            srtt: None,
            next_seq: 0,
            nofeedback: Timer::tagged(TIMER_NOFEEDBACK),
        }
    }

    /// The smoothed RTT, or the configured initial RTT before the first
    /// sample.
    pub(crate) fn srtt_secs(&self) -> f64 {
        self.srtt.unwrap_or_else(|| self.initial_rtt.as_secs_f64())
    }

    /// Fold the RTT sample a feedback packet carries, corrected for the
    /// receiver's holding delay, into the estimate.
    pub(crate) fn sample_rtt(&mut self, info: &AckInfo, now: SimTime) {
        let sample =
            now.saturating_since(info.echo_ts).as_secs_f64() - info.echo_delay_ns as f64 / 1e9;
        if sample > 0.0 {
            self.srtt = Some(match self.srtt {
                None => sample,
                Some(s) => 0.9 * s + 0.1 * sample,
            });
        }
    }

    /// Send the next data packet, then arm the send timer one packet
    /// time at `rate_bps` (bytes per second, already floored by the
    /// caller) ahead.
    pub(crate) fn send_and_schedule(&mut self, rate_bps: f64, ctx: &mut Ctx<'_>) {
        let rtt_ns = self
            .srtt
            .map(|s| (s * 1e9) as u64)
            .unwrap_or(self.initial_rtt.as_nanos());
        ctx.send(PacketSpec::data_with_rtt(
            self.w.flow,
            self.next_seq,
            self.pkt_size,
            self.w.dst_node,
            self.w.dst_agent,
            rtt_ns,
        ));
        self.next_seq += 1;

        let gap = self.pkt_size as f64 / rate_bps;
        ctx.set_timer(SimDuration::from_secs_f64(gap), TIMER_SEND);
    }

    /// (Re)arm the no-feedback timer for `max(4R, 2s/X)` at the current
    /// rate `rate_bps` (RFC 3448 §4.3).
    pub(crate) fn arm_nofeedback(&mut self, rate_bps: f64, ctx: &mut Ctx<'_>) {
        let t = (4.0 * self.srtt_secs()).max(2.0 * self.pkt_size as f64 / rate_bps);
        ctx.arm(&mut self.nofeedback, SimDuration::from_secs_f64(t));
    }

    /// Decode a fired token; `None` when it is the no-feedback timer's
    /// entry popping before its due key, or a superseded one.
    pub(crate) fn live_timer(&mut self, token: u64, ctx: &mut Ctx<'_>) -> Option<PacerTimer> {
        if Timer::tag_of(token) == TIMER_SEND {
            Some(PacerTimer::Send)
        } else {
            ctx.fired(&mut self.nofeedback, token)
                .then_some(PacerTimer::NoFeedback)
        }
    }
}
