//! Loss-rate metrics: the stabilization time and stabilization cost of
//! Section 4.1.
//!
//! * **Stabilization time** — "the number of RTTs, after a period of high
//!   congestion begins, until the network loss rate diminishes to within
//!   1.5 times its steady-state value for this level of congestion",
//!   with the loss rate "calculated as an average over the previous ten
//!   RTT periods".
//! * **Stabilization cost** — "the product of the stabilization time and
//!   the average loss rate during the stabilization interval": a cost of
//!   1 is one full RTT worth of packets dropped at the congested link.

use serde::Serialize;

use slowcc_netsim::ids::LinkId;
use slowcc_netsim::stats::Stats;
use slowcc_netsim::time::{SimDuration, SimTime};

/// Parameters of a stabilization measurement.
#[derive(Debug, Clone, Copy)]
pub struct StabilizationConfig {
    /// Start of the sustained high-congestion period (Figure 3: t=180 s).
    pub onset: SimTime,
    /// Window over which the steady-state loss rate for this congestion
    /// level is measured (Figure 3: the first 150 s).
    pub steady_from: SimTime,
    /// End of the steady-state window.
    pub steady_to: SimTime,
    /// Round-trip time of the flows (50 ms in the paper's scenarios).
    pub rtt: SimDuration,
    /// Loss-rate averaging window, in RTTs (paper: 10).
    pub window_rtts: u64,
    /// Stabilization threshold as a multiple of the steady-state rate
    /// (paper: 1.5).
    pub factor: f64,
    /// Give up scanning at this time if the loss rate never stabilizes.
    pub horizon: SimTime,
}

/// Result of a stabilization measurement.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct Stabilization {
    /// Steady-state loss fraction for this congestion level.
    pub steady_loss: f64,
    /// Stabilization time in RTTs (clamped to the horizon when the rate
    /// never stabilized).
    pub time_rtts: f64,
    /// Stabilization cost: `time_rtts x mean loss fraction` over the
    /// stabilization interval.
    pub cost: f64,
    /// Whether the loss rate actually came back within the threshold
    /// before the horizon.
    pub stabilized: bool,
}

/// Measure stabilization of the loss rate at `link` after `cfg.onset`.
///
/// The sliding window only looks at post-onset traffic, so the low loss
/// rate from before the congestion onset cannot mask the transient.
pub fn stabilization(stats: &Stats, link: LinkId, cfg: &StabilizationConfig) -> Stabilization {
    assert!(cfg.window_rtts > 0, "averaging window must be positive");
    assert!(cfg.factor >= 1.0, "threshold factor must be >= 1");
    assert!(cfg.horizon > cfg.onset, "horizon must follow the onset");
    let steady_loss = stats.link_loss_fraction_in(link, cfg.steady_from, cfg.steady_to);
    let threshold = cfg.factor * steady_loss;
    let window = cfg.rtt.saturating_mul(cfg.window_rtts);

    // The overload takes a moment to materialize (the queue must fill
    // before drops begin), so first wait until the loss rate exceeds the
    // threshold; stabilization is the first window at-or-below it after
    // that. If the overload never materializes there is no transient at
    // all: stabilization time zero.
    let mut t = cfg.onset + cfg.rtt;
    let mut seen_overload = false;
    let (mut stabilized, mut stable_at) = (false, cfg.horizon);
    while t <= cfg.horizon {
        let from = (t - window).max(cfg.onset);
        let loss = stats.link_loss_fraction_in(link, from, t);
        if loss > threshold {
            seen_overload = true;
        } else if seen_overload {
            stabilized = true;
            stable_at = t;
            break;
        }
        t += cfg.rtt;
    }
    if !seen_overload {
        return Stabilization {
            steady_loss,
            time_rtts: 0.0,
            cost: 0.0,
            stabilized: true,
        };
    }

    let span = stable_at.saturating_since(cfg.onset);
    let time_rtts = span.as_secs_f64() / cfg.rtt.as_secs_f64();
    let mean_loss = stats.link_loss_fraction_in(link, cfg.onset, stable_at);
    Stabilization {
        steady_loss,
        time_rtts,
        cost: time_rtts * mean_loss,
        stabilized,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slowcc_netsim::prelude::*;
    use slowcc_netsim::sim::Simulator;

    struct Pulse {
        flow: FlowId,
        dst_node: NodeId,
        dst_agent: AgentId,
        /// (time, count) bursts to emit.
        script: Vec<(SimTime, u32)>,
        next: usize,
    }
    impl Agent for Pulse {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(SimDuration::ZERO, 0);
        }
        fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx<'_>) {}
        fn on_timer(&mut self, _token: u64, ctx: &mut Ctx<'_>) {
            if self.next >= self.script.len() {
                return;
            }
            let (at, count) = self.script[self.next];
            if ctx.now() >= at {
                for i in 0..count {
                    ctx.send(PacketSpec::data(
                        self.flow,
                        i as u64,
                        100,
                        self.dst_node,
                        self.dst_agent,
                    ));
                }
                self.next += 1;
            }
            ctx.set_timer(SimDuration::from_millis(10), 0);
        }
    }
    struct Devour;
    impl Agent for Devour {
        fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx<'_>) {}
    }

    /// Build a world whose bottleneck link really carries a scripted loss
    /// profile: a `steady` loss fraction everywhere, and a `spike` loss
    /// fraction for `spike_rtts` RTTs (of 50 ms) after the 1 s onset.
    ///
    /// A [`Pulse`] agent emits a burst every 10 ms into a slow (1 ms per
    /// 100-byte packet) cap-4 DropTail link: of an `n`-packet burst, 5
    /// survive (4 queued + 1 on the wire) and `n - 5` drop, so a target
    /// loss fraction `p` needs bursts of `5 / (1 - p)` packets. Callers
    /// still drive `run_until` themselves.
    fn scripted_stats(steady: f64, spike: f64, spike_rtts: u64) -> (Simulator, LinkId) {
        assert!((0.0..1.0).contains(&steady) && (0.0..1.0).contains(&spike));
        let burst = |p: f64| -> u32 {
            if p <= 0.0 {
                2 // fits the queue: lossless
            } else {
                (5.0 / (1.0 - p)).round() as u32
            }
        };
        let mut sim = Simulator::new(0);
        let a = sim.add_node();
        let b = sim.add_node();
        let l = sim.add_link(
            a,
            Link::new(
                b,
                8e5, // 1 ms per 100-byte packet
                SimDuration::from_millis(1),
                Box::new(DropTail::new(4)),
            ),
        );
        let back = sim.add_link(
            b,
            Link::new(
                a,
                1e9,
                SimDuration::from_millis(1),
                Box::new(DropTail::new(100)),
            ),
        );
        sim.set_default_route(a, l);
        sim.set_default_route(b, back);
        let sink = sim.add_agent(b, Box::new(Devour));
        let flow = sim.new_flow();
        let spike_from_ms = 1000u64;
        let spike_to_ms = spike_from_ms + 50 * spike_rtts;
        let script = (0..400u64)
            .map(|i| {
                let t_ms = 10 * i;
                let in_spike = (spike_from_ms..spike_to_ms).contains(&t_ms);
                (
                    SimTime::from_millis(t_ms),
                    burst(if in_spike { spike } else { steady }),
                )
            })
            .collect();
        sim.add_agent(
            a,
            Box::new(Pulse {
                flow,
                dst_node: b,
                dst_agent: sink,
                script,
                next: 0,
            }),
        );
        (sim, l)
    }

    /// A world where bursts larger than the queue produce a known loss
    /// fraction: queue cap 5, burst 10 -> ~50% loss (minus the packet in
    /// service).
    #[test]
    fn stabilization_detects_a_transient_spike() {
        let mut sim = Simulator::new(0);
        let a = sim.add_node();
        let b = sim.add_node();
        // Slow link so whole bursts overflow the buffer.
        let l = sim.add_link(
            a,
            Link::new(
                b,
                8e5, // 1 ms per 100-byte packet
                SimDuration::from_millis(1),
                Box::new(DropTail::new(4)),
            ),
        );
        let back = sim.add_link(
            b,
            Link::new(
                a,
                1e9,
                SimDuration::from_millis(1),
                Box::new(DropTail::new(100)),
            ),
        );
        sim.set_default_route(a, l);
        sim.set_default_route(b, back);
        let sink = sim.add_agent(b, Box::new(Devour));
        let flow = sim.new_flow();
        // Small bursts (no loss) everywhere; giant bursts right after
        // t = 1 s for ~0.5 s (the "spike").
        let mut script = Vec::new();
        for i in 0..200u64 {
            let t = SimTime::from_millis(10 * i);
            let in_spike = (1000..1500).contains(&(10 * i));
            script.push((t, if in_spike { 50 } else { 2 }));
        }
        sim.add_agent(
            a,
            Box::new(Pulse {
                flow,
                dst_node: b,
                dst_agent: sink,
                script,
                next: 0,
            }),
        );
        sim.run_until(SimTime::from_secs(3));

        let cfg = StabilizationConfig {
            onset: SimTime::from_secs(1),
            steady_from: SimTime::ZERO,
            steady_to: SimTime::from_millis(900),
            rtt: SimDuration::from_millis(50),
            window_rtts: 10,
            factor: 1.5,
            horizon: SimTime::from_secs(3),
        };
        let st = stabilization(sim.stats(), l, &cfg);
        assert!(st.stabilized, "never stabilized: {st:?}");
        assert!(st.steady_loss < 0.01, "steady loss {:.3}", st.steady_loss);
        // The spike lasts 0.5 s = 10 RTTs; with a 10-RTT window the
        // measured stabilization time is roughly spike + window.
        assert!(
            st.time_rtts >= 9.0 && st.time_rtts <= 40.0,
            "time {} RTTs",
            st.time_rtts
        );
        assert!(st.cost > 0.0);
    }

    #[test]
    fn no_spike_stabilizes_immediately() {
        let (mut sim, l) = scripted_stats(0.0, 0.0, 0);
        sim.run_until(SimTime::from_secs(2));
        let cfg = StabilizationConfig {
            onset: SimTime::from_secs(1),
            steady_from: SimTime::ZERO,
            steady_to: SimTime::from_secs(1),
            rtt: SimDuration::from_millis(50),
            window_rtts: 10,
            factor: 1.5,
            horizon: SimTime::from_secs(2),
        };
        let st = stabilization(sim.stats(), l, &cfg);
        // The helper must actually push traffic through the link — a
        // trivially-empty world would make this test vacuous.
        assert!(
            sim.stats().link(l).map_or(0, |ls| ls.total_arrivals) > 0,
            "scripted world carried no traffic"
        );
        assert!(st.stabilized);
        assert!(st.time_rtts <= 1.01);
        assert_eq!(st.cost, 0.0);
    }

    #[test]
    fn scripted_spike_is_seen_and_priced() {
        // Lossless background, ~50% loss for 10 RTTs after t = 1 s.
        let (mut sim, l) = scripted_stats(0.0, 0.5, 10);
        sim.run_until(SimTime::from_secs(3));
        let cfg = StabilizationConfig {
            onset: SimTime::from_secs(1),
            steady_from: SimTime::ZERO,
            steady_to: SimTime::from_millis(900),
            rtt: SimDuration::from_millis(50),
            window_rtts: 10,
            factor: 1.5,
            horizon: SimTime::from_secs(3),
        };
        let st = stabilization(sim.stats(), l, &cfg);
        assert!(st.stabilized, "never stabilized: {st:?}");
        assert!(st.steady_loss < 0.01, "steady loss {:.3}", st.steady_loss);
        // 10 RTTs of spike plus up to a 10-RTT window to flush it out.
        assert!(
            st.time_rtts >= 9.0 && st.time_rtts <= 40.0,
            "time {} RTTs",
            st.time_rtts
        );
        assert!(st.cost > 0.0, "a real spike must have nonzero cost");
    }
}
