//! Topology builders.
//!
//! All of the paper's experiments use a single-bottleneck "dumbbell":
//! hosts on the left send through `left router -> right router` to hosts
//! on the right, ACKs and reverse-path data share the mirror link. Access
//! links are fast and short so the shared link is the only bottleneck.
//!
//! ```text
//!  s0 ─┐                      ┌─ d0
//!  s1 ─┤ ... ── R0 ═════ R1 ──┤ ...
//!  sN ─┘    (bottleneck, RED) └─ dN
//! ```
//!
//! There is one builder, [`ParkingLot`], a chain of congested hops, and
//! one routine that wires hosts to it,
//! [`ParkingLot::add_host_pair_with_delay`]. A [`Dumbbell`] is the
//! one-hop lot under the names the paper's experiments use.

use crate::faults::FaultPlan;
use crate::ids::{LinkId, NodeId};
use crate::link::{Link, LossPattern, MarkPattern};
use crate::queue::{DropTail, QueueDiscipline, Red, RedConfig};
use crate::sim::Simulator;
use crate::time::{transmission_time, SimDuration};

/// The paper's standard packet size in bytes (Section 3).
pub const PAPER_PKT_SIZE: u32 = 1000;
/// One-way bottleneck propagation delay of the standard scenario.
pub const PAPER_BOTTLENECK_DELAY: SimDuration = SimDuration::from_millis(23);
/// Access link rate, both sides, of the standard scenario (b/s).
pub const PAPER_ACCESS_BPS: f64 = 1e9;
/// One-way access link propagation delay of the standard scenario.
pub const PAPER_ACCESS_DELAY: SimDuration = SimDuration::from_millis(1);
/// Base RTT of the standard path: `2 * (1 + 23 + 1) ms`.
pub const PAPER_RTT: SimDuration = SimDuration::from_millis(50);

/// Buffer discipline to install at the bottleneck.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QueueKind {
    /// RED with the paper's Section 3 sizing: capacity 2.5x BDP,
    /// thresholds 0.25x / 1.25x BDP, ns-2 default weight and max_p.
    PaperRed,
    /// RED with explicit parameters.
    Red(RedConfig),
    /// FIFO with a hard limit in packets.
    DropTail(usize),
}

/// Parameters of a dumbbell topology.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DumbbellConfig {
    /// Bottleneck rate in bits per second.
    pub bottleneck_bps: f64,
    /// One-way bottleneck propagation delay.
    pub bottleneck_delay: SimDuration,
    /// Access link rate in bits per second (both sides).
    pub access_bps: f64,
    /// One-way access link propagation delay.
    pub access_delay: SimDuration,
    /// Packet size used to size RED thresholds (bytes).
    pub pkt_size: u32,
    /// Bottleneck buffer discipline.
    pub queue: QueueKind,
}

impl DumbbellConfig {
    /// The paper's standard scenario: ~50 ms RTT (1 ms access + 23 ms
    /// bottleneck each way), fast access links, 1000-byte packets, RED
    /// sized per Section 3.
    pub fn paper(bottleneck_bps: f64) -> Self {
        DumbbellConfig {
            bottleneck_bps,
            bottleneck_delay: PAPER_BOTTLENECK_DELAY,
            access_bps: PAPER_ACCESS_BPS,
            access_delay: PAPER_ACCESS_DELAY,
            pkt_size: PAPER_PKT_SIZE,
            queue: QueueKind::PaperRed,
        }
    }

    /// Round-trip propagation delay of the configured path (no queueing).
    pub fn base_rtt(&self) -> SimDuration {
        (self.access_delay + self.bottleneck_delay + self.access_delay) * 2
    }

    /// Bandwidth-delay product of the bottleneck in packets.
    pub fn bdp_packets(&self) -> f64 {
        self.bottleneck_bps * self.base_rtt().as_secs_f64() / (8.0 * self.pkt_size as f64)
    }

    fn make_bottleneck_queue(&self) -> Box<dyn QueueDiscipline> {
        match self.queue {
            QueueKind::PaperRed => {
                let mean_pkt = transmission_time(self.pkt_size, self.bottleneck_bps);
                Box::new(Red::new(RedConfig::paper_defaults(
                    self.bdp_packets(),
                    mean_pkt,
                )))
            }
            QueueKind::Red(cfg) => Box::new(Red::new(cfg)),
            QueueKind::DropTail(cap) => Box::new(DropTail::new(cap)),
        }
    }
}

/// Optional attachments for a bottleneck link pair: scripted loss, ECN
/// marking and fault-injection plans, in either direction.
/// [`ParkingLot::build_with`] applies them to the first hop, which on a
/// dumbbell is the shared link pair.
#[derive(Default)]
pub struct DumbbellOptions {
    forward_loss: Option<Box<dyn LossPattern>>,
    forward_marker: Option<Box<dyn MarkPattern>>,
    reverse_loss: Option<Box<dyn LossPattern>>,
    forward_faults: Option<FaultPlan>,
    reverse_faults: Option<FaultPlan>,
}

impl DumbbellOptions {
    /// No attachments: plain congested links.
    pub fn new() -> Self {
        Self::default()
    }

    /// Scripted loss on the forward (congested-direction) link — the
    /// smoothness experiments' knob.
    pub fn forward_loss(mut self, loss: Box<dyn LossPattern>) -> Self {
        self.forward_loss = Some(loss);
        self
    }

    /// ECN marking pattern on the forward link — the marking-model
    /// validations' knob.
    pub fn forward_marker(mut self, marker: Box<dyn MarkPattern>) -> Self {
        self.forward_marker = Some(marker);
        self
    }

    /// Scripted loss on the *reverse* link: the congested-ACK-path
    /// scenario, where data flows unmolested while acknowledgments and
    /// feedback reports are thinned on the way back.
    pub fn reverse_loss(mut self, loss: Box<dyn LossPattern>) -> Self {
        self.reverse_loss = Some(loss);
        self
    }

    /// Deterministic fault plan (see [`crate::faults`]) on the forward
    /// link — the chaos-sweep topology.
    pub fn forward_faults(mut self, plan: FaultPlan) -> Self {
        self.forward_faults = Some(plan);
        self
    }

    /// Deterministic fault plan on the reverse link.
    pub fn reverse_faults(mut self, plan: FaultPlan) -> Self {
        self.reverse_faults = Some(plan);
        self
    }

    /// Apply the forward-direction attachments to a built link.
    fn decorate_forward(&mut self, mut link: Link) -> Link {
        if let Some(loss) = self.forward_loss.take() {
            link = link.with_loss(loss);
        }
        if let Some(marker) = self.forward_marker.take() {
            link = link.with_marker(marker);
        }
        if let Some(plan) = self.forward_faults.take() {
            link = link.with_faults(plan);
        }
        link
    }

    /// Apply the reverse-direction attachments to a built link.
    fn decorate_reverse(&mut self, mut link: Link) -> Link {
        if let Some(loss) = self.reverse_loss.take() {
            link = link.with_loss(loss);
        }
        if let Some(plan) = self.reverse_faults.take() {
            link = link.with_faults(plan);
        }
        link
    }
}

/// A pair of end hosts, one on each side of the bottleneck.
#[derive(Debug, Clone, Copy)]
pub struct HostPair {
    /// Host on the senders' side.
    pub left: NodeId,
    /// Host on the receivers' side.
    pub right: NodeId,
}

/// A built dumbbell: a one-hop [`ParkingLot`], with its shared link pair
/// named.
#[derive(Debug)]
pub struct Dumbbell {
    /// Bottleneck link left -> right (the congested direction in all the
    /// paper's scenarios).
    pub forward: LinkId,
    /// Bottleneck link right -> left (carries ACKs and reverse traffic).
    pub reverse: LinkId,
    lot: ParkingLot,
}

impl Dumbbell {
    /// Build the routers and bottleneck links inside `sim`.
    pub fn build(sim: &mut Simulator, cfg: DumbbellConfig) -> Self {
        Self::build_with(sim, cfg, DumbbellOptions::new())
    }

    /// Build with optional scripted loss, ECN marking and fault plans
    /// attached to the bottleneck links — see [`DumbbellOptions`].
    pub fn build_with(sim: &mut Simulator, cfg: DumbbellConfig, opts: DumbbellOptions) -> Self {
        let lot = ParkingLot::build_with(sim, cfg, 1, opts);
        Dumbbell {
            forward: lot.forward[0],
            reverse: lot.reverse[0],
            lot,
        }
    }

    /// The one-hop parking lot this dumbbell is.
    pub fn lot(&self) -> &ParkingLot {
        &self.lot
    }

    /// Topology parameters this dumbbell was built with.
    pub fn config(&self) -> &DumbbellConfig {
        self.lot.config()
    }

    /// Bandwidth-delay product of the bottleneck in packets.
    pub fn bdp_packets(&self) -> f64 {
        self.config().bdp_packets()
    }

    /// Round-trip propagation delay between a host pair.
    pub fn base_rtt(&self) -> SimDuration {
        self.config().base_rtt()
    }

    /// Add a host on each side, wired to its router with access links.
    pub fn add_host_pair(&self, sim: &mut Simulator) -> HostPair {
        self.lot.add_host_pair(sim, 0, 1)
    }

    /// Add a host pair whose access links have a custom one-way delay,
    /// for heterogeneous-RTT scenarios (the flow's RTT becomes
    /// `2*(2*access_delay + bottleneck_delay)`).
    pub fn add_host_pair_with_delay(
        &self,
        sim: &mut Simulator,
        access_delay: SimDuration,
    ) -> HostPair {
        self.lot.add_host_pair_with_delay(sim, 0, 1, access_delay)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{AgentId, FlowId};
    use crate::packet::{Packet, PacketSpec};
    use crate::sim::{Agent, Ctx};
    use crate::time::SimTime;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn paper_config_has_50ms_rtt() {
        let cfg = DumbbellConfig::paper(10e6);
        assert_eq!(cfg.base_rtt(), SimDuration::from_millis(50));
        // 10 Mb/s * 50 ms / (8 * 1000 B) = 62.5 packets.
        assert!((cfg.bdp_packets() - 62.5).abs() < 1e-9);
    }

    struct Sender {
        flow: FlowId,
        dst_node: NodeId,
        dst_agent: AgentId,
    }
    impl Agent for Sender {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.send(PacketSpec::data(
                self.flow,
                0,
                1000,
                self.dst_node,
                self.dst_agent,
            ));
        }
        fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx<'_>) {}
    }
    struct Echo {
        got: Arc<AtomicU64>,
    }
    impl Agent for Echo {
        fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
            self.got.fetch_add(1, Ordering::Relaxed);
            // Bounce a data packet back so the reverse path is exercised.
            ctx.send(PacketSpec::data(
                pkt.flow,
                pkt.seq,
                pkt.size,
                pkt.src_node,
                pkt.src_agent,
            ));
        }
    }

    #[test]
    fn packets_cross_the_dumbbell_both_ways() {
        let mut sim = Simulator::new(3);
        let db = Dumbbell::build(&mut sim, DumbbellConfig::paper(10e6));
        let pair = db.add_host_pair(&mut sim);
        let got = Arc::new(AtomicU64::new(0));
        let echo = sim.add_agent(pair.right, Box::new(Echo { got: got.clone() }));
        let flow = sim.new_flow();
        let back = Arc::new(AtomicU64::new(0));
        struct Counter {
            flow: FlowId,
            dst_node: NodeId,
            dst_agent: AgentId,
            back: Arc<AtomicU64>,
        }
        impl Agent for Counter {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.send(PacketSpec::data(
                    self.flow,
                    0,
                    1000,
                    self.dst_node,
                    self.dst_agent,
                ));
            }
            fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx<'_>) {
                self.back.fetch_add(1, Ordering::Relaxed);
            }
        }
        sim.add_agent(
            pair.left,
            Box::new(Counter {
                flow,
                dst_node: pair.right,
                dst_agent: echo,
                back: back.clone(),
            }),
        );
        sim.run_until(SimTime::from_millis(200));
        assert_eq!(got.load(Ordering::Relaxed), 1);
        assert_eq!(back.load(Ordering::Relaxed), 1);
        let _ = Sender {
            flow,
            dst_node: pair.right,
            dst_agent: echo,
        };
    }

    #[test]
    fn multiple_host_pairs_share_the_bottleneck() {
        let mut sim = Simulator::new(3);
        let db = Dumbbell::build(&mut sim, DumbbellConfig::paper(10e6));
        let p1 = db.add_host_pair(&mut sim);
        let p2 = db.add_host_pair(&mut sim);
        assert_ne!(p1.left, p2.left);
        assert_ne!(p1.right, p2.right);

        let got = Arc::new(AtomicU64::new(0));
        let e1 = sim.add_agent(p1.right, Box::new(Echo { got: got.clone() }));
        let e2 = sim.add_agent(p2.right, Box::new(Echo { got: got.clone() }));
        let f1 = sim.new_flow();
        let f2 = sim.new_flow();
        sim.add_agent(
            p1.left,
            Box::new(Sender {
                flow: f1,
                dst_node: p1.right,
                dst_agent: e1,
            }),
        );
        sim.add_agent(
            p2.left,
            Box::new(Sender {
                flow: f2,
                dst_node: p2.right,
                dst_agent: e2,
            }),
        );
        sim.run_until(SimTime::from_millis(200));
        assert_eq!(got.load(Ordering::Relaxed), 2);
        // Both flows crossed the same forward bottleneck.
        assert!(sim.stats().link(db.forward).unwrap().total_arrivals >= 2);
    }
}

/// A "parking lot": a chain of routers with a congested link between each
/// consecutive pair. Long flows traverse many congested hops; cross
/// traffic loads individual hops — the classic topology for studying
/// multi-hop (in)equity, which the paper's introduction explicitly
/// excludes from TCP's equitability guarantee.
///
/// ```text
///          hop 0        hop 1        hop 2
///   R0 ═══════════ R1 ═══════════ R2 ═══════════ R3
///   │              │              │              │
///  hosts          hosts          hosts          hosts
/// ```
#[derive(Debug)]
pub struct ParkingLot {
    routers: Vec<NodeId>,
    /// Congested links in the forward direction; `forward[i]` connects
    /// router `i` to router `i + 1`.
    pub forward: Vec<LinkId>,
    /// The mirror links; `reverse[i]` connects router `i + 1` to
    /// router `i`.
    pub reverse: Vec<LinkId>,
    cfg: DumbbellConfig,
}

impl ParkingLot {
    /// Build a chain with `hops` congested links (so `hops + 1` routers),
    /// each hop configured like the dumbbell bottleneck in `cfg`.
    pub fn build(sim: &mut Simulator, cfg: DumbbellConfig, hops: usize) -> Self {
        Self::build_with(sim, cfg, hops, DumbbellOptions::new())
    }

    /// Build with optional scripted loss, ECN marking and fault plans —
    /// the same [`DumbbellOptions`] the dumbbell takes — attached to the
    /// *first* hop's link pair (forward options on `forward[0]`, reverse
    /// options on `reverse[0]`); the remaining hops stay plain.
    pub fn build_with(
        sim: &mut Simulator,
        cfg: DumbbellConfig,
        hops: usize,
        mut opts: DumbbellOptions,
    ) -> Self {
        assert!(hops >= 1, "a parking lot needs at least one hop");
        let routers: Vec<NodeId> = (0..=hops).map(|_| sim.add_node()).collect();
        let mut forward = Vec::with_capacity(hops);
        let mut reverse = Vec::with_capacity(hops);
        for i in 0..hops {
            let mut fwd_link = Link::new(
                routers[i + 1],
                cfg.bottleneck_bps,
                cfg.bottleneck_delay,
                cfg.make_bottleneck_queue(),
            );
            let mut rev_link = Link::new(
                routers[i],
                cfg.bottleneck_bps,
                cfg.bottleneck_delay,
                cfg.make_bottleneck_queue(),
            );
            if i == 0 {
                fwd_link = opts.decorate_forward(fwd_link);
                rev_link = opts.decorate_reverse(rev_link);
            }
            let f = sim.add_link(routers[i], fwd_link);
            let r = sim.add_link(routers[i + 1], rev_link);
            forward.push(f);
            reverse.push(r);
        }
        ParkingLot {
            routers,
            forward,
            reverse,
            cfg,
        }
    }

    /// Number of congested hops.
    pub fn hops(&self) -> usize {
        self.forward.len()
    }

    /// The router at position `ix` in the chain.
    pub fn router(&self, ix: usize) -> NodeId {
        self.routers[ix]
    }

    /// Topology parameters.
    pub fn config(&self) -> &DumbbellConfig {
        &self.cfg
    }

    /// Add a host pair whose traffic enters the chain at router `from`
    /// and leaves at router `to` (`from < to`), traversing hops
    /// `from..to`, over access links of the configured delay.
    pub fn add_host_pair(&self, sim: &mut Simulator, from: usize, to: usize) -> HostPair {
        self.add_host_pair_with_delay(sim, from, to, self.cfg.access_delay)
    }

    /// Add a host pair spanning hops `from..to` whose four access links
    /// have one-way delay `access_delay`: two nodes, then the links
    /// left-up, left-down, right-up, right-down, in that order. Hosts
    /// default-route to their router; per-destination routes are
    /// installed along the chain in both directions. Access buffers are
    /// sized generously (4x the bottleneck BDP) so the congested hops are
    /// the only loss points unless a loss script says otherwise.
    pub fn add_host_pair_with_delay(
        &self,
        sim: &mut Simulator,
        from: usize,
        to: usize,
        access_delay: SimDuration,
    ) -> HostPair {
        assert!(
            from < to && to < self.routers.len(),
            "need from < to <= hops (got {from}..{to} with {} hops)",
            self.hops()
        );
        let access_buf = (4.0 * self.cfg.bdp_packets()).ceil().max(64.0) as usize;
        let left = sim.add_node();
        let right = sim.add_node();
        let mk_access = |dst: NodeId| {
            Link::new(
                dst,
                self.cfg.access_bps,
                access_delay,
                Box::new(DropTail::new(access_buf)),
            )
        };
        let l_up = sim.add_link(left, mk_access(self.routers[from]));
        let l_down = sim.add_link(self.routers[from], mk_access(left));
        let r_up = sim.add_link(right, mk_access(self.routers[to]));
        let r_down = sim.add_link(self.routers[to], mk_access(right));
        sim.set_default_route(left, l_up);
        sim.set_default_route(right, r_up);
        // Forward path: routers from..to-1 forward toward the right host;
        // router `to` hands it down the access link.
        for i in from..to {
            sim.add_route(self.routers[i], right, self.forward[i]);
        }
        sim.add_route(self.routers[to], right, r_down);
        // Reverse path symmetrically.
        for i in from..to {
            sim.add_route(self.routers[i + 1], left, self.reverse[i]);
        }
        sim.add_route(self.routers[from], left, l_down);
        HostPair { left, right }
    }
}

// ---------------------------------------------------------------------
// Spec-driven construction
// ---------------------------------------------------------------------

/// Which topology family a [`TopologySpec`] describes. Both build a
/// [`ParkingLot`]; the kind also sets the scenario DSL's defaults and
/// its dumbbell-only rules.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TopologyKind {
    /// Single shared bottleneck ([`Dumbbell`]).
    Dumbbell,
    /// Chain of `hops` congested links ([`ParkingLot`]).
    ParkingLot {
        /// Number of congested hops (>= 1).
        hops: usize,
    },
}

/// A declarative topology description, for both the Rust builders and
/// the scenario DSL. Building a spec is exactly the
/// [`ParkingLot::build_with`] call hand-written experiments make (a
/// dumbbell is the one-hop lot), so a spec-built simulation is
/// event-for-event identical to its hard-coded twin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopologySpec {
    /// Topology family (and hop count, for parking lots).
    pub kind: TopologyKind,
    /// Link/queue parameters, shared by every congested hop.
    pub config: DumbbellConfig,
}

impl TopologySpec {
    /// A dumbbell with the given link/queue parameters.
    pub fn dumbbell(config: DumbbellConfig) -> Self {
        TopologySpec {
            kind: TopologyKind::Dumbbell,
            config,
        }
    }

    /// A parking lot with `hops` congested links.
    pub fn parking_lot(config: DumbbellConfig, hops: usize) -> Self {
        TopologySpec {
            kind: TopologyKind::ParkingLot { hops },
            config,
        }
    }

    /// Number of congested hops (1 for a dumbbell).
    pub fn hops(&self) -> usize {
        match self.kind {
            TopologyKind::Dumbbell => 1,
            TopologyKind::ParkingLot { hops } => hops,
        }
    }

    /// Build the routers and congested links inside `sim`.
    pub fn build(&self, sim: &mut Simulator) -> ParkingLot {
        self.build_with(sim, DumbbellOptions::new())
    }

    /// Build with [`DumbbellOptions`] attachments (scripted loss, ECN
    /// marking, fault plans) on the first hop.
    pub fn build_with(&self, sim: &mut Simulator, opts: DumbbellOptions) -> ParkingLot {
        ParkingLot::build_with(sim, self.config, self.hops(), opts)
    }
}

#[cfg(test)]
mod spec_tests {
    use super::*;

    #[test]
    fn paper_constants_match_the_paper_config() {
        let cfg = DumbbellConfig::paper(10e6);
        assert_eq!(cfg.pkt_size, PAPER_PKT_SIZE);
        assert_eq!(cfg.base_rtt(), PAPER_RTT);
    }

    #[test]
    fn spec_build_matches_the_hand_written_builders() {
        // Same seed, same construction order: identical ids and stats.
        let mut a = Simulator::new(9);
        let db = Dumbbell::build(&mut a, DumbbellConfig::paper(10e6));
        let pa = db.add_host_pair(&mut a);

        let mut b = Simulator::new(9);
        let spec = TopologySpec::dumbbell(DumbbellConfig::paper(10e6));
        let built = spec.build(&mut b);
        let pb = built.add_host_pair(&mut b, 0, spec.hops());
        assert_eq!(pa.left, pb.left);
        assert_eq!(pa.right, pb.right);
        assert_eq!(built.forward, [db.forward]);
        assert_eq!(built.reverse, [db.reverse]);
        assert_eq!(built.hops(), 1);

        let mut c = Simulator::new(9);
        let lot = ParkingLot::build(&mut c, DumbbellConfig::paper(10e6), 3);
        let pc = lot.add_host_pair(&mut c, 0, 3);

        let mut d = Simulator::new(9);
        let spec = TopologySpec::parking_lot(DumbbellConfig::paper(10e6), 3);
        let built = spec.build(&mut d);
        let pd = built.add_host_pair(&mut d, 0, spec.hops());
        assert_eq!(pc.left, pd.left);
        assert_eq!(pc.right, pd.right);
        assert_eq!(built.forward, lot.forward);
        assert_eq!(built.hops(), 3);
    }
}

#[cfg(test)]
mod parking_lot_tests {
    use super::*;
    use crate::ids::{AgentId, FlowId};
    use crate::packet::{Packet, PacketSpec};
    use crate::sim::{Agent, Ctx};
    use crate::time::SimTime;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    struct Probe {
        flow: FlowId,
        dst_node: NodeId,
        dst_agent: AgentId,
        echoed: Arc<AtomicU64>,
    }
    impl Agent for Probe {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.send(PacketSpec::data(
                self.flow,
                0,
                1000,
                self.dst_node,
                self.dst_agent,
            ));
        }
        fn on_packet(&mut self, _p: Packet, _c: &mut Ctx<'_>) {
            self.echoed.fetch_add(1, Ordering::Relaxed);
        }
    }
    struct Echo;
    impl Agent for Echo {
        fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
            ctx.send(PacketSpec::data(
                pkt.flow,
                pkt.seq,
                100,
                pkt.src_node,
                pkt.src_agent,
            ));
        }
    }

    #[test]
    fn long_and_cross_paths_route_end_to_end() {
        let mut sim = Simulator::new(0);
        let lot = ParkingLot::build(&mut sim, DumbbellConfig::paper(10e6), 3);
        // A long pair over all three hops and a cross pair on hop 1.
        let long = lot.add_host_pair(&mut sim, 0, 3);
        let cross = lot.add_host_pair(&mut sim, 1, 2);

        let echoed = Arc::new(AtomicU64::new(0));
        for pair in [long, cross] {
            let e = sim.add_agent(pair.right, Box::new(Echo));
            let flow = sim.new_flow();
            sim.add_agent(
                pair.left,
                Box::new(Probe {
                    flow,
                    dst_node: pair.right,
                    dst_agent: e,
                    echoed: echoed.clone(),
                }),
            );
        }
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(
            echoed.load(Ordering::Relaxed),
            2,
            "both round trips completed"
        );
        // The long flow's packet crossed every hop; the cross flow's only
        // hop 1.
        assert_eq!(sim.stats().link(lot.forward[0]).unwrap().total_arrivals, 1);
        assert_eq!(sim.stats().link(lot.forward[1]).unwrap().total_arrivals, 2);
        assert_eq!(sim.stats().link(lot.forward[2]).unwrap().total_arrivals, 1);
    }

    /// What one builder hands the layout test: routers, the shared link
    /// pair and the first host pair.
    type OneHop = ([NodeId; 2], LinkId, LinkId, HostPair);

    /// The one-hop layout every committed artifact depends on, since
    /// RED's per-link RNG stream is keyed on the link id: routers are
    /// nodes 0-1, forward and reverse are links 0-1, the first host pair
    /// is nodes 2-3 with access links 2-5 ordered left-up, left-down,
    /// right-up, right-down. The link order is observed as the order in
    /// which one data packet and its echo first arrive at each link.
    #[test]
    fn one_hop_layout_is_the_same_from_every_builder() {
        let builders: [fn(&mut Simulator, DumbbellConfig) -> OneHop; 3] = [
            |sim, cfg| {
                let db = Dumbbell::build(sim, cfg);
                let routers = [db.lot().router(0), db.lot().router(1)];
                (routers, db.forward, db.reverse, db.add_host_pair(sim))
            },
            |sim, cfg| {
                let lot = ParkingLot::build(sim, cfg, 1);
                let routers = [lot.router(0), lot.router(1)];
                (
                    routers,
                    lot.forward[0],
                    lot.reverse[0],
                    lot.add_host_pair(sim, 0, 1),
                )
            },
            |sim, cfg| {
                let lot = TopologySpec::dumbbell(cfg).build(sim);
                let routers = [lot.router(0), lot.router(1)];
                (
                    routers,
                    lot.forward[0],
                    lot.reverse[0],
                    lot.add_host_pair(sim, 0, 1),
                )
            },
        ];
        for build in builders {
            let mut sim = Simulator::new(0);
            let (routers, forward, reverse, pair) = build(&mut sim, DumbbellConfig::paper(10e6));
            assert_eq!(routers.map(NodeId::index), [0, 1]);
            assert_eq!([forward.index(), reverse.index()], [0, 1]);
            assert_eq!([pair.left.index(), pair.right.index()], [2, 3]);

            let echoed = Arc::new(AtomicU64::new(0));
            let e = sim.add_agent(pair.right, Box::new(Echo));
            let flow = sim.new_flow();
            sim.add_agent(
                pair.left,
                Box::new(Probe {
                    flow,
                    dst_node: pair.right,
                    dst_agent: e,
                    echoed: echoed.clone(),
                }),
            );
            // Every hop takes at least 1 ms, so 100 us slices see one new
            // link at a time.
            let arrivals = |sim: &Simulator, ix: usize| {
                sim.stats()
                    .link(LinkId::from_index(ix))
                    .unwrap()
                    .total_arrivals
            };
            let mut order = Vec::new();
            let mut t = SimTime::ZERO;
            while t < SimTime::from_millis(200) {
                t += SimDuration::from_micros(100);
                sim.run_until(t);
                for ix in 0..6 {
                    if arrivals(&sim, ix) > 0 && !order.contains(&ix) {
                        order.push(ix);
                    }
                }
            }
            assert_eq!(echoed.load(Ordering::Relaxed), 1);
            // Data: left-up, forward, right-down; echo: right-up, reverse,
            // left-down.
            assert_eq!(order, [2, 0, 5, 4, 1, 3]);
            assert!((0..6).all(|ix| arrivals(&sim, ix) == 1));
            assert!(sim.stats().link(LinkId::from_index(6)).is_none());
        }
    }

    #[test]
    #[should_panic(expected = "from < to")]
    fn invalid_span_is_rejected() {
        let mut sim = Simulator::new(0);
        let lot = ParkingLot::build(&mut sim, DumbbellConfig::paper(10e6), 2);
        lot.add_host_pair(&mut sim, 2, 1);
    }
}
