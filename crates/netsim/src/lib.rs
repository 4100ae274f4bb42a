//! # slowcc-netsim
//!
//! A deterministic, packet-level, discrete-event network simulator — the
//! substrate for the SIGCOMM 2001 *"Dynamic Behavior of Slowly-Responsive
//! Congestion Control Algorithms"* reproduction. It plays the role ns-2
//! played for the paper:
//!
//! * nodes with static routing, unidirectional links with serialization
//!   and propagation delay ([`topology`] builds the paper's dumbbell),
//! * DropTail and RED buffers ([`queue`]),
//! * scripted per-packet loss patterns ([`link::LossPattern`]) for the
//!   smoothness experiments,
//! * an agent model ([`sim::Agent`]) under which the congestion control
//!   protocols in `slowcc-core` and the traffic sources in
//!   `slowcc-traffic` are implemented,
//! * automatic per-flow and per-link statistics ([`stats`]).
//!
//! Runs are bit-for-bit reproducible for a given seed.
//!
//! ## Example
//!
//! ```
//! use slowcc_netsim::prelude::*;
//!
//! // Two hosts across the paper's 10 Mb/s RED dumbbell.
//! let mut sim = Simulator::new(42);
//! let db = Dumbbell::build(&mut sim, DumbbellConfig::paper(10e6));
//! let pair = db.add_host_pair(&mut sim);
//!
//! // A sink that just counts, and a source that sends one packet.
//! struct Sink;
//! impl Agent for Sink {
//!     fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx<'_>) {}
//! }
//! struct OneShot { flow: FlowId, dst_node: NodeId, dst_agent: AgentId }
//! impl Agent for OneShot {
//!     fn on_start(&mut self, ctx: &mut Ctx<'_>) {
//!         ctx.send(PacketSpec::data(self.flow, 0, 1000, self.dst_node, self.dst_agent));
//!     }
//!     fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx<'_>) {}
//! }
//!
//! let sink = sim.add_agent(pair.right, Box::new(Sink));
//! let flow = sim.new_flow();
//! sim.add_agent(pair.left, Box::new(OneShot { flow, dst_node: pair.right, dst_agent: sink }));
//! sim.run_until(SimTime::from_millis(100));
//! assert_eq!(sim.stats().flow(flow).unwrap().total_rx_packets, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod budget;
pub mod event;
pub mod faults;
pub mod ids;
pub mod link;
pub mod node;
pub mod packet;
pub mod pool;
pub mod queue;
pub mod sim;
pub mod stats;
pub mod time;
pub mod topology;
pub mod trace;

/// The handful of names almost every user needs.
pub mod prelude {
    pub use crate::audit::{AuditMode, AuditReport};
    pub use crate::budget::{Budget, SimAbort};
    pub use crate::faults::{FaultPlan, FlapWindow};
    pub use crate::ids::{AgentId, FlowId, LinkId, NodeId};
    pub use crate::link::{BernoulliLoss, Link, LossPattern, MarkPattern};
    pub use crate::packet::{AckInfo, DataInfo, Ecn, Packet, PacketSpec, Payload};
    pub use crate::pool::{PacketId, PacketPool};
    pub use crate::queue::{DropTail, EnqueueResult, QueueDiscipline, Red, RedConfig};
    pub use crate::sim::{Agent, Ctx, Simulator, Timer};
    pub use crate::stats::Stats;
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::topology::{Dumbbell, DumbbellConfig, DumbbellOptions, HostPair, ParkingLot, QueueKind};
    pub use crate::trace::{TraceEvent, TraceKind, TraceSink, VecTrace};
}
