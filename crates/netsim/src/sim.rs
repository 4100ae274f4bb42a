//! The simulator: arenas for nodes, links and agents, the event loop, and
//! the [`Ctx`] handle through which agents interact with the network.
//!
//! # Model
//!
//! * **Agents** are protocol endpoints or traffic sources attached to a
//!   node. They are inert state machines driven by three callbacks:
//!   [`Agent::on_start`], [`Agent::on_packet`] and [`Agent::on_timer`].
//!   They never block and they never run concurrently; all interaction
//!   with the world goes through the [`Ctx`] passed to each callback.
//! * **Packets** sent via [`Ctx::send`] are routed hop by hop: each hop
//!   offers the packet to the outgoing link, which either drops it
//!   (scripted loss, early drop, buffer overflow) or serializes it at the
//!   link rate and delivers it after the propagation delay.
//! * **Timers** come in two kinds. [`Ctx::set_timer`] is fire-and-forget:
//!   it schedules a token that is handed back to the agent, and suits a
//!   timer only ever re-armed from its own firing (a send tick). A timer
//!   re-armed before it fires (a retransmission timeout, a feedback
//!   timer) is a [`Timer`]: [`Ctx::arm`] moves its deadline and
//!   [`Ctx::fired`] tells the agent whether a token it received is that
//!   deadline, so a superseded deadline never reaches the agent.
//!
//! # Determinism
//!
//! Runs are bit-for-bit reproducible for a given seed: the event queue
//! breaks timestamp ties by scheduling order, all arenas are index-based,
//! and all randomness comes from *per-entity* RNG streams — one per link
//! (consumed by its queue discipline) and one per agent (exposed via
//! [`Ctx::rng`]) — each derived from `(simulation seed, entity index)`
//! with a splitmix64 finalizer, so an entity's draw sequence depends
//! only on the events *it* observes.

use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::audit::{self, AuditMode, AuditReport, Auditor};
use crate::budget::{self, BudgetState};
use crate::event::{EventKind, EventQueue};
use crate::ids::{AgentId, FlowId, LinkId, NodeId};
use crate::link::Link;
use crate::node::Node;
use crate::packet::{Packet, PacketSpec, Payload};
use crate::pool::{PacketId, PacketPool};
use crate::queue::EnqueueResult;
use crate::stats::Stats;
use crate::time::{SimDuration, SimTime};
use crate::trace::{DropReason, TraceEvent, TraceKind, TraceSink};

/// A protocol endpoint or traffic source.
///
/// Implementations live in `slowcc-core` (congestion control agents) and
/// `slowcc-traffic` (CBR sources, flash crowds); tests implement ad-hoc
/// agents freely.
pub trait Agent: Send {
    /// Called once at the agent's scheduled start time.
    fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}

    /// Called when a packet addressed to this agent is delivered.
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>);

    /// Called when a timer set via [`Ctx::set_timer`] or [`Ctx::arm`]
    /// fires; a [`Timer`]'s tokens go through [`Ctx::fired`].
    fn on_timer(&mut self, _token: u64, _ctx: &mut Ctx<'_>) {}

    /// Optional downcast hook so tests and experiment harnesses can
    /// inspect agent state after a run (`Some(self)` in implementations
    /// that opt in).
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }

    /// Whether this agent considers its work finished at `now` (flow
    /// completed, or past its scripted stop time). Only consulted by the
    /// audit layer: a done agent that re-arms a timer from its own timer
    /// callback is flagged as a timer leak, because it will tick forever.
    /// The default `false` opts out — agents without a notion of "done"
    /// are never flagged.
    fn audit_done(&self, _now: SimTime) -> bool {
        false
    }
}

struct AgentSlot {
    node: NodeId,
    /// Taken out while the agent runs so `Ctx` can borrow the world.
    agent: Option<Box<dyn Agent>>,
    /// The agent's private RNG stream (see [`Ctx::rng`]), seeded from
    /// `(simulation seed, agent index)`.
    rng: SmallRng,
}

/// Domain-separation tag for per-link RNG streams.
const LINK_RNG_TAG: u64 = 1;
/// Domain-separation tag for per-agent RNG streams.
const AGENT_RNG_TAG: u64 = 2;

/// Derive an entity seed from the simulation seed, a domain tag and the
/// entity's arena index (splitmix64 finalizer — cheap, well-mixed, and
/// stable across platforms).
fn mix_seed(seed: u64, tag: u64, index: usize) -> u64 {
    let mut z = seed
        ^ tag
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(index as u64);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Everything except the agents; borrowed mutably by [`Ctx`] while an
/// agent runs.
struct World {
    now: SimTime,
    queue: EventQueue,
    nodes: Vec<Node>,
    links: Vec<Link>,
    /// All live packets; events and link buffers reference slots by
    /// [`PacketId`], so the hot path moves 4-byte ids, not packet bytes.
    pool: PacketPool,
    stats: Stats,
    next_uid: u64,
    trace: Option<Box<dyn TraceSink>>,
    /// Invariant auditor (see [`crate::audit`]): every run keeps the
    /// books.
    audit: Auditor,
    /// Cooperative execution budget, checked between events (see
    /// [`crate::budget`]). Unarmed by default: one branch per event.
    budget: BudgetState,
}

/// Record a trace event if a sink is installed. Free function (rather
/// than a `World` method) so hot paths that hold individual field
/// borrows of the world can still emit traces.
#[inline]
fn trace_event(
    trace: &mut Option<Box<dyn TraceSink>>,
    now: SimTime,
    kind: TraceKind,
    pkt: &Packet,
) {
    if let Some(sink) = trace.as_mut() {
        sink.record(&TraceEvent::new(now, kind, pkt));
    }
}

impl World {
    #[inline]
    fn trace(&mut self, kind: TraceKind, pkt: &Packet) {
        trace_event(&mut self.trace, self.now, kind, pkt);
    }
}

impl World {
    /// Offer `pkt` to `link`: run the fault pre-stage (duplication and
    /// hold-for-reorder, see [`crate::faults`]), then admit the packet to
    /// the link proper.
    ///
    /// Duplicates and held packets re-enter through the event queue
    /// ([`EventKind::FaultRelease`]) and are then *admitted* directly —
    /// the pre-stage runs once per hop offer, so a duplicate is never
    /// re-duplicated and a held packet never re-held.
    fn offer_to_link(&mut self, link_id: LinkId, pkt: PacketId) {
        let now = self.now;
        if self.links[link_id.index()].faults.is_some() {
            let World {
                links,
                pool,
                stats,
                queue,
                trace,
                audit,
                next_uid,
                ..
            } = self;
            let link = &mut links[link_id.index()];
            let faults = link.faults.as_mut().expect("checked above");
            if faults.should_duplicate() {
                // The clone is a brand-new packet as far as the books are
                // concerned: fresh uid, injected into the ledger, its own
                // pool slot. It joins the link behind the original via
                // the event queue's tie-break.
                let mut dup = *pool.get(pkt);
                dup.uid = *next_uid;
                *next_uid += 1;
                stats.record_link_duplicate(link_id);
                audit.on_inject(dup.uid);
                trace_event(trace, now, TraceKind::FaultDup { link: link_id }, &dup);
                let dup_id = pool.insert(dup);
                queue.schedule(
                    now,
                    EventKind::FaultRelease {
                        link: link_id,
                        packet: dup_id,
                        held: false,
                    },
                );
            }
            if let Some(hold) = faults.should_hold() {
                // Not an arrival yet: the link first sees the packet at
                // release time, so the conservation books stay balanced.
                stats.record_link_fault_held(link_id);
                trace_event(trace, now, TraceKind::FaultHold { link: link_id }, pool.get(pkt));
                queue.schedule(
                    now + hold,
                    EventKind::FaultRelease {
                        link: link_id,
                        packet: pkt,
                        held: true,
                    },
                );
                return;
            }
        }
        self.admit_to_link(link_id, pkt);
    }

    /// Admit `pkt` to `link`: run the loss script, then the queue
    /// discipline, then start serialization if the transmitter is idle —
    /// or, if it is busy and nothing was waiting yet, arm the wake that
    /// will pull the packet when it frees up.
    ///
    /// This is the hottest function in the simulator (every hop of every
    /// packet lands here), so the link is indexed once and held as a
    /// single borrow alongside disjoint borrows of the other world
    /// fields, instead of re-indexing `self.links` per access.
    fn admit_to_link(&mut self, link_id: LinkId, pkt: PacketId) {
        let now = self.now;
        let World {
            links,
            pool,
            stats,
            trace,
            audit,
            ..
        } = self;
        let link = &mut links[link_id.index()];
        stats.record_link_arrival(link_id, now, link.queue_len());
        audit.on_link_arrival(link_id);

        // Scripted outage: a down link blackholes everything offered to
        // it, accounted as ordinary link drops.
        if link.faults.as_mut().is_some_and(|f| f.is_down(now)) {
            stats.record_link_flap_drop(link_id, now);
            audit.on_link_drop(link_id, pool.get(pkt).uid);
            trace_event(
                trace,
                now,
                TraceKind::Drop {
                    link: link_id,
                    reason: DropReason::LinkDown,
                },
                pool.get(pkt),
            );
            pool.discard(pkt);
            return;
        }

        // Scripted loss first.
        if let Some(loss) = link.loss.as_mut() {
            if loss.should_drop(pool.get(pkt), now) {
                stats.record_link_drop(link_id, now);
                audit.on_link_drop(link_id, pool.get(pkt).uid);
                trace_event(
                    trace,
                    now,
                    TraceKind::Drop {
                        link: link_id,
                        reason: DropReason::LossPattern,
                    },
                    pool.get(pkt),
                );
                pool.discard(pkt);
                return;
            }
        }
        // Scripted ECN marking next.
        if pool.get(pkt).ecn.is_capable() {
            let mut marked = false;
            if let Some(marker) = link.marker.as_mut() {
                marked = marker.should_mark(pool.get(pkt), now);
            }
            if marked {
                pool.get_mut(pkt).ecn = crate::packet::Ecn::Marked;
                stats.record_link_mark(link_id, now);
                trace_event(trace, now, TraceKind::Mark { link: link_id }, pool.get(pkt));
            }
        }
        trace_event(trace, now, TraceKind::Enqueue { link: link_id }, pool.get(pkt));

        // The buffer. The packet stays pooled whatever the discipline
        // decides, so the drop/mark outcomes trace straight from the pool
        // slot — no per-packet snapshot on either path.
        let result = link.queue.enqueue(pkt, pool, now, &mut link.rng);
        match result {
            EnqueueResult::Enqueued | EnqueueResult::Marked => {
                if result == EnqueueResult::Marked {
                    stats.record_link_mark(link_id, now);
                    trace_event(trace, now, TraceKind::Mark { link: link_id }, pool.get(pkt));
                }
                if !link.busy(now) {
                    // ns-2 style: the arriving packet traverses the
                    // (empty) discipline so RED's average sees it, then
                    // starts serializing immediately.
                    let next = link
                        .queue
                        .dequeue(now)
                        .expect("packet just enqueued must dequeue");
                    self.start_service(link_id, next);
                } else if !link.wake_pending {
                    self.arm_wake(link_id);
                }
            }
            EnqueueResult::Dropped => {
                stats.record_link_drop(link_id, now);
                audit.on_link_drop(link_id, pool.get(pkt).uid);
                trace_event(
                    trace,
                    now,
                    TraceKind::Drop {
                        link: link_id,
                        reason: DropReason::Queue,
                    },
                    pool.get(pkt),
                );
                pool.discard(pkt);
            }
        }
    }

    /// Commit `pkt` to `link`'s wire: the single place a packet leaves a
    /// link. Stamps the transmitter busy through the end of
    /// serialization, books the departure, and schedules the arrival at
    /// the far end — no event marks the serialization end itself.
    fn start_service(&mut self, link_id: LinkId, pkt: PacketId) {
        let now = self.now;
        let World {
            links,
            pool,
            queue,
            stats,
            trace,
            audit,
            ..
        } = self;
        let link = &mut links[link_id.index()];
        debug_assert!(now >= link.busy_until, "start_service on busy link");
        let size = pool.get(pkt).size;
        let tx_end = now + link.tx_time(size);
        link.busy_until = tx_end;
        // Booked in the bin where serialization *ends*, so the per-bin
        // `tx_bytes` series keeps meaning "bytes put on the wire by then".
        stats.record_link_tx(link_id, tx_end, size);
        audit.on_link_departure(link_id, size);
        trace_event(trace, now, TraceKind::Dequeue { link: link_id }, pool.get(pkt));
        // Fault-layer delay jitter stretches this packet's propagation.
        let jitter = link
            .faults
            .as_mut()
            .map_or(SimDuration::ZERO, |f| f.jitter());
        let arrive_at = tx_end + link.delay + jitter;
        let dst = link.dst;
        queue.schedule(
            arrive_at,
            EventKind::Arrive {
                node: dst,
                packet: pkt,
            },
        );
    }

    /// Schedule the wake that pulls the next waiting packet when
    /// `link`'s transmitter frees up.
    fn arm_wake(&mut self, link_id: LinkId) {
        let link = &mut self.links[link_id.index()];
        link.wake_pending = true;
        self.queue
            .schedule(link.busy_until, EventKind::LinkTxComplete { link: link_id });
    }

    /// The wake fired: the transmitter is free and a packet is waiting.
    fn on_tx_complete(&mut self, link_id: LinkId) {
        let now = self.now;
        let link = &mut self.links[link_id.index()];
        debug_assert!(link.wake_pending && now == link.busy_until, "stray wake");
        link.wake_pending = false;
        let next = link
            .queue
            .dequeue(now)
            .expect("a wake is only pending while a packet waits");
        self.start_service(link_id, next);
        if !self.links[link_id.index()].queue.is_empty() {
            self.arm_wake(link_id);
        }
    }

    /// Route `pkt` out of `node`, or panic on a routing hole (our
    /// topologies are static, so a missing route is a programming error
    /// worth failing loudly on).
    fn forward(&mut self, node: NodeId, pkt: PacketId) {
        let p = self.pool.get(pkt);
        let out = self.nodes[node.index()].route(p.dst_node).unwrap_or_else(|| {
            panic!(
                "no route from {node} to {} (flow {}, uid {})",
                p.dst_node, p.flow, p.uid
            )
        });
        self.offer_to_link(out, pkt);
    }
}

/// The discrete-event network simulator.
pub struct Simulator {
    world: World,
    agents: Vec<AgentSlot>,
    /// The simulation seed: root of every per-entity RNG stream.
    seed: u64,
    next_flow: u32,
}

/// Default width of the statistics bins (10 ms: fine enough for the
/// paper's 0.2 s smoothness windows and 50 ms RTT-granularity metrics).
pub const DEFAULT_STATS_BIN: SimDuration = SimDuration::from_millis(10);

impl Simulator {
    /// A fresh simulator with the given RNG seed, born with this
    /// thread's budget ([`budget::set_thread_budget`]) and its own
    /// invariant auditor.
    pub fn new(seed: u64) -> Self {
        let budget = budget::thread_budget();
        Simulator {
            world: World {
                now: SimTime::ZERO,
                queue: EventQueue::new(),
                nodes: Vec::new(),
                links: Vec::new(),
                pool: PacketPool::new(),
                stats: Stats::new(DEFAULT_STATS_BIN),
                next_uid: 0,
                trace: None,
                audit: Auditor::default(),
                budget: BudgetState::new(budget),
            },
            agents: Vec::new(),
            seed,
            next_flow: 0,
        }
    }

    /// The same simulator as [`Self::new`]: every simulator audits in the
    /// one [`AuditMode`]. Kept because the repo benchmark
    /// (`benchmark/src/simload.rs`) calls it.
    pub fn with_audit_mode(seed: u64, _mode: AuditMode) -> Self {
        Simulator::new(seed)
    }

    /// Run the teardown audit (pool/ledger uid-set reconciliation, link
    /// conservation laws, timer accounting) and return the report. The
    /// report is also merged into this thread's accumulator, read by
    /// [`audit::take_thread_report`].
    ///
    /// Returns `None` on the second call: the teardown runs once. If
    /// never called, [`Drop`] runs it. (The `Option` stays for the repo
    /// benchmark, which calls this.)
    pub fn finish_audit(&mut self) -> Option<AuditReport> {
        let World {
            audit: auditor,
            pool,
            links,
            stats,
            ..
        } = &mut self.world;
        if auditor.is_finished() {
            return None;
        }
        let queued: Vec<usize> = links.iter().map(Link::queue_len).collect();
        let report = auditor.finish(pool.live_uids(), &queued, stats);
        audit::merge_thread(&report);
        Some(report)
    }

    /// Number of events dispatched so far: everything ever scheduled
    /// minus what is still pending. Derived from the queue's sequence
    /// counter, so it costs nothing on the hot path.
    pub fn events_processed(&self) -> u64 {
        self.world.queue.scheduled() - self.world.queue.len() as u64
    }

    /// Number of packets injected so far (the uid counter): every
    /// [`Ctx::send`] plus every fault-layer duplicate.
    pub fn packets_injected(&self) -> u64 {
        self.world.next_uid
    }

    /// High-water mark of simultaneously in-flight packets — the packet
    /// pool's slab size. Exposed so tests can assert the pool recycles
    /// instead of growing per packet.
    pub fn packet_pool_capacity(&self) -> usize {
        self.world.pool.capacity()
    }

    /// Add a node (host or router).
    pub fn add_node(&mut self) -> NodeId {
        self.world.nodes.push(Node::new());
        NodeId::from_index(self.world.nodes.len() - 1)
    }

    /// Add a unidirectional link from `src` and return its handle.
    /// Routing entries are installed separately via [`Self::add_route`]
    /// or [`Self::set_default_route`].
    pub fn add_link(&mut self, src: NodeId, link: Link) -> LinkId {
        assert!(
            src.index() < self.world.nodes.len(),
            "link source {src} is not a node of this simulator"
        );
        let mut link = link;
        let id = LinkId::from_index(self.world.links.len());
        link.rng = SmallRng::seed_from_u64(mix_seed(self.seed, LINK_RNG_TAG, id.index()));
        self.world.links.push(link);
        self.world.stats.ensure_link(id);
        id
    }

    /// Install a per-destination route at `node`. Panics unless `node`
    /// and `dst` are nodes and `link` a link of this simulator: the
    /// routing table is indexed by `dst`, so an unissued id would either
    /// allocate a table to match it or fail only at the first forward.
    pub fn add_route(&mut self, node: NodeId, dst: NodeId, link: LinkId) {
        self.check_route(node, link);
        assert!(
            dst.index() < self.world.nodes.len(),
            "route destination {dst} is not a node of this simulator"
        );
        self.world.nodes[node.index()].add_route(dst, link);
    }

    /// Install the default route at `node`. Panics unless `node` is a
    /// node and `link` a link of this simulator.
    pub fn set_default_route(&mut self, node: NodeId, link: LinkId) {
        self.check_route(node, link);
        self.world.nodes[node.index()].set_default_route(link);
    }

    fn check_route(&self, node: NodeId, link: LinkId) {
        assert!(
            node.index() < self.world.nodes.len(),
            "route node {node} is not a node of this simulator"
        );
        assert!(
            link.index() < self.world.links.len(),
            "route link {link} is not a link of this simulator"
        );
    }

    /// Allocate a flow identifier for statistics accounting.
    pub fn new_flow(&mut self) -> FlowId {
        let id = FlowId::from_index(self.next_flow as usize);
        self.next_flow += 1;
        self.world.stats.ensure_flow(id);
        id
    }

    /// Reserve an agent id without installing the agent yet. Lets two
    /// endpoint agents refer to each other: reserve both ids, then build
    /// each agent with its peer's id and install with
    /// [`Self::install_agent`].
    pub fn reserve_agent(&mut self, node: NodeId) -> AgentId {
        let index = self.agents.len();
        self.agents.push(AgentSlot {
            node,
            agent: None,
            rng: SmallRng::seed_from_u64(mix_seed(self.seed, AGENT_RNG_TAG, index)),
        });
        AgentId::from_index(index)
    }

    /// Install a previously reserved agent, to be started at `start`.
    pub fn install_agent(&mut self, id: AgentId, agent: Box<dyn Agent>, start: SimTime) {
        let slot = &mut self.agents[id.index()];
        assert!(slot.agent.is_none(), "agent {id} installed twice");
        slot.agent = Some(agent);
        self.world
            .queue
            .schedule(start, EventKind::AgentStart { agent: id });
    }

    /// Add an agent at `node`, started at `start`.
    pub fn add_agent_at(&mut self, node: NodeId, agent: Box<dyn Agent>, start: SimTime) -> AgentId {
        let id = self.reserve_agent(node);
        self.install_agent(id, agent, start);
        id
    }

    /// Add an agent at `node`, started at time zero.
    pub fn add_agent(&mut self, node: NodeId, agent: Box<dyn Agent>) -> AgentId {
        self.add_agent_at(node, agent, SimTime::ZERO)
    }

    /// Install a trace sink receiving every packet event from now on.
    /// Tracing is off by default (full runs generate millions of
    /// events); install a filtered/capped sink for targeted debugging.
    pub fn set_trace(&mut self, sink: Box<dyn TraceSink>) {
        self.world.trace = Some(sink);
    }

    /// Remove and return the current trace sink (e.g. to read a
    /// [`crate::trace::VecTrace`] back after a run).
    pub fn take_trace(&mut self) -> Option<Box<dyn TraceSink>> {
        self.world.trace.take()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.world.now
    }

    /// Collected statistics.
    pub fn stats(&self) -> &Stats {
        &self.world.stats
    }

    /// Current buffer occupancy of `link` in packets.
    pub fn link_queue_len(&self, link: LinkId) -> usize {
        self.world.links[link.index()].queue_len()
    }

    /// Run until the event queue drains or `until` is reached, whichever
    /// comes first. The clock is left at `until` when the horizon is hit.
    /// Events dispatch one at a time in `(time, seq)` order.
    pub fn run_until(&mut self, until: SimTime) {
        self.world.stats.set_reserve_hint(until);
        self.run_window(until);
        if self.world.now < until {
            self.world.now = until;
        }
    }

    /// Immutable access to an installed agent, for post-run inspection.
    /// Panics while that agent is being dispatched.
    pub fn agent(&self, id: AgentId) -> &dyn Agent {
        self.agents[id.index()]
            .agent
            .as_deref()
            .expect("agent not installed or currently running")
    }

    /// Inspect an installed agent as a concrete type, if it opted into
    /// [`Agent::as_any`].
    pub fn agent_downcast<T: 'static>(&self, id: AgentId) -> Option<&T> {
        self.agent(id).as_any().and_then(|a| a.downcast_ref::<T>())
    }

    /// Dispatch every event with `time <= until` in `(time, seq)`
    /// order, one pop per event, leaving the clock at the last one
    /// dispatched. Events a handler schedules — even at the instant
    /// being dispatched — carry larger sequence numbers, so the next pop
    /// finds them in order (DESIGN.md §5g).
    fn run_window(&mut self, until: SimTime) {
        while let Some((time, kind)) = self.world.queue.pop_if_at_or_before(until) {
            debug_assert!(time >= self.world.now, "event queue went backwards");
            self.world.now = time;
            // Cooperative budget check: integer counters per event, the
            // wall clock and cancel flag at amortized cadence. A trip
            // unwinds with a `SimAbort` payload (see `crate::budget`).
            self.world.budget.on_event(time);
            self.dispatch_event(kind);
            // O(1) cross-check: pool live slots vs ledger.
            self.world.audit.check_pool(self.world.pool.len(), time);
        }
    }

    /// Fire `kind` at the already-advanced clock.
    fn dispatch_event(&mut self, kind: EventKind) {
        match kind {
            EventKind::LinkTxComplete { link } => self.world.on_tx_complete(link),
            EventKind::Arrive { node, packet } => {
                if self.world.pool.get(packet).dst_node == node {
                    // Delivery ends the packet's pooled life; the agent
                    // receives the value.
                    let pkt = self.world.pool.remove(packet);
                    self.world.audit.on_deliver(pkt.uid);
                    if pkt.is_data() {
                        self.world
                            .stats
                            .record_flow_rx(pkt.flow, self.world.now, pkt.size);
                    }
                    self.world.trace(TraceKind::Deliver { node }, &pkt);
                    let agent = pkt.dst_agent;
                    self.dispatch(agent, |a, ctx| a.on_packet(pkt, ctx));
                } else {
                    self.world.forward(node, packet);
                }
            }
            EventKind::AgentTimer { agent, token } => {
                self.world.audit.on_timer_fired(agent);
                let armed_before = self.world.audit.timers_armed_of(agent);
                self.dispatch(agent, |a, ctx| a.on_timer(token, ctx));
                self.audit_check_timer_leak(agent, armed_before);
            }
            EventKind::AgentStart { agent } => {
                self.dispatch(agent, |a, ctx| a.on_start(ctx));
            }
            EventKind::FaultRelease { link, packet, held } => {
                if held {
                    self.world.links[link.index()]
                        .faults
                        .as_mut()
                        .expect("FaultRelease on a link without faults")
                        .on_release();
                }
                self.world.admit_to_link(link, packet);
            }
        }
    }

    /// After a timer callback: if the agent re-armed a timer while
    /// reporting itself done, it will tick forever — flag the leak.
    fn audit_check_timer_leak(&mut self, agent: AgentId, armed_before: u64) {
        let now = self.world.now;
        if self.world.audit.timers_armed_of(agent) <= armed_before {
            return;
        }
        let done = self.agents[agent.index()]
            .agent
            .as_deref()
            .is_some_and(|ag| ag.audit_done(now));
        if done {
            self.world.audit.on_timer_leak(agent, now);
        }
    }

    fn dispatch<F>(&mut self, id: AgentId, f: F)
    where
        F: FnOnce(&mut dyn Agent, &mut Ctx<'_>),
    {
        let slot = self
            .agents
            .get_mut(id.index())
            .unwrap_or_else(|| panic!("dispatch to unknown agent {id}"));
        let node = slot.node;
        let mut agent = slot
            .agent
            .take()
            .unwrap_or_else(|| panic!("dispatch to uninstalled agent {id}"));
        let mut ctx = Ctx {
            world: &mut self.world,
            agent_id: id,
            node,
            rng: &mut slot.rng,
        };
        f(agent.as_mut(), &mut ctx);
        self.agents[id.index()].agent = Some(agent);
    }
}

impl Drop for Simulator {
    /// A simulator that was never [`Self::finish_audit`]ed runs the
    /// teardown audit here and merges it into this thread's report.
    fn drop(&mut self) {
        self.finish_audit();
    }
}

/// The world handle passed to agent callbacks.
pub struct Ctx<'a> {
    world: &'a mut World,
    agent_id: AgentId,
    node: NodeId,
    rng: &'a mut SmallRng,
}

impl Ctx<'_> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.world.now
    }

    /// Id of the running agent.
    pub fn agent_id(&self) -> AgentId {
        self.agent_id
    }

    /// Node the running agent is attached to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// This agent's private RNG stream, seeded from `(simulation seed,
    /// agent index)`. Draws depend only on this agent's own callback
    /// sequence, never on other agents' activity.
    pub fn rng(&mut self) -> &mut SmallRng {
        self.rng
    }

    /// Transmit a packet from this agent's node. Data payloads are
    /// accounted to the flow's sending-rate statistics; ACKs are not.
    pub fn send(&mut self, spec: PacketSpec) {
        let uid = self.world.next_uid;
        self.world.next_uid += 1;
        let pkt = Packet {
            uid,
            flow: spec.flow,
            seq: spec.seq,
            size: spec.size,
            payload: spec.payload,
            src_node: self.node,
            dst_node: spec.dst_node,
            src_agent: self.agent_id,
            dst_agent: spec.dst_agent,
            sent_at: self.world.now,
            ecn: spec.ecn,
        };
        if matches!(pkt.payload, Payload::Data(_)) {
            self.world
                .stats
                .record_flow_tx(pkt.flow, self.world.now, pkt.size);
        }
        self.world.trace(TraceKind::Send, &pkt);
        self.world.audit.on_inject(uid);
        let local = pkt.dst_node == self.node;
        let id = self.world.pool.insert(pkt);
        if local {
            // Local delivery: still goes through the event queue so the
            // receiving agent runs after the current callback returns.
            let node = self.node;
            self.world
                .queue
                .schedule(self.world.now, EventKind::Arrive { node, packet: id });
        } else {
            self.world.forward(self.node, id);
        }
    }

    /// Schedule `token` to be handed back to this agent after `delay`.
    ///
    /// The entry cannot be cancelled. A timer that is re-armed before it
    /// fires should be a [`Timer`] instead, which pushes nothing when a
    /// re-arm only moves its deadline later.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        self.world.audit.on_timer_armed(self.agent_id);
        self.world.queue.schedule(
            self.world.now + delay,
            EventKind::AgentTimer {
                agent: self.agent_id,
                token,
            },
        );
    }

    /// Arm `timer` to fire after `delay`, superseding any deadline it
    /// had. The deadline's key is `(now + delay, a freshly reserved
    /// seq)` — where [`Self::set_timer`] would have scheduled it — but
    /// an entry is pushed only when none is queued or the new key is the
    /// earlier one; a later deadline waits for [`Self::fired`] to move
    /// the queued entry onto it.
    #[inline]
    pub fn arm(&mut self, timer: &mut Timer, delay: SimDuration) {
        let due = (self.world.now + delay, self.world.queue.reserve_seq());
        timer.due = Some(due);
        if timer.queued.is_none_or(|queued| due < queued) {
            self.push_timer(timer, due);
        }
    }

    /// Whether `token`, just handed to [`Agent::on_timer`], is `timer`
    /// firing at its due key. `false` for an entry a later arm
    /// superseded or disarmed, and for `timer`'s entry popping before the
    /// deadline it was since moved to — which this pushes again at that
    /// deadline's key.
    ///
    /// Every token of `timer` must come through here; an agent that
    /// drops one has let the timer lapse for good (a stopped flow).
    #[inline]
    pub fn fired(&mut self, timer: &mut Timer, token: u64) -> bool {
        if token != timer.token() {
            return false;
        }
        let popped = timer.queued.take();
        match timer.due {
            None => false,
            due if due == popped => {
                timer.due = None;
                true
            }
            Some(due) => {
                self.push_timer(timer, due);
                false
            }
        }
    }

    /// Push `timer`'s one live entry at `key`, under a new token.
    fn push_timer(&mut self, timer: &mut Timer, key: (SimTime, u64)) {
        self.world.audit.on_timer_armed(self.agent_id);
        timer.gen += 1;
        timer.queued = Some(key);
        let kind = EventKind::AgentTimer {
            agent: self.agent_id,
            token: timer.token(),
        };
        self.world.queue.schedule_at_seq(key.0, key.1, kind);
    }
}

/// A timer that is re-armed before it fires. A re-arm that moves its
/// deadline later pushes nothing; only one that moves it earlier leaves
/// an entry behind to pop stale.
///
/// The alternative — a [`Ctx::set_timer`] per arm, with a generation in
/// the token so the agent can ignore the superseded ones — leaves an
/// entry per arm in the queue, nearly all of which pop stale. A `Timer`
/// instead keeps its *due* key (each [`Ctx::arm`] reserves the sequence
/// number that `set_timer` would have used) apart from the key of its one
/// queued entry, and [`Ctx::fired`] moves an entry that pops early to the
/// due key. The agent sees the timer fire at exactly the `(time, seq)`
/// key a `set_timer` per arm would have, and every other event keeps its
/// sequence number, so the choice never moves a simulation byte.
///
/// An agent with two timers tells their tokens apart by the low bit,
/// which [`Timer::tagged`] sets.
#[derive(Debug, Default)]
pub struct Timer {
    /// Low bit of every token this timer issues.
    tag: u64,
    /// Bumped on every push: the rest of the token.
    gen: u64,
    /// Key of the entry carrying the current token, while it is queued.
    queued: Option<(SimTime, u64)>,
    /// Key the timer is due to fire at; `None` when disarmed.
    due: Option<(SimTime, u64)>,
}

impl Timer {
    /// A timer whose tokens carry `tag` (0 or 1) in the low bit. The
    /// default timer's tag is 0.
    pub fn tagged(tag: u64) -> Self {
        assert!(tag <= 1, "a timer tag is one bit");
        Timer {
            tag,
            ..Timer::default()
        }
    }

    /// The tag a token carries (see [`Timer::tagged`]).
    pub fn tag_of(token: u64) -> u64 {
        token & 1
    }

    /// Whether the timer has a deadline [`Ctx::fired`] has not yet
    /// reported.
    pub fn is_armed(&self) -> bool {
        self.due.is_some()
    }

    /// Drop the deadline: the queued entry, if any, pops into
    /// [`Ctx::fired`] as `false`.
    pub fn disarm(&mut self) {
        self.due = None;
    }

    fn token(&self) -> u64 {
        (self.gen << 1) | self.tag
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Budget;
    use crate::packet::AckInfo;
    use crate::queue::DropTail;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// Sends `count` data packets of `size` bytes back-to-back at start.
    struct Blaster {
        flow: FlowId,
        dst_node: NodeId,
        dst_agent: AgentId,
        count: u64,
        size: u32,
    }

    impl Agent for Blaster {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            for seq in 0..self.count {
                ctx.send(PacketSpec::data(
                    self.flow,
                    seq,
                    self.size,
                    self.dst_node,
                    self.dst_agent,
                ));
            }
        }
        fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx<'_>) {}
    }

    /// Counts data deliveries and acks each one.
    struct CountingSink {
        received: Arc<AtomicU64>,
        acks: bool,
    }

    impl Agent for CountingSink {
        fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
            if pkt.is_data() {
                self.received.fetch_add(1, Ordering::Relaxed);
                if self.acks {
                    let info = AckInfo::cumulative(pkt.seq + 1, pkt.seq, pkt.sent_at);
                    ctx.send(PacketSpec::ack_to(&pkt, 40, info));
                }
            }
        }
    }

    /// Two nodes joined by a pair of links.
    fn two_node_world(
        seed: u64,
        rate_bps: f64,
        delay: SimDuration,
        qcap: usize,
    ) -> (Simulator, NodeId, NodeId) {
        two_node_world_with(seed, || Box::new(DropTail::new(qcap)), rate_bps, delay)
    }

    /// Two nodes joined by a pair of links with a custom discipline.
    fn two_node_world_with(
        seed: u64,
        mut queue: impl FnMut() -> Box<dyn crate::queue::QueueDiscipline>,
        rate_bps: f64,
        delay: SimDuration,
    ) -> (Simulator, NodeId, NodeId) {
        let mut sim = Simulator::new(seed);
        let a = sim.add_node();
        let b = sim.add_node();
        let ab = sim.add_link(a, Link::new(b, rate_bps, delay, queue()));
        let ba = sim.add_link(b, Link::new(a, rate_bps, delay, queue()));
        sim.set_default_route(a, ab);
        sim.set_default_route(b, ba);
        (sim, a, b)
    }

    #[test]
    fn packets_arrive_after_serialization_plus_propagation() {
        // 1000 B at 8 Mb/s = 1 ms serialization; 10 ms propagation.
        let (mut sim, a, b) = two_node_world(1, 8e6, SimDuration::from_millis(10), 100);
        let received = Arc::new(AtomicU64::new(0));
        let sink = sim.add_agent(
            b,
            Box::new(CountingSink {
                received: received.clone(),
                acks: false,
            }),
        );
        let flow = sim.new_flow();
        sim.add_agent(
            a,
            Box::new(Blaster {
                flow,
                dst_node: b,
                dst_agent: sink,
                count: 1,
                size: 1000,
            }),
        );
        sim.run_until(SimTime::from_millis(10));
        assert_eq!(received.load(Ordering::Relaxed), 0, "too early");
        sim.run_until(SimTime::from_millis(12));
        assert_eq!(received.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn back_to_back_packets_serialize_sequentially() {
        let (mut sim, a, b) = two_node_world(1, 8e6, SimDuration::from_millis(1), 100);
        let received = Arc::new(AtomicU64::new(0));
        let sink = sim.add_agent(
            b,
            Box::new(CountingSink {
                received: received.clone(),
                acks: false,
            }),
        );
        let flow = sim.new_flow();
        sim.add_agent(
            a,
            Box::new(Blaster {
                flow,
                dst_node: b,
                dst_agent: sink,
                count: 10,
                size: 1000,
            }),
        );
        // Last packet finishes serializing at 10 ms, arrives at 11 ms.
        sim.run_until(SimTime::from_millis(10));
        assert_eq!(received.load(Ordering::Relaxed), 9);
        sim.run_until(SimTime::from_millis(11));
        assert_eq!(received.load(Ordering::Relaxed), 10);
        assert_eq!(sim.stats().flow(flow).unwrap().total_rx_packets, 10);
    }

    #[test]
    fn queue_overflow_drops_are_counted() {
        // Queue of 4: burst of 10 -> 1 on the wire + 4 queued, 5 dropped.
        let (mut sim, a, b) = two_node_world(1, 8e6, SimDuration::from_millis(1), 4);
        let received = Arc::new(AtomicU64::new(0));
        let sink = sim.add_agent(
            b,
            Box::new(CountingSink {
                received: received.clone(),
                acks: false,
            }),
        );
        let flow = sim.new_flow();
        sim.add_agent(
            a,
            Box::new(Blaster {
                flow,
                dst_node: b,
                dst_agent: sink,
                count: 10,
                size: 1000,
            }),
        );
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(received.load(Ordering::Relaxed), 5);
        let link = LinkId::from_index(0);
        assert_eq!(sim.stats().link(link).unwrap().total_drops, 5);
        assert_eq!(sim.stats().link(link).unwrap().total_arrivals, 10);
    }

    #[test]
    fn acks_flow_back_and_are_not_counted_as_data() {
        let (mut sim, a, b) = two_node_world(1, 8e6, SimDuration::from_millis(1), 100);
        let received = Arc::new(AtomicU64::new(0));
        let sink = sim.add_agent(
            b,
            Box::new(CountingSink {
                received: received.clone(),
                acks: true,
            }),
        );
        let flow = sim.new_flow();
        sim.add_agent(
            a,
            Box::new(Blaster {
                flow,
                dst_node: b,
                dst_agent: sink,
                count: 3,
                size: 1000,
            }),
        );
        sim.run_until(SimTime::from_secs(1));
        let f = sim.stats().flow(flow).unwrap();
        // tx/rx statistics count data packets only.
        assert_eq!(f.total_tx_bytes, 3000);
        assert_eq!(f.total_rx_bytes, 3000);
        assert_eq!(f.total_rx_packets, 3);
    }

    #[test]
    fn identical_seeds_reproduce_identical_runs() {
        // RED draws from the link's RNG stream (derived from the
        // simulation seed) on every enqueue, so the run's outcome
        // genuinely depends on the seed (with DropTail any two seeds
        // would agree trivially and the test would check nothing).
        let run = |seed: u64| -> (u64, u64, Vec<u64>) {
            use crate::queue::{Red, RedConfig};
            let red = || -> Box<dyn crate::queue::QueueDiscipline> {
                Box::new(Red::new(RedConfig {
                    capacity: 20,
                    min_thresh: 1.0,
                    max_thresh: 6.0,
                    max_p: 0.5,
                    weight: 0.5,
                    mean_pkt_time: SimDuration::from_micros(500),
                    gentle: false,
                    ecn: false,
                }))
            };
            let (mut sim, a, b) = two_node_world_with(seed, red, 8e6, SimDuration::from_millis(1));
            let received = Arc::new(AtomicU64::new(0));
            let sink = sim.add_agent(
                b,
                Box::new(CountingSink {
                    received: received.clone(),
                    acks: true,
                }),
            );
            let flow = sim.new_flow();
            // Staggered bursts keep RED's average queue inside the
            // probabilistic band repeatedly, so the drop pattern is
            // genuinely a function of the RNG stream (one instantaneous
            // burst would saturate into forced drops identically under
            // any seed).
            for burst in 0..10 {
                sim.add_agent_at(
                    a,
                    Box::new(Blaster {
                        flow,
                        dst_node: b,
                        dst_agent: sink,
                        count: 8,
                        size: 500,
                    }),
                    SimTime::from_millis(100 * burst),
                );
            }
            sim.run_until(SimTime::from_secs(2));
            let f = sim.stats().flow(flow).unwrap();
            let drops = sim.stats().link(LinkId::from_index(0)).unwrap().drops.clone();
            (f.total_rx_packets, f.total_rx_bytes, drops)
        };
        assert_eq!(run(7), run(7), "same seed must reproduce bit-identically");
        assert_ne!(
            run(7),
            run(8),
            "distinct seeds should produce distinct RED drop patterns"
        );
    }

    /// Installing a trace sink must observe the simulation, not perturb
    /// it: the untraced hot path skips the per-packet trace snapshot, and
    /// this pins down that the skip is invisible in the statistics.
    #[test]
    fn tracing_does_not_alter_simulation_outcomes() {
        let run = |traced: bool| -> (u64, u64, u64) {
            use crate::queue::{Red, RedConfig};
            let red = || -> Box<dyn crate::queue::QueueDiscipline> {
                Box::new(Red::new(RedConfig {
                    capacity: 20,
                    min_thresh: 1.0,
                    max_thresh: 6.0,
                    max_p: 0.5,
                    weight: 0.5,
                    mean_pkt_time: SimDuration::from_micros(500),
                    gentle: false,
                    ecn: false,
                }))
            };
            let (mut sim, a, b) = two_node_world_with(9, red, 8e6, SimDuration::from_millis(1));
            if traced {
                sim.set_trace(Box::new(crate::trace::VecTrace::new(100_000)));
            }
            let received = Arc::new(AtomicU64::new(0));
            let sink = sim.add_agent(
                b,
                Box::new(CountingSink {
                    received: received.clone(),
                    acks: true,
                }),
            );
            let flow = sim.new_flow();
            sim.add_agent(
                a,
                Box::new(Blaster {
                    flow,
                    dst_node: b,
                    dst_agent: sink,
                    count: 50,
                    size: 500,
                }),
            );
            sim.run_until(SimTime::from_secs(2));
            let f = sim.stats().flow(flow).unwrap();
            let drops = sim.stats().link(LinkId::from_index(0)).unwrap().total_drops;
            (f.total_rx_packets, f.total_rx_bytes, drops)
        };
        let untraced = run(false);
        assert_eq!(untraced, run(true), "trace sink changed the outcome");
        assert!(untraced.2 > 0, "scenario should exercise RED drops");
    }

    #[test]
    fn timers_fire_in_order_with_tokens() {
        struct TimerAgent {
            fired: Arc<AtomicU64>,
        }
        impl Agent for TimerAgent {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer(SimDuration::from_millis(20), 2);
                ctx.set_timer(SimDuration::from_millis(10), 1);
            }
            fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx<'_>) {}
            fn on_timer(&mut self, token: u64, _ctx: &mut Ctx<'_>) {
                // Tokens must arrive in time order: 1 then 2.
                let prev = self.fired.fetch_add(1, Ordering::Relaxed);
                assert_eq!(prev + 1, token);
            }
        }
        let mut sim = Simulator::new(0);
        let n = sim.add_node();
        let fired = Arc::new(AtomicU64::new(0));
        sim.add_agent(
            n,
            Box::new(TimerAgent {
                fired: fired.clone(),
            }),
        );
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(fired.load(Ordering::Relaxed), 2);
    }

    /// One scripted step: arm the timer under test with a delay, disarm
    /// it, or schedule a plain marker event a delay ahead.
    #[derive(Clone, Copy)]
    enum Step {
        Arm(SimDuration),
        Disarm,
        Mark(SimDuration),
    }

    /// Drives a re-armed timer through a script, two ways: a [`Timer`],
    /// or the reference — a `set_timer` per arm with a generation in the
    /// token. Tag-0 tokens are the timer's; tag-1 tokens are script steps
    /// (below `MARK`) and markers. `log` records every fire and marker in
    /// dispatch order.
    struct ScriptedTimer {
        script: Vec<(SimTime, Step)>,
        timer: Option<Timer>,
        generation: u64,
        log: Vec<(SimTime, &'static str)>,
    }

    const MARK: u64 = 1 << 20;

    impl ScriptedTimer {
        fn run(script: &[(u64, Step)], with_timer: bool) -> (Vec<(SimTime, &'static str)>, u64) {
            let mut sim = Simulator::new(0);
            let n = sim.add_node();
            let agent = ScriptedTimer {
                script: script
                    .iter()
                    .map(|&(ms, step)| (SimTime::from_millis(ms), step))
                    .collect(),
                timer: with_timer.then(Timer::default),
                generation: 0,
                log: Vec::new(),
            };
            let id = sim.add_agent(n, Box::new(agent));
            sim.run_until(SimTime::from_secs(1));
            let log = sim.agent_downcast::<ScriptedTimer>(id).unwrap().log.clone();
            (log, sim.events_processed())
        }
    }

    impl Agent for ScriptedTimer {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            for (i, &(at, _)) in self.script.iter().enumerate() {
                ctx.set_timer(at.saturating_since(ctx.now()), ((i as u64) << 1) | 1);
            }
        }
        fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx<'_>) {}
        fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>) {
            let now = ctx.now();
            if Timer::tag_of(token) == 0 {
                let fired = match self.timer.as_mut() {
                    Some(timer) => ctx.fired(timer, token),
                    None => token >> 1 == self.generation,
                };
                if fired {
                    self.log.push((now, "fire"));
                }
            } else if token >> 1 >= MARK {
                self.log.push((now, "mark"));
            } else {
                match self.script[(token >> 1) as usize].1 {
                    Step::Arm(delay) => match self.timer.as_mut() {
                        Some(timer) => ctx.arm(timer, delay),
                        None => {
                            self.generation += 1;
                            ctx.set_timer(delay, self.generation << 1);
                        }
                    },
                    Step::Disarm => match self.timer.as_mut() {
                        Some(timer) => timer.disarm(),
                        None => self.generation += 1,
                    },
                    Step::Mark(delay) => ctx.set_timer(delay, (MARK << 1) | 1),
                }
            }
        }
        fn as_any(&self) -> Option<&dyn std::any::Any> {
            Some(self)
        }
    }

    /// The `Timer` against the generation-counter reference: the same
    /// fires and markers, in the same order at the same instants, from
    /// fewer dispatched events. Returns the shared log.
    fn timer_matches_reference(script: &[(u64, Step)]) -> Vec<(SimTime, &'static str)> {
        let (reference, reference_events) = ScriptedTimer::run(script, false);
        let (timer, timer_events) = ScriptedTimer::run(script, true);
        assert_eq!(timer, reference);
        assert!(timer_events <= reference_events);
        timer
    }

    #[test]
    fn a_timer_armed_many_times_fires_once_at_the_last_key() {
        let ms = SimDuration::from_millis;
        let script: Vec<(u64, Step)> = (0..5).map(|i| (i, Step::Arm(ms(10)))).collect();
        let log = timer_matches_reference(&script);
        assert_eq!(log, vec![(SimTime::from_millis(14), "fire")]);
    }

    #[test]
    fn a_timer_moved_earlier_fires_at_the_new_key_only() {
        let ms = SimDuration::from_millis;
        let script = [(0, Step::Arm(ms(50))), (10, Step::Arm(ms(5)))];
        let log = timer_matches_reference(&script);
        // The superseded 50 ms entry still pops, but never as a fire.
        assert_eq!(log, vec![(SimTime::from_millis(15), "fire")]);
    }

    #[test]
    fn a_re_key_at_the_current_instant_follows_what_was_scheduled_between_the_arms() {
        let ms = SimDuration::from_millis;
        // Both arms and the marker land on 20 ms: the first arm's entry
        // pops there and is re-keyed to the second arm's key, which the
        // marker (scheduled between the arms) precedes.
        let script = [
            (0, Step::Arm(ms(20))),
            (5, Step::Mark(ms(15))),
            (10, Step::Arm(ms(10))),
        ];
        let log = timer_matches_reference(&script);
        let t = SimTime::from_millis(20);
        assert_eq!(log, vec![(t, "mark"), (t, "fire")]);
    }

    #[test]
    fn a_disarmed_timer_fires_only_when_armed_again() {
        let ms = SimDuration::from_millis;
        let script = [
            (0, Step::Arm(ms(10))),
            (20, Step::Arm(ms(30))),
            (25, Step::Disarm),
            (30, Step::Arm(ms(10))),
            (60, Step::Arm(ms(10))),
            (65, Step::Disarm),
        ];
        let log = timer_matches_reference(&script);
        let fires: Vec<SimTime> = log.iter().map(|&(t, _)| t).collect();
        assert_eq!(fires, vec![SimTime::from_millis(10), SimTime::from_millis(40)]);
    }

    #[test]
    fn run_until_advances_clock_to_horizon() {
        let mut sim = Simulator::new(0);
        sim.run_until(SimTime::from_secs(5));
        assert_eq!(sim.now(), SimTime::from_secs(5));
    }

    /// An agent whose timer loop never advances the clock: the livelock
    /// signature the budget's zero-advance bound exists to catch.
    struct ZeroAdvanceSpinner;

    impl Agent for ZeroAdvanceSpinner {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(SimDuration::ZERO, 0);
        }
        fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx<'_>) {}
        fn on_timer(&mut self, _token: u64, ctx: &mut Ctx<'_>) {
            ctx.set_timer(SimDuration::ZERO, 0);
        }
    }

    /// Run `f` (typically: build a simulator) with `budget` as this
    /// thread's default, and restore the previous default on return.
    fn under_budget<T>(budget: Budget, f: impl FnOnce() -> T) -> T {
        let prev = budget::thread_budget();
        budget::set_thread_budget(budget);
        let out = f();
        budget::set_thread_budget(prev);
        out
    }

    fn catch_sim_abort(f: impl FnOnce()) -> crate::budget::SimAbort {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
            .expect_err("budget should have tripped");
        *payload
            .downcast::<crate::budget::SimAbort>()
            .expect("payload should be a SimAbort")
    }

    #[test]
    fn livelock_budget_trips_a_zero_advance_timer_loop() {
        let mut sim = under_budget(Budget::none().with_livelock_events(10_000), || {
            Simulator::new(0)
        });
        let n = sim.add_node();
        sim.add_agent(n, Box::new(ZeroAdvanceSpinner));
        let abort = catch_sim_abort(move || sim.run_until(SimTime::from_secs(1)));
        assert_eq!(
            abort,
            crate::budget::SimAbort::Livelock {
                at: SimTime::ZERO,
                events: 10_000
            },
            "spinner never advanced the clock"
        );
    }

    #[test]
    fn a_same_instant_burst_is_not_a_livelock() {
        // 2 000 agents all starting at t = 0 are 2 000 consecutive
        // zero-advance events, and the clock then moves on.
        struct StartOnce(Arc<AtomicU64>);
        impl Agent for StartOnce {
            fn on_start(&mut self, _ctx: &mut Ctx<'_>) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
            fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx<'_>) {}
        }
        let started = Arc::new(AtomicU64::new(0));
        let mut sim = under_budget(Budget::none().with_livelock_events(10_000), || {
            Simulator::new(0)
        });
        let n = sim.add_node();
        for _ in 0..2_000 {
            sim.add_agent(n, Box::new(StartOnce(started.clone())));
        }
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(started.load(Ordering::Relaxed), 2_000);
    }

    #[test]
    fn event_budget_trips_and_unwinds_through_run_until() {
        let (mut sim, a, b) = under_budget(Budget::none().with_max_events(20), || {
            two_node_world(7, 8e6, SimDuration::from_millis(1), 100)
        });
        let received = Arc::new(AtomicU64::new(0));
        let sink = sim.add_agent(b, Box::new(CountingSink { received, acks: true }));
        let flow = sim.new_flow();
        sim.add_agent(
            a,
            Box::new(Blaster {
                flow,
                dst_node: b,
                dst_agent: sink,
                count: 50,
                size: 1000,
            }),
        );
        let abort = catch_sim_abort(move || sim.run_until(SimTime::from_secs(10)));
        assert_eq!(abort, crate::budget::SimAbort::MaxEvents { limit: 20 });
    }

    #[test]
    fn armed_but_untripped_budget_changes_nothing() {
        let run = |budget: Budget| {
            let (mut sim, a, b) = under_budget(budget, || {
                two_node_world(3, 8e6, SimDuration::from_millis(2), 20)
            });
            let received = Arc::new(AtomicU64::new(0));
            let sink = sim.add_agent(
                b,
                Box::new(CountingSink {
                    received: received.clone(),
                    acks: true,
                }),
            );
            let flow = sim.new_flow();
            sim.add_agent(
                a,
                Box::new(Blaster {
                    flow,
                    dst_node: b,
                    dst_agent: sink,
                    count: 30,
                    size: 1000,
                }),
            );
            sim.run_until(SimTime::from_secs(2));
            let f = sim.stats().flow(flow).unwrap();
            (f.total_rx_packets, f.total_rx_bytes, received.load(Ordering::Relaxed))
        };
        let armed = Budget::none()
            .with_wall_clock(std::time::Duration::from_secs(3600))
            .with_max_events(u64::MAX)
            .with_livelock_events(Budget::DEFAULT_LIVELOCK_EVENTS)
            .with_cancel();
        assert_eq!(
            run(Budget::none()),
            run(armed),
            "armed budget altered the simulation"
        );
    }

    #[test]
    #[should_panic(expected = "route destination NodeId#1000000 is not a node of this simulator")]
    fn add_route_rejects_an_unissued_destination() {
        let (mut sim, a, _) = two_node_world(0, 8e6, SimDuration::from_millis(1), 10);
        sim.add_route(a, NodeId::from_index(1_000_000), LinkId::from_index(0));
    }

    #[test]
    #[should_panic(expected = "route link LinkId#2 is not a link of this simulator")]
    fn set_default_route_rejects_an_unissued_link() {
        let (mut sim, a, _) = two_node_world(0, 8e6, SimDuration::from_millis(1), 10);
        sim.set_default_route(a, LinkId::from_index(2));
    }

    /// Sends one 1000-byte data packet every 5 ms, forever.
    struct Ticker {
        flow: FlowId,
        dst_node: NodeId,
        dst_agent: AgentId,
        seq: u64,
    }

    impl Agent for Ticker {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            self.on_timer(0, ctx);
        }
        fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx<'_>) {}
        fn on_timer(&mut self, _token: u64, ctx: &mut Ctx<'_>) {
            ctx.send(PacketSpec::data(
                self.flow,
                self.seq,
                1000,
                self.dst_node,
                self.dst_agent,
            ));
            self.seq += 1;
            ctx.set_timer(SimDuration::from_millis(5), 0);
        }
    }

    /// A two-node world with a ticking sender and an acking sink: both
    /// links and the flow record in every bin; nothing is dropped or
    /// marked.
    fn ticking_world() -> (Simulator, FlowId) {
        let (mut sim, a, b) = two_node_world(5, 8e6, SimDuration::from_millis(1), 100);
        let received = Arc::new(AtomicU64::new(0));
        let sink = sim.add_agent(b, Box::new(CountingSink { received, acks: true }));
        let flow = sim.new_flow();
        sim.add_agent(
            a,
            Box::new(Ticker {
                flow,
                dst_node: b,
                dst_agent: sink,
                seq: 0,
            }),
        );
        (sim, flow)
    }

    /// Every binned series of `flow` and of both links, with its name.
    fn recorded_series(sim: &Simulator, flow: FlowId) -> Vec<(String, Vec<u64>, usize)> {
        let mut out = Vec::new();
        let mut push = |name: String, v: &Vec<u64>| out.push((name, v.clone(), v.capacity()));
        let f = sim.stats().flow(flow).unwrap();
        push("flow.tx_bytes".into(), &f.tx_bytes);
        push("flow.rx_bytes".into(), &f.rx_bytes);
        push("flow.rx_packets".into(), &f.rx_packets);
        for ix in 0..2 {
            let l = sim.stats().link(LinkId::from_index(ix)).unwrap();
            push(format!("link{ix}.arrivals"), &l.arrivals);
            push(format!("link{ix}.queue_sum"), &l.queue_sum);
            push(format!("link{ix}.tx_bytes"), &l.tx_bytes);
        }
        out
    }

    #[test]
    fn stats_series_are_sized_to_the_horizon_once() {
        let (mut sim, flow) = ticking_world();
        sim.run_until(SimTime::from_secs(1));
        // 10 ms bins: bin_index(1 s) + 1 = 101 bins, plus one for a
        // `tx_bytes` booked past the horizon.
        for (name, v, cap) in recorded_series(&sim, flow) {
            assert!(!v.is_empty(), "{name} recorded nothing");
            assert_eq!(cap, 102, "{name} capacity");
        }
        for ix in 0..2 {
            let l = sim.stats().link(LinkId::from_index(ix)).unwrap();
            assert_eq!(l.total_drops + l.total_marks, 0);
            assert_eq!(l.drops.capacity(), 0, "link{ix}.drops allocated");
            assert_eq!(l.marks.capacity(), 0, "link{ix}.marks allocated");
        }

        // A second, longer horizon re-sizes each series once, and the
        // split run records exactly what one 2 s run does.
        sim.run_until(SimTime::from_secs(2));
        let (mut whole, whole_flow) = ticking_world();
        whole.run_until(SimTime::from_secs(2));
        let split = recorded_series(&sim, flow);
        let single = recorded_series(&whole, whole_flow);
        for ((name, v, cap), (_, w, _)) in split.iter().zip(&single) {
            assert_eq!(v, w, "{name} differs from a single 2 s run");
            assert_eq!(*cap, 202, "{name} capacity after the second horizon");
        }
        let (f, g) = (
            sim.stats().flow(flow).unwrap(),
            whole.stats().flow(whole_flow).unwrap(),
        );
        assert_eq!(
            (f.total_tx_bytes, f.total_rx_bytes, f.total_rx_packets),
            (g.total_tx_bytes, g.total_rx_bytes, g.total_rx_packets)
        );
        assert!(f.total_rx_packets > 350, "ticker should run the whole 2 s");
    }

    #[test]
    #[should_panic(expected = "no route")]
    fn missing_route_panics() {
        let mut sim = Simulator::new(0);
        let a = sim.add_node();
        let b = sim.add_node();
        let flow = sim.new_flow();
        let sink_id = sim.reserve_agent(b);
        sim.add_agent(
            a,
            Box::new(Blaster {
                flow,
                dst_node: b,
                dst_agent: sink_id,
                count: 1,
                size: 100,
            }),
        );
        sim.run_until(SimTime::from_secs(1));
    }
}
