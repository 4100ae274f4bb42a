//! Packet-level event tracing — the ns-2 trace-file equivalent.
//!
//! Tracing is opt-in ([`crate::sim::Simulator::set_trace`]) because a
//! full-scale run generates millions of events. Three sinks are provided:
//!
//! * [`VecTrace`] — collects events in memory (with an optional flow
//!   filter and a hard cap), for programmatic inspection in tests and
//!   tools;
//! * [`StreamTrace`] — streams *windowed aggregates* (throughput,
//!   drops, queue occupancy per time bin) as JSONL or CSV rows into any
//!   `io::Write`, holding O(1) memory in packet count — the sink for
//!   million-packet runs and live tooling;
//! * [`WindowedStats`] — the same aggregation kept in memory
//!   (O(bins), still independent of packet count), for experiment
//!   cells that embed the time series in their output.

use std::io::Write;

use serde::{Deserialize, Serialize};

use crate::ids::{FlowId, LinkId, NodeId};
use crate::packet::Packet;
use crate::time::{SimDuration, SimTime};

/// What happened to a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A source handed the packet to the network.
    Send,
    /// The packet was offered to a link (ns-2 `+`: enqueue).
    Enqueue {
        /// The link involved.
        link: LinkId,
    },
    /// The packet left the link's buffer and began serializing onto the
    /// wire (ns-2 `-`: dequeue). On an idle link this immediately follows
    /// the packet's own `Enqueue`, at the same timestamp.
    Dequeue {
        /// The link involved.
        link: LinkId,
    },
    /// The packet was dropped (ns-2 `d`).
    Drop {
        /// The link involved.
        link: LinkId,
        /// Why it was dropped.
        reason: DropReason,
    },
    /// The packet was ECN-marked at the link.
    Mark {
        /// The link involved.
        link: LinkId,
    },
    /// The packet arrived at its destination agent (ns-2 `r`).
    Deliver {
        /// The destination node.
        node: NodeId,
    },
    /// The fault layer cloned the packet at the link; the event carries
    /// the duplicate (fresh uid), not the original.
    FaultDup {
        /// The link involved.
        link: LinkId,
    },
    /// The fault layer put the packet in the link's hold bay for
    /// reordering; it re-enters via the event queue later.
    FaultHold {
        /// The link involved.
        link: LinkId,
    },
}

/// Why a packet was dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// A scripted loss pattern consumed it.
    LossPattern,
    /// The queue discipline rejected it (early drop or overflow).
    Queue,
    /// The link was inside a scripted outage window (see
    /// [`crate::faults::FlapWindow`]).
    LinkDown,
}

/// One trace record.
#[derive(Debug, Clone, Copy)]
pub struct TraceEvent {
    /// When it happened.
    pub time: SimTime,
    /// What happened.
    pub kind: TraceKind,
    /// Flow the packet belongs to.
    pub flow: FlowId,
    /// Transport sequence number.
    pub seq: u64,
    /// Globally unique packet id.
    pub uid: u64,
    /// Wire size in bytes.
    pub size: u32,
    /// True for data segments (false for ACKs).
    pub is_data: bool,
}

impl TraceEvent {
    pub(crate) fn new(time: SimTime, kind: TraceKind, pkt: &Packet) -> Self {
        TraceEvent {
            time,
            kind,
            flow: pkt.flow,
            seq: pkt.seq,
            uid: pkt.uid,
            size: pkt.size,
            is_data: pkt.is_data(),
        }
    }
}

/// Receives trace events as the simulation runs.
pub trait TraceSink: Send {
    /// Called once per event, in simulation order.
    fn record(&mut self, event: &TraceEvent);

    /// Downcast hook so a sink taken back from the simulator
    /// ([`crate::sim::Simulator::take_trace`]) can be read as its
    /// concrete type.
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }
}

/// In-memory trace with an optional flow filter and a hard cap (events
/// beyond the cap are counted but not stored).
#[derive(Debug)]
pub struct VecTrace {
    events: Vec<TraceEvent>,
    filter: Option<FlowId>,
    cap: usize,
    total_seen: u64,
}

impl VecTrace {
    /// Keep at most `cap` events.
    pub fn new(cap: usize) -> Self {
        VecTrace {
            events: Vec::new(),
            filter: None,
            cap,
            total_seen: 0,
        }
    }

    /// Only record events of one flow.
    pub fn for_flow(mut self, flow: FlowId) -> Self {
        self.filter = Some(flow);
        self
    }

    /// The recorded events.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of matching events seen, including ones beyond the cap.
    pub fn total_seen(&self) -> u64 {
        self.total_seen
    }

    /// Number of matching events dropped because the cap was full.
    pub fn truncated(&self) -> u64 {
        self.total_seen.saturating_sub(self.events.len() as u64)
    }
}

impl TraceSink for VecTrace {
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn record(&mut self, event: &TraceEvent) {
        if let Some(f) = self.filter {
            if event.flow != f {
                return;
            }
        }
        self.total_seen += 1;
        if self.events.len() < self.cap {
            self.events.push(*event);
        }
    }
}

// ---------------------------------------------------------------------
// Windowed aggregation
// ---------------------------------------------------------------------

/// One aggregated time window: everything the stream sinks report per
/// bin. Bins are anchored at t = 0 and `width` wide; empty bins are
/// emitted too, so downstream tooling sees a regular time series.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct TraceBin {
    /// Bin index (bin `i` covers `[i*width, (i+1)*width)`).
    pub index: u64,
    /// Packets handed to the network by sources.
    pub sends: u64,
    /// Link enqueues (ns-2 `+`).
    pub enqueues: u64,
    /// Link dequeues, i.e. packets that began serializing (ns-2 `-`).
    pub dequeues: u64,
    /// Packets delivered to destination agents.
    pub delivered_packets: u64,
    /// Bytes delivered to destination agents (throughput per bin).
    pub delivered_bytes: u64,
    /// Drops by scripted loss patterns.
    pub drops_loss: u64,
    /// Drops by queue disciplines (early drop or overflow).
    pub drops_queue: u64,
    /// Drops inside scripted link outages.
    pub drops_link_down: u64,
    /// ECN marks.
    pub marks: u64,
    /// Fault-layer duplications.
    pub fault_dups: u64,
    /// Fault-layer reorder holds.
    pub fault_holds: u64,
    /// Peak buffered packets across all links in the bin. Like
    /// [`crate::sim::Simulator::link_queue_len`], this excludes packets
    /// on the wire; an arrival at an idle link still counts for the
    /// instant between its enqueue and dequeue, so a bin with any
    /// traffic peaks at 1 or more.
    pub occupancy_max: i64,
    /// Buffered packets (excluding those on the wire) at the end of the
    /// bin.
    pub occupancy_end: i64,
}

/// The shared binning engine behind [`StreamTrace`] and
/// [`WindowedStats`]: one open bin plus a global occupancy counter —
/// O(1) state in packet count.
///
/// Occupancy follows the simulator's event order: `Enqueue` fires
/// before the queue decision and a queue drop follows its own enqueue,
/// so occupancy is `+1` per enqueue, `-1` per dequeue and per
/// queue-reason drop. Loss-pattern and link-down drops happen before
/// any enqueue and leave occupancy untouched.
#[derive(Debug)]
struct BinState {
    width: SimDuration,
    current: TraceBin,
    occupancy: i64,
}

impl BinState {
    fn new(width: SimDuration) -> Self {
        assert!(!width.is_zero(), "bin width must be positive");
        BinState {
            width,
            current: TraceBin::default(),
            occupancy: 0,
        }
    }

    /// Fold one event in, emitting every bin it closes.
    fn feed(&mut self, e: &TraceEvent, emit: &mut dyn FnMut(&TraceBin)) {
        let index = e.time.as_nanos() / self.width.as_nanos();
        while self.current.index < index {
            self.current.occupancy_end = self.occupancy;
            emit(&self.current);
            self.current = TraceBin {
                index: self.current.index + 1,
                occupancy_max: self.occupancy,
                ..TraceBin::default()
            };
        }
        let bin = &mut self.current;
        match e.kind {
            TraceKind::Send => bin.sends += 1,
            TraceKind::Enqueue { .. } => {
                bin.enqueues += 1;
                self.occupancy += 1;
                bin.occupancy_max = bin.occupancy_max.max(self.occupancy);
            }
            TraceKind::Dequeue { .. } => {
                bin.dequeues += 1;
                self.occupancy -= 1;
            }
            TraceKind::Drop { reason, .. } => match reason {
                DropReason::LossPattern => bin.drops_loss += 1,
                DropReason::Queue => {
                    bin.drops_queue += 1;
                    self.occupancy -= 1;
                }
                DropReason::LinkDown => bin.drops_link_down += 1,
            },
            TraceKind::Mark { .. } => bin.marks += 1,
            TraceKind::Deliver { .. } => {
                bin.delivered_packets += 1;
                bin.delivered_bytes += e.size as u64;
            }
            TraceKind::FaultDup { .. } => bin.fault_dups += 1,
            TraceKind::FaultHold { .. } => bin.fault_holds += 1,
        }
    }

    /// The open (not yet emitted) bin, closed as of now.
    fn tail(&self) -> TraceBin {
        let mut bin = self.current;
        bin.occupancy_end = self.occupancy;
        bin
    }
}

/// In-memory windowed aggregation: O(bins) memory, independent of
/// packet count. Read the series back with [`WindowedStats::bins`]
/// after taking the sink from the simulator.
#[derive(Debug)]
pub struct WindowedStats {
    state: BinState,
    rows: Vec<TraceBin>,
}

impl WindowedStats {
    /// Aggregate into bins of `width`.
    pub fn new(width: SimDuration) -> Self {
        WindowedStats {
            state: BinState::new(width),
            rows: Vec::new(),
        }
    }

    /// The completed bins plus the open tail bin, in time order.
    pub fn bins(&self) -> Vec<TraceBin> {
        let mut rows = self.rows.clone();
        rows.push(self.state.tail());
        rows
    }
}

impl TraceSink for WindowedStats {
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn record(&mut self, event: &TraceEvent) {
        let rows = &mut self.rows;
        self.state.feed(event, &mut |bin| rows.push(*bin));
    }
}

/// Output syntax of a [`StreamTrace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamFormat {
    /// One JSON object per row, newline-delimited.
    Jsonl,
    /// A header line, then one comma-separated row per bin.
    Csv,
}

impl StreamFormat {
    /// Parse `"jsonl"` / `"csv"`.
    pub fn parse(s: &str) -> Option<StreamFormat> {
        match s {
            "jsonl" => Some(StreamFormat::Jsonl),
            "csv" => Some(StreamFormat::Csv),
            _ => None,
        }
    }
}

/// Column names of the streamed rows, in order.
pub const STREAM_COLUMNS: [&str; 15] = [
    "bin",
    "start_secs",
    "sends",
    "enqueues",
    "dequeues",
    "delivered_packets",
    "delivered_bytes",
    "drops_loss",
    "drops_queue",
    "drops_link_down",
    "marks",
    "fault_dups",
    "fault_holds",
    "occupancy_max",
    "occupancy_end",
];

/// Incremental windowed-aggregate sink: each completed bin is rendered
/// and written immediately, so memory stays O(1) in packet count no
/// matter how long the run is. Call [`StreamTrace::finish`] after the
/// run to flush the open tail bin and recover the writer.
pub struct StreamTrace<W: Write + Send> {
    out: W,
    format: StreamFormat,
    state: BinState,
    rows_written: u64,
}

impl<W: Write + Send> StreamTrace<W> {
    /// Stream bins of `width` into `out` as `format`. The CSV header
    /// is written up front.
    pub fn new(mut out: W, format: StreamFormat, width: SimDuration) -> Self {
        if format == StreamFormat::Csv {
            let _ = writeln!(out, "{}", STREAM_COLUMNS.join(","));
        }
        StreamTrace {
            out,
            format,
            state: BinState::new(width),
            rows_written: 0,
        }
    }

    /// Rows written so far (completed bins only).
    pub fn rows_written(&self) -> u64 {
        self.rows_written
    }

    /// Flush the open tail bin and return the writer.
    pub fn finish(mut self) -> W {
        let tail = self.state.tail();
        write_bin_row(&mut self.out, self.format, self.state.width, &tail);
        let _ = self.out.flush();
        self.out
    }
}

/// Render one aggregate bin as a JSONL or CSV row — the exact format
/// [`StreamTrace`] emits, exposed so post-hoc writers (e.g. experiment
/// `save` hooks replaying collected [`WindowedStats`] bins to a file)
/// produce byte-identical output to the live streaming sink.
pub fn write_bin_row<W: Write>(
    out: &mut W,
    format: StreamFormat,
    width: SimDuration,
    bin: &TraceBin,
) {
    let start_secs = (width * bin.index).as_secs_f64();
    let res = match format {
        StreamFormat::Jsonl => writeln!(
            out,
            "{{\"bin\":{},\"start_secs\":{:?},\"sends\":{},\"enqueues\":{},\"dequeues\":{},\
             \"delivered_packets\":{},\"delivered_bytes\":{},\"drops_loss\":{},\
             \"drops_queue\":{},\"drops_link_down\":{},\"marks\":{},\"fault_dups\":{},\
             \"fault_holds\":{},\"occupancy_max\":{},\"occupancy_end\":{}}}",
            bin.index,
            start_secs,
            bin.sends,
            bin.enqueues,
            bin.dequeues,
            bin.delivered_packets,
            bin.delivered_bytes,
            bin.drops_loss,
            bin.drops_queue,
            bin.drops_link_down,
            bin.marks,
            bin.fault_dups,
            bin.fault_holds,
            bin.occupancy_max,
            bin.occupancy_end,
        ),
        StreamFormat::Csv => writeln!(
            out,
            "{},{:?},{},{},{},{},{},{},{},{},{},{},{},{},{}",
            bin.index,
            start_secs,
            bin.sends,
            bin.enqueues,
            bin.dequeues,
            bin.delivered_packets,
            bin.delivered_bytes,
            bin.drops_loss,
            bin.drops_queue,
            bin.drops_link_down,
            bin.marks,
            bin.fault_dups,
            bin.fault_holds,
            bin.occupancy_max,
            bin.occupancy_end,
        ),
    };
    // A failed trace write must not bring the simulation down; the
    // trace is observability, not state.
    let _ = res;
}

impl<W: Write + Send> TraceSink for StreamTrace<W> {
    fn record(&mut self, event: &TraceEvent) {
        let out = &mut self.out;
        let format = self.format;
        let width = self.state.width;
        let rows_written = &mut self.rows_written;
        self.state.feed(event, &mut |bin| {
            write_bin_row(out, format, width, bin);
            *rows_written += 1;
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::AgentId;
    use crate::packet::{DataInfo, Payload};

    fn pkt(uid: u64, flow: usize) -> Packet {
        Packet {
            uid,
            flow: FlowId::from_index(flow),
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

    #[test]
    fn vec_trace_filters_and_caps() {
        let mut t = VecTrace::new(2).for_flow(FlowId::from_index(1));
        for i in 0..5 {
            let p = pkt(i, (i % 2) as usize);
            t.record(&TraceEvent::new(
                SimTime::from_millis(i),
                TraceKind::Send,
                &p,
            ));
        }
        // Flow 1 events: uids 1, 3 -> both stored (cap 2); a third would
        // only bump the counter.
        assert_eq!(t.events().len(), 2);
        assert_eq!(t.total_seen(), 2);
        assert!(t.events().iter().all(|e| e.flow == FlowId::from_index(1)));
    }

    #[test]
    fn vec_trace_counts_truncation() {
        let mut t = VecTrace::new(2);
        for i in 0..5 {
            let p = pkt(i, 0);
            t.record(&TraceEvent::new(SimTime::from_millis(i), TraceKind::Send, &p));
        }
        assert_eq!(t.events().len(), 2);
        assert_eq!(t.total_seen(), 5);
        assert_eq!(t.truncated(), 3);
    }

    fn ev(ms: u64, kind: TraceKind) -> TraceEvent {
        TraceEvent::new(SimTime::from_millis(ms), kind, &pkt(ms, 0))
    }

    fn link(ix: usize) -> LinkId {
        LinkId::from_index(ix)
    }

    /// A small scripted event sequence spanning three 10 ms bins:
    /// an enqueue/dequeue/deliver in bin 0, a queue drop straddling the
    /// occupancy count in bin 1, and a gap leaving bin 2 empty.
    fn scripted() -> Vec<TraceEvent> {
        vec![
            ev(1, TraceKind::Send),
            ev(1, TraceKind::Enqueue { link: link(0) }),
            ev(2, TraceKind::Enqueue { link: link(0) }),
            ev(3, TraceKind::Dequeue { link: link(0) }),
            ev(4, TraceKind::Deliver { node: NodeId::from_index(1) }),
            ev(12, TraceKind::Enqueue { link: link(0) }),
            ev(12, TraceKind::Drop { link: link(0), reason: DropReason::Queue }),
            ev(13, TraceKind::Drop { link: link(0), reason: DropReason::LinkDown }),
            ev(35, TraceKind::Mark { link: link(0) }),
        ]
    }

    #[test]
    fn windowed_stats_aggregates_per_bin() {
        let mut w = WindowedStats::new(SimDuration::from_millis(10));
        for e in scripted() {
            w.record(&e);
        }
        let bins = w.bins();
        assert_eq!(bins.len(), 4);
        let b0 = &bins[0];
        assert_eq!((b0.sends, b0.enqueues, b0.dequeues), (1, 2, 1));
        assert_eq!((b0.delivered_packets, b0.delivered_bytes), (1, 1000));
        // Two enqueued, one dequeued: occupancy peaked at 2, ends at 1.
        assert_eq!((b0.occupancy_max, b0.occupancy_end), (2, 1));
        let b1 = &bins[1];
        assert_eq!((b1.drops_queue, b1.drops_link_down), (1, 1));
        // The queue drop undoes its own enqueue; link-down drops never
        // enqueued, so the carried packet from bin 0 is all that's left.
        assert_eq!((b1.occupancy_max, b1.occupancy_end), (2, 1));
        // Bin 2 is empty but still present.
        assert_eq!(bins[2], TraceBin { index: 2, occupancy_max: 1, occupancy_end: 1, ..TraceBin::default() });
        assert_eq!(bins[3].marks, 1);
    }

    #[test]
    fn stream_trace_matches_windowed_stats() {
        let mut w = WindowedStats::new(SimDuration::from_millis(10));
        let mut s = StreamTrace::new(Vec::new(), StreamFormat::Csv, SimDuration::from_millis(10));
        for e in scripted() {
            w.record(&e);
            s.record(&e);
        }
        assert_eq!(s.rows_written(), 3);
        let text = String::from_utf8(s.finish()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], STREAM_COLUMNS.join(","));
        assert_eq!(lines.len(), 1 + w.bins().len());
        for (line, bin) in lines[1..].iter().zip(w.bins()) {
            let cells: Vec<&str> = line.split(',').collect();
            assert_eq!(cells.len(), STREAM_COLUMNS.len());
            assert_eq!(cells[0], bin.index.to_string());
            assert_eq!(cells[4], bin.dequeues.to_string());
            assert_eq!(cells[13], bin.occupancy_max.to_string());
        }
    }

    #[test]
    fn jsonl_rows_are_valid_json_objects() {
        let mut s =
            StreamTrace::new(Vec::new(), StreamFormat::Jsonl, SimDuration::from_millis(10));
        for e in scripted() {
            s.record(&e);
        }
        let text = String::from_utf8(s.finish()).unwrap();
        for line in text.lines() {
            assert!(line.starts_with("{\"bin\":") && line.ends_with('}'), "{line}");
            assert!(line.contains("\"start_secs\":"), "{line}");
        }
        assert_eq!(text.lines().count(), 4);
    }
}
