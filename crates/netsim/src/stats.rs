//! Time-binned statistics collected by the simulator.
//!
//! Everything the paper's metrics need is derivable from three streams of
//! counters, recorded automatically for every flow and link:
//!
//! * per-flow transmitted bytes/packets (sending rate, smoothness),
//! * per-flow delivered bytes/packets at the destination (throughput,
//!   fairness, utilization),
//! * per-link arrivals, drops and transmitted bytes at the buffer
//!   (loss-rate series, stabilization metrics, utilization).
//!
//! Counters are accumulated into fixed-width time bins (default 10 ms) and
//! re-aggregated into coarser windows on demand, so one simulation run can
//! feed metrics that need different window sizes.

use serde::Serialize;

use crate::ids::{FlowId, LinkId};
use crate::time::{SimDuration, SimTime};

/// Per-flow counters.
#[derive(Debug, Default, Clone, Serialize)]
pub struct FlowStats {
    /// Bytes handed to the network by the source, per bin.
    pub tx_bytes: Vec<u64>,
    /// Data bytes delivered to the destination agent, per bin.
    pub rx_bytes: Vec<u64>,
    /// Data packets delivered to the destination agent, per bin.
    pub rx_packets: Vec<u64>,
    /// Total bytes handed to the network by the source.
    pub total_tx_bytes: u64,
    /// Total data bytes delivered to the destination agent.
    pub total_rx_bytes: u64,
    /// Total data packets delivered to the destination agent.
    pub total_rx_packets: u64,
}

/// Per-link counters, recorded at the link buffer.
#[derive(Debug, Default, Clone, Serialize)]
pub struct LinkStats {
    /// Packets offered to the link (before loss patterns and queueing).
    pub arrivals: Vec<u64>,
    /// Packets dropped (scripted loss + queue drops), per bin.
    pub drops: Vec<u64>,
    /// Packets ECN-marked (scripted marking + RED-with-ECN), per bin.
    pub marks: Vec<u64>,
    /// Sum of the buffer occupancies observed by arriving packets, per
    /// bin; divided by `arrivals` this gives the mean queue seen on
    /// arrival (the queue-dynamics metric).
    pub queue_sum: Vec<u64>,
    /// Bytes whose serialization ends in the bin. Booked when the packet
    /// is committed to the wire, so the series can run one packet ahead
    /// of the clock (a packet still serializing at the run's horizon is
    /// already in the bin where it will finish).
    pub tx_bytes: Vec<u64>,
    /// Total packets offered to the link.
    pub total_arrivals: u64,
    /// Total packets dropped at the link.
    pub total_drops: u64,
    /// Total packets ECN-marked at the link.
    pub total_marks: u64,
    /// Total bytes committed to the wire (including a packet still
    /// serializing when the run stopped).
    pub total_tx_bytes: u64,
    /// Total packets committed to the wire: every packet that left the
    /// buffer, so `total_arrivals == total_tx_packets + total_drops +
    /// queue length` holds at any instant.
    pub total_tx_packets: u64,
    /// Packets cloned by the fault layer (see [`crate::faults`]). The
    /// clone later shows up in `total_arrivals` like any offered packet.
    pub total_duplicates: u64,
    /// Packets sent through the fault layer's reorder hold bay.
    pub total_fault_held: u64,
    /// Packets dropped inside a scripted outage window. A subset of
    /// `total_drops`, kept separately so experiments can distinguish
    /// blackhole loss from congestive loss.
    pub total_flap_drops: u64,
}

/// Statistics store. Owned by the simulator; read out after (or during)
/// a run.
#[derive(Debug)]
pub struct Stats {
    bin: SimDuration,
    /// Memo of the last bin resolved by the record path: `[start, end)`
    /// in nanos and the bin index. Record timestamps are nearly monotone
    /// and bins are ~10 ms wide, so almost every record hits the memo
    /// and skips the 64-bit division in [`Self::bin_index`].
    bin_memo: (u64, u64, usize),
    /// Bins up to the furthest `run_until` horizon so far. A series is
    /// allocated on its first record at `reserve_hint + 1` bins (`tx_bytes`
    /// is booked at serialization end and can land one bin past the
    /// horizon) and re-sized to the new horizon when a later `run_until`
    /// outgrows it, so a run pays one allocation per recorded series
    /// instead of doubling through ~10 reallocs and up to 2x slack.
    /// Never-recorded series stay unallocated. Capacity only — recorded
    /// lengths and values are untouched.
    reserve_hint: usize,
    flows: Vec<FlowStats>,
    links: Vec<LinkStats>,
}

/// Add `amount` to bin `ix` of `v`. The common case is a compare and an
/// add; extending the series is out of line in [`grow`].
#[inline]
fn bump(v: &mut Vec<u64>, ix: usize, amount: u64, hint: usize) {
    if v.len() <= ix {
        grow(v, ix, hint);
    }
    v[ix] += amount;
}

/// Extend `v` to cover bin `ix`, reserving exactly `hint + 1` bins when
/// the horizon is beyond the current capacity (see `Stats::reserve_hint`);
/// a bin past the horizon falls back to `Vec`'s doubling.
#[cold]
#[inline(never)]
fn grow(v: &mut Vec<u64>, ix: usize, hint: usize) {
    v.reserve_exact((hint + 1).saturating_sub(v.len()));
    v.resize(ix + 1, 0);
}

impl Stats {
    /// A store with the given bin width. Panics on a zero width, which
    /// would make every event land in one bin.
    pub fn new(bin: SimDuration) -> Self {
        assert!(!bin.is_zero(), "stats bin width must be positive");
        Stats {
            bin,
            bin_memo: (0, 0, 0),
            reserve_hint: 0,
            flows: Vec::new(),
            links: Vec::new(),
        }
    }

    fn bin_index(&self, t: SimTime) -> usize {
        (t.as_nanos() / self.bin.as_nanos()) as usize
    }

    /// [`Self::bin_index`] for the record path: checks the `[start, end)`
    /// memo before dividing. Returns the identical index for every input
    /// (the memo is an exact cache, not an approximation), so recorded
    /// series are byte-for-byte unaffected.
    #[inline]
    fn bin_index_hot(&mut self, t: SimTime) -> usize {
        let ns = t.as_nanos();
        let (start, end, ix) = self.bin_memo;
        if ns >= start && ns < end {
            return ix;
        }
        let width = self.bin.as_nanos();
        let ix = (ns / width) as usize;
        let start = ix as u64 * width;
        self.bin_memo = (start, start.saturating_add(width), ix);
        ix
    }

    /// Record the horizon the simulator is about to run to (`run_until`
    /// calls this before dispatching anything), so every series first
    /// recorded or outgrown from here on is sized to it in one
    /// allocation. Clamped so a `run_until(SimTime::MAX)` drain cannot
    /// trigger a huge allocation.
    pub(crate) fn set_reserve_hint(&mut self, until: SimTime) {
        const MAX_HINT_BINS: usize = 1 << 17;
        self.reserve_hint = self
            .reserve_hint
            .max((self.bin_index(until) + 1).min(MAX_HINT_BINS));
    }

    /// Register `flow` (and every lower index). Allocates no bins.
    pub(crate) fn ensure_flow(&mut self, flow: FlowId) {
        if self.flows.len() <= flow.index() {
            self.flows.resize_with(flow.index() + 1, FlowStats::default);
        }
    }

    /// Register `link` (and every lower index). Allocates no bins; the
    /// simulator registers each link in `add_link`, so the per-hop
    /// `record_link_*` calls index it directly.
    pub(crate) fn ensure_link(&mut self, link: LinkId) {
        if self.links.len() <= link.index() {
            self.links.resize_with(link.index() + 1, LinkStats::default);
        }
    }

    pub(crate) fn record_flow_tx(&mut self, flow: FlowId, now: SimTime, bytes: u32) {
        let ix = self.bin_index_hot(now);
        self.ensure_flow(flow);
        let hint = self.reserve_hint;
        let f = &mut self.flows[flow.index()];
        bump(&mut f.tx_bytes, ix, bytes as u64, hint);
        f.total_tx_bytes += bytes as u64;
    }

    pub(crate) fn record_flow_rx(&mut self, flow: FlowId, now: SimTime, bytes: u32) {
        let ix = self.bin_index_hot(now);
        self.ensure_flow(flow);
        let hint = self.reserve_hint;
        let f = &mut self.flows[flow.index()];
        bump(&mut f.rx_bytes, ix, bytes as u64, hint);
        bump(&mut f.rx_packets, ix, 1, hint);
        f.total_rx_bytes += bytes as u64;
        f.total_rx_packets += 1;
    }

    pub(crate) fn record_link_arrival(&mut self, link: LinkId, now: SimTime, queue_len: usize) {
        let ix = self.bin_index_hot(now);
        let hint = self.reserve_hint;
        let l = &mut self.links[link.index()];
        bump(&mut l.arrivals, ix, 1, hint);
        bump(&mut l.queue_sum, ix, queue_len as u64, hint);
        l.total_arrivals += 1;
    }

    /// Mean buffer occupancy seen by packets arriving at `link`, per
    /// `window`-wide interval (zero where nothing arrived).
    pub fn link_queue_series(&self, link: LinkId, window: SimDuration, until: SimTime) -> Vec<f64> {
        let Some(l) = self.link(link) else {
            return Vec::new();
        };
        let n = until.as_nanos().div_ceil(window.as_nanos());
        (0..n)
            .map(|w| {
                let from = SimTime::from_nanos(w * window.as_nanos());
                let to = SimTime::from_nanos((w + 1) * window.as_nanos());
                let arrivals = self.sum_window(&l.arrivals, from, to);
                if arrivals == 0 {
                    0.0
                } else {
                    self.sum_window(&l.queue_sum, from, to) as f64 / arrivals as f64
                }
            })
            .collect()
    }

    pub(crate) fn record_link_drop(&mut self, link: LinkId, now: SimTime) {
        let ix = self.bin_index_hot(now);
        let hint = self.reserve_hint;
        let l = &mut self.links[link.index()];
        bump(&mut l.drops, ix, 1, hint);
        l.total_drops += 1;
    }

    /// A scripted-outage drop: ordinary drop accounting plus the
    /// flap-specific sub-counter.
    pub(crate) fn record_link_flap_drop(&mut self, link: LinkId, now: SimTime) {
        self.record_link_drop(link, now);
        self.links[link.index()].total_flap_drops += 1;
    }

    pub(crate) fn record_link_duplicate(&mut self, link: LinkId) {
        self.links[link.index()].total_duplicates += 1;
    }

    pub(crate) fn record_link_fault_held(&mut self, link: LinkId) {
        self.links[link.index()].total_fault_held += 1;
    }

    pub(crate) fn record_link_mark(&mut self, link: LinkId, now: SimTime) {
        let ix = self.bin_index_hot(now);
        let hint = self.reserve_hint;
        let l = &mut self.links[link.index()];
        bump(&mut l.marks, ix, 1, hint);
        l.total_marks += 1;
    }

    pub(crate) fn record_link_tx(&mut self, link: LinkId, now: SimTime, bytes: u32) {
        let ix = self.bin_index_hot(now);
        let hint = self.reserve_hint;
        let l = &mut self.links[link.index()];
        bump(&mut l.tx_bytes, ix, bytes as u64, hint);
        l.total_tx_bytes += bytes as u64;
        l.total_tx_packets += 1;
    }

    /// Raw per-flow counters, if the flow ever carried traffic.
    pub fn flow(&self, flow: FlowId) -> Option<&FlowStats> {
        self.flows.get(flow.index())
    }

    /// Raw per-link counters, if the link ever saw traffic.
    pub fn link(&self, link: LinkId) -> Option<&LinkStats> {
        self.links.get(link.index())
    }

    /// Sum a binned counter over the half-open interval `[from, to)`.
    fn sum_window(&self, series: &[u64], from: SimTime, to: SimTime) -> u64 {
        if to <= from {
            return 0;
        }
        let lo = self.bin_index(from);
        // `to` is exclusive; the bin containing `to - 1ns` is the last.
        let hi = ((to.as_nanos() - 1) / self.bin.as_nanos()) as usize;
        series.iter().skip(lo).take(hi.saturating_sub(lo) + 1).sum()
    }

    /// Data bytes delivered on `flow` in `[from, to)`.
    pub fn flow_rx_bytes_in(&self, flow: FlowId, from: SimTime, to: SimTime) -> u64 {
        self.flow(flow)
            .map_or(0, |f| self.sum_window(&f.rx_bytes, from, to))
    }

    /// Average delivered throughput of `flow` over `[from, to)` in bits/s.
    pub fn flow_throughput_bps(&self, flow: FlowId, from: SimTime, to: SimTime) -> f64 {
        let secs = to.saturating_since(from).as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.flow_rx_bytes_in(flow, from, to) as f64 * 8.0 / secs
    }

    /// Delivered throughput of `flow` re-binned into windows of `window`
    /// width starting at time zero, in bits/s per window.
    pub fn flow_rate_series_bps(
        &self,
        flow: FlowId,
        window: SimDuration,
        until: SimTime,
    ) -> Vec<f64> {
        self.rate_series(
            self.flow(flow)
                .map(|f| f.rx_bytes.as_slice())
                .unwrap_or(&[]),
            window,
            until,
        )
    }

    /// Source sending rate of `flow` re-binned into `window`-wide windows,
    /// in bits/s per window.
    pub fn flow_tx_rate_series_bps(
        &self,
        flow: FlowId,
        window: SimDuration,
        until: SimTime,
    ) -> Vec<f64> {
        self.rate_series(
            self.flow(flow)
                .map(|f| f.tx_bytes.as_slice())
                .unwrap_or(&[]),
            window,
            until,
        )
    }

    fn rate_series(&self, bytes: &[u64], window: SimDuration, until: SimTime) -> Vec<f64> {
        assert!(
            window.as_nanos() >= self.bin.as_nanos(),
            "window narrower than stats bin"
        );
        let n = until.as_nanos().div_ceil(window.as_nanos());
        let secs = window.as_secs_f64();
        (0..n)
            .map(|w| {
                let from = SimTime::from_nanos(w * window.as_nanos());
                let to = SimTime::from_nanos((w + 1) * window.as_nanos());
                self.sum_window(bytes, from, to) as f64 * 8.0 / secs
            })
            .collect()
    }

    /// Packets dropped at `link` over `[from, to)`.
    pub fn link_drops_in(&self, link: LinkId, from: SimTime, to: SimTime) -> u64 {
        self.link(link)
            .map_or(0, |l| self.sum_window(&l.drops, from, to))
    }

    /// Packets ECN-marked at `link` over `[from, to)`.
    pub fn link_marks_in(&self, link: LinkId, from: SimTime, to: SimTime) -> u64 {
        self.link(link)
            .map_or(0, |l| self.sum_window(&l.marks, from, to))
    }

    /// Packet drop fraction at `link` over `[from, to)`:
    /// drops / arrivals, or zero when nothing arrived.
    pub fn link_loss_fraction_in(&self, link: LinkId, from: SimTime, to: SimTime) -> f64 {
        let Some(l) = self.link(link) else { return 0.0 };
        let arrivals = self.sum_window(&l.arrivals, from, to);
        if arrivals == 0 {
            return 0.0;
        }
        let drops = self.sum_window(&l.drops, from, to);
        drops as f64 / arrivals as f64
    }

    /// Loss-fraction time series at `link` in windows of `window` width.
    pub fn link_loss_series(&self, link: LinkId, window: SimDuration, until: SimTime) -> Vec<f64> {
        let n = until.as_nanos().div_ceil(window.as_nanos());
        (0..n)
            .map(|w| {
                let from = SimTime::from_nanos(w * window.as_nanos());
                let to = SimTime::from_nanos((w + 1) * window.as_nanos());
                self.link_loss_fraction_in(link, from, to)
            })
            .collect()
    }

    /// Bytes whose serialization on `link` ends in `[from, to)`.
    pub fn link_tx_bytes_in(&self, link: LinkId, from: SimTime, to: SimTime) -> u64 {
        self.link(link)
            .map_or(0, |l| self.sum_window(&l.tx_bytes, from, to))
    }

    /// Utilization of `link` over `[from, to)` against a nominal rate.
    pub fn link_utilization_in(
        &self,
        link: LinkId,
        from: SimTime,
        to: SimTime,
        rate_bps: f64,
    ) -> f64 {
        let secs = to.saturating_since(from).as_secs_f64();
        if secs <= 0.0 || rate_bps <= 0.0 {
            return 0.0;
        }
        (self.link_tx_bytes_in(link, from, to) as f64 * 8.0) / (rate_bps * secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn flow_counters_aggregate_by_window() {
        let mut s = Stats::new(SimDuration::from_millis(10));
        let f = FlowId::from_index(0);
        s.record_flow_rx(f, t(5), 1000);
        s.record_flow_rx(f, t(15), 1000);
        s.record_flow_rx(f, t(95), 500);
        assert_eq!(s.flow_rx_bytes_in(f, t(0), t(20)), 2000);
        assert_eq!(s.flow_rx_bytes_in(f, t(0), t(100)), 2500);
        assert_eq!(s.flow_rx_bytes_in(f, t(20), t(90)), 0);
        // 2500 bytes over 0.1 s = 200 kbit/s.
        assert!((s.flow_throughput_bps(f, t(0), t(100)) - 200_000.0).abs() < 1e-6);
    }

    #[test]
    fn empty_windows_are_zero() {
        let s = Stats::new(SimDuration::from_millis(10));
        let f = FlowId::from_index(3);
        assert_eq!(s.flow_rx_bytes_in(f, t(0), t(100)), 0);
        assert_eq!(s.flow_throughput_bps(f, t(10), t(10)), 0.0);
    }

    #[test]
    fn loss_fraction_counts_drops_over_arrivals() {
        let mut s = Stats::new(SimDuration::from_millis(10));
        let l = LinkId::from_index(0);
        s.ensure_link(l);
        for i in 0..10 {
            s.record_link_arrival(l, t(i), 0);
        }
        s.record_link_drop(l, t(3));
        s.record_link_drop(l, t(4));
        assert!((s.link_loss_fraction_in(l, t(0), t(10)) - 0.2).abs() < 1e-12);
        assert_eq!(s.link_loss_fraction_in(l, t(100), t(200)), 0.0);
    }

    #[test]
    fn rate_series_covers_the_whole_horizon() {
        let mut s = Stats::new(SimDuration::from_millis(10));
        let f = FlowId::from_index(0);
        s.record_flow_rx(f, t(5), 125); // 125 B in first 100 ms window -> 10 kbit/s
        s.record_flow_rx(f, t(150), 250);
        let series = s.flow_rate_series_bps(f, SimDuration::from_millis(100), t(200));
        assert_eq!(series.len(), 2);
        assert!((series[0] - 10_000.0).abs() < 1e-6);
        assert!((series[1] - 20_000.0).abs() < 1e-6);
    }

    #[test]
    fn utilization_against_nominal_rate() {
        let mut s = Stats::new(SimDuration::from_millis(10));
        let l = LinkId::from_index(1);
        s.ensure_link(l);
        // 125_000 bytes in 1 second = 1 Mbit/s.
        s.record_link_tx(l, t(500), 125_000);
        let u = s.link_utilization_in(l, t(0), SimTime::from_secs(1), 2e6);
        assert!((u - 0.5).abs() < 1e-9);
    }

    #[test]
    fn a_series_is_allocated_at_the_hint_on_first_record() {
        let mut s = Stats::new(SimDuration::from_millis(10));
        let l = LinkId::from_index(0);
        s.ensure_link(l);
        s.set_reserve_hint(SimTime::from_secs(1));
        assert_eq!(s.link(l).unwrap().arrivals.capacity(), 0);
        s.record_link_arrival(l, t(5), 0);
        let stats = s.link(l).unwrap();
        assert_eq!(stats.arrivals.capacity(), 102);
        assert_eq!(stats.arrivals.len(), 1);
        assert_eq!(stats.drops.capacity(), 0, "unrecorded series allocated");
        // A bin past the horizon still records (growing past the hint).
        s.record_link_tx(l, t(1_500), 100);
        assert_eq!(s.link_tx_bytes_in(l, t(1_500), t(1_510)), 100);
    }
}
