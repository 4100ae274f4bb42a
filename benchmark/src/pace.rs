//! Host-speed normalisation.
//!
//! The sandbox this benchmark runs in is a small VM on a shared host.
//! Its speed changes in steps, for every process alike: the same
//! binary with the same seed takes 0.35 s, then for two minutes 0.63 s,
//! then 0.35 s again (recorded: medians over 12 s windows of one
//! process spread by 12 % in the calmest ten minutes and by 46-66 % in
//! the wildest). Medians over more iterations cannot remove a slow spell
//! that outlasts a run, so every timing is instead divided by how slow
//! the host was *while it was taken*: a fixed piece of frozen work (a
//! "beat", ~11 ms) runs in blocks between the timed intervals, and an
//! interval is divided by `(beats around it / NOMINAL_BEAT_S) ^ s`,
//! where `s` is the measured sensitivity of the workload (see
//! `Workload::sensitivity`). Reported seconds are therefore seconds on a
//! host that runs the beat in exactly [`NOMINAL_BEAT_S`]: this sandbox
//! class when it is quiet.
//!
//! The beat is this file's own code and touches nothing under
//! `crates/`: a change to the simulator cannot speed it up, so a real
//! gain still shows in full. It is a miniature discrete-event
//! simulation: a binary heap of 65 536 events (1 MiB), 4096 flows of
//! window arithmetic (256 KiB) and a 16 MiB slab of packets written at
//! random. What it is made of matters more than anything else here,
//! because a neighbour on the host slows different kinds of code by
//! different factors. Candidates ran in blocks between iterations of the
//! simulation workloads for 7-8 minutes each, and the spread of the 12 s
//! window medians was, raw and divided by each candidate:
//!
//! | workload (spell) | raw | arithmetic + 1 MiB table | this beat |
//! |---|---|---|---|
//! | `bulk-tcp` (calm) | 12 % | 16 % | 6 % |
//! | `flavor-mix` (calm) | 13 % | 7 % | 3 % |
//! | `wide-lot` (stepping) | 26 % | 8 % | 2 % |
//! | `bulk-tcp` (wild) | 46 % | | 16 %, with its sensitivity 5 % |
//! | `forward-cbr` (wild) | 66 % | | 14 %, with its sensitivity 5 % |
//!
//! The first version of this benchmark used the arithmetic beat of the
//! middle column, 6 ms at a time: its dependent chain has little for a
//! neighbour to take away, and beats that short mostly measured the
//! host's millisecond noise (the beats before and after one iteration
//! correlated at 0.06). Variants of this beat with a 4096-event heap, a
//! 64 MiB slab, or a dependent read of the slab tracked the simulator no
//! better.
//!
//! A block is one untimed beat, which refills the caches the measured
//! code emptied, and the median of five timed ones. An interval is set
//! against the block before it and the block after it; neighbouring
//! intervals share the block between them, and intervals shorter than
//! [`REUSE_S`] together share a pair.

use std::time::Instant;

/// Seconds one beat takes on the quiet reference host.
pub const NOMINAL_BEAT_S: f64 = 0.0113;

/// A block that ended less than this long ago still stands for "now".
const REUSE_S: f64 = 0.1;

const EVENTS: usize = 1 << 16;
const FLOWS: usize = 1 << 12;
const SLAB_PACKETS: usize = 1 << 18;
const EVENTS_PER_BEAT: u32 = 50_000;
const TIMED_BEATS_PER_BLOCK: usize = 5;

pub struct Pacer {
    /// Pending events, a binary min-heap of (time, flow).
    heap: Vec<(u64, u32)>,
    flows: Vec<[u64; 8]>,
    slab: Vec<[u64; 8]>,
    x: u64,
    /// Every block so far: when it ended and its median beat.
    blocks: Vec<(Instant, f64)>,
    sensitivity: f64,
}

impl Pacer {
    /// Builds the beat's state and runs three untimed beats, which touch
    /// every page of it. `sensitivity` is the power of the host's
    /// slowness by which the measured workload slows.
    pub fn new(sensitivity: f64) -> Self {
        let mut p = Pacer {
            heap: Vec::with_capacity(EVENTS + 1),
            flows: (0..FLOWS as u64)
                .map(|i| [2.0f64.to_bits(), 0, 0, i, 0, 0, 0, 0])
                .collect(),
            slab: vec![[0; 8]; SLAB_PACKETS],
            x: 0x2545_F491_4F6C_DD1D,
            blocks: Vec::new(),
            sensitivity,
        };
        for i in 0..EVENTS as u64 {
            p.push((
                i.wrapping_mul(0x9E37_79B9) & 0xF_FFFF,
                (i % FLOWS as u64) as u32,
            ));
        }
        for _ in 0..3 {
            p.beat();
        }
        p
    }

    /// Bytes of the beat's own tables, all resident: what this process's
    /// peak RSS holds that is not the measured workload's.
    pub fn footprint_bytes(&self) -> u64 {
        (std::mem::size_of_val(&self.heap[..])
            + std::mem::size_of_val(&self.flows[..])
            + std::mem::size_of_val(&self.slab[..])) as u64
    }

    fn push(&mut self, event: (u64, u32)) {
        self.heap.push(event);
        let mut i = self.heap.len() - 1;
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[parent] <= self.heap[i] {
                break;
            }
            self.heap.swap(parent, i);
            i = parent;
        }
    }

    fn pop(&mut self) -> (u64, u32) {
        let first = self.heap.swap_remove(0);
        let (n, mut i) = (self.heap.len(), 0);
        loop {
            let (left, right) = (2 * i + 1, 2 * i + 2);
            let mut least = i;
            if left < n && self.heap[left] < self.heap[least] {
                least = left;
            }
            if right < n && self.heap[right] < self.heap[least] {
                least = right;
            }
            if least == i {
                return first;
            }
            self.heap.swap(i, least);
            i = least;
        }
    }

    /// One beat: the same amount of the same kind of work every time.
    /// Each event pops the earliest, grows or halves its flow's window,
    /// writes a packet somewhere in the slab and schedules the flow's
    /// (one time in eight, another flow's) next event. Returns how long
    /// the beat took.
    fn beat(&mut self) -> f64 {
        let t0 = Instant::now();
        for _ in 0..EVENTS_PER_BEAT {
            let (now, f) = self.pop();
            let mut x = self.x;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.x = x;
            let flow = &mut self.flows[f as usize];
            let window = f64::from_bits(flow[0]);
            let window = if x & 63 == 0 {
                (window * 0.5).max(1.0)
            } else {
                window + 1.0 / window
            };
            flow[0] = window.to_bits();
            flow[1] += 1;
            flow[2] = now;
            let sent = flow[1];
            let packet = &mut self.slab[(x >> 20) as usize & (SLAB_PACKETS - 1)];
            packet[0] = now;
            packet[1] = u64::from(f);
            packet[2] = sent;
            packet[3] ^= x;
            let delay = 1000 + (x & 0xFFFF) + (1.0e6 / window) as u64;
            let next = if x & 7 == 0 {
                ((x >> 32) % FLOWS as u64) as u32
            } else {
                f
            };
            self.push((now + delay, next));
        }
        std::hint::black_box(&self.heap);
        t0.elapsed().as_secs_f64()
    }

    /// Take a block now; returns its index.
    fn block(&mut self) -> usize {
        self.beat();
        let mut beats: Vec<f64> = (0..TIMED_BEATS_PER_BLOCK).map(|_| self.beat()).collect();
        beats.sort_by(f64::total_cmp);
        self.blocks
            .push((Instant::now(), beats[TIMED_BEATS_PER_BLOCK / 2]));
        self.blocks.len() - 1
    }

    /// The block that stands for "now": the last one if it ended less
    /// than [`REUSE_S`] ago, else a new one. Call it right before a timed
    /// interval and pass what it returns to [`Pacer::slowness`] once a
    /// later block exists.
    pub fn mark(&mut self) -> usize {
        match self.blocks.last() {
            Some((ended, _)) if ended.elapsed().as_secs_f64() < REUSE_S => self.blocks.len() - 1,
            _ => self.block(),
        }
    }

    /// Take a block now, so that every mark so far has a block after it.
    pub fn close(&mut self) {
        self.block();
    }

    /// How much slower than on the quiet reference host the workload ran
    /// in an interval that began at `mark`: the mean of the block at the
    /// mark and the next block (the first taken after the interval began)
    /// over nominal, to the power of the workload's sensitivity. Divide a
    /// time taken in the interval by it.
    pub fn slowness(&self, mark: usize) -> f64 {
        let beat = (self.blocks[mark].1 + self.blocks[mark + 1].1) / 2.0;
        (beat / NOMINAL_BEAT_S).powf(self.sensitivity)
    }

    /// Run `f` between two blocks. Returns its result and the slowness
    /// to divide a time taken inside `f` by.
    pub fn paced<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        let mark = self.mark();
        let out = f();
        self.close();
        (out, self.slowness(mark))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paced_reports_the_closure_and_a_positive_slowness() {
        let mut pacer = Pacer::new(1.0);
        let (out, slowness) = pacer.paced(|| 7);
        assert_eq!(out, 7);
        assert!(slowness > 0.0);
    }

    #[test]
    fn short_intervals_share_blocks_and_long_ones_do_not() {
        let mut pacer = Pacer::new(1.0);
        let first = pacer.mark();
        assert_eq!(
            pacer.mark(),
            first,
            "a block just taken still stands for now"
        );
        pacer.close();
        assert!(pacer.slowness(first) > 0.0);
        std::thread::sleep(std::time::Duration::from_secs_f64(1.5 * REUSE_S));
        assert_eq!(pacer.mark(), first + 2, "a stale block is replaced");
    }

    #[test]
    fn the_beat_repeats_and_its_tables_are_what_footprint_says() {
        let (mut a, mut b) = (Pacer::new(1.0), Pacer::new(1.0));
        a.beat();
        b.beat();
        assert_eq!(a.heap, b.heap);
        assert_eq!(a.heap.len(), EVENTS);
        assert_eq!(
            a.footprint_bytes(),
            (16 * EVENTS + 64 * FLOWS + 64 * SLAB_PACKETS) as u64
        );
    }
}
