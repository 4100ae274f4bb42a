//! Isolated costs of single layers, driven through their public types:
//! the event queue's hold model, the queue disciplines, the packet
//! pool, the TOML and scenario parsers. No simulator is involved, so
//! these price a layer's own code with hot caches. Every traced pass
//! measures all of them the same way, whatever its workload; they are
//! the per-layer metrics that are durations.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use slowcc_netsim::event::{EventKind, EventQueue};
use slowcc_netsim::ids::{AgentId, FlowId, NodeId};
use slowcc_netsim::packet::{DataInfo, Ecn, Packet, Payload};
use slowcc_netsim::pool::PacketPool;
use slowcc_netsim::queue::{DropTail, EnqueueResult, QueueDiscipline, Red, RedConfig};
use slowcc_netsim::time::{transmission_time, SimTime};

use crate::report::Metrics;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Classic hold model on the default scheduler: keep `pending` events
/// queued, repeatedly pop the earliest and schedule a replacement a
/// random increment (mean 100 us, the packet-event spacing on the paper
/// dumbbell) later. Nanoseconds per pop + schedule.
pub fn hold_ns_per_op(pending: usize, ops: u64) -> f64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut q = EventQueue::new();
    let timer = |token| EventKind::AgentTimer {
        agent: AgentId::from_index(0),
        token,
    };
    for i in 0..pending {
        q.schedule(
            SimTime::from_nanos(xorshift(&mut x) % 1_000_000_000),
            timer(i as u64),
        );
    }
    let t0 = Instant::now();
    for i in 0..ops {
        let (t, _) = black_box(q.pop().expect("the hold model keeps the queue non-empty"));
        q.schedule(
            SimTime::from_nanos(t.as_nanos() + xorshift(&mut x) % 200_000),
            timer(i),
        );
    }
    t0.elapsed().as_nanos() as f64 / ops as f64
}

fn packet(uid: u64) -> Packet {
    Packet {
        uid,
        flow: FlowId::from_index(0),
        seq: uid,
        size: 1000,
        payload: Payload::Data(DataInfo::default()),
        src_node: NodeId::from_index(0),
        dst_node: NodeId::from_index(1),
        src_agent: AgentId::from_index(0),
        dst_agent: AgentId::from_index(1),
        sent_at: SimTime::ZERO,
        ecn: Ecn::NotCapable,
    }
}

/// Nanoseconds per offered packet through `queue`: each step offers one
/// pooled packet and, while the buffer holds more than `target`,
/// services one — so the discipline runs at a steady occupancy with its
/// enqueue, drop and dequeue paths all live.
fn queue_ns_per_op(mut queue: impl QueueDiscipline, target: usize, ops: u64) -> f64 {
    let mut pool = PacketPool::new();
    let mut rng = SmallRng::seed_from_u64(1);
    let step = transmission_time(1000, 100e6).as_nanos();
    let t0 = Instant::now();
    for i in 0..ops {
        let now = SimTime::from_nanos(i * step);
        let id = pool.insert(packet(i));
        if queue.enqueue(id, &mut pool, now, &mut rng) == EnqueueResult::Dropped {
            pool.discard(id);
        }
        if queue.len() > target {
            let served = queue
                .dequeue(now)
                .expect("a non-empty queue serves a packet");
            black_box(pool.remove(served));
        }
    }
    t0.elapsed().as_nanos() as f64 / ops as f64
}

/// RED as the 100 Mb/s paper dumbbell sizes it, held between its
/// thresholds so early drops happen.
pub fn red_ns_per_op(ops: u64) -> f64 {
    let bdp = 625.0; // 100 Mb/s x 50 ms in 1000-byte packets
    let cfg = RedConfig::paper_defaults(bdp, transmission_time(1000, 100e6));
    queue_ns_per_op(Red::new(cfg), (0.75 * bdp) as usize, ops)
}

pub fn droptail_ns_per_op(ops: u64) -> f64 {
    queue_ns_per_op(DropTail::new(1000), 500, ops)
}

/// Nanoseconds per `PacketPool::insert` + `remove` with `live` packets
/// resident, slots recycled in FIFO order as a link does.
pub fn pool_ns_per_insert_remove(live: usize, ops: u64) -> f64 {
    let mut pool = PacketPool::new();
    let mut ring: std::collections::VecDeque<_> =
        (0..live as u64).map(|i| pool.insert(packet(i))).collect();
    let t0 = Instant::now();
    for i in 0..ops {
        ring.push_back(pool.insert(packet(i)));
        let oldest = ring.pop_front().expect("the ring never empties");
        black_box(pool.remove(oldest));
    }
    t0.elapsed().as_nanos() as f64 / ops as f64
}

/// Seconds `toml::parse_document` and `dsl::parse_scenario` take over
/// every `examples/scenarios/*.toml` (a malformed fixture among them:
/// rejecting input is part of a parser's job).
fn scenario_parse_s() -> std::io::Result<(f64, f64)> {
    let (mut toml_s, mut dsl_s) = (0.0, 0.0);
    for entry in std::fs::read_dir(Path::new("examples/scenarios"))? {
        let path = entry?.path();
        if path.extension().is_none_or(|e| e != "toml") {
            continue;
        }
        let text = std::fs::read_to_string(&path)?;
        let name = path.to_string_lossy();
        let t0 = Instant::now();
        let _ = black_box(slowcc_experiments::toml::parse_document(&text, &name));
        toml_s += t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let _ = black_box(slowcc_experiments::dsl::parse_scenario(&text, &name));
        dsl_s += t0.elapsed().as_secs_f64();
    }
    Ok((toml_s, dsl_s))
}

/// Measure every isolated cost into `metrics`. Returns the hold-model
/// costs as `(depth, ns per op)`.
pub fn isolated_costs(
    metrics: &mut Metrics,
    clock: crate::proxy::ClockCost,
) -> std::io::Result<[(usize, f64); 3]> {
    const OPS: u64 = 500_000;
    let holds = [(1_000, "d1k"), (10_000, "d10k"), (100_000, "d100k")].map(|(depth, tag)| {
        let ns = hold_ns_per_op(depth, OPS);
        metrics.set(&format!("netsim.event.hold_ns_per_op.{tag}"), ns);
        (depth, ns)
    });
    metrics.set("netsim.queue.red_ns_per_op", red_ns_per_op(OPS));
    metrics.set("netsim.queue.droptail_ns_per_op", droptail_ns_per_op(OPS));
    metrics.set(
        "netsim.pool.ns_per_insert_remove",
        pool_ns_per_insert_remove(1024, OPS),
    );
    let (toml_s, dsl_s) = scenario_parse_s()?;
    metrics.set("experiments.toml.parse_s", toml_s);
    metrics.set("experiments.dsl.parse_s", dsl_s);
    metrics.set("trace.clock_ns", clock.pair_ns);
    Ok(holds)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micro_measurements_return_positive_costs() {
        assert!(hold_ns_per_op(100, 1_000) > 0.0);
        assert!(red_ns_per_op(5_000) > 0.0);
        assert!(droptail_ns_per_op(5_000) > 0.0);
        assert!(pool_ns_per_insert_remove(64, 5_000) > 0.0);
    }
}
