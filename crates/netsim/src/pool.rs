//! Slab allocator for in-flight packets.
//!
//! The simulator moves every packet through several owners per hop (a
//! link buffer, then the event queue while on the wire) and a [`Packet`] is a
//! 120-byte struct, so carrying packets *by value* through those layers
//! meant memcpying them on every scheduler move and `VecDeque` shuffle. The
//! pool gives each live packet one stable slot and hands out a 4-byte
//! [`PacketId`]; events and queue disciplines move ids, and the packet
//! bytes are written once at send time and read in place until delivery
//! or drop.
//!
//! Freed slots go on a free list and are reused LIFO, so a steady-state
//! simulation performs no per-packet allocation at all: the slab grows to
//! the peak number of simultaneously in-flight packets and then recycles.
//!
//! # Lifetime rules
//!
//! * [`PacketPool::insert`] transfers ownership of the packet to the pool
//!   and returns its id.
//! * Exactly one owner holds each id at a time (an `Arrive` event — from
//!   the moment the packet starts serializing — or a link buffer slot);
//!   ids are moved, never duplicated.
//! * The owner ends the packet's life with [`PacketPool::remove`]
//!   (delivery hands the value to the agent; drops discard it). Using an
//!   id after `remove` is a logic error; debug builds panic on it.

use crate::packet::Packet;

/// Index of a live packet inside a [`PacketPool`].
///
/// Deliberately small (4 bytes): event-queue entries and link buffers
/// store these instead of whole packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PacketId(u32);

impl PacketId {
    /// The raw slot index (stable for the packet's lifetime).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A slab of packets with a LIFO free list.
///
/// The hot fields (the slab and free-list vector headers) total 48 bytes;
/// the 64-byte alignment keeps them on one cache line wherever the pool
/// is embedded, so an `insert`/`get`/`discard` touches exactly one line
/// of pool metadata. A layout test pins this.
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct PacketPool {
    slots: Vec<Packet>,
    free: Vec<u32>,
    /// Debug-only use-after-free / double-free guard.
    #[cfg(debug_assertions)]
    live: Vec<bool>,
}

impl PacketPool {
    /// An empty pool.
    pub fn new() -> Self {
        PacketPool::default()
    }

    /// Store `pkt` and return its id, reusing a freed slot when one is
    /// available.
    #[inline]
    pub fn insert(&mut self, pkt: Packet) -> PacketId {
        if let Some(idx) = self.free.pop() {
            self.slots[idx as usize] = pkt;
            #[cfg(debug_assertions)]
            {
                self.live[idx as usize] = true;
            }
            PacketId(idx)
        } else {
            let idx = u32::try_from(self.slots.len()).expect("packet pool overflow");
            self.slots.push(pkt);
            #[cfg(debug_assertions)]
            self.live.push(true);
            PacketId(idx)
        }
    }

    /// Read a live packet.
    #[inline]
    pub fn get(&self, id: PacketId) -> &Packet {
        #[cfg(debug_assertions)]
        debug_assert!(self.live[id.index()], "read of freed packet {id:?}");
        &self.slots[id.index()]
    }

    /// Mutate a live packet (e.g. an ECN upgrade at a router).
    #[inline]
    pub fn get_mut(&mut self, id: PacketId) -> &mut Packet {
        #[cfg(debug_assertions)]
        debug_assert!(self.live[id.index()], "write to freed packet {id:?}");
        &mut self.slots[id.index()]
    }

    /// End the packet's life: return its value and recycle the slot.
    #[inline]
    pub fn remove(&mut self, id: PacketId) -> Packet {
        self.discard(id);
        self.slots[id.index()]
    }

    /// End the packet's life without reading it back — the drop paths'
    /// form of [`Self::remove`], skipping the 120-byte copy out of the
    /// slab when the caller only needs the slot freed.
    #[inline]
    pub fn discard(&mut self, id: PacketId) {
        #[cfg(debug_assertions)]
        {
            debug_assert!(self.live[id.index()], "double free of packet {id:?}");
            self.live[id.index()] = false;
        }
        self.free.push(id.0);
    }

    /// Number of live packets.
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// True when no packets are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total slots ever allocated (the in-flight high-water mark).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Uids of all live packets, in slot order. O(slots) — meant for
    /// teardown auditing, never the hot path.
    pub fn live_uids(&self) -> Vec<u64> {
        let mut freed = vec![false; self.slots.len()];
        for &ix in &self.free {
            freed[ix as usize] = true;
        }
        self.slots
            .iter()
            .zip(&freed)
            .filter(|(_, &f)| !f)
            .map(|(p, _)| p.uid)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{AgentId, FlowId, NodeId};
    use crate::packet::{DataInfo, Payload};
    use crate::time::SimTime;

    fn pkt(uid: u64) -> Packet {
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
            ecn: Default::default(),
        }
    }

    #[test]
    fn pool_metadata_is_cache_line_aligned() {
        assert_eq!(core::mem::align_of::<PacketPool>(), 64);
    }

    #[test]
    fn discard_frees_without_reading() {
        let mut pool = PacketPool::new();
        let a = pool.insert(pkt(1));
        pool.discard(a);
        assert!(pool.is_empty());
        // The freed slot is recycled LIFO, same as remove.
        let b = pool.insert(pkt(2));
        assert_eq!(b.index(), a.index());
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut pool = PacketPool::new();
        let a = pool.insert(pkt(1));
        let b = pool.insert(pkt(2));
        assert_eq!(pool.get(a).uid, 1);
        assert_eq!(pool.get(b).uid, 2);
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.remove(a).uid, 1);
        assert_eq!(pool.len(), 1);
        assert_eq!(pool.remove(b).uid, 2);
        assert!(pool.is_empty());
    }

    #[test]
    fn freed_slots_are_recycled_not_grown() {
        let mut pool = PacketPool::new();
        let ids: Vec<_> = (0..8).map(|i| pool.insert(pkt(i))).collect();
        assert_eq!(pool.capacity(), 8);
        for id in ids {
            pool.remove(id);
        }
        // Steady state: the slab stops growing.
        for round in 0..100u64 {
            let id = pool.insert(pkt(round));
            assert!(id.index() < 8, "pool grew despite free slots");
            pool.remove(id);
        }
        assert_eq!(pool.capacity(), 8);
    }

    #[test]
    fn get_mut_updates_in_place() {
        let mut pool = PacketPool::new();
        let id = pool.insert(pkt(5));
        pool.get_mut(id).ecn = crate::packet::Ecn::Marked;
        assert_eq!(pool.get(id).ecn, crate::packet::Ecn::Marked);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "double free")]
    fn double_free_is_caught_in_debug() {
        let mut pool = PacketPool::new();
        let id = pool.insert(pkt(0));
        pool.remove(id);
        pool.remove(id);
    }
}
