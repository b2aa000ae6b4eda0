//! Per-node in-transit storage with a byte capacity (§3.1: "There is limited
//! storage ... available to nodes. Destination nodes are assumed to have
//! sufficient capacity to store delivered packets, so only storage for
//! in-transit data is limited").
//!
//! The buffer is deliberately policy-free: *which* packet to evict on
//! overflow is a routing-protocol decision (§3.4: RAPID deletes lowest
//! utility; MaxProp deletes the most-replicated; Spray and Wait and Random
//! delete randomly — §6.3.2). Iteration order is `PacketId` order, so every
//! protocol sees a deterministic view.
//!
//! Internally every structure is sized by what the buffer *stores*, never
//! by the global id space or by history — a node that holds 50 packets
//! costs 50 packets' worth of state even in a 100 000-node, million-packet
//! streamed run, however many destinations it has carried before.
//! Membership and metadata go through a sorted-by-id index (binary search;
//! ascending-id iteration falls out for free), replica metadata lives in a
//! swap-removed slab, and replicas are additionally threaded onto
//! **per-destination delivery-order queues** (the paper's Fig. 1 ordering:
//! oldest creation first, id tie-break) with running prefix byte sums.
//! That makes `b(i)` — the bytes queued ahead of a packet for its
//! destination, the input to Estimate Delay's Eq. 5 — an O(log n) query
//! ([`NodeBuffer::bytes_ahead`]) instead of a scan, and lets protocol-side
//! queue snapshots be built in O(n) without re-sorting.
//!
//! The queues live in one table sorted by destination. A destination's
//! queue is created by its first replica and removed when it drains, and
//! a queue of one replica holds it inline, with no heap block — the
//! common case in sparse streamed fleets, where a 16 KiB buffer holds a
//! handful of replicas for as many destinations.

use crate::time::Time;
use crate::types::{NodeId, Packet, PacketId};

/// A node's in-transit packet store.
#[derive(Debug, Clone)]
pub struct NodeBuffer {
    capacity: u64,
    used: u64,
    /// Sorted-by-id membership index: `(id, slab position)`. Binary
    /// searched for membership/metadata; walked for ascending-id
    /// iteration. O(stored), unlike a bitset over the packet arena.
    index: Vec<(PacketId, u32)>,
    /// Replica slab; compacted by swap-remove (order is irrelevant, the
    /// index provides iteration order).
    slots: Vec<Slot>,
    /// The live per-destination delivery-order queues, sorted by
    /// destination: one row per destination with at least one stored
    /// replica, so a drained destination costs nothing.
    queues: Vec<(NodeId, DstQueue)>,
}

/// One destination's delivery-order queue; never empty.
#[derive(Debug, Clone)]
enum DstQueue {
    /// A single replica, stored inline.
    One(QueueEntry),
    /// Two or more replicas in `(created_at, id)` order.
    Many(Vec<QueueEntry>),
}

impl DstQueue {
    fn as_slice(&self) -> &[QueueEntry] {
        match self {
            Self::One(e) => std::slice::from_ref(e),
            Self::Many(q) => q,
        }
    }
}

/// Per-replica bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoredMeta {
    /// When this node received the replica.
    pub stored_at: Time,
    /// Size of the packet in bytes (denormalized to keep accounting local).
    pub size_bytes: u64,
}

/// One slab entry: the replica plus the keys needed to unthread it from its
/// destination queue on removal.
#[derive(Debug, Clone, Copy)]
struct Slot {
    id: PacketId,
    meta: StoredMeta,
    dst: NodeId,
    created_at: Time,
}

/// One position in a per-destination delivery-order queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueEntry {
    /// Creation time of the packet (delivery order is oldest-first).
    pub created_at: Time,
    /// The packet.
    pub id: PacketId,
    /// Its size in bytes.
    pub size_bytes: u64,
    /// Bytes queued strictly ahead of this packet (running prefix sum).
    pub bytes_ahead: u64,
}

/// The `b(i)` queries over one `(created_at, id)`-ordered queue slice with
/// exact prefix sums. These free functions are the *single* implementation
/// of the prefix-sum arithmetic: [`NodeBuffer`] delegates for its live
/// queues and protocol-side snapshots delegate for their copies, so the
/// two can never drift apart — which is what keeps snapshot-vs-live
/// equivalence arguments (and cached-vs-fresh bitwise oracles downstream)
/// sound.
pub mod queue_slice {
    use super::QueueEntry;
    use crate::time::Time;
    use crate::types::{NodeId, PacketId};

    /// Bytes queued ahead of a *stored* packet.
    ///
    /// # Panics
    /// If the packet is not in the queue with that creation time.
    pub fn bytes_ahead(q: &[QueueEntry], dst: NodeId, id: PacketId, created_at: Time) -> u64 {
        let pos = q
            .binary_search_by_key(&(created_at, id), |e| (e.created_at, e.id))
            .unwrap_or_else(|_| panic!("{id} not in queue for {dst}"));
        q[pos].bytes_ahead
    }

    /// Bytes that would be queued ahead of a *hypothetical* packet with
    /// the given age: strictly older packets go first.
    pub fn bytes_ahead_if_inserted(q: &[QueueEntry], created_at: Time) -> u64 {
        let pos = q.partition_point(|e| e.created_at < created_at);
        ahead_of_slot(q, pos)
    }

    /// Total queued bytes.
    pub fn total_bytes(q: &[QueueEntry]) -> u64 {
        ahead_of_slot(q, q.len())
    }

    /// Bytes ahead of (hypothetical) slot `pos` — everything before it.
    pub fn ahead_of_slot(q: &[QueueEntry], pos: usize) -> u64 {
        if pos == 0 {
            0
        } else {
            q[pos - 1].bytes_ahead + q[pos - 1].size_bytes
        }
    }
}

impl NodeBuffer {
    /// Creates a buffer with the given capacity in bytes
    /// (`u64::MAX` = effectively unlimited, the paper's 40 GB bus storage).
    pub fn new(capacity: u64) -> Self {
        Self {
            capacity,
            used: 0,
            index: Vec::new(),
            slots: Vec::new(),
            queues: Vec::new(),
        }
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently occupied.
    pub fn used_bytes(&self) -> u64 {
        self.used
    }

    /// Bytes still free.
    pub fn free_bytes(&self) -> u64 {
        self.capacity - self.used
    }

    /// Number of stored replicas.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the buffer holds nothing.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Whether a replica of `id` is present.
    pub fn contains(&self, id: PacketId) -> bool {
        self.index.binary_search_by_key(&id, |e| e.0).is_ok()
    }

    /// Metadata for a stored replica.
    pub fn meta(&self, id: PacketId) -> Option<StoredMeta> {
        self.slot(id).map(|s| self.slots[s].meta)
    }

    fn slot(&self, id: PacketId) -> Option<usize> {
        self.index
            .binary_search_by_key(&id, |e| e.0)
            .ok()
            .map(|pos| self.index[pos].1 as usize)
    }

    /// Repoints the membership index entry for `id` at slab position
    /// `slot` (after a swap-remove moved it).
    fn repoint(&mut self, id: PacketId, slot: u32) {
        let pos = self
            .index
            .binary_search_by_key(&id, |e| e.0)
            .expect("slab entry is indexed");
        self.index[pos].1 = slot;
    }

    /// The position of `dst`'s row in the queue table, or where it would
    /// be inserted.
    fn dst_row(&self, dst: NodeId) -> Result<usize, usize> {
        self.queues.binary_search_by_key(&dst, |e| e.0)
    }

    /// Inserts a replica of `packet`. Returns `false` (and stores nothing)
    /// if there is not enough free space or the replica is already present.
    pub fn insert(&mut self, packet: &Packet, now: Time) -> bool {
        let size_bytes = packet.size_bytes;
        let index_pos = match self.index.binary_search_by_key(&packet.id, |e| e.0) {
            Ok(_) => return false, // already present
            Err(pos) => pos,
        };
        if size_bytes > self.free_bytes() {
            return false;
        }
        self.slots.push(Slot {
            id: packet.id,
            meta: StoredMeta {
                stored_at: now,
                size_bytes,
            },
            dst: packet.dst,
            created_at: packet.created_at,
        });
        self.index
            .insert(index_pos, (packet.id, self.slots.len() as u32 - 1));

        let mut entry = QueueEntry {
            created_at: packet.created_at,
            id: packet.id,
            size_bytes,
            bytes_ahead: 0,
        };
        match self.dst_row(packet.dst) {
            Err(row) => self.queues.insert(row, (packet.dst, DstQueue::One(entry))),
            Ok(row) => {
                let queue = &mut self.queues[row].1;
                if let DstQueue::One(head) = *queue {
                    // Sized for two: `vec![head]` would grow straight to four.
                    let mut q = Vec::with_capacity(2);
                    q.push(head);
                    *queue = DstQueue::Many(q);
                }
                let DstQueue::Many(q) = queue else {
                    unreachable!("a queue of one was just promoted")
                };
                let key = (entry.created_at, entry.id);
                let pos = q.partition_point(|e| (e.created_at, e.id) < key);
                entry.bytes_ahead = queue_slice::ahead_of_slot(q, pos);
                q.insert(pos, entry);
                for e in &mut q[pos + 1..] {
                    e.bytes_ahead += size_bytes;
                }
            }
        }

        self.used += size_bytes;
        true
    }

    /// Removes a replica, returning whether it was present.
    pub fn remove(&mut self, id: PacketId) -> bool {
        let Ok(index_pos) = self.index.binary_search_by_key(&id, |e| e.0) else {
            return false;
        };
        let slot = self.index[index_pos].1 as usize;
        let Slot {
            meta,
            dst,
            created_at,
            ..
        } = self.slots[slot];
        self.index.remove(index_pos);
        self.slots.swap_remove(slot);
        if slot < self.slots.len() {
            let moved = self.slots[slot].id;
            self.repoint(moved, slot as u32);
        }

        let row = self.dst_row(dst).expect("stored replica has a queue");
        let queue = &mut self.queues[row].1;
        match queue {
            // A queue of one holds exactly this replica: the row goes.
            DstQueue::One(_) => {
                self.queues.remove(row);
            }
            DstQueue::Many(q) => {
                let pos = q
                    .binary_search_by_key(&(created_at, id), |e| (e.created_at, e.id))
                    .expect("stored replica is on its destination queue");
                q.remove(pos);
                for e in &mut q[pos..] {
                    e.bytes_ahead -= meta.size_bytes;
                }
                if let [head] = q[..] {
                    // Back to one replica: inline it and free the block.
                    *queue = DstQueue::One(head);
                }
            }
        }

        self.used -= meta.size_bytes;
        true
    }

    /// Iterates stored replicas in `PacketId` order.
    pub fn iter(&self) -> impl Iterator<Item = (PacketId, StoredMeta)> + '_ {
        self.index
            .iter()
            .map(|&(id, s)| (id, self.slots[s as usize].meta))
    }

    /// The stored packet ids in `PacketId` order, as an owned snapshot.
    ///
    /// Prefer [`NodeBuffer::iter`] when only traversing; use this where a
    /// snapshot is semantically required — typically because the buffer
    /// will be mutated (transfers, evictions) while walking the ids.
    pub fn ids(&self) -> Vec<PacketId> {
        self.iter().map(|(id, _)| id).collect()
    }

    /// The delivery-order queue for `dst` (Fig. 1): entries sorted by
    /// `(created_at, id)` with running prefix byte sums. Empty if this
    /// buffer holds nothing for `dst`.
    pub fn queue(&self, dst: NodeId) -> &[QueueEntry] {
        match self.dst_row(dst) {
            Ok(row) => self.queues[row].1.as_slice(),
            Err(_) => &[],
        }
    }

    /// The destinations with non-empty queues, in ascending destination
    /// order, with their queues. Protocol-side snapshots are built from
    /// this in O(n).
    pub fn queues(&self) -> impl Iterator<Item = (NodeId, &[QueueEntry])> + '_ {
        self.queues.iter().map(|(dst, q)| (*dst, q.as_slice()))
    }

    /// Bytes queued ahead of a *stored* packet in the `dst` delivery queue
    /// (Estimate Delay's `b(i)`, Eq. 5).
    ///
    /// # Panics
    /// If the packet is not stored with that destination and creation time.
    pub fn bytes_ahead(&self, dst: NodeId, id: PacketId, created_at: Time) -> u64 {
        queue_slice::bytes_ahead(self.queue(dst), dst, id, created_at)
    }

    /// Bytes that would be queued ahead of a *hypothetical* packet with the
    /// given age, were it inserted for `dst` (evaluating a replication onto
    /// this node: strictly older packets with the same destination go
    /// first).
    pub fn bytes_ahead_if_inserted(&self, dst: NodeId, created_at: Time) -> u64 {
        queue_slice::bytes_ahead_if_inserted(self.queue(dst), created_at)
    }

    /// Total queued bytes for `dst`.
    pub fn total_bytes(&self, dst: NodeId) -> u64 {
        queue_slice::total_bytes(self.queue(dst))
    }
}

impl PartialEq for NodeBuffer {
    fn eq(&self, other: &Self) -> bool {
        self.capacity == other.capacity
            && self.used == other.used
            && self.len() == other.len()
            && self.iter().eq(other.iter())
    }
}

impl Eq for NodeBuffer {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::NodeId;

    fn pkt(id: u32, dst: u32, size: u64, created_secs: u64) -> Packet {
        Packet {
            id: PacketId(id),
            src: NodeId(0),
            dst: NodeId(dst),
            size_bytes: size,
            created_at: Time::from_secs(created_secs),
        }
    }

    #[test]
    fn insert_remove_accounting() {
        let mut b = NodeBuffer::new(100);
        assert!(b.insert(&pkt(1, 9, 60, 0), Time::ZERO));
        assert_eq!(b.used_bytes(), 60);
        assert_eq!(b.free_bytes(), 40);
        assert!(b.contains(PacketId(1)));
        assert!(!b.insert(&pkt(2, 9, 50, 0), Time::ZERO), "over capacity");
        assert!(b.insert(&pkt(2, 9, 40, 0), Time::ZERO));
        assert_eq!(b.free_bytes(), 0);
        assert!(b.remove(PacketId(1)));
        assert_eq!(b.free_bytes(), 60);
        assert!(!b.remove(PacketId(1)), "double remove");
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn duplicate_insert_rejected() {
        let mut b = NodeBuffer::new(100);
        assert!(b.insert(&pkt(1, 2, 10, 0), Time::ZERO));
        assert!(!b.insert(&pkt(1, 2, 10, 0), Time::ZERO));
        assert_eq!(b.used_bytes(), 10);
    }

    #[test]
    fn iteration_is_id_ordered() {
        let mut b = NodeBuffer::new(1000);
        for id in [5u32, 1, 9, 3] {
            assert!(b.insert(&pkt(id, 7, 1, u64::from(id)), Time(u64::from(id))));
        }
        let ids: Vec<u32> = b.ids().iter().map(|p| p.0).collect();
        assert_eq!(ids, vec![1, 3, 5, 9]);
    }

    #[test]
    fn meta_records_arrival_time_and_size() {
        let mut b = NodeBuffer::new(100);
        b.insert(&pkt(4, 1, 25, 2), Time::from_secs(9));
        let m = b.meta(PacketId(4)).unwrap();
        assert_eq!(m.stored_at, Time::from_secs(9));
        assert_eq!(m.size_bytes, 25);
        assert!(b.meta(PacketId(5)).is_none());
    }

    #[test]
    fn unlimited_buffer() {
        let mut b = NodeBuffer::new(u64::MAX);
        assert!(b.insert(&pkt(0, 1, u64::MAX / 2, 0), Time::ZERO));
        assert!(b.free_bytes() > 0);
    }

    #[test]
    fn delivery_queues_are_oldest_first_with_prefix_sums() {
        let mut b = NodeBuffer::new(10_000);
        // Same destination, out-of-order creation times.
        b.insert(&pkt(0, 9, 1000, 50), Time::ZERO); // newest
        b.insert(&pkt(1, 9, 1000, 10), Time::ZERO); // oldest → head
        b.insert(&pkt(2, 9, 1000, 30), Time::ZERO);
        b.insert(&pkt(3, 8, 500, 5), Time::ZERO); // other destination
        let dst = NodeId(9);
        assert_eq!(b.bytes_ahead(dst, PacketId(1), Time::from_secs(10)), 0);
        assert_eq!(b.bytes_ahead(dst, PacketId(2), Time::from_secs(30)), 1000);
        assert_eq!(b.bytes_ahead(dst, PacketId(0), Time::from_secs(50)), 2000);
        assert_eq!(b.bytes_ahead(NodeId(8), PacketId(3), Time::from_secs(5)), 0);
        assert_eq!(b.total_bytes(dst), 3000);
        assert_eq!(b.total_bytes(NodeId(7)), 0);
        // Removal re-knits the prefix sums.
        b.remove(PacketId(2));
        assert_eq!(b.bytes_ahead(dst, PacketId(0), Time::from_secs(50)), 1000);
        assert_eq!(b.total_bytes(dst), 2000);
        let q: Vec<u32> = b.queue(dst).iter().map(|e| e.id.0).collect();
        assert_eq!(q, vec![1, 0]);
    }

    #[test]
    fn hypothetical_insertion_position() {
        let mut b = NodeBuffer::new(10_000);
        b.insert(&pkt(0, 9, 1000, 10), Time::ZERO);
        b.insert(&pkt(1, 9, 1000, 30), Time::ZERO);
        let dst = NodeId(9);
        // Older than everything → head.
        assert_eq!(b.bytes_ahead_if_inserted(dst, Time::from_secs(5)), 0);
        // Between the two.
        assert_eq!(b.bytes_ahead_if_inserted(dst, Time::from_secs(20)), 1000);
        // Newest → tail.
        assert_eq!(b.bytes_ahead_if_inserted(dst, Time::from_secs(99)), 2000);
        // Unknown destination → empty queue.
        assert_eq!(b.bytes_ahead_if_inserted(NodeId(1), Time::from_secs(1)), 0);
    }

    #[test]
    fn equal_creation_times_tie_break_by_id() {
        let mut b = NodeBuffer::new(10_000);
        b.insert(&pkt(5, 9, 100, 10), Time::ZERO);
        b.insert(&pkt(2, 9, 100, 10), Time::ZERO);
        let dst = NodeId(9);
        assert_eq!(b.bytes_ahead(dst, PacketId(2), Time::from_secs(10)), 0);
        assert_eq!(b.bytes_ahead(dst, PacketId(5), Time::from_secs(10)), 100);
    }

    #[test]
    fn queues_iterator_lists_nonempty_destinations() {
        let mut b = NodeBuffer::new(10_000);
        b.insert(&pkt(0, 7, 10, 1), Time::ZERO);
        b.insert(&pkt(1, 3, 10, 2), Time::ZERO);
        b.insert(&pkt(2, 7, 10, 3), Time::ZERO);
        let listed: Vec<(u32, usize)> = b.queues().map(|(d, q)| (d.0, q.len())).collect();
        assert_eq!(listed, vec![(3, 1), (7, 2)], "ascending destination order");
        b.remove(PacketId(1));
        let listed: Vec<(u32, usize)> = b.queues().map(|(d, q)| (d.0, q.len())).collect();
        assert_eq!(listed, vec![(7, 2)], "a drained destination is gone");
        b.remove(PacketId(0));
        let q: Vec<(u32, u64)> = b
            .queue(NodeId(7))
            .iter()
            .map(|e| (e.id.0, e.bytes_ahead))
            .collect();
        assert_eq!(q, vec![(2, 0)], "back to one replica, prefix sums re-knit");
        b.insert(&pkt(1, 3, 10, 2), Time::ZERO);
        let listed: Vec<(u32, usize)> = b.queues().map(|(d, q)| (d.0, q.len())).collect();
        assert_eq!(
            listed,
            vec![(3, 1), (7, 1)],
            "a drained destination comes back"
        );
    }
}
