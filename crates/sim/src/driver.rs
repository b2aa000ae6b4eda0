//! The contact driver: the only way a protocol can move bytes.
//!
//! When two nodes meet, the engine hands the protocol a [`ContactDriver`]
//! scoped to that single opportunity. The driver enforces the feasibility
//! rules of §3.1 — at most `s_e` bytes in each direction, no fragmentation,
//! buffer capacity respected — and keeps the byte accounting (data versus
//! control metadata) that the evaluation reports (Figs. 8, 9).
//!
//! # World leases
//!
//! Every driver, and every creation at a source, works on one kind of
//! lease, a `WorldMut`: the node buffers and replica-holder tables of a
//! run of shards of the partition — the whole fleet on a one-shard run
//! and at a cross-shard barrier, one shard inside a multi-shard epoch
//! ([`crate::shard`]) — and the run's `DeliveredAt` and `entered` columns
//! by `&`. The columns' slots are relaxed atomics, so concurrent shards
//! can never race on them, and a packet's delivery slot is only ever
//! written by contacts reaching its destination — all in one shard per
//! epoch — so what each contact reads is the serial value. A holder
//! change is written where the buffer changes, into the table of the
//! shard owning the node, so no table is written by two shards in one
//! epoch. A protocol addresses only the contact's two endpoints
//! ([`ContactDriver::buffer`] panics on any other node, under every
//! lease), so every lease is observably the same; the global view
//! ([`ContactDriver::global`]) needs the whole fleet's lease, which is
//! why global-knowledge runs never shard.

use crate::buffer::NodeBuffer;
use crate::ids::IndexSet;
use crate::routing::{PacketStore, TransferOutcome};
use crate::shard::Partition;
use crate::time::Time;
use crate::types::{NodeId, Packet, PacketId};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Direction of flow within a contact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dir {
    AtoB,
    BtoA,
}

/// Counters a contact accumulates; drained by the engine afterwards.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ContactLedger {
    /// Payload bytes that crossed the link (both directions).
    pub data_bytes: u64,
    /// Control-channel bytes that crossed the link (both directions).
    pub metadata_bytes: u64,
    /// Successful replications (stores at the peer).
    pub replications: u64,
    /// Deliveries (first-time) performed in this contact.
    pub deliveries: u64,
}

/// Each packet's first-delivery instant, one relaxed atomic per packet
/// (`u64::MAX` = not delivered), owned by the run's world and shared by `&`
/// with every driver (see the module docs). A slot publishes no other
/// data, so `Relaxed` suffices: a worker's stores reach the next reader
/// through `ContactPool::run`'s completion hand-off (its `AcqRel` counter
/// and state mutex). On x86-64 a relaxed load or store is a plain `mov`.
#[derive(Debug, Default)]
pub(crate) struct DeliveredAt(Vec<AtomicU64>);

const UNDELIVERED: u64 = u64::MAX;

impl DeliveredAt {
    /// The column holding `slots` (a snapshot's form).
    pub(crate) fn from_slots(slots: &[Option<Time>]) -> Self {
        Self(
            slots
                .iter()
                .map(|d| AtomicU64::new(d.map_or(UNDELIVERED, |t| t.0)))
                .collect(),
        )
    }

    /// The slots in packet order, as a snapshot and the report carry them.
    pub(crate) fn slots(&self) -> impl Iterator<Item = Option<Time>> + '_ {
        (0..self.0.len() as u32).map(|i| self.get(PacketId(i)))
    }

    /// Appends an undelivered slot for a packet just created.
    pub(crate) fn push_undelivered(&mut self) {
        self.0.push(AtomicU64::new(UNDELIVERED));
    }

    pub(crate) fn get(&self, id: PacketId) -> Option<Time> {
        let t = self.0[id.index()].load(Ordering::Relaxed);
        (t != UNDELIVERED).then_some(Time(t))
    }

    fn set(&self, id: PacketId, at: Time) {
        assert_ne!(at.0, UNDELIVERED, "a delivery at the end of time");
        self.0[id.index()].store(at.0, Ordering::Relaxed);
    }
}

/// A lease on the world (see the module docs): shards `first..first +
/// holders.len()` of `partition` — their node buffers and their holder
/// tables, in shard order — and the shared per-packet columns.
pub(crate) struct WorldMut<'a> {
    pub packets: &'a PacketStore,
    pub partition: &'a Partition,
    /// The first leased shard.
    pub first: usize,
    pub buffers: &'a mut [NodeBuffer],
    /// Per shard, each packet's holders in the shard's range, as offsets
    /// into it.
    pub holders: &'a mut [Vec<IndexSet>],
    pub delivered_at: &'a DeliveredAt,
    /// Whether each packet entered the network (its source stored it).
    pub entered: &'a [AtomicBool],
}

impl WorldMut<'_> {
    /// The same lease for a shorter borrow (one drive of an epoch).
    pub(crate) fn reborrow(&mut self) -> WorldMut<'_> {
        WorldMut {
            packets: self.packets,
            partition: self.partition,
            first: self.first,
            buffers: self.buffers,
            holders: self.holders,
            delivered_at: self.delivered_at,
            entered: self.entered,
        }
    }

    /// `node`'s position in the leased run.
    fn local(&self, node: NodeId) -> usize {
        node.index()
            .checked_sub(self.partition.range(self.first).start)
            .filter(|&i| i < self.buffers.len())
            .unwrap_or_else(|| panic!("{node} is outside this lease"))
    }

    pub(crate) fn buffer(&self, node: NodeId) -> &NodeBuffer {
        &self.buffers[self.local(node)]
    }

    /// `node`'s holder bit for packet `id`, in its shard's table (grown to
    /// `id` on demand).
    fn holder_bit(&mut self, node: NodeId, id: PacketId) -> (&mut IndexSet, usize) {
        let s = self.partition.shard_of(node);
        let bit = node.index() - self.partition.range(s).start;
        let table = &mut self.holders[s - self.first];
        if table.len() <= id.index() {
            table.resize_with(id.index() + 1, IndexSet::new);
        }
        (&mut table[id.index()], bit)
    }

    /// Stores a replica of `packet` at `node`; false when it does not fit.
    pub(crate) fn store(&mut self, node: NodeId, packet: &Packet, at: Time) -> bool {
        let i = self.local(node);
        let stored = self.buffers[i].insert(packet, at);
        if stored {
            let (set, bit) = self.holder_bit(node, packet.id);
            set.insert(bit);
        }
        stored
    }

    /// Drops `node`'s replica of `id`; false when it held none.
    pub(crate) fn drop_replica(&mut self, node: NodeId, id: PacketId) -> bool {
        let i = self.local(node);
        let removed = self.buffers[i].remove(id);
        if removed {
            let (set, bit) = self.holder_bit(node, id);
            set.remove(bit);
        }
        removed
    }
}

/// A single transfer opportunity, as seen by the routing protocol.
pub struct ContactDriver<'a> {
    world: WorldMut<'a>,
    now: Time,
    a: NodeId,
    b: NodeId,
    cap_ab: u64,
    cap_ba: u64,
    ledger: ContactLedger,
    allow_global: bool,
    seq: u64,
}

impl<'a> ContactDriver<'a> {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        world: WorldMut<'a>,
        now: Time,
        a: NodeId,
        b: NodeId,
        bytes_each_way: u64,
        allow_global: bool,
        seq: u64,
    ) -> Self {
        Self {
            world,
            now,
            a,
            b,
            cap_ab: bytes_each_way,
            cap_ba: bytes_each_way,
            ledger: ContactLedger::default(),
            allow_global,
            seq,
        }
    }

    /// Current simulation time (the instant of the meeting).
    pub fn now(&self) -> Time {
        self.now
    }

    /// This contact's sequence number in the run's serial drive order
    /// (0-based, counting every driven contact). Protocols that need
    /// randomness derive a per-contact RNG substream from it — the one
    /// discipline that keeps their draws identical between the serial
    /// engine and the sharded runtime (see [`crate::shard`]).
    pub fn contact_seq(&self) -> u64 {
        self.seq
    }

    /// The two endpoints of this contact.
    pub fn endpoints(&self) -> (NodeId, NodeId) {
        (self.a, self.b)
    }

    /// The peer of `node` within this contact.
    pub fn peer_of(&self, node: NodeId) -> NodeId {
        if node == self.a {
            self.b
        } else if node == self.b {
            self.a
        } else {
            panic!("{node} is not part of this contact");
        }
    }

    fn dir_from(&self, from: NodeId) -> Dir {
        if from == self.a {
            Dir::AtoB
        } else if from == self.b {
            Dir::BtoA
        } else {
            panic!("{from} is not part of this contact");
        }
    }

    /// Remaining sendable bytes from `from` towards its peer.
    pub fn remaining_bytes(&self, from: NodeId) -> u64 {
        match self.dir_from(from) {
            Dir::AtoB => self.cap_ab,
            Dir::BtoA => self.cap_ba,
        }
    }

    /// Charges up to `bytes` of control metadata in the `from` direction;
    /// returns the number of bytes actually granted (limited by the
    /// remaining opportunity). Metadata is charged against the same
    /// opportunity as data — the in-band channel of §4.2.
    pub fn charge_metadata(&mut self, from: NodeId, bytes: u64) -> u64 {
        let cap = match self.dir_from(from) {
            Dir::AtoB => &mut self.cap_ab,
            Dir::BtoA => &mut self.cap_ba,
        };
        let granted = bytes.min(*cap);
        *cap -= granted;
        self.ledger.metadata_bytes += granted;
        granted
    }

    /// Read access to a node's buffer (either endpoint).
    ///
    /// # Panics
    /// If `node` is not one of the two endpoints — under every lease, so
    /// a protocol that peeks at a third node fails on the serial engine
    /// exactly as it would inside a shard. Remote buffers are what
    /// [`ContactDriver::global`] is for.
    pub fn buffer(&self, node: NodeId) -> &NodeBuffer {
        self.dir_from(node);
        self.world.buffer(node)
    }

    /// The packet arena.
    pub fn packets(&self) -> &PacketStore {
        self.world.packets
    }

    /// Byte/transfer counters so far in this contact.
    pub fn ledger(&self) -> ContactLedger {
        self.ledger
    }

    /// Attempts to send `id` from `from` to its peer. See
    /// [`TransferOutcome`] for the possible results; the two delivery
    /// variants also release the sender's copy (the sender has just
    /// witnessed the delivery, §3.4's implicit ack).
    pub fn try_transfer(&mut self, from: NodeId, id: PacketId) -> TransferOutcome {
        let to = self.peer_of(from);
        let packet = self.world.packets.get(id);
        assert!(
            self.world.buffer(from).contains(id),
            "{from} does not hold {id}"
        );

        let size = packet.size_bytes;
        let remaining = self.remaining_bytes(from);

        if packet.dst == to {
            // Direct delivery (step 2 of Protocol RAPID); still needs the
            // bytes to cross the link.
            if size > remaining {
                return TransferOutcome::NoBandwidth;
            }
            self.consume(from, size);
            self.ledger.data_bytes += size;
            // Sender observed the delivery: its own replica is now useless.
            self.world.drop_replica(from, id);
            let delivered_at = self.world.delivered_at;
            if delivered_at.get(id).is_none() {
                delivered_at.set(id, self.now);
                self.ledger.deliveries += 1;
                TransferOutcome::Delivered
            } else {
                TransferOutcome::DeliveredDuplicate
            }
        } else {
            if self.world.buffer(to).contains(id) {
                return TransferOutcome::AlreadyHeld;
            }
            if size > remaining {
                return TransferOutcome::NoBandwidth;
            }
            let free = self.world.buffer(to).free_bytes();
            if size > free {
                return TransferOutcome::NeedsSpace(size - free);
            }
            self.consume(from, size);
            self.ledger.data_bytes += size;
            let stored = self.world.store(to, &packet, self.now);
            debug_assert!(stored, "insert after free-space check cannot fail");
            self.ledger.replications += 1;
            TransferOutcome::Replicated
        }
    }

    /// Evicts `victim` from `node`'s buffer (one of the two endpoints).
    /// Returns whether a replica was actually removed.
    ///
    /// Protocols use this both for policy-driven drops (buffer overflow) and
    /// to purge packets they have learned were delivered (§4.2 ack cleanup).
    pub fn evict(&mut self, node: NodeId, victim: PacketId) -> bool {
        assert!(
            node == self.a || node == self.b,
            "{node} is not part of this contact"
        );
        self.world.drop_replica(node, victim)
    }

    /// True global state — only available when the run was configured with
    /// `allow_global_knowledge` (the instant global channel of §6.2.3).
    /// Global-knowledge runs never shard, so every contact of theirs holds
    /// the whole fleet's lease.
    ///
    /// # Panics
    /// If global knowledge is not enabled for this run, or the lease is
    /// one shard's range rather than the whole fleet.
    pub fn global(&self) -> GlobalView<'_> {
        assert!(
            self.allow_global,
            "global knowledge is disabled for this run (see SimConfig::allow_global_knowledge)"
        );
        let world = &self.world;
        assert!(
            world.first == 0 && world.holders.len() == world.partition.shards(),
            "global knowledge needs the whole fleet's lease, not one shard's"
        );
        GlobalView { world }
    }

    fn consume(&mut self, from: NodeId, bytes: u64) {
        match self.dir_from(from) {
            Dir::AtoB => self.cap_ab -= bytes,
            Dir::BtoA => self.cap_ba -= bytes,
        }
    }
}

/// Read-only true global state (instant global control channel, §6.2.3):
/// the whole fleet's lease.
pub struct GlobalView<'a> {
    world: &'a WorldMut<'a>,
}

impl GlobalView<'_> {
    /// Whether the packet has been delivered (anywhere, as of now).
    pub fn is_delivered(&self, id: PacketId) -> bool {
        self.world.delivered_at.get(id).is_some()
    }

    /// The nodes currently holding replicas of `id`, in ascending node-id
    /// order.
    pub fn holders(&self, id: PacketId) -> impl Iterator<Item = NodeId> + '_ {
        // Shard ranges are contiguous and ascending, so chaining the
        // tables in shard order keeps node order.
        let tables = self.world.holders.iter().enumerate();
        tables.flat_map(move |(s, table)| {
            let base = self.world.partition.range(s).start;
            let set = table.get(id.index()).into_iter().flat_map(IndexSet::iter);
            set.map(move |i| NodeId((base + i) as u32))
        })
    }

    /// Read access to any node's buffer (remote queue state — what the
    /// instant channel would carry).
    pub fn buffer(&self, node: NodeId) -> &NodeBuffer {
        self.world.buffer(node)
    }
}
