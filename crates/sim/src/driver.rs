//! The contact driver: the only way a protocol can move bytes.
//!
//! When two nodes meet, the engine hands the protocol a [`ContactDriver`]
//! scoped to that single opportunity. The driver enforces the feasibility
//! rules of §3.1 — at most `s_e` bytes in each direction, no fragmentation,
//! buffer capacity respected — and keeps the byte accounting (data versus
//! control metadata) that the evaluation reports (Figs. 8, 9).
//!
//! # Serial and shard world access
//!
//! The serial engine hands each driver the *full* world (every buffer, the
//! holder sets). Inside a shard's epoch ([`crate::shard`]) a driver
//! instead holds a *pair* view: `&mut` borrows of its two endpoint buffers,
//! split off by the borrow checker, and a deferred holder-op log the
//! runtime applies after the epoch. Every view shares the run's
//! `DeliveredAt` column by `&`: its slots are relaxed atomics, so
//! concurrent shards can never race on it, and a packet's slot is only
//! ever written by contacts reaching its destination — all in one shard
//! per epoch — so what each contact reads is the serial value. Both views
//! produce identical observable behaviour for protocols that only address
//! the contact's endpoints; the global view ([`ContactDriver::global`])
//! exists only in serial mode (global-knowledge runs are never sharded).

use crate::buffer::NodeBuffer;
use crate::ids::IndexSet;
use crate::routing::{PacketStore, TransferOutcome};
use crate::time::Time;
use crate::types::{NodeId, PacketId};
use std::sync::atomic::{AtomicU64, Ordering};

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

/// One deferred holder-set mutation (shard epochs): `added == true` inserts
/// `node` into packet `id`'s holder set, `false` removes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct HolderOp {
    pub id: PacketId,
    pub node: NodeId,
    pub added: bool,
}

impl HolderOp {
    /// Applies the mutation to the holder table (commit time).
    pub(crate) fn apply(self, holders: &mut [IndexSet]) {
        if self.added {
            holders[self.id.index()].insert(self.node.index());
        } else {
            holders[self.id.index()].remove(self.node.index());
        }
    }
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

/// Mutable world state the driver operates on; borrowed from the engine.
pub(crate) enum WorldMut<'a> {
    /// The serial engine's full world.
    Full {
        packets: &'a PacketStore,
        buffers: &'a mut [NodeBuffer],
        delivered_at: &'a DeliveredAt,
        holders: &'a mut [IndexSet],
    },
    /// One shard contact's slice of the world (see module docs).
    Pair {
        packets: &'a PacketStore,
        a: NodeId,
        buf_a: &'a mut NodeBuffer,
        b: NodeId,
        buf_b: &'a mut NodeBuffer,
        delivered_at: &'a DeliveredAt,
        holder_log: Vec<HolderOp>,
    },
}

impl WorldMut<'_> {
    fn packets(&self) -> &PacketStore {
        match self {
            WorldMut::Full { packets, .. } | WorldMut::Pair { packets, .. } => packets,
        }
    }

    fn delivered_at(&self) -> &DeliveredAt {
        match self {
            WorldMut::Full { delivered_at, .. } | WorldMut::Pair { delivered_at, .. } => {
                delivered_at
            }
        }
    }

    fn buffer(&self, node: NodeId) -> &NodeBuffer {
        match self {
            WorldMut::Full { buffers, .. } => &buffers[node.index()],
            WorldMut::Pair {
                a, buf_a, b, buf_b, ..
            } => {
                if node == *a {
                    buf_a
                } else if node == *b {
                    buf_b
                } else {
                    panic!("{node} is outside this contact's pair view")
                }
            }
        }
    }

    fn buffer_mut(&mut self, node: NodeId) -> &mut NodeBuffer {
        match self {
            WorldMut::Full { buffers, .. } => &mut buffers[node.index()],
            WorldMut::Pair {
                a, buf_a, b, buf_b, ..
            } => {
                if node == *a {
                    buf_a
                } else if node == *b {
                    buf_b
                } else {
                    panic!("{node} is outside this contact's pair view")
                }
            }
        }
    }

    fn add_holder(&mut self, node: NodeId, id: PacketId) {
        match self {
            WorldMut::Full { holders, .. } => {
                holders[id.index()].insert(node.index());
            }
            WorldMut::Pair { holder_log, .. } => holder_log.push(HolderOp {
                id,
                node,
                added: true,
            }),
        }
    }

    fn remove_holder(&mut self, node: NodeId, id: PacketId) {
        match self {
            WorldMut::Full { holders, .. } => {
                holders[id.index()].remove(node.index());
            }
            WorldMut::Pair { holder_log, .. } => holder_log.push(HolderOp {
                id,
                node,
                added: false,
            }),
        }
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

    /// Drains the driver at commit time: the accumulated ledger plus any
    /// deferred holder ops (empty in serial mode).
    pub(crate) fn into_commit(self) -> (ContactLedger, Vec<HolderOp>) {
        let log = match self.world {
            WorldMut::Full { .. } => Vec::new(),
            WorldMut::Pair { holder_log, .. } => holder_log,
        };
        (self.ledger, log)
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
    pub fn buffer(&self, node: NodeId) -> &NodeBuffer {
        self.world.buffer(node)
    }

    /// The packet arena.
    pub fn packets(&self) -> &PacketStore {
        self.world.packets()
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
        let packet = self.world.packets().get(id);
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
            self.remove_replica(from, id);
            let delivered_at = self.world.delivered_at();
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
            let stored = self.world.buffer_mut(to).insert(&packet, self.now);
            debug_assert!(stored, "insert after free-space check cannot fail");
            self.world.add_holder(to, id);
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
        self.remove_replica(node, victim)
    }

    /// True global state — only available when the run was configured with
    /// `allow_global_knowledge` (the instant global channel of §6.2.3).
    /// Global-knowledge runs are always executed serially, so the full
    /// world is guaranteed to be present here.
    ///
    /// # Panics
    /// If global knowledge is not enabled for this run.
    pub fn global(&self) -> GlobalView<'_> {
        assert!(
            self.allow_global,
            "global knowledge is disabled for this run (see SimConfig::allow_global_knowledge)"
        );
        match &self.world {
            WorldMut::Full {
                delivered_at,
                holders,
                buffers,
                ..
            } => GlobalView {
                delivered_at,
                holders,
                buffers,
            },
            WorldMut::Pair { .. } => {
                unreachable!("global-knowledge runs are never sharded")
            }
        }
    }

    fn consume(&mut self, from: NodeId, bytes: u64) {
        match self.dir_from(from) {
            Dir::AtoB => self.cap_ab -= bytes,
            Dir::BtoA => self.cap_ba -= bytes,
        }
    }

    fn remove_replica(&mut self, node: NodeId, id: PacketId) -> bool {
        if self.world.buffer_mut(node).remove(id) {
            self.world.remove_holder(node, id);
            true
        } else {
            false
        }
    }
}

/// Read-only true global state (instant global control channel, §6.2.3).
pub struct GlobalView<'a> {
    delivered_at: &'a DeliveredAt,
    holders: &'a [IndexSet],
    buffers: &'a [NodeBuffer],
}

impl GlobalView<'_> {
    /// Whether the packet has been delivered (anywhere, as of now).
    pub fn is_delivered(&self, id: PacketId) -> bool {
        self.delivered_at.get(id).is_some()
    }

    /// The nodes currently holding replicas of `id`, in ascending node-id
    /// order.
    pub fn holders(&self, id: PacketId) -> impl Iterator<Item = NodeId> + '_ {
        self.holders[id.index()].iter().map(|i| NodeId(i as u32))
    }

    /// Read access to any node's buffer (remote queue state — what the
    /// instant channel would carry).
    pub fn buffer(&self, node: NodeId) -> &NodeBuffer {
        &self.buffers[node.index()]
    }
}
