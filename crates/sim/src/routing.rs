//! The routing-protocol abstraction.
//!
//! A routing protocol in this model is the decision-maker the paper
//! describes in §3.4: when two nodes meet, it chooses which packets to
//! transfer within the opportunity, and when storage overflows it chooses
//! what to drop. The simulator owns all state that exists "in the world"
//! (packets, buffers, delivery facts); the protocol owns its *beliefs*
//! (meeting histories, replica metadata, ack knowledge) and is free to be
//! wrong about the world — exactly the situation §4.2 describes for RAPID's
//! delayed control channel.

use crate::buffer::NodeBuffer;
use crate::driver::ContactDriver;
use crate::par::ContactPool;
use crate::shard::Partition;
use crate::time::{Time, TimeDelta};
use crate::types::{NodeId, Packet, PacketId};

/// Simulation-wide configuration shared with protocols at init.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Number of nodes; ids are `0..nodes`.
    pub nodes: usize,
    /// Per-node in-transit buffer capacity in bytes (`u64::MAX` ≈ unlimited).
    pub buffer_capacity: u64,
    /// Delivery deadline used by the missed-deadline metric (Table 4).
    pub deadline: Option<TimeDelta>,
    /// End of the run. Packets not delivered by now are lost ("packets that
    /// are not delivered by the end of the day are lost", §6.1) and charged
    /// `horizon − creation` delay where a metric includes undelivered packets.
    pub horizon: Time,
    /// Per-packet time-to-live. When set, a packet that is not delivered
    /// within `ttl` of its creation is evicted from every buffer by the
    /// engine (a [`crate::event::SimEvent::PacketExpired`] event) and
    /// counted in [`crate::report::SimReport::expired`]. `None` (the
    /// default, and the paper's model) lets packets live to the horizon.
    pub ttl: Option<TimeDelta>,
    /// Whether protocols may read true global state via
    /// [`ContactDriver::global`]. Only the instant-global-channel variants
    /// (§6.2.3) and Optimal enable this.
    pub allow_global_knowledge: bool,
    /// Root seed for protocol-internal randomness.
    pub seed: u64,
    /// Contacts before this instant are executed (protocols learn from
    /// them) but excluded from the report's byte and contact accounting —
    /// used for warm-up windows that precede the measured experiment.
    pub measure_from: Time,
    /// Read by nothing: the engine has one event loop. Kept, with
    /// [`SimConfig::lookahead`], only because the benchmark of record
    /// still sets both; they go with ROADMAP item 1.
    pub intra_jobs: usize,
    /// Read by nothing (see [`SimConfig::intra_jobs`]).
    pub lookahead: crate::par::Lookahead,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            nodes: 0,
            buffer_capacity: u64::MAX,
            deadline: None,
            ttl: None,
            horizon: Time::from_hours(19),
            allow_global_knowledge: false,
            seed: 0,
            measure_from: Time::ZERO,
            intra_jobs: 1,
            lookahead: crate::par::Lookahead,
        }
    }
}

/// How a routing protocol's contact handler may be scheduled within one
/// run (see [`Routing::contact_concurrency`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContactConcurrency {
    /// Contacts must be driven one at a time, in event order (the
    /// default; always correct).
    Serial,
    /// Contacts whose node sets are disjoint may be driven concurrently:
    /// the protocol promises that `on_contact` / `on_contact_end` touch
    /// only per-endpoint protocol state (plus the driver), and that any
    /// randomness is derived from the driver's contact sequence number
    /// rather than a shared stream.
    NodeDisjoint,
}

impl ContactConcurrency {
    /// Whether node-disjoint contacts may be driven concurrently within
    /// one instance (the gate of the sharded runtime).
    pub fn is_node_disjoint(self) -> bool {
        self == Self::NodeDisjoint
    }

    /// Stable snake-case label for telemetry columns (the per-shard
    /// timing TSV's `concurrency` field).
    pub fn label(self) -> &'static str {
        match self {
            Self::Serial => "serial",
            Self::NodeDisjoint => "node_disjoint",
        }
    }
}

impl std::fmt::Display for ContactConcurrency {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Result of [`ContactDriver::try_transfer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferOutcome {
    /// The peer was the destination and this was the first delivery.
    Delivered,
    /// The peer was the destination but the packet had already been
    /// delivered by some other replica (bandwidth was still spent).
    DeliveredDuplicate,
    /// A replica was stored at the peer.
    Replicated,
    /// The peer already holds a replica; nothing was sent.
    AlreadyHeld,
    /// The remaining opportunity in this direction is smaller than the
    /// packet (packets may not be fragmented, §3.1).
    NoBandwidth,
    /// The peer's buffer needs this many more free bytes; the caller may
    /// evict victims with [`ContactDriver::evict`] and retry.
    NeedsSpace(u64),
}

/// A DTN routing protocol.
///
/// Implementations drive all packet movement through the [`ContactDriver`]
/// given to [`Routing::on_contact`]; the engine enforces feasibility (per
/// §3.1: total bytes per opportunity bounded by its size, buffers bounded by
/// capacity) regardless of what the protocol asks for.
pub trait Routing {
    /// Human-readable protocol name (used in reports and experiment output).
    fn name(&self) -> String;

    /// Called once before the run with the node count and configuration.
    fn on_init(&mut self, _config: &SimConfig) {}

    /// Called when `packet` has been created and stored at its source.
    fn on_packet_created(&mut self, _packet: &Packet) {}

    /// Called when a packet could not be stored at its source because the
    /// buffer was full even after [`Routing::make_room`].
    fn on_creation_dropped(&mut self, _packet: &Packet) {}

    /// Invoked when `incoming` (created at `node`) needs `needed` more free
    /// bytes at `node`. Returns the victims to evict; returning fewer bytes
    /// than `needed` rejects the incoming packet.
    ///
    /// The default rejects the incoming packet (drops nothing).
    fn make_room(
        &mut self,
        _node: NodeId,
        _incoming: &Packet,
        _needed: u64,
        _buffer: &NodeBuffer,
        _packets: &PacketStore,
        _now: Time,
    ) -> Vec<PacketId> {
        Vec::new()
    }

    /// The heart of the protocol: a transfer opportunity between two nodes.
    ///
    /// For instantaneous contacts this fires at the meeting instant with the
    /// lump opportunity; for durative windows it fires when the window
    /// closes (or is interrupted by churn) with the accrued budget.
    fn on_contact(&mut self, driver: &mut ContactDriver<'_>);

    /// How this protocol's contacts may be scheduled within one run. The
    /// default, [`ContactConcurrency::Serial`], is always correct.
    /// Declaring [`ContactConcurrency::NodeDisjoint`] promises that
    /// [`Routing::on_contact`] / [`Routing::on_contact_end`] touch only
    /// per-endpoint protocol state (plus the driver), and that any
    /// randomness is derived from [`ContactDriver::contact_seq`] — which
    /// lets the sharded runtime drive node-disjoint contacts concurrently
    /// with byte-identical results.
    ///
    /// The promise extends to the per-node lifecycle hooks:
    /// [`Routing::make_room`], [`Routing::on_packet_created`] /
    /// [`Routing::on_creation_dropped`] and [`Routing::on_node_up`] /
    /// [`Routing::on_node_down`] may touch only the subject node's state.
    /// (Only [`Routing::on_packet_expired`] may read arbitrary nodes —
    /// the executor always runs it as a barrier.) This is what lets the
    /// sharded runtime ([`crate::shard`]) drain the shard queues of the
    /// run's one instance in any shard order within an epoch: every
    /// queued action touches only state owned by its shard. A `Serial`
    /// protocol runs on one shard only — the serial engine.
    fn contact_concurrency(&self) -> ContactConcurrency {
        ContactConcurrency::Serial
    }

    /// Drives `batch` one contact at a time, in order. No runtime calls
    /// it: the engine drives every contact through [`Routing::on_contact`].
    /// The hook stays only because the benchmark of record still forwards
    /// it, and goes with ROADMAP item 1; overriding it changes nothing.
    fn on_contact_batch(&mut self, batch: &mut [ContactDriver<'_>], pool: &ContactPool) {
        let _ = pool;
        for driver in batch {
            self.on_contact(driver);
        }
    }

    /// Called after a contact window between `a` and `b` has been driven and
    /// closed. `interrupted` is true when churn cut the window short.
    /// Default: no-op (protocols that only care about transfers ignore it).
    fn on_contact_end(&mut self, _a: NodeId, _b: NodeId, _now: Time, _interrupted: bool) {}

    /// Drains one epoch of a run over two or more shards against this
    /// instance.
    ///
    /// Only called by [`crate::shard`] when `partition` has more than one
    /// shard, which requires [`ContactConcurrency::NodeDisjoint`] (a
    /// one-shard epoch — the serial engine — drains against the instance
    /// directly, without this hook). A run has exactly one protocol
    /// instance, and the runtime asks it to split its per-node
    /// state along `partition` and drain every shard's action queue (a
    /// protocol with no per-node state hands each shard a view built from
    /// its `Copy` configuration). The implementation must call
    /// `drain(s, view)` exactly once for every shard `s in
    /// 0..partition.shards()`, where `view` is a [`Routing`] value whose
    /// hooks address shard `s`'s node range of this instance's state
    /// ([`Partition::split_mut`] cuts per-node state into those ranges);
    /// calls for distinct shards may run concurrently on `pool` because
    /// every queued action touches only its own shard's nodes (the
    /// extended `NodeDisjoint` contract). The runtime leases each shard's
    /// queue and buffers to `drain` once per epoch: a second call for a
    /// shard, or a shard left undrained, panics.
    ///
    /// Returns whether the epoch was drained. The default returns `false`
    /// without calling `drain`: the runtime then drains every shard
    /// serially, in shard order, against this instance directly — correct
    /// for any `NodeDisjoint` protocol (intra-epoch actions of distinct
    /// shards commute), just without intra-epoch parallelism.
    fn on_shard_epoch(
        &mut self,
        partition: &Partition,
        pool: &ContactPool,
        drain: &(dyn Fn(usize, &mut dyn Routing) + Sync),
    ) -> bool {
        let _ = (partition, pool, drain);
        false
    }

    /// Called when the engine evicts every replica of `packet` because its
    /// TTL elapsed undelivered (see [`SimConfig::ttl`]). Beliefs about the
    /// packet may be stale afterwards — exactly like any other world event
    /// the §4.2 control channel has not yet propagated.
    fn on_packet_expired(&mut self, _packet: &Packet) {}

    /// Called when a churned node comes back up.
    fn on_node_up(&mut self, _node: NodeId, _now: Time) {}

    /// Called when a node goes down (after its active windows were
    /// interrupted and driven).
    fn on_node_down(&mut self, _node: NodeId, _now: Time) {}

    /// Serializes the protocol's internal state for a checkpoint, or
    /// `None` if the protocol does not implement state capture.
    ///
    /// Returning `Some` is the one thing that makes a protocol usable on
    /// checkpointed runs: the checkpoint layer refuses to save otherwise
    /// (loudly), rather than silently resuming with amnesiac protocol
    /// beliefs. A protocol with nothing to save returns `Some(Vec::new())`
    /// and accepts only empty bytes in [`Routing::load_state`], so its
    /// snapshots still carry its name and cannot be resumed under another
    /// protocol.
    ///
    /// Derived caches may be omitted and rebuilt after restore, as long as
    /// the rebuilt values are bit-identical to what the uninterrupted run
    /// would have computed.
    fn save_state(&self) -> Option<Vec<u8>> {
        None
    }

    /// Restores state captured by [`Routing::save_state`] onto a freshly
    /// constructed instance ([`Routing::on_init`] has already run).
    /// Returns a descriptive error on malformed input.
    fn load_state(&mut self, _bytes: &[u8]) -> Result<(), String> {
        Err(format!(
            "{} does not implement checkpoint restore",
            self.name()
        ))
    }
}

/// The immutable packet arena: every packet ever created this run, indexed
/// by [`PacketId`].
///
/// Metadata is stored as structure-of-arrays columns (src, dst, size,
/// creation time, TTL deadline) rather than a `Vec<Packet>`: protocol hot
/// paths that scan one attribute — destination checks in queue sorts,
/// size sums in eviction, age in delay estimates — touch only that
/// column's cache lines, and each attribute compacts to its natural width
/// instead of padding a 32-byte struct. [`PacketStore::get`] assembles a
/// [`Packet`] *by value* for the protocol-facing hooks that want the
/// whole tuple.
#[derive(Debug, Default, Clone)]
pub struct PacketStore {
    src: Vec<NodeId>,
    dst: Vec<NodeId>,
    size_bytes: Vec<u64>,
    created_at: Vec<Time>,
    /// Instant the packet expires (creation + TTL), or [`PacketStore::NO_TTL`]
    /// when the run has no TTL — a dense column so expiry checks never
    /// branch on an `Option`.
    ttl_deadline: Vec<Time>,
}

impl PacketStore {
    /// Sentinel deadline for packets without a TTL: the end of time.
    pub const NO_TTL: Time = Time(u64::MAX);

    /// Assembles the packet tuple by value.
    ///
    /// # Panics
    /// If the id is out of range (a protocol invented an id).
    pub fn get(&self, id: PacketId) -> Packet {
        let i = id.index();
        Packet {
            id,
            src: self.src[i],
            dst: self.dst[i],
            size_bytes: self.size_bytes[i],
            created_at: self.created_at[i],
        }
    }

    /// Source node of `id` (single-column read).
    pub fn src(&self, id: PacketId) -> NodeId {
        self.src[id.index()]
    }

    /// Destination node of `id` (single-column read).
    pub fn dst(&self, id: PacketId) -> NodeId {
        self.dst[id.index()]
    }

    /// Size in bytes of `id` (single-column read).
    pub fn size_bytes(&self, id: PacketId) -> u64 {
        self.size_bytes[id.index()]
    }

    /// Creation instant of `id` (single-column read).
    pub fn created_at(&self, id: PacketId) -> Time {
        self.created_at[id.index()]
    }

    /// Expiry instant of `id`: `Some(created_at + ttl)` on TTL runs,
    /// `None` otherwise.
    pub fn ttl_deadline(&self, id: PacketId) -> Option<Time> {
        let t = self.ttl_deadline[id.index()];
        (t != Self::NO_TTL).then_some(t)
    }

    /// Number of packets created so far.
    pub fn len(&self) -> usize {
        self.src.len()
    }

    /// Whether no packets exist yet.
    pub fn is_empty(&self) -> bool {
        self.src.is_empty()
    }

    /// All packets, in creation (id) order, assembled by value.
    pub fn iter(&self) -> impl Iterator<Item = Packet> + '_ {
        (0..self.len()).map(|i| self.get(PacketId(i as u32)))
    }

    /// Appends a packet's columns and returns its id.
    pub(crate) fn push(
        &mut self,
        src: NodeId,
        dst: NodeId,
        size_bytes: u64,
        created_at: Time,
        ttl_deadline: Time,
    ) -> PacketId {
        let id = PacketId(self.src.len() as u32);
        self.src.push(src);
        self.dst.push(dst);
        self.size_bytes.push(size_bytes);
        self.created_at.push(created_at);
        self.ttl_deadline.push(ttl_deadline);
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_store_roundtrip() {
        let mut s = PacketStore::default();
        assert!(s.is_empty());
        let id = s.push(NodeId(0), NodeId(1), 10, Time::ZERO, PacketStore::NO_TTL);
        assert_eq!(id, PacketId(0));
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(id).dst, NodeId(1));
        assert_eq!(s.dst(id), NodeId(1));
        assert_eq!(s.src(id), NodeId(0));
        assert_eq!(s.size_bytes(id), 10);
        assert_eq!(s.created_at(id), Time::ZERO);
        assert_eq!(s.ttl_deadline(id), None);
        assert_eq!(s.iter().count(), 1);
        let with_ttl = s.push(NodeId(1), NodeId(0), 5, Time(3), Time(10));
        assert_eq!(s.ttl_deadline(with_ttl), Some(Time(10)));
    }

    #[test]
    fn default_config_is_unconstrained() {
        let c = SimConfig::default();
        assert_eq!(c.buffer_capacity, u64::MAX);
        assert!(!c.allow_global_knowledge);
    }
}
