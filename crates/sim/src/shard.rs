//! The one executor: partitioned execution under a conservative sync
//! horizon. Every run goes through it — the serial engine is the
//! one-shard partition.
//!
//! * A [`Partition`] maps contiguous `NodeId` ranges to shards —
//!   `ScaleFleet`'s hub-gateway topology emits hub-local contacts, so
//!   region boundaries are a natural seam with few cross-shard windows.
//! * The event-merge scan ([`crate::scan`]) owns the serial order — noise
//!   draws, suppression checks, contact sequence numbers — and hands each
//!   ordered action to this module's executor, which *routes* it: an
//!   action whose node set lies inside one shard is appended to that
//!   shard's message queue; anything cross-shard (a gateway contact, a TTL
//!   expiry touching arbitrary holders) is a *barrier*.
//! * Between barriers the shards free-run: at each epoch flush every
//!   shard drains its queue serially — its node range of the protocol's
//!   state, its own node-buffer range, the shared read-only packet arena
//!   — on a [`ContactPool`] worker. The epoch boundary is the
//!   conservative sync horizon: every queued action is ordered (in the
//!   engine's total `(time, rank, seq)` order) *before* the barrier
//!   action that forced the flush, so no shard ever sees state from its
//!   future.
//! * A cross-shard drive runs on the *coordinator* against the whole
//!   fleet's lease, through the same `drive` body every drain runs; TTL
//!   expiry is the one action only the coordinator executes.
//!
//! # One shard
//!
//! Over one shard nothing is cross-shard: the queue holds every action up
//! to the next TTL expiry, checkpoint or end of run (or
//! `EPOCH_ACTION_CAP` actions), and the epoch drains it in order against
//! the protocol instance itself, on the whole fleet's lease — without
//! calling [`Routing::on_shard_epoch`]. Between barriers the scan reads
//! no world state, so the deferral is invisible: a one-shard partition is
//! exact for every protocol, `Serial` and global-knowledge ones included.
//! That is how [`crate::engine::run_streaming`] runs.
//!
//! # Determinism
//!
//! `RAPID_SHARDS=N` is byte-identical to the one-shard run for any `N`
//! and any partition, because every ingredient of the report is either
//! computed by the scan in serial order (noise draws, suppression,
//! contact seq numbers, expiry accounting) or commutes across shards
//! within an epoch:
//!
//! * **Buffers** — [`Partition::split_mut`] gives each shard a `&mut`
//!   range, leased with its queue to one drain per epoch; the coordinator
//!   only touches buffers between epochs.
//! * **`delivered_at`** — relaxed atomics every shard shares by `&`, so
//!   shards cannot race on it. Slot `p` is only written by the contact
//!   whose endpoint is `dst(p)`; within an epoch that is exactly one shard
//!   (the coordinator only reads/writes between epochs). The engine's
//!   serial order among the drives of one shard is preserved by the
//!   queue, so first-delivery resolution is identical.
//! * **`entered`** — the same kind of column: slot `p` is written only by
//!   `src(p)`'s shard, in the epoch that executes the creation; the
//!   coordinator reads it (TTL expiry, snapshots) only between epochs.
//! * **Holder sets** — one table per shard, indexed by packet, its bits
//!   offsets into the shard's node range; leased with the shard's buffers
//!   and written where a buffer changes, into the table of the shard
//!   owning the node. A cross-shard drive writes each endpoint's change
//!   into that endpoint's table, so no table is written by two shards in
//!   one epoch. TTL expiry takes the packet's entry from every table;
//!   the global view chains the tables in shard order, which is
//!   ascending node order.
//! * **Report sums** — one `Counters` per shard, folded in shard order;
//!   integer addition is associative and commutative.
//!
//! A run has *one* protocol instance. Over two or more shards it must
//! declare [`ContactConcurrency::NodeDisjoint`]: under that contract
//! ([`Routing::contact_concurrency`]) every queued epoch action touches
//! only its own shard's nodes, so shard queues commute within an epoch.
//! Each multi-shard flush asks the instance to drain the epoch itself via
//! [`Routing::on_shard_epoch`] (splitting its per-node state — or, for a
//! protocol that keeps none, its `Copy` configuration — across the pool);
//! a protocol without that override is drained serially in shard order —
//! same bytes, no intra-epoch parallelism.
//!
//! `Serial` and global-knowledge protocols run on one shard only; over
//! more they are rejected loudly.

use crate::checkpoint::{require_checkpointable, Counters, RunHooks};
use crate::contact::ContactWindow;
use crate::driver::{ContactDriver, WorldMut};
use crate::event::NodeEvent;
use crate::ids::IndexSet;
use crate::noise::NoiseModel;
use crate::par::ContactPool;
use crate::report::SimReport;
use crate::routing::{ContactConcurrency, Routing, SimConfig};
use crate::scan::{scan, PendingDrive, Run, World};
use crate::source::{ContactSource, WorkloadSource};
use crate::time::Time;
use crate::types::{NodeId, PacketId};
use std::sync::atomic::Ordering;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Pending same-shard actions across all queues before a flush is forced
/// even without a barrier — bounds queue memory on long free-runs.
const EPOCH_ACTION_CAP: usize = 8192;

/// A contiguous partition of the node id space `0..nodes` into shards.
///
/// Shard `s` owns nodes `bounds[s]..bounds[s+1]`; ranges are disjoint,
/// cover the space, and may be empty (a degenerate shard simply never
/// receives work — useful for property tests over arbitrary cuts).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// `shards + 1` nondecreasing fence posts; first 0, last == nodes.
    bounds: Vec<u32>,
}

impl Partition {
    /// An even split of `0..nodes` into `shards` contiguous ranges (the
    /// first `nodes % shards` ranges get one extra node).
    pub fn even(nodes: usize, shards: usize) -> Self {
        assert!(shards >= 1, "need at least one shard");
        assert!(nodes <= u32::MAX as usize, "node space too large");
        let (base, rem) = (nodes / shards, nodes % shards);
        let mut bounds = Vec::with_capacity(shards + 1);
        let mut at = 0u32;
        bounds.push(at);
        for s in 0..shards {
            at += base as u32 + u32::from(s < rem);
            bounds.push(at);
        }
        Self { bounds }
    }

    /// A partition from explicit fence posts: `bounds[s]..bounds[s+1]`
    /// is shard `s`. Must start at 0, be nondecreasing, and contain at
    /// least one shard; the last post is the node count.
    pub fn from_bounds(bounds: Vec<u32>) -> Self {
        assert!(bounds.len() >= 2, "need at least one shard range");
        assert_eq!(bounds[0], 0, "partition must start at node 0");
        assert!(
            bounds.windows(2).all(|w| w[0] <= w[1]),
            "partition bounds must be nondecreasing"
        );
        Self { bounds }
    }

    /// Number of shards (including empty ones).
    pub fn shards(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Total number of nodes covered.
    pub fn nodes(&self) -> usize {
        *self.bounds.last().expect("nonempty bounds") as usize
    }

    /// The node-index range owned by shard `s`.
    pub fn range(&self, s: usize) -> std::ops::Range<usize> {
        self.bounds[s] as usize..self.bounds[s + 1] as usize
    }

    /// The shard owning `node`.
    pub fn shard_of(&self, node: NodeId) -> usize {
        debug_assert!(node.index() < self.nodes(), "{node} outside partition");
        // The last fence post <= node, skipping the leading 0: empty
        // shards collapse to the successor actually owning the node.
        self.bounds.partition_point(|&b| b as usize <= node.index()) - 1
    }

    /// Whether both endpoints of `w` fall in one shard.
    pub fn is_local(&self, w: &ContactWindow) -> bool {
        self.shard_of(w.a) == self.shard_of(w.b)
    }

    /// Cuts `items` — one per node — into each shard's range, in shard
    /// order: a `split_at_mut` chain, so the shards' `&mut` leases are
    /// disjoint by construction (an empty shard gets an empty slice).
    ///
    /// # Panics
    /// If `items` does not hold exactly one element per node.
    pub fn split_mut<'s, T>(
        &self,
        items: &'s mut [T],
    ) -> impl Iterator<Item = &'s mut [T]> + use<'_, 's, T> {
        assert_eq!(items.len(), self.nodes(), "one item per partitioned node");
        let mut rest = items;
        (0..self.shards()).map(move |s| {
            let (head, tail) = std::mem::take(&mut rest).split_at_mut(self.range(s).len());
            rest = tail;
            head
        })
    }
}

/// Clamps a requested shard count to the node count, warning once when
/// the request exceeded it: `RAPID_SHARDS > nodes` would pass env
/// validation yet produce shards that own no nodes — each still costing
/// a pool worker and a queue while doing no work. The result is always
/// at least 1 (a zero-node world still needs one shard for
/// [`Partition::even`]).
pub fn clamp_shards(shards: usize, nodes: usize) -> usize {
    let clamped = shards.min(nodes).max(1);
    if clamped < shards {
        crate::diag::warn_once(
            "shards-clamped",
            &format!(
                "RAPID_SHARDS={shards} exceeds the {nodes}-node world; \
                 clamping to {clamped} (extra shards would own no nodes)"
            ),
            &[
                ("requested", shards.to_string()),
                ("nodes", nodes.to_string()),
                ("clamped", clamped.to_string()),
            ],
        );
    }
    clamped
}

/// Per-shard execution telemetry from a sharded run (the timing TSVs the
/// scale harness uploads).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// Nodes owned by the shard.
    pub nodes: usize,
    /// Contact drives the shard executed.
    pub drives: u64,
    /// Packet-creation actions the shard executed.
    pub creations: u64,
    /// Wall time spent draining this shard's queues (sum over epochs).
    pub busy: Duration,
    /// The tier the protocol declared — `node_disjoint` on every row of a
    /// multi-shard run, since the runtime rejects anything else there.
    pub concurrency: ContactConcurrency,
}

/// One routed action in a shard's queue. Emitted in the engine's total
/// event order, so within one queue the order *is* the serial execution
/// order.
enum ShardMsg {
    /// Drive a contact whose endpoints both belong to this shard.
    Drive {
        drive: PendingDrive,
        interrupted: bool,
    },
    /// Execute the source-buffer side of a packet creation (the packet is
    /// already in the shared arena). `src_up` is the scan's availability
    /// verdict at creation time.
    Create { id: PacketId, src_up: bool },
    /// Lifecycle hook: the node (owned by this shard) came up.
    NodeUp(NodeId, Time),
    /// Lifecycle hook: the node (owned by this shard) went down.
    NodeDown(NodeId, Time),
}

/// One shard's action queue and report counters. Disjoint across shards;
/// drained by one worker per epoch.
#[derive(Default)]
struct ShardState {
    msgs: Vec<ShardMsg>,
    /// Report counters, folded in shard order at every quiesce.
    counters: Counters,
    // Telemetry.
    drives: u64,
    creations: u64,
    busy: Duration,
}

/// [`run_sharded_with_stats`] without the telemetry.
pub fn run_sharded(
    config: &SimConfig,
    partition: &Partition,
    contacts: &mut dyn ContactSource,
    workload: &mut dyn WorkloadSource,
    churn: &[NodeEvent],
    noise: Option<NoiseModel>,
    factory: &mut dyn FnMut() -> Box<dyn Routing + Send>,
) -> SimReport {
    run_sharded_with_stats(config, partition, contacts, workload, churn, noise, factory).0
}

/// Executes one run under `partition` and returns the report
/// (byte-identical to [`crate::engine::run_streaming`] with the same
/// inputs) plus per-shard telemetry.
///
/// `factory` is called exactly once, for the run's protocol instance.
/// Over one shard every protocol runs. Over two or more the instance must
/// declare [`ContactConcurrency::NodeDisjoint`] — a `Serial` protocol is
/// rejected loudly — and runs with global knowledge are rejected too
/// (the instant global channel reads arbitrary remote state mid-contact).
#[allow(clippy::too_many_arguments)]
pub fn run_sharded_with_stats(
    config: &SimConfig,
    partition: &Partition,
    contacts: &mut dyn ContactSource,
    workload: &mut dyn WorkloadSource,
    churn: &[NodeEvent],
    noise: Option<NoiseModel>,
    factory: &mut dyn FnMut() -> Box<dyn Routing + Send>,
) -> (SimReport, Vec<ShardStats>) {
    run_sharded_hooked(
        config,
        partition,
        contacts,
        workload,
        churn,
        noise,
        factory,
        RunHooks::default(),
    )
}

/// [`run_sharded_with_stats`] with crash-safety hooks: periodic
/// checkpoints, resume from a [`crate::checkpoint::Snapshot`], and fault
/// injection.
///
/// Snapshots are partition-independent — everything captured is the
/// global serial-order state — so a run checkpointed at one
/// `RAPID_SHARDS` resumes byte-identically at any other (or on the serial
/// engine).
#[allow(clippy::too_many_arguments)]
pub fn run_sharded_hooked(
    config: &SimConfig,
    partition: &Partition,
    contacts: &mut dyn ContactSource,
    workload: &mut dyn WorkloadSource,
    churn: &[NodeEvent],
    noise: Option<NoiseModel>,
    factory: &mut dyn FnMut() -> Box<dyn Routing + Send>,
    hooks: RunHooks<'_>,
) -> (SimReport, Vec<ShardStats>) {
    let mut routing = factory();
    run_partitioned(
        config,
        partition,
        contacts,
        workload,
        churn,
        noise,
        routing.as_mut(),
        hooks,
    )
}

/// The one runner behind every public entry point (the serial ones in
/// [`crate::engine`] pass a one-shard partition): checks `routing`
/// against the partition, initializes it, and runs the scan with the
/// partitioned executor.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_partitioned(
    config: &SimConfig,
    partition: &Partition,
    contacts: &mut dyn ContactSource,
    workload: &mut dyn WorkloadSource,
    churn: &[NodeEvent],
    noise: Option<NoiseModel>,
    routing: &mut dyn Routing,
    hooks: RunHooks<'_>,
) -> (SimReport, Vec<ShardStats>) {
    assert_eq!(
        partition.nodes(),
        config.nodes,
        "partition must cover exactly the configured node space"
    );
    let concurrency = routing.contact_concurrency();
    if partition.shards() > 1 {
        assert!(
            !config.allow_global_knowledge,
            "global-knowledge runs cannot be sharded"
        );
        assert!(
            concurrency.is_node_disjoint(),
            "sharded execution requires a NodeDisjoint protocol; {} declared Serial",
            routing.name()
        );
    }
    if hooks.checkpoint.is_some() || hooks.resume.is_some() {
        require_checkpointable(routing);
    }
    routing.on_init(config);

    let shards = partition.shards();
    let mut states: Vec<ShardState> = (0..shards).map(|_| ShardState::default()).collect();
    let report = std::thread::scope(|scope| {
        let pool = ContactPool::start(scope, shards);
        let mut exec = Partitioned {
            partition,
            routing,
            states: &mut states,
            pool: &pool,
            pending: 0,
        };
        scan(config, contacts, workload, churn, noise, hooks, &mut exec)
    });

    let stats = states
        .iter()
        .enumerate()
        .map(|(s, st)| ShardStats {
            shard: s,
            nodes: partition.range(s).len(),
            drives: st.drives,
            creations: st.creations,
            busy: st.busy,
            concurrency,
        })
        .collect();
    (report, stats)
}

/// The executor: routes each scan action to the shard owning its nodes,
/// drains the shard queues at every barrier, and executes barriers on
/// the coordinator against the whole fleet's lease.
pub(crate) struct Partitioned<'a> {
    partition: &'a Partition,
    /// The run's one protocol instance. It drains one-shard epochs
    /// itself, splits multi-shard ones (`on_shard_epoch`), and executes
    /// the barriers.
    routing: &'a mut dyn Routing,
    states: &'a mut [ShardState],
    pool: &'a ContactPool,
    /// Same-shard actions queued since the last epoch flush.
    pending: usize,
}

impl Partitioned<'_> {
    /// The instance holding the run's protocol state: saved into
    /// snapshots, restored on resume.
    pub(crate) fn routing(&mut self) -> &mut dyn Routing {
        self.routing
    }

    /// The run's partition: one holder table per shard.
    pub(crate) fn partition(&self) -> &Partition {
        self.partition
    }

    /// Drives one contact; `interrupted` when churn cut the window short.
    /// Same-shard endpoints queue to the owning shard; a cross-shard
    /// (gateway) drive is a barrier the coordinator runs on the whole
    /// fleet's lease.
    pub(crate) fn drive(&mut self, run: &mut Run<'_>, pending: PendingDrive, interrupted: bool) {
        let (sa, sb) = (
            self.partition.shard_of(pending.window.a),
            self.partition.shard_of(pending.window.b),
        );
        if sa == sb {
            let msg = ShardMsg::Drive {
                drive: pending,
                interrupted,
            };
            self.enqueue(run, sa, msg);
        } else {
            self.flush_epoch(run);
            drive(
                self.routing,
                run.world.lease(self.partition),
                pending,
                interrupted,
                run.config.allow_global_knowledge,
                &mut run.counters,
            );
        }
    }

    /// The source-buffer side of creating packet `id`, which the scan has
    /// already appended to the arena with `entered = false`. `src_up` is
    /// the scan's availability verdict at creation time.
    pub(crate) fn create(&mut self, run: &mut Run<'_>, id: PacketId, src_up: bool) {
        let s = self.partition.shard_of(run.world.store.src(id));
        self.enqueue(run, s, ShardMsg::Create { id, src_up });
    }

    /// Lifecycle hook: `node` came up (availability is already updated).
    pub(crate) fn node_up(&mut self, run: &mut Run<'_>, node: NodeId, now: Time) {
        let s = self.partition.shard_of(node);
        self.enqueue(run, s, ShardMsg::NodeUp(node, now));
    }

    /// Lifecycle hook: `node` went down (its open windows have already
    /// been interrupted and driven).
    pub(crate) fn node_down(&mut self, run: &mut Run<'_>, node: NodeId, now: Time) {
        let s = self.partition.shard_of(node);
        self.enqueue(run, s, ShardMsg::NodeDown(node, now));
    }

    /// TTL expiry of `id`. It reads and writes arbitrary holders and
    /// buffers, so it is a barrier, executed by the coordinator alone —
    /// unless the packet is already delivered: a delivered slot never
    /// reverts, so that expiry is a no-op whatever the queues hold, and
    /// it returns without forcing an epoch.
    pub(crate) fn expire(&mut self, run: &mut Run<'_>, id: PacketId) {
        if run.world.delivered_at.get(id).is_some() {
            return;
        }
        self.flush_epoch(run);
        let world = &mut run.world;
        // Skip packets that were delivered in the epoch just drained, and
        // packets that never entered the network: they carry no replicas,
        // and their expiry was scheduled before the creation verdict was
        // known (see the scheduling rule in `scan`).
        if !world.entered[id.index()].load(Ordering::Relaxed)
            || world.delivered_at.get(id).is_some()
        {
            return;
        }
        for (s, table) in world.holders.iter_mut().enumerate() {
            let base = self.partition.range(s).start;
            let held = table.get_mut(id.index()).map(std::mem::take);
            for h in held.iter().flat_map(IndexSet::iter) {
                world.buffers[base + h].remove(id);
            }
        }
        run.counters.expired += 1;
        self.routing.on_packet_expired(&world.store.get(id));
    }

    /// Drains every shard queue, then folds (and zeroes) the shard
    /// counters in shard order, so `run.counters` is the full serial-order
    /// prefix. Called before a snapshot and at end of run; folding early
    /// changes nothing, because the end-of-run fold adds whatever
    /// accumulated afterwards.
    pub(crate) fn quiesce(&mut self, run: &mut Run<'_>) {
        self.flush_epoch(run);
        for s in self.states.iter_mut() {
            run.counters += std::mem::take(&mut s.counters);
        }
    }

    /// Appends a routed action to shard `s`'s queue, flushing first if
    /// the pending-action cap is reached (bounds queue memory).
    fn enqueue(&mut self, run: &mut Run<'_>, s: usize, msg: ShardMsg) {
        if self.pending >= EPOCH_ACTION_CAP {
            self.flush_epoch(run);
        }
        self.states[s].msgs.push(msg);
        self.pending += 1;
    }

    /// One epoch: every shard drains its queue, and on return all queues
    /// are empty and the whole world is consistent — the barrier may
    /// proceed.
    fn flush_epoch(&mut self, run: &mut Run<'_>) {
        if self.pending == 0 {
            return;
        }
        self.pending = 0;
        let allow_global = run.config.allow_global_knowledge;
        let partition = self.partition;
        if partition.shards() == 1 {
            // The one shard leases the whole fleet: drain it against the
            // instance itself.
            let world = run.world.lease(partition);
            drain_shard(self.routing, &mut self.states[0], world, allow_global);
            return;
        }
        let World {
            buffers,
            store,
            delivered_at,
            holders,
            entered,
        } = &mut run.world;
        // One lease per shard — its queue and counters, its range of the
        // node buffers and its holder table — which the drain takes
        // exactly once.
        let leases: Vec<Mutex<Option<_>>> = self
            .states
            .iter_mut()
            .zip(partition.split_mut(buffers))
            .zip(holders.iter_mut())
            .enumerate()
            .map(|(s, ((state, buffers), table))| {
                let world = WorldMut {
                    packets: store,
                    partition,
                    first: s,
                    buffers,
                    holders: std::slice::from_mut(table),
                    delivered_at,
                    entered,
                };
                Mutex::new(Some((state, world)))
            })
            .collect();
        // Shard queues drain against views of the instance's per-node
        // state. The protocol splits that state itself
        // (`on_shard_epoch`); without an override, drain serially in
        // shard order — intra-epoch actions of distinct shards commute
        // under the NodeDisjoint contract, so any fixed order is exact.
        let drain = |s: usize, routing: &mut dyn Routing| {
            let (state, world) = leases[s]
                .lock()
                .expect("shard lease lock")
                .take()
                .expect("on_shard_epoch drains each shard once per epoch");
            drain_shard(routing, state, world, allow_global);
        };
        if !self.routing.on_shard_epoch(partition, self.pool, &drain) {
            for s in 0..partition.shards() {
                drain(s, self.routing);
            }
        }
        let undrained = leases
            .into_iter()
            .position(|lease| lease.into_inner().expect("shard lease lock").is_some());
        assert_eq!(undrained, None, "on_shard_epoch left a shard undrained");
    }
}

/// Drains one shard's queue in order on `world`, the shard's lease,
/// through `routing` — the run's instance, or a shard-range view of it
/// inside `on_shard_epoch`. May run on a pool worker: everything it
/// mutates is leased to the shard (its queue and counters, its buffers
/// and holder table) or an atomic column shared by every shard
/// (`delivered_at`, `entered` — see the module docs).
fn drain_shard(
    routing: &mut dyn Routing,
    state: &mut ShardState,
    mut world: WorldMut<'_>,
    allow_global: bool,
) {
    if state.msgs.is_empty() {
        return;
    }
    let t0 = Instant::now();
    for msg in state.msgs.drain(..) {
        match msg {
            ShardMsg::Drive {
                drive: pending,
                interrupted,
            } => {
                state.drives += 1;
                let world = world.reborrow();
                drive(
                    routing,
                    world,
                    pending,
                    interrupted,
                    allow_global,
                    &mut state.counters,
                );
            }
            ShardMsg::Create { id, src_up } => {
                state.creations += 1;
                create(routing, &mut world, id, src_up);
            }
            ShardMsg::NodeUp(node, t) => routing.on_node_up(node, t),
            ShardMsg::NodeDown(node, t) => routing.on_node_down(node, t),
        }
    }
    state.busy += t0.elapsed();
}

/// The one drive body, for every drain and the coordinator alike: hands
/// the contact to the protocol on `world`, accounts its ledger, and
/// closes it.
fn drive(
    routing: &mut dyn Routing,
    world: WorldMut<'_>,
    pending: PendingDrive,
    interrupted: bool,
    allow_global: bool,
    counters: &mut Counters,
) {
    let ContactWindow { a, b, .. } = pending.window;
    let mut driver = ContactDriver::new(
        world,
        pending.now,
        a,
        b,
        pending.budget,
        allow_global,
        pending.seq,
    );
    routing.on_contact(&mut driver);
    counters.add_drive(&pending, driver.ledger());
    routing.on_contact_end(a, b, pending.now, interrupted);
}

/// The one creation body: stores packet `id` at its source on `world` —
/// a full buffer asks the protocol to make room — and the protocol hears
/// the verdict. `src_up` is the scan's availability verdict at creation
/// time.
fn create(routing: &mut dyn Routing, world: &mut WorldMut<'_>, id: PacketId, src_up: bool) {
    let packet = world.packets.get(id);
    let src = packet.src;
    if !src_up {
        // A down node cannot originate traffic.
        routing.on_creation_dropped(&packet);
        return;
    }
    let free = world.buffer(src).free_bytes();
    if free < packet.size_bytes {
        let needed = packet.size_bytes - free;
        let buf = world.buffer(src);
        for v in routing.make_room(src, &packet, needed, buf, world.packets, packet.created_at) {
            world.drop_replica(src, v);
        }
    }
    if world.store(src, &packet, packet.created_at) {
        world.entered[id.index()].store(true, Ordering::Relaxed);
        routing.on_packet_created(&packet);
    } else {
        routing.on_creation_dropped(&packet);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::NodeBuffer;
    use crate::checkpoint::Snapshot;
    use crate::driver::DeliveredAt;
    use crate::engine::Simulation;
    use crate::routing::PacketStore;
    use crate::routing::TransferOutcome;
    use crate::time::TimeDelta;
    use crate::types::Packet;
    use crate::workload::{PacketSpec, Workload};
    use crate::Schedule;

    #[test]
    fn even_partition_covers_and_balances() {
        let p = Partition::even(10, 3);
        assert_eq!(p.shards(), 3);
        assert_eq!(p.nodes(), 10);
        assert_eq!(p.range(0), 0..4);
        assert_eq!(p.range(1), 4..7);
        assert_eq!(p.range(2), 7..10);
        for node in 0..10u32 {
            let s = p.shard_of(NodeId(node));
            assert!(p.range(s).contains(&(node as usize)), "node {node}");
        }
    }

    #[test]
    fn empty_shards_are_skipped_by_ownership() {
        let p = Partition::from_bounds(vec![0, 5, 5, 10]);
        assert_eq!(p.shards(), 3);
        assert_eq!(p.shard_of(NodeId(4)), 0);
        assert_eq!(p.shard_of(NodeId(5)), 2, "empty shard 1 owns nothing");
        assert!(p.range(1).is_empty());
    }

    #[test]
    fn split_mut_leases_each_shard_its_range() {
        let p = Partition::from_bounds(vec![0, 5, 5, 10]);
        let mut nodes: Vec<usize> = (0..10).collect();
        let leases: Vec<&mut [usize]> = p.split_mut(&mut nodes).collect();
        assert_eq!(leases.len(), p.shards());
        for (s, lease) in leases.iter().enumerate() {
            assert_eq!(lease.len(), p.range(s).len());
            assert!(lease.iter().copied().eq(p.range(s)), "shard {s}");
        }
        assert!(leases[1].is_empty(), "empty shard 1 leases nothing");
    }

    #[test]
    #[should_panic(expected = "one item per partitioned node")]
    fn split_mut_rejects_a_short_slice() {
        let _ = Partition::even(4, 2).split_mut(&mut [0u8; 3]).count();
    }

    #[test]
    fn single_shard_partition_is_trivially_local() {
        let p = Partition::even(7, 1);
        let w = ContactWindow::instant(Time::ZERO, NodeId(0), NodeId(6), 1);
        assert!(p.is_local(&w));
    }

    #[test]
    #[should_panic(expected = "nondecreasing")]
    fn from_bounds_rejects_descending_posts() {
        let _ = Partition::from_bounds(vec![0, 6, 4, 10]);
    }

    /// Flooding with no protocol state: decisions are a pure function of
    /// the driver.
    struct ShardFlood;

    impl Routing for ShardFlood {
        fn name(&self) -> String {
            "shard-flood-test".into()
        }

        fn contact_concurrency(&self) -> ContactConcurrency {
            ContactConcurrency::NodeDisjoint
        }

        fn on_contact(&mut self, driver: &mut ContactDriver<'_>) {
            let (a, b) = driver.endpoints();
            for from in [a, b] {
                let to = driver.peer_of(from);
                let mut ids = driver.buffer(from).ids();
                ids.sort_by_key(|&id| driver.packets().get(id).dst != to);
                for id in ids {
                    if driver.try_transfer(from, id) == TransferOutcome::NoBandwidth {
                        break;
                    }
                }
            }
        }
    }

    fn spec(t: u64, src: u32, dst: u32, size: u64) -> PacketSpec {
        PacketSpec {
            time: Time::from_secs(t),
            src: NodeId(src),
            dst: NodeId(dst),
            size_bytes: size,
        }
    }

    /// A small but semantically dense scenario: intra- and cross-shard
    /// contacts (instantaneous and durative), TTL, churn interrupting a
    /// window, and a creation on a down node.
    fn scenario() -> Simulation {
        let cfg = SimConfig {
            nodes: 9,
            buffer_capacity: 4096,
            horizon: Time::from_secs(300),
            ttl: Some(TimeDelta::from_secs(60)),
            seed: 7,
            ..SimConfig::default()
        };
        let schedule = Schedule::new(vec![
            // Intra-shard (0..3): instantaneous.
            ContactWindow::instant(Time::from_secs(10), NodeId(0), NodeId(1), 4096),
            // Cross-shard gateway contact (shard 0 ↔ shard 1).
            ContactWindow::instant(Time::from_secs(20), NodeId(2), NodeId(3), 4096),
            // Durative intra-shard window in shard 1, interrupted by churn.
            ContactWindow::new(
                Time::from_secs(25),
                Time::from_secs(80),
                NodeId(4),
                NodeId(5),
                64,
            ),
            // Intra-shard in shard 2.
            ContactWindow::instant(Time::from_secs(40), NodeId(6), NodeId(7), 4096),
            // Cross-shard again, late (shard 2 ↔ shard 0).
            ContactWindow::instant(Time::from_secs(90), NodeId(8), NodeId(0), 4096),
            // Suppressed: node 5 is down over [45, 85].
            ContactWindow::instant(Time::from_secs(50), NodeId(4), NodeId(5), 4096),
        ]);
        let workload = Workload::new(vec![
            spec(1, 0, 2, 512),  // intra-shard relay
            spec(2, 1, 8, 512),  // must cross shards to deliver
            spec(3, 4, 5, 1024), // rides the interrupted window
            spec(35, 6, 3, 512), // expires before any useful contact
            spec(50, 5, 6, 512), // created while node 5 is down → dropped
        ]);
        Simulation::new(cfg, schedule, workload).with_churn(vec![
            NodeEvent {
                time: Time::from_secs(45),
                node: NodeId(5),
                up: false,
            },
            NodeEvent {
                time: Time::from_secs(85),
                node: NodeId(5),
                up: true,
            },
        ])
    }

    fn run_scenario_sharded(partition: &Partition) -> (SimReport, Vec<ShardStats>) {
        let sim = scenario();
        let mut contacts = sim.schedule().windows().iter().copied();
        let mut workload = sim.workload().specs().iter().copied();
        run_sharded_with_stats(
            sim.config(),
            partition,
            &mut contacts,
            &mut workload,
            sim.churn(),
            None,
            &mut || Box::new(ShardFlood),
        )
    }

    #[test]
    fn sharded_matches_serial_engine() {
        let serial = scenario().run(&mut ShardFlood);
        for shards in [1, 2, 3, 4] {
            let (sharded, stats) = run_scenario_sharded(&Partition::even(9, shards));
            assert_eq!(sharded, serial, "{shards} shards diverged");
            assert_eq!(stats.len(), shards);
        }
        // Sanity: the scenario is not vacuous.
        assert!(serial.delivered() >= 1);
        assert!(serial.expired >= 1);
        assert_eq!(serial.contacts_suppressed, 1);
    }

    #[test]
    fn sharded_matches_serial_under_noise() {
        let noise = NoiseModel {
            contact_failure_prob: 0.3,
            setup_loss_bytes_mean: 128.0,
            processing_delay_mean: TimeDelta::from_secs(2),
        };
        let serial = scenario().with_noise(noise).run(&mut ShardFlood);
        let sim = scenario();
        let mut contacts = sim.schedule().windows().iter().copied();
        let mut workload = sim.workload().specs().iter().copied();
        let sharded = run_sharded(
            sim.config(),
            &Partition::even(9, 3),
            &mut contacts,
            &mut workload,
            sim.churn(),
            Some(noise),
            &mut || Box::new(ShardFlood),
        );
        assert_eq!(sharded, serial);
    }

    #[test]
    fn uneven_partitions_agree_too() {
        let serial = scenario().run(&mut ShardFlood);
        for bounds in [vec![0, 1, 9], vec![0, 8, 9], vec![0, 3, 3, 9]] {
            let p = Partition::from_bounds(bounds.clone());
            let (sharded, _) = run_scenario_sharded(&p);
            assert_eq!(sharded, serial, "bounds {bounds:?} diverged");
        }
    }

    #[test]
    #[should_panic(expected = "declared Serial")]
    fn serial_protocols_are_rejected() {
        struct SerialOnly;
        impl Routing for SerialOnly {
            fn name(&self) -> String {
                "serial-only".into()
            }
            fn on_contact(&mut self, _driver: &mut ContactDriver<'_>) {}
        }
        let sim = scenario();
        let mut contacts = sim.schedule().windows().iter().copied();
        let mut workload = sim.workload().specs().iter().copied();
        let _ = run_sharded(
            sim.config(),
            &Partition::even(9, 2),
            &mut contacts,
            &mut workload,
            &[],
            None,
            &mut || Box::new(SerialOnly),
        );
    }

    #[test]
    #[should_panic(expected = "global-knowledge runs cannot be sharded")]
    fn global_knowledge_runs_are_rejected_beyond_one_shard() {
        let sim = scenario();
        let config = SimConfig {
            allow_global_knowledge: true,
            ..sim.config().clone()
        };
        let mut contacts = sim.schedule().windows().iter().copied();
        let mut workload = sim.workload().specs().iter().copied();
        let _ = run_sharded(
            &config,
            &Partition::even(9, 2),
            &mut contacts,
            &mut workload,
            &[],
            None,
            &mut || Box::new(ShardFlood),
        );
    }

    /// `ShardFlood` with an `on_shard_epoch` that drains shard `s`
    /// `drains[s]` times — a breach of the once-per-epoch lease.
    struct MisDrained {
        drains: [usize; 3],
    }

    impl Routing for MisDrained {
        fn name(&self) -> String {
            "mis-drained-test".into()
        }

        fn contact_concurrency(&self) -> ContactConcurrency {
            ContactConcurrency::NodeDisjoint
        }

        fn on_contact(&mut self, driver: &mut ContactDriver<'_>) {
            ShardFlood.on_contact(driver);
        }

        fn on_shard_epoch(
            &mut self,
            _partition: &Partition,
            _pool: &ContactPool,
            drain: &(dyn Fn(usize, &mut dyn Routing) + Sync),
        ) -> bool {
            for (s, &times) in self.drains.iter().enumerate() {
                for _ in 0..times {
                    drain(s, &mut ShardFlood);
                }
            }
            true
        }
    }

    fn run_mis_drained(drains: [usize; 3]) {
        let sim = scenario();
        let mut contacts = sim.schedule().windows().iter().copied();
        let mut workload = sim.workload().specs().iter().copied();
        let _ = run_sharded(
            sim.config(),
            &Partition::even(9, 3),
            &mut contacts,
            &mut workload,
            sim.churn(),
            None,
            &mut || Box::new(MisDrained { drains }),
        );
    }

    #[test]
    #[should_panic(expected = "on_shard_epoch drains each shard once per epoch")]
    fn a_shard_drained_twice_panics() {
        run_mis_drained([2, 1, 1]);
    }

    #[test]
    #[should_panic(expected = "on_shard_epoch left a shard undrained")]
    fn a_shard_left_undrained_panics() {
        run_mis_drained([1, 0, 1]);
    }

    /// `ShardFlood` counting the multi-shard epochs it is asked to drain.
    struct EpochCounter(std::sync::Arc<std::sync::atomic::AtomicUsize>);

    impl Routing for EpochCounter {
        fn name(&self) -> String {
            "epoch-counter-test".into()
        }

        fn contact_concurrency(&self) -> ContactConcurrency {
            ContactConcurrency::NodeDisjoint
        }

        fn on_contact(&mut self, driver: &mut ContactDriver<'_>) {
            ShardFlood.on_contact(driver);
        }

        fn on_shard_epoch(
            &mut self,
            partition: &Partition,
            _pool: &ContactPool,
            drain: &(dyn Fn(usize, &mut dyn Routing) + Sync),
        ) -> bool {
            self.0.fetch_add(1, Ordering::Relaxed);
            for s in 0..partition.shards() {
                drain(s, &mut ShardFlood);
            }
            true
        }
    }

    #[test]
    fn a_delivered_packets_expiry_forces_no_epoch() {
        let cfg = SimConfig {
            nodes: 4,
            buffer_capacity: 4096,
            horizon: Time::from_secs(300),
            ttl: Some(TimeDelta::from_secs(60)),
            seed: 7,
            ..SimConfig::default()
        };
        let sim = Simulation::new(
            cfg,
            Schedule::new(vec![
                // Delivers p0 long before its expiry at t = 61.
                ContactWindow::instant(Time::from_secs(10), NodeId(0), NodeId(1), 4096),
                // A gateway contact: the barrier that drains the delivery.
                ContactWindow::instant(Time::from_secs(30), NodeId(1), NodeId(2), 4096),
                // Queued to shard 1 between the two expiries.
                ContactWindow::instant(Time::from_secs(70), NodeId(2), NodeId(3), 4096),
            ]),
            // p1 (queued at t = 40) never meets node 0 and expires at
            // t = 100.
            Workload::new(vec![spec(1, 0, 1, 512), spec(40, 2, 0, 512)]),
        );
        let serial = sim.run(&mut ShardFlood);
        assert_eq!((serial.delivered(), serial.expired), (1, 1));

        let epochs = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let mut contacts = sim.schedule().windows().iter().copied();
        let mut workload = sim.workload().specs().iter().copied();
        let sharded = run_sharded(
            sim.config(),
            &Partition::even(4, 2),
            &mut contacts,
            &mut workload,
            sim.churn(),
            None,
            &mut || Box::new(EpochCounter(epochs.clone())),
        );
        assert_eq!(sharded, serial);
        // The gateway contact and p1's expiry are the two barriers. p0's
        // expiry finds it delivered and leaves p1's creation queued.
        assert_eq!(epochs.load(Ordering::Relaxed), 2);
    }

    /// Flooding with genuinely evolving per-node state: each node
    /// remembers every id it ever offered and offers unseen ids first.
    /// Two fresh instances are NOT interchangeable (the memory warms up),
    /// so a runtime that built a second instance anywhere would diverge.
    struct MemoryFlood {
        seen: Vec<crate::acks::PacketSet>,
    }

    impl MemoryFlood {
        fn new() -> Self {
            Self { seen: Vec::new() }
        }
    }

    impl Routing for MemoryFlood {
        fn name(&self) -> String {
            "memory-flood-test".into()
        }

        fn on_init(&mut self, config: &SimConfig) {
            self.seen = (0..config.nodes)
                .map(|_| crate::acks::PacketSet::new())
                .collect();
        }

        fn contact_concurrency(&self) -> ContactConcurrency {
            ContactConcurrency::NodeDisjoint
        }

        fn on_contact(&mut self, driver: &mut ContactDriver<'_>) {
            let (a, b) = driver.endpoints();
            for from in [a, b] {
                let to = driver.peer_of(from);
                let mut ids = driver.buffer(from).ids();
                ids.sort_by_key(|&id| {
                    (
                        driver.packets().get(id).dst != to,
                        self.seen[from.index()].contains(id),
                        id,
                    )
                });
                for id in ids {
                    if driver.try_transfer(from, id) == TransferOutcome::NoBandwidth {
                        break;
                    }
                    self.seen[from.index()].insert(id);
                }
            }
        }

        fn on_packet_created(&mut self, packet: &Packet) {
            self.seen[packet.src.index()].insert(packet.id);
        }

        fn on_node_up(&mut self, node: NodeId, _now: Time) {
            self.seen[node.index()] = crate::acks::PacketSet::new();
        }
    }

    #[test]
    fn node_disjoint_single_instance_matches_serial() {
        let serial = scenario().run(&mut MemoryFlood::new());
        for shards in [1, 2, 3, 4] {
            let sim = scenario();
            let mut contacts = sim.schedule().windows().iter().copied();
            let mut workload = sim.workload().specs().iter().copied();
            let (sharded, stats) = run_sharded_with_stats(
                sim.config(),
                &Partition::even(9, shards),
                &mut contacts,
                &mut workload,
                sim.churn(),
                None,
                &mut || Box::new(MemoryFlood::new()),
            );
            assert_eq!(sharded, serial, "{shards} shards diverged");
            assert!(stats
                .iter()
                .all(|s| s.concurrency == ContactConcurrency::NodeDisjoint));
        }
        assert!(serial.delivered() >= 1, "scenario must not be vacuous");
    }

    /// `ShardFlood` that records every replica the contact endpoints hold
    /// and flags any endpoint still holding a packet past its TTL deadline.
    struct ExpiryWitness(std::sync::Arc<Mutex<Witnessed>>);

    #[derive(Default)]
    struct Witnessed {
        /// Nodes seen holding a replica before its deadline.
        held: std::collections::BTreeSet<usize>,
        /// Endpoints whose buffers were checked after a deadline.
        checked_late: std::collections::BTreeSet<usize>,
        violations: Vec<String>,
    }

    impl Routing for ExpiryWitness {
        fn name(&self) -> String {
            "expiry-witness-test".into()
        }

        fn contact_concurrency(&self) -> ContactConcurrency {
            ContactConcurrency::NodeDisjoint
        }

        fn on_contact(&mut self, driver: &mut ContactDriver<'_>) {
            ShardFlood.on_contact(driver);
            let (a, b) = driver.endpoints();
            let packets = driver.packets();
            let late = |id| packets.ttl_deadline(id).is_some_and(|d| d < driver.now());
            let any_late = packets.iter().any(|p| late(p.id));
            let mut w = self.0.lock().unwrap();
            for node in [a, b] {
                if any_late {
                    w.checked_late.insert(node.index());
                }
                for id in driver.buffer(node).ids() {
                    if late(id) {
                        w.violations
                            .push(format!("{node} holds {id} past its deadline"));
                    } else {
                        w.held.insert(node.index());
                    }
                }
            }
        }
    }

    #[test]
    fn expiry_clears_replicas_in_every_shard() {
        let cfg = SimConfig {
            nodes: 9,
            buffer_capacity: 4096,
            horizon: Time::from_secs(300),
            ttl: Some(TimeDelta::from_secs(60)),
            seed: 7,
            ..SimConfig::default()
        };
        let at = |t, a, b| ContactWindow::instant(Time::from_secs(t), NodeId(a), NodeId(b), 4096);
        // p0 (to node 8, never met) floods 0 → 1 → 4 → 7, expires at
        // t = 61, and the two late contacts inspect every holder.
        let sim = Simulation::new(
            cfg,
            Schedule::new(vec![
                at(10, 0, 1),
                at(20, 1, 4),
                at(30, 4, 7),
                at(100, 0, 1),
                at(110, 4, 7),
            ]),
            Workload::new(vec![spec(1, 0, 8, 512)]),
        );
        for shards in [1, 2, 3, 4] {
            let partition = Partition::even(9, shards);
            let witnessed = std::sync::Arc::new(Mutex::new(Witnessed::default()));
            let mut contacts = sim.schedule().windows().iter().copied();
            let mut workload = sim.workload().specs().iter().copied();
            let report = run_sharded(
                sim.config(),
                &partition,
                &mut contacts,
                &mut workload,
                &[],
                None,
                &mut || Box::new(ExpiryWitness(witnessed.clone())),
            );
            assert_eq!(report.expired, 1, "{shards} shards");
            let w = witnessed.lock().unwrap();
            assert_eq!(w.violations, Vec::<String>::new(), "{shards} shards");
            assert!(w.held.iter().eq(&[0, 1, 4, 7]), "{shards} shards");
            assert!(w.checked_late.iter().eq(&[0, 1, 4, 7]), "{shards} shards");
            let spread: std::collections::BTreeSet<usize> = w
                .held
                .iter()
                .map(|&n| partition.shard_of(NodeId(n as u32)))
                .collect();
            assert_eq!(spread.len() > 1, shards > 1, "{shards} shards: {spread:?}");
        }
    }

    /// Flooding that checks, at every contact, the global view's holder
    /// lists against every buffer — packets no buffer holds included.
    struct GlobalProbe(usize);

    impl Routing for GlobalProbe {
        fn name(&self) -> String {
            "global-probe-test".into()
        }

        fn on_contact(&mut self, driver: &mut ContactDriver<'_>) {
            ShardFlood.on_contact(driver);
            let g = driver.global();
            for p in driver.packets().iter() {
                let listed: Vec<NodeId> = g.holders(p.id).collect();
                let held: Vec<NodeId> = (0..9)
                    .map(NodeId)
                    .filter(|&n| g.buffer(n).contains(p.id))
                    .collect();
                assert_eq!(listed, held, "{}", p.id);
                self.0 += 1;
            }
        }
    }

    #[test]
    fn global_view_lists_every_holder_in_node_order() {
        let sim = scenario();
        let config = SimConfig {
            allow_global_knowledge: true,
            ..sim.config().clone()
        };
        let sim = Simulation::new(config, sim.schedule().clone(), sim.workload().clone())
            .with_churn(sim.churn().to_vec());
        let mut probe = GlobalProbe(0);
        let report = sim.run(&mut probe);
        assert!(report.outcomes.iter().any(|o| !o.entered_network));
        assert!(probe.0 > 10, "checked {} lists", probe.0);
    }

    /// One action of [`execute_checked`]'s scripted run.
    #[derive(Clone, Copy)]
    enum Step {
        Create(PacketSpec),
        Drive(ContactWindow),
        Expire(u32),
    }

    /// The union of the shard tables, as node ids, is each packet's buffer
    /// membership.
    fn assert_tables_index_buffers(world: &World, partition: &Partition, at: &str) {
        assert_eq!(world.holders.len(), partition.shards(), "{at}");
        for (i, _) in world.store.iter().enumerate() {
            let indexed: Vec<usize> = (world.holders.iter().enumerate())
                .flat_map(|(s, table)| {
                    let base = partition.range(s).start;
                    table
                        .get(i)
                        .into_iter()
                        .flat_map(move |set| set.iter().map(move |b| base + b))
                })
                .collect();
            let held: Vec<usize> = (0..world.buffers.len())
                .filter(|&n| world.buffers[n].contains(PacketId(i as u32)))
                .collect();
            assert_eq!(indexed, held, "{at}: packet {i}");
        }
    }

    /// An empty 9-node world with one holder table per shard.
    fn fresh_world(partition: &Partition) -> World {
        World {
            buffers: (0..9).map(|_| NodeBuffer::new(2048)).collect(),
            store: PacketStore::default(),
            delivered_at: DeliveredAt::default(),
            holders: vec![Vec::new(); partition.shards()],
            entered: Vec::new(),
        }
    }

    /// `world` as a resume under `partition` rebuilds it: its replicas
    /// re-stored into empty buffers.
    fn resumed_world(world: World, partition: &Partition) -> World {
        let captured = Snapshot::capture_buffers(&world.buffers);
        let fresh = fresh_world(partition);
        let mut resumed = World {
            buffers: fresh.buffers,
            holders: fresh.holders,
            ..world
        };
        Snapshot::restore_buffers(&captured, &mut resumed.lease(partition));
        resumed
    }

    /// Runs `steps` through the executor over `partition`, checking the
    /// shard tables against the buffers after every action — the tables
    /// change only inside a drain, so that covers every barrier.
    fn execute_checked(partition: &Partition, world: World, steps: &[Step]) -> World {
        let config = SimConfig {
            nodes: 9,
            ..SimConfig::default()
        };
        let mut routing = ShardFlood;
        let mut states: Vec<ShardState> = (0..partition.shards())
            .map(|_| ShardState::default())
            .collect();
        assert_tables_index_buffers(&world, partition, "start");
        std::thread::scope(|scope| {
            let pool = ContactPool::start(scope, partition.shards());
            let mut exec = Partitioned {
                partition,
                routing: &mut routing,
                states: &mut states,
                pool: &pool,
                pending: 0,
            };
            let mut run = Run {
                config: &config,
                world,
                counters: Counters::default(),
            };
            for (seq, step) in steps.iter().enumerate() {
                match *step {
                    Step::Create(spec) => {
                        let world = &mut run.world;
                        let (src, dst, size) = (spec.src, spec.dst, spec.size_bytes);
                        let id = world
                            .store
                            .push(src, dst, size, spec.time, PacketStore::NO_TTL);
                        world.delivered_at.push_undelivered();
                        world
                            .entered
                            .push(std::sync::atomic::AtomicBool::new(false));
                        exec.create(&mut run, id, true);
                    }
                    Step::Drive(window) => {
                        let drive = PendingDrive {
                            window,
                            now: window.start,
                            budget: window.lump_bytes,
                            seq: seq as u64,
                            measured: true,
                        };
                        exec.drive(&mut run, drive, false);
                    }
                    Step::Expire(id) => exec.expire(&mut run, PacketId(id)),
                }
                assert_tables_index_buffers(&run.world, partition, &format!("step {seq}"));
            }
            exec.quiesce(&mut run);
            assert_tables_index_buffers(&run.world, partition, "quiesced");
            run.world
        })
    }

    #[test]
    fn shard_tables_index_buffer_membership_at_every_barrier() {
        let at = |t, a, b| Step::Drive(ContactWindow::instant(Time(t), NodeId(a), NodeId(b), 2048));
        let create = |t, src, dst| Step::Create(spec(t, src, dst, 512));
        // Intra- and cross-shard drives at every partition below,
        // deliveries dropping the sender's copy, a creation into a full
        // buffer, and expiries of held, delivered and spread packets.
        let steps = [
            create(1, 0, 8),
            create(1, 4, 2),
            create(1, 7, 0),
            create(1, 5, 1),
            at(10, 0, 1),
            at(11, 1, 4),
            at(12, 4, 7),
            at(13, 6, 8),
            at(14, 7, 8),
            create(15, 4, 3),
            create(15, 4, 6),
            Step::Expire(1),
            at(20, 2, 3),
            at(21, 0, 7),
            at(22, 5, 6),
            at(23, 3, 5),
            Step::Expire(0),
            at(24, 1, 5),
            at(25, 6, 7),
            Step::Expire(3),
            at(26, 8, 0),
        ];
        let membership = |world: &World| Snapshot::capture_buffers(&world.buffers);
        let one = Partition::even(9, 1);
        let serial = membership(&execute_checked(&one, fresh_world(&one), &steps));
        assert!(serial.iter().filter(|b| !b.entries.is_empty()).count() > 3);
        let partitions: Vec<Partition> = (1..=4)
            .map(|n| Partition::even(9, n))
            .chain([vec![0, 1, 9], vec![0, 8, 9], vec![0, 3, 3, 9]].map(Partition::from_bounds))
            .collect();
        for p in &partitions {
            let world = execute_checked(p, fresh_world(p), &steps);
            assert_eq!(membership(&world), serial, "{p:?}");
        }
        // A resume at another shard count re-stores the replicas into the
        // holder tables of its own partition.
        let (head, tail) = steps.split_at(12);
        for (from, to) in partitions.iter().zip(partitions.iter().rev()) {
            let world = execute_checked(from, fresh_world(from), head);
            let world = execute_checked(to, resumed_world(world, to), tail);
            assert_eq!(membership(&world), serial, "{from:?} then {to:?}");
        }
    }

    #[test]
    fn clamp_shards_caps_at_node_count() {
        assert_eq!(clamp_shards(4, 100), 4);
        assert_eq!(clamp_shards(16, 16), 16);
        assert_eq!(clamp_shards(16, 9), 9, "more shards than nodes clamps");
        assert_eq!(clamp_shards(3, 0), 1, "zero-node world keeps one shard");
        // A clamped partition has no empty shards.
        let p = Partition::even(9, clamp_shards(16, 9));
        for s in 0..p.shards() {
            assert!(!p.range(s).is_empty());
        }
    }
}
