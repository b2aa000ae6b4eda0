//! The sharded simulation runtime: partitioned execution under a
//! conservative sync horizon — the engine's one parallel executor.
//!
//! The serial engine drives every action of the event-merge scan on one
//! thread. This module partitions the *node space* instead:
//!
//! * A [`Partition`] maps contiguous `NodeId` ranges to shards —
//!   `ScaleFleet`'s hub-gateway topology emits hub-local contacts, so
//!   region boundaries are a natural seam with few cross-shard windows.
//! * The event-merge scan ([`crate::scan`]) — the same one the serial
//!   engine runs, so noise draws, suppression checks and contact sequence
//!   numbers are the serial ones by construction — hands each ordered
//!   action to this module's executor, which *routes* it: an action whose
//!   node set lies inside one shard is appended to that shard's message
//!   queue; anything cross-shard (a gateway contact, a TTL expiry
//!   touching arbitrary holders) is a *barrier*.
//! * Between barriers the shards free-run: at each epoch flush every
//!   shard drains its queue serially — its node range of the protocol's
//!   state, its own node-buffer range, the shared read-only packet arena
//!   — on a [`ContactPool`] worker. The epoch boundary is the
//!   conservative sync horizon: every queued action is ordered (in the
//!   engine's total `(time, rank, seq)` order) *before* the barrier
//!   action that forced the flush, so no shard ever sees state from its
//!   future.
//! * Cross-shard actions execute on the *coordinator* — the serial
//!   engine's own executor over the run's one protocol instance and the
//!   full world.
//!
//! # Determinism
//!
//! `RAPID_SHARDS=N` is byte-identical to the serial engine for any `N`
//! and any partition, because every ingredient of the report is either
//! computed by the scan in serial order (noise draws, suppression,
//! contact seq numbers, expiry accounting) or commutes across shards
//! within an epoch:
//!
//! * **Buffers** — [`Partition::split_mut`] gives each shard a `&mut`
//!   range, leased with its queue to one drain per epoch, and a drive
//!   borrows its endpoints with `get_disjoint_mut`; the coordinator only
//!   touches buffers between epochs.
//! * **`delivered_at`** — relaxed atomics every shard shares by `&`, so
//!   shards cannot race on it. Slot `p` is only written by the contact
//!   whose endpoint is `dst(p)`; within an epoch that is exactly one shard
//!   (the coordinator only reads/writes between epochs). The engine's
//!   serial order among the drives of one shard is preserved by the
//!   queue, so first-delivery resolution is identical.
//! * **`entered`** — the same kind of column: slot `p` is written only by
//!   `src(p)`'s shard, in the epoch that executes the creation; the
//!   coordinator reads it (TTL expiry, snapshots) only between epochs.
//! * **Holder sets** — shards never mutate the shared holder table;
//!   drives and creations log `HolderOp`s, applied in shard order after
//!   every epoch. All ops for a fixed `(packet, node)`
//!   pair originate from `node`'s own shard (in queue order), so the
//!   final state per pair — the only thing later barriers observe — is
//!   exact.
//! * **Report sums** — one `Counters` per shard, folded in shard order;
//!   integer addition is associative and commutative.
//!
//! A run has *one* protocol instance, and it must declare
//! [`ContactConcurrency::NodeDisjoint`]: under that contract
//! ([`Routing::contact_concurrency`]) every queued epoch action touches
//! only its own shard's nodes, so shard queues commute within an epoch.
//! Each flush asks the instance to drain the epoch itself via
//! [`Routing::on_shard_epoch`] (splitting its per-node state — or, for a
//! protocol that keeps none, its `Copy` configuration — across the pool);
//! a protocol without that override is drained serially in shard order —
//! same bytes, no intra-epoch parallelism.
//!
//! `Serial` protocols cannot shard at all and are rejected loudly.

use crate::checkpoint::{require_checkpointable, Counters, RunHooks};
use crate::contact::ContactWindow;
use crate::driver::{ContactDriver, DeliveredAt, HolderOp, WorldMut};
use crate::event::NodeEvent;
use crate::noise::NoiseModel;
use crate::par::ContactPool;
use crate::report::SimReport;
use crate::routing::{ContactConcurrency, PacketStore, Routing, SimConfig};
use crate::scan::{create_at_source, scan, Executor, Immediate, PendingDrive, Run, World};
use crate::source::{ContactSource, WorkloadSource};
use crate::time::Time;
use crate::types::{NodeId, PacketId};
use crate::NodeBuffer;
use std::sync::atomic::{AtomicBool, Ordering};
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
    /// The tier the protocol declared — `node_disjoint` on every row,
    /// since the runtime rejects anything else and a harness that falls
    /// back to the serial engine reports no shard rows at all.
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

/// One shard's action queue, holder-op log and report counters. Disjoint
/// across shards; drained by one worker per epoch.
#[derive(Default)]
struct ShardState {
    msgs: Vec<ShardMsg>,
    holder_log: Vec<HolderOp>,
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
/// `factory` is called exactly once, for the run's protocol instance,
/// which must declare [`ContactConcurrency::NodeDisjoint`]; a `Serial`
/// protocol is rejected loudly. Runs with global knowledge cannot shard
/// (the instant global channel reads arbitrary remote state
/// mid-contact).
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
    assert_eq!(
        partition.nodes(),
        config.nodes,
        "partition must cover exactly the configured node space"
    );
    assert!(
        !config.allow_global_knowledge,
        "global-knowledge runs cannot be sharded"
    );

    let mut routing = factory();
    let concurrency = routing.contact_concurrency();
    assert!(
        concurrency.is_node_disjoint(),
        "sharded execution requires a NodeDisjoint protocol; {} declared Serial",
        routing.name()
    );
    routing.on_init(config);
    if hooks.checkpoint.is_some() || hooks.resume.is_some() {
        require_checkpointable(routing.as_ref());
    }

    let mut states: Vec<ShardState> = (0..partition.shards())
        .map(|_| ShardState::default())
        .collect();

    let report = std::thread::scope(|scope| {
        let pool = ContactPool::start(scope, partition.shards());
        let mut exec = Partitioned {
            partition,
            states: &mut states,
            coord: Immediate {
                routing: routing.as_mut(),
            },
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

/// The partitioned executor: routes each scan action to the shard owning
/// its nodes, and executes barriers on the coordinator against the full
/// world.
struct Partitioned<'a> {
    partition: &'a Partition,
    states: &'a mut [ShardState],
    /// The coordinator: the serial executor over the run's one protocol
    /// instance and the full world; epochs drain shard views of the same
    /// instance.
    coord: Immediate<'a>,
    pool: &'a ContactPool,
    /// Same-shard actions queued since the last epoch flush.
    pending: usize,
}

impl Executor for Partitioned<'_> {
    fn routing(&mut self) -> &mut dyn Routing {
        self.coord.routing
    }

    /// Same-shard endpoints queue to the owning shard; a cross-shard
    /// (gateway) drive is a barrier executed by the coordinator.
    fn drive(&mut self, run: &mut Run<'_>, drive: PendingDrive, interrupted: bool) {
        let (sa, sb) = (
            self.partition.shard_of(drive.window.a),
            self.partition.shard_of(drive.window.b),
        );
        if sa == sb {
            self.enqueue(run, sa, ShardMsg::Drive { drive, interrupted });
        } else {
            self.flush_epoch(run);
            self.coord.drive(run, drive, interrupted);
        }
    }

    fn create(&mut self, run: &mut Run<'_>, id: PacketId, src_up: bool) {
        let s = self.partition.shard_of(run.world.store.src(id));
        self.enqueue(run, s, ShardMsg::Create { id, src_up });
    }

    fn node_up(&mut self, run: &mut Run<'_>, node: NodeId, now: Time) {
        let s = self.partition.shard_of(node);
        self.enqueue(run, s, ShardMsg::NodeUp(node, now));
    }

    fn node_down(&mut self, run: &mut Run<'_>, node: NodeId, now: Time) {
        let s = self.partition.shard_of(node);
        self.enqueue(run, s, ShardMsg::NodeDown(node, now));
    }

    fn expire(&mut self, run: &mut Run<'_>, id: PacketId) {
        self.flush_epoch(run);
        self.coord.expire(run, id);
    }

    /// Drains every shard queue and applies the holder logs, then folds
    /// (and zeroes) the shard counters in shard order, so `run.counters`
    /// is the full serial-order prefix. Folding early — at a checkpoint —
    /// changes nothing: the end-of-run fold adds whatever accumulated
    /// afterwards.
    fn quiesce(&mut self, run: &mut Run<'_>) {
        self.flush_epoch(run);
        for s in self.states.iter_mut() {
            run.counters += std::mem::take(&mut s.counters);
        }
    }
}

impl Partitioned<'_> {
    /// Appends a routed action to shard `s`'s queue, flushing first if
    /// the pending-action cap is reached (bounds queue memory).
    fn enqueue(&mut self, run: &mut Run<'_>, s: usize, msg: ShardMsg) {
        if self.pending >= EPOCH_ACTION_CAP {
            self.flush_epoch(run);
        }
        self.states[s].msgs.push(msg);
        self.pending += 1;
    }

    /// One epoch: every shard drains its queue on the pool (serially
    /// within the shard, shards concurrently), then the holder-op logs
    /// are applied in shard order. On return all queues are empty
    /// and the full world is consistent — the barrier may proceed.
    fn flush_epoch(&mut self, run: &mut Run<'_>) {
        if self.pending == 0 {
            return;
        }
        self.pending = 0;
        let World {
            buffers,
            store,
            delivered_at,
            holders,
            entered,
        } = &mut run.world;
        let partition = self.partition;
        let (store, delivered_at, entered) = (&*store, &*delivered_at, entered.as_slice());
        // One lease per shard — its queue and counters, and its range
        // of the node buffers — which the drain takes exactly once.
        let leases: Vec<Mutex<Option<_>>> = self
            .states
            .iter_mut()
            .zip(partition.split_mut(buffers))
            .map(|lease| Mutex::new(Some(lease)))
            .collect();
        // Shard queues drain against views of the instance's per-node
        // state. The protocol splits that state itself
        // (`on_shard_epoch`); without an override, drain serially in
        // shard order — intra-epoch actions of distinct shards commute
        // under the NodeDisjoint contract, so any fixed order is exact.
        let drain = |s: usize, routing: &mut dyn Routing| {
            let (state, buffers) = leases[s]
                .lock()
                .expect("shard lease lock")
                .take()
                .expect("on_shard_epoch drains each shard once per epoch");
            if state.msgs.is_empty() {
                return;
            }
            let t0 = Instant::now();
            let base = partition.range(s).start;
            drain_shard(routing, state, base, buffers, delivered_at, entered, store);
            state.busy += t0.elapsed();
        };
        let routing = &mut *self.coord.routing;
        if !routing.on_shard_epoch(partition, self.pool, &drain) {
            for s in 0..partition.shards() {
                drain(s, routing);
            }
        }
        let undrained = leases
            .into_iter()
            .position(|lease| lease.into_inner().expect("shard lease lock").is_some());
        assert_eq!(undrained, None, "on_shard_epoch left a shard undrained");
        // Holder ops in shard order: all ops for a (packet, node) pair
        // come from node's own shard in queue order, so per-pair final
        // state is exact regardless of the cross-shard fold order.
        for state in self.states.iter_mut() {
            for op in state.holder_log.drain(..) {
                op.apply(holders);
            }
        }
    }
}

/// Drains one shard's queue in order against its node range, through
/// `routing` — a shard-range view of the run's instance, or the instance
/// itself on the serial-drain fallback. Runs on a pool worker; everything
/// it mutates is either leased to the shard (its queue, counters and
/// holder log, `buffers` = nodes `base..`) or an atomic column shared by
/// every shard (`delivered_at`, `entered` — see the module docs).
fn drain_shard(
    routing: &mut dyn Routing,
    state: &mut ShardState,
    base: usize,
    buffers: &mut [NodeBuffer],
    delivered_at: &DeliveredAt,
    entered: &[AtomicBool],
    store: &PacketStore,
) {
    let ShardState {
        msgs,
        holder_log,
        counters,
        drives,
        creations,
        ..
    } = state;
    for msg in msgs.drain(..) {
        match msg {
            ShardMsg::Drive { drive, interrupted } => {
                *drives += 1;
                let (a, b) = (drive.window.a, drive.window.b);
                let [buf_a, buf_b] = buffers
                    .get_disjoint_mut([a.index() - base, b.index() - base])
                    .expect("a shard's drive meets two of its own nodes");
                let mut driver = ContactDriver::new(
                    WorldMut::Pair {
                        packets: store,
                        a,
                        buf_a,
                        b,
                        buf_b,
                        delivered_at,
                        holder_log: std::mem::take(holder_log),
                    },
                    drive.now,
                    a,
                    b,
                    drive.budget,
                    false,
                    drive.seq,
                );
                routing.on_contact(&mut driver);
                let (ledger, log) = driver.into_commit();
                *holder_log = log;
                counters.add_drive(&drive, ledger);
                routing.on_contact_end(a, b, drive.now, interrupted);
            }
            ShardMsg::Create { id, src_up } => {
                *creations += 1;
                let packet = store.get(id);
                let buf = &mut buffers[packet.src.index() - base];
                if create_at_source(routing, &packet, src_up, buf, store, |op| {
                    holder_log.push(op)
                }) {
                    entered[id.index()].store(true, Ordering::Relaxed);
                }
            }
            ShardMsg::NodeUp(node, t) => routing.on_node_up(node, t),
            ShardMsg::NodeDown(node, t) => routing.on_node_down(node, t),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Simulation;
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
