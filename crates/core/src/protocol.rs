//! Protocol RAPID (§3.4) — the selection algorithm over the inference
//! machinery, wired to the simulator's [`Routing`] interface.
//!
//! At every transfer opportunity between `X` and `Y`:
//!
//! 1. **Initialization**: metadata exchange over the in-band channel
//!    (acks, meeting-time rows, average opportunity sizes, changed replica
//!    entries — §4.2), then purge of packets known to be delivered.
//! 2. **Direct delivery**: packets destined to the peer, in decreasing
//!    utility order.
//! 3. **Replication**: every other buffered packet is scored by marginal
//!    utility per byte `δU_i / s_i` (Eqs. 1–3 over Estimate Delay) and
//!    replicated in decreasing order until the opportunity is exhausted.
//! 4. **Termination**: implicit — the engine bounds each direction by the
//!    opportunity size.
//!
//! Storage: when a buffer overflows, the lowest-utility packets are dropped
//! first; a source never drops its own unacknowledged packet (§3.4).
//!
//! # Execution model
//!
//! All contact-time work runs through `ContactExec`, which views the
//! per-node protocol states either as the full slice (serial execution,
//! required by the global-channel modes) or as exactly the contact's two
//! endpoint states (`StatePair::Pair`, the intra-run parallel batch
//! path). That a contact compiles against the pair view is the proof that
//! RAPID's contact handling touches only per-endpoint state — the
//! property behind its [`ContactConcurrency::NodeDisjoint`] declaration.
//!
//! The steady-state contact is allocation-free: queue snapshots, h-hop
//! estimate vectors, candidate lists and exchange listings all live in a
//! reusable `ContactScratch` (one per worker under batch execution),
//! and contacts where both endpoints' buffers are empty skip the
//! snapshot/estimate setup entirely.

use crate::config::{wire, ChannelMode, RapidConfig, RoutingMetric};
use crate::control::{HolderEntry, MetaTable};
use crate::estimate::{
    combined_rate, delay_from_rate, meetings_needed, prob_within_from_rate, rate_contribution,
    replica_delay, Kernel, QueueSnapshot, RateBatch,
};
use crate::meetings::{
    put_f64, relax_rows_into, take_ascending, take_f64, take_index, take_varint, HopEstimates,
    MeetingView,
};
use dtn_sim::{
    ContactConcurrency, ContactDriver, ContactPool, NodeBuffer, NodeId, Packet, PacketId,
    PacketSet, PacketStore, Partition, QueueEntry, Routing, SimConfig, SlicePartition, Time,
    TransferOutcome,
};
use dtn_trace::{write_varint, ByteCursor};
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering as AtomicOrdering};

/// Relative change below which a refreshed delay estimate is not
/// republished (keeps the delta channel quiet when nothing moved).
const PUBLISH_THRESHOLD: f64 = 1.0;

/// Fraction of each opportunity available to third-party replica gossip
/// ("information about other packets", §4.2). Bounding this class keeps
/// total metadata at the paper's percent-of-data scale; see
/// `exchange_metadata`.
const THIRD_PARTY_FRACTION: f64 = 0.02;

/// Score assigned when replication newly makes a destination reachable —
/// larger than any finite delay gain, far below `f64::MAX` so age offsets
/// and size divisions stay meaningful.
const UNREACHABLE_GAIN: f64 = 1e18;

/// Per-node protocol state (beliefs only — the world lives in the engine).
///
/// Everything is stored by what the node knows — met peers, reported rows,
/// peers sent to — except `believed_opp`, the fleet's one remaining n²
/// term (16 B × n²: 2.6 MB at 400 nodes, 256 MB at 4000).
#[derive(Debug, Clone)]
struct NodeState {
    /// Believed meeting-time matrix, finite cells only.
    meetings: MeetingView,
    meta: MetaTable,
    acks: PacketSet,
    /// Watermark of the last *complete* metadata send to each peer sent
    /// to, ascending by peer; an absent peer reads as `Time::ZERO`.
    last_sent: Vec<(u32, Time)>,
    /// Average opportunity size observed by this node (bytes).
    avg_opp: dtn_stats::RunningMean,
    /// Believed average opportunity size of every node, with stamp.
    /// Dense (`n` entries) on purpose: opportunity averages gossip
    /// fleet-wide, and by the end of a regional pass a node was measured
    /// to know 383 of 400 entries (868 of 1200), so a sorted sparse form
    /// at 20 B per entry would save nothing there.
    believed_opp: Vec<(f64, Time)>,
}

impl NodeState {
    fn new(me: NodeId, n: usize) -> Self {
        Self {
            meetings: MeetingView::new(me, n),
            meta: MetaTable::new(),
            acks: PacketSet::new(),
            last_sent: Vec::new(),
            avg_opp: dtn_stats::RunningMean::new(),
            believed_opp: vec![(0.0, Time::ZERO); n],
        }
    }

    fn last_sent_to(&self, peer: NodeId) -> Time {
        match self.last_sent.binary_search_by_key(&peer.0, |e| e.0) {
            Ok(i) => self.last_sent[i].1,
            Err(_) => Time::ZERO,
        }
    }

    fn set_last_sent(&mut self, peer: NodeId, at: Time) {
        match self.last_sent.binary_search_by_key(&peer.0, |e| e.0) {
            Ok(i) => self.last_sent[i].1 = at,
            Err(i) if at != Time::ZERO => self.last_sent.insert(i, (peer.0, at)),
            Err(_) => {}
        }
    }
}

/// The RAPID routing protocol.
pub struct Rapid {
    cfg: RapidConfig,
    sim: SimConfig,
    states: Vec<NodeState>,
    /// Eq. 4–9 kernel for every batched rate evaluation (the `RAPID_KERNEL`
    /// knob; every kernel is bitwise-identical, see `estimate.rs`).
    kernel: Kernel,
    /// Reusable contact scratch; `[0]` serves serial execution, and the
    /// vector grows to the pool's worker count for batch execution (one
    /// scratch per worker — workers never share).
    scratch: Vec<ContactScratch>,
    /// Set once the "meeting row exceeds the opportunity" notice has been
    /// raised, so the per-contact check stays a relaxed load.
    row_warned: AtomicBool,
}

/// Reusable per-contact scratch storage (queue snapshots, estimate
/// vectors, rate rows, id/candidate/exchange lists, storage-decision
/// scores): refilled at every contact so steady-state contacts allocate
/// nothing.
#[derive(Default)]
struct ContactScratch {
    snap_a: QueueSnapshot,
    snap_b: QueueSnapshot,
    destined: Vec<PacketId>,
    candidates: Vec<Candidate>,
    stored: HashSet<PacketId>,
    purge: Vec<PacketId>,
    /// h-hop estimates: own views and each side's view of the peer
    /// (`est_x` also serves creation-time `make_room`).
    est_x: HopEstimates,
    est_y: HopEstimates,
    est_y_from_x: HopEstimates,
    est_x_from_y: HopEstimates,
    /// Batched Eq. 4–5 rows: own-side and peer-side replica delays of one
    /// delivery queue, evaluated whole-queue per kernel.
    row_self: RateBatch,
    row_peer: RateBatch,
    storage: StorageScratch,
    /// Exchange listings (§4.2 delta channel).
    acks_new: Vec<PacketId>,
    changed_rows: Vec<NodeId>,
    changed: Vec<(PacketId, usize, Time)>,
    own_changed: Vec<(PacketId, usize, Time)>,
    third_changed: Vec<(PacketId, usize, Time)>,
}

impl ContactScratch {
    fn with_kernel(kernel: Kernel) -> Self {
        let mut s = Self::default();
        s.row_self.set_kernel(kernel);
        s.row_peer.set_kernel(kernel);
        s.storage.row.set_kernel(kernel);
        s
    }
}

/// Reusable vectors of the §3.4 storage decisions
/// ([`ContactExec::score_storage`] and its two callers).
#[derive(Default)]
struct StorageScratch {
    /// Own-replica delays of one delivery queue.
    row: RateBatch,
    /// `(utility, id, size)` per scored packet, ascending `(utility, id)`.
    scored: Vec<(f64, PacketId, u64)>,
    /// In-contact eviction queue `(id, size)`, popped from the back:
    /// lowest utility first, the receiver's own unacked packets last.
    evict_queue: Vec<(PacketId, u64)>,
}

/// The per-node states an execution may address: the full slice (serial;
/// global modes read arbitrary nodes), exactly the two endpoints of a
/// contact (batch and sharded execution), or a single node (sharded
/// storage decisions — `make_room` is a one-node operation). Any access
/// outside the leased states is a bug and panics.
enum StatePair<'a> {
    Full(&'a mut [NodeState]),
    Pair {
        a: NodeId,
        sa: &'a mut NodeState,
        b: NodeId,
        sb: &'a mut NodeState,
    },
    Solo {
        x: NodeId,
        sx: &'a mut NodeState,
    },
}

impl StatePair<'_> {
    fn state(&self, x: NodeId) -> &NodeState {
        match self {
            StatePair::Full(states) => &states[x.index()],
            StatePair::Pair { a, sa, b, sb } => {
                if x == *a {
                    sa
                } else if x == *b {
                    sb
                } else {
                    panic!("{x} is outside this contact's state pair")
                }
            }
            StatePair::Solo { x: n, sx } => {
                if x == *n {
                    sx
                } else {
                    panic!("{x} is outside this solo state lease")
                }
            }
        }
    }

    fn state_mut(&mut self, x: NodeId) -> &mut NodeState {
        match self {
            StatePair::Full(states) => &mut states[x.index()],
            StatePair::Pair { a, sa, b, sb } => {
                if x == *a {
                    sa
                } else if x == *b {
                    sb
                } else {
                    panic!("{x} is outside this contact's state pair")
                }
            }
            StatePair::Solo { x: n, sx } => {
                if x == *n {
                    sx
                } else {
                    panic!("{x} is outside this solo state lease")
                }
            }
        }
    }

    /// Split-borrows two distinct node states.
    fn two(&mut self, x: NodeId, y: NodeId) -> (&mut NodeState, &mut NodeState) {
        assert_ne!(x, y);
        match self {
            StatePair::Full(states) => {
                let (xi, yi) = (x.index(), y.index());
                if xi < yi {
                    let (lo, hi) = states.split_at_mut(yi);
                    (&mut lo[xi], &mut hi[0])
                } else {
                    let (lo, hi) = states.split_at_mut(xi);
                    (&mut hi[0], &mut lo[yi])
                }
            }
            StatePair::Pair { a, sa, b, sb } => {
                if x == *a && y == *b {
                    (sa, sb)
                } else if x == *b && y == *a {
                    (sb, sa)
                } else {
                    panic!("({x}, {y}) is not this contact's state pair")
                }
            }
            StatePair::Solo { .. } => {
                panic!("({x}, {y}) requested from a solo state lease")
            }
        }
    }

    /// Every node state — global-channel paths only (always serial).
    fn all(&self) -> &[NodeState] {
        match self {
            StatePair::Full(states) => states,
            StatePair::Pair { .. } | StatePair::Solo { .. } => {
                unreachable!("global-knowledge paths never run under batch execution")
            }
        }
    }
}

/// One contact's execution context: configuration plus the states it may
/// touch. Every selection/exchange routine lives here so the serial and
/// batch paths share one implementation.
struct ContactExec<'a> {
    cfg: &'a RapidConfig,
    n: usize,
    states: StatePair<'a>,
    /// [`Rapid::row_warned`].
    row_warned: &'a AtomicBool,
}

impl Rapid {
    /// Creates a RAPID instance with the given configuration, evaluating
    /// rate rows with the `RAPID_KERNEL` kernel (default: best detected).
    pub fn new(cfg: RapidConfig) -> Self {
        Self::with_kernel(cfg, Kernel::from_env())
    }

    /// Creates a RAPID instance pinned to a specific Eq. 4–9 kernel
    /// (kernels are bitwise-interchangeable; this exists for equivalence
    /// tests and benchmarks).
    pub fn with_kernel(cfg: RapidConfig, kernel: Kernel) -> Self {
        Self {
            cfg,
            sim: SimConfig::default(),
            states: Vec::new(),
            kernel,
            scratch: vec![ContactScratch::with_kernel(kernel)],
            row_warned: AtomicBool::new(false),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &RapidConfig {
        &self.cfg
    }

    /// The Eq. 4–9 kernel in use.
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }

    fn is_global(&self) -> bool {
        matches!(self.cfg.channel, ChannelMode::InstantGlobal)
    }
}

impl ContactExec<'_> {
    fn is_global(&self) -> bool {
        matches!(self.cfg.channel, ChannelMode::InstantGlobal)
    }

    /// Applies the delay-estimate ceiling: replicas that cannot deliver
    /// within the cap are equivalent to the cap (see
    /// [`RapidConfig::delay_cap_secs`]).
    fn cap(&self, a: f64) -> f64 {
        a.min(self.cfg.delay_cap_secs)
    }

    /// Believed average transfer-opportunity size of `node`, bytes.
    fn opp_bytes(&self, believer: NodeId, node: NodeId) -> f64 {
        let (v, stamp) = self.states.state(believer).believed_opp[node.index()];
        if stamp > Time::ZERO && v > 0.0 {
            v
        } else {
            self.cfg.default_opportunity_bytes as f64
        }
    }

    /// `node`'s own opportunity average as the global channel reads it
    /// (any node's state — serial only).
    fn opp_bytes_global(&self, node: NodeId) -> f64 {
        let (v, stamp) = self.states.all()[node.index()].believed_opp[node.index()];
        if stamp > Time::ZERO && v > 0.0 {
            v
        } else {
            self.cfg.default_opportunity_bytes as f64
        }
    }

    /// Fills `out` with the h-hop expected meeting times as believed by
    /// `believer`, evaluated from `from`'s position (usually `believer`
    /// itself; evaluating the peer's position uses the learned rows). The
    /// instant global channel runs the same relaxation with row `y` read
    /// from node `y`'s own state instead of one believer's gossip.
    fn fill_est(&self, believer: NodeId, from: NodeId, out: &mut HopEstimates) {
        let h = self.cfg.hop_limit;
        if self.is_global() {
            let all = self.states.all();
            relax_rows_into(self.n, from, h, |y| all[y].meetings.row(y), out);
        } else {
            let view = &self.states.state(believer).meetings;
            view.expected_from_into(from, h, out);
        }
    }

    /// The combined replica rate (Eqs. 4–9) of a buffered packet at `node`,
    /// computed from scratch with the given queue position: the own-replica
    /// delay from the h-hop estimates plus the believed remote-replica
    /// delays, folded into `Σ_j 1/a_j`. The scalar form of what
    /// [`ContactExec::score_storage`] evaluates a queue at a time — kept
    /// as the reference the storage oracle scores with.
    #[cfg(any(debug_assertions, test))]
    fn rate_with(&self, node: NodeId, est: &[f64], packet: &Packet, bytes_ahead: u64) -> f64 {
        let b_self = self.opp_bytes(node, node);
        let a_self = self.cap(replica_delay(
            est[packet.dst.index()],
            meetings_needed(bytes_ahead, b_self),
        ));
        self.rate_from_a_self(node, packet.id, a_self)
    }

    /// The remote-belief half of [`ContactExec::rate_with`]: folds the
    /// believed remote-replica delays of `id` with an already-computed
    /// own-replica delay — the exact sequence `rate_with` folds, so a
    /// batched `a_self` row produces bitwise-identical rates.
    fn rate_from_a_self(&self, node: NodeId, id: PacketId, a_self: f64) -> f64 {
        match self.states.state(node).meta.get(id) {
            Some(b) => combined_rate(
                b.entries
                    .iter()
                    .filter(|e| e.holder != node)
                    .map(|e| self.cap(e.delay_secs))
                    .chain([a_self]),
            ),
            None => combined_rate([a_self]),
        }
    }

    /// Utility of a buffered packet from its combined rate (for eviction
    /// ordering). Higher = more valuable to keep.
    fn utility_from_rate(&self, rate: f64, created_at: Time, now: Time) -> f64 {
        let t = now.since(created_at).as_secs_f64();
        match self.cfg.metric {
            RoutingMetric::MinAvgDelay | RoutingMetric::MinMaxDelay => -(t + delay_from_rate(rate)),
            RoutingMetric::MinMissedDeadlines { lifetime } => {
                let l = lifetime.as_secs_f64();
                if t >= l {
                    0.0
                } else {
                    prob_within_from_rate(rate, l - t)
                }
            }
        }
    }

    /// The §3.4 scorer, shared by [`ContactExec::make_room`] and in-contact
    /// eviction: fills `scored` with `(utility, id, size)` of every entry
    /// of `queues` that `keep` admits, in ascending `(utility, id)` order —
    /// lowest utility, the first to drop, at the front. Per delivery queue
    /// that is one Eq. 4–5 row over the entries' queue positions (the
    /// destination estimate, opportunity size and cap broadcast across
    /// it), then the remote-belief fold per packet. `est` is `node`'s
    /// current h-hop estimates — the contact's own, or computed for the
    /// call at creation time; no node keeps a copy.
    #[allow(clippy::too_many_arguments)]
    fn score_storage<'q>(
        &self,
        node: NodeId,
        est: &[f64],
        queues: impl Iterator<Item = (NodeId, &'q [QueueEntry])>,
        keep: impl Fn(PacketId) -> bool,
        now: Time,
        row: &mut RateBatch,
        scored: &mut Vec<(f64, PacketId, u64)>,
    ) {
        let b_self = self.opp_bytes(node, node);
        scored.clear();
        for (dst, queue) in queues {
            row.load_queue(queue);
            row.compute(est[dst.index()], b_self, self.cfg.delay_cap_secs);
            for (entry, &a_self) in queue.iter().zip(row.delays()) {
                if keep(entry.id) {
                    let rate = self.rate_from_a_self(node, entry.id, a_self);
                    scored.push((
                        self.utility_from_rate(rate, entry.created_at, now),
                        entry.id,
                        entry.size_bytes,
                    ));
                }
            }
        }
        scored.sort_unstable_by(|a, b| cmp_utility_then_id((a.0, a.1), (b.0, b.1)));
    }

    /// §3.4 storage decision: the lowest-utility victims freeing `needed`
    /// bytes at `node`. Touches only `node`'s state (that it runs under
    /// [`StatePair::Solo`] in sharded execution is the compile-time proof),
    /// so the serial, batch and sharded paths share this implementation.
    #[allow(clippy::too_many_arguments)]
    fn make_room(
        &mut self,
        node: NodeId,
        incoming: &Packet,
        needed: u64,
        buffer: &NodeBuffer,
        packets: &PacketStore,
        now: Time,
        scratch: &mut ContactScratch,
    ) -> Vec<PacketId> {
        let ContactScratch {
            est_x: est,
            storage: StorageScratch { row, scored, .. },
            ..
        } = scratch;
        self.fill_est(node, node, est);
        self.score_storage(node, est, buffer.queues(), |_| true, now, row, scored);

        // §3.4 protects a source's own unacked packets from being displaced
        // by *incoming replicas*; when the incoming packet is the node's own
        // creation, the source manages its own queue and may shed its own
        // lowest-utility packets (otherwise a saturated source would drop
        // every new packet at birth).
        let own_creation = incoming.src == node;
        let state = self.states.state(node);
        let mut victims = Vec::new();
        let mut freed = 0u64;
        for &(_, id, size) in scored.iter() {
            if freed >= needed {
                break;
            }
            if own_creation || packets.get(id).src != node || state.acks.contains(id) {
                victims.push(id);
                freed += size;
            }
        }
        if freed < needed {
            victims.clear();
        }

        #[cfg(debug_assertions)]
        self.assert_victims_match_reference(node, incoming, needed, buffer, packets, now, &victims);

        let st = self.states.state_mut(node);
        for &v in &victims {
            st.meta.remove_holder(v, node);
        }
        victims
    }
}

/// The two whole-queue Eq. 4–5 rate rows of one enumeration — own-side
/// and peer-side replica delays — borrowed from the contact scratch and
/// refilled per destination queue.
struct RateRows<'a> {
    own: &'a mut RateBatch,
    peer: &'a mut RateBatch,
}

/// One replication candidate, scored.
struct Candidate {
    id: PacketId,
    score: f64,
    size: u64,
    a_self: f64,
    a_peer: f64,
}

impl Routing for Rapid {
    fn name(&self) -> String {
        let metric = match self.cfg.metric {
            RoutingMetric::MinAvgDelay => "avg-delay",
            RoutingMetric::MinMissedDeadlines { .. } => "deadline",
            RoutingMetric::MinMaxDelay => "max-delay",
        };
        let channel = match self.cfg.channel {
            ChannelMode::InBand { cap_fraction: None } => "in-band".to_string(),
            ChannelMode::InBand {
                cap_fraction: Some(f),
            } => format!("in-band:{f:.2}"),
            ChannelMode::LocalOnly => "local".to_string(),
            ChannelMode::InstantGlobal => "global".to_string(),
        };
        format!("RAPID({metric},{channel})")
    }

    fn on_init(&mut self, config: &SimConfig) {
        assert!(
            !matches!(self.cfg.channel, ChannelMode::InstantGlobal)
                || config.allow_global_knowledge,
            "InstantGlobal RAPID requires SimConfig::allow_global_knowledge"
        );
        self.sim = config.clone();
        self.states = (0..config.nodes)
            .map(|i| NodeState::new(NodeId(i as u32), config.nodes))
            .collect();
    }

    fn make_room(
        &mut self,
        node: NodeId,
        incoming: &Packet,
        needed: u64,
        buffer: &NodeBuffer,
        packets: &PacketStore,
        now: Time,
    ) -> Vec<PacketId> {
        let n = self.states.len();
        let (cfg, states, scratch) = (&self.cfg, &mut self.states, &mut self.scratch[0]);
        let mut exec = ContactExec {
            cfg,
            n,
            states: StatePair::Full(states),
            row_warned: &self.row_warned,
        };
        exec.make_room(node, incoming, needed, buffer, packets, now, scratch)
    }
    fn on_contact(&mut self, driver: &mut ContactDriver<'_>) {
        let n = self.states.len();
        let (cfg, states, scratch) = (&self.cfg, &mut self.states, &mut self.scratch[0]);
        let mut exec = ContactExec {
            cfg,
            n,
            states: StatePair::Full(states),
            row_warned: &self.row_warned,
        };
        exec.contact(driver, scratch);
    }

    fn contact_concurrency(&self) -> ContactConcurrency {
        // Non-global contacts compile against the two-endpoint state view
        // (see `StatePair::Pair`), so node-disjoint contacts commute; the
        // global channel reads arbitrary nodes' states and stays serial.
        if self.is_global() {
            ContactConcurrency::Serial
        } else {
            ContactConcurrency::NodeDisjoint
        }
    }

    fn on_contact_batch(&mut self, batch: &mut [ContactDriver<'_>], pool: &ContactPool) {
        debug_assert!(!self.is_global(), "global channel declared Serial");
        let workers = pool.workers();
        if self.scratch.len() < workers {
            let kernel = self.kernel;
            self.scratch
                .resize_with(workers, || ContactScratch::with_kernel(kernel));
        }
        let n = self.states.len();
        let (cfg, row_warned) = (&self.cfg, &self.row_warned);
        let states = SlicePartition::new(&mut self.states);
        let scratches = SlicePartition::new(&mut self.scratch);
        let drivers = SlicePartition::new(batch);
        pool.run(drivers.len(), &|worker, i| {
            // SAFETY: each batch index is claimed by exactly one worker
            // (`ContactPool::run`); drivers are node-disjoint (the
            // engine's batch contract), so the two state slots of driver
            // `i` are borrowed by no other concurrent execution; each
            // worker uses only its own scratch slot.
            let driver = unsafe { drivers.get_mut(i) };
            let (a, b) = driver.endpoints();
            let (sa, sb) = unsafe { states.pair_mut(a.index(), b.index()) };
            let scratch = unsafe { scratches.get_mut(worker) };
            let mut exec = ContactExec {
                cfg,
                n,
                states: StatePair::Pair { a, sa, b, sb },
                row_warned,
            };
            exec.contact(driver, scratch);
        });
    }

    fn on_shard_epoch(
        &mut self,
        partition: &Partition,
        pool: &ContactPool,
        drain: &(dyn Fn(usize, &mut dyn Routing) + Sync),
    ) -> bool {
        debug_assert!(!self.is_global(), "global channel declared Serial");
        let shards = partition.shards();
        if self.scratch.len() < shards {
            let kernel = self.kernel;
            self.scratch
                .resize_with(shards, || ContactScratch::with_kernel(kernel));
        }
        let n = self.states.len();
        let (cfg, row_warned) = (&self.cfg, &self.row_warned);
        let states = SlicePartition::new(&mut self.states);
        let scratches = SlicePartition::new(&mut self.scratch);
        pool.run(shards, &|_worker, s| {
            // SAFETY: partition ranges are disjoint and each shard index
            // is claimed by exactly one worker (`ContactPool::run`), so
            // shard `s`'s run of node states and scratch slot `s` are
            // borrowed by no other concurrent execution. The drained
            // messages address only nodes the shard owns (the sharded
            // runtime's routing contract), which `RapidShardView` enforces by
            // construction: its lease is exactly `partition.range(s)`.
            let range = partition.range(s);
            let base = range.start;
            let mut view = RapidShardView {
                cfg,
                n,
                base,
                states: unsafe { states.range_mut(range) },
                scratch: unsafe { scratches.get_mut(s) },
                row_warned,
            };
            drain(s, &mut view);
        });
        true
    }

    fn save_state(&self) -> Option<Vec<u8>> {
        let mut out = Vec::new();
        write_varint(&mut out, self.states.len() as u64);
        for st in &self.states {
            encode_node_state(&mut out, st);
        }
        Some(out)
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        let mut cur = ByteCursor::new(bytes);
        let n = cur.varint().map_err(|e| format!("node count: {e}"))? as usize;
        if n != self.states.len() {
            return Err(format!(
                "RAPID state for {n} nodes, world has {}",
                self.states.len()
            ));
        }
        let mut states = Vec::with_capacity(n);
        for i in 0..n {
            let mut st = NodeState::new(NodeId(i as u32), n);
            decode_node_state(&mut cur, &mut st, n)
                .map_err(|e| format!("node {i} (offset {}): {e}", cur.offset()))?;
            states.push(st);
        }
        if !cur.is_empty() {
            return Err(format!(
                "{} trailing bytes after RAPID state",
                cur.remaining()
            ));
        }
        self.states = states;
        Ok(())
    }
}

/// Appends one node's checkpointable belief state. All sparse maps iterate
/// in ascending peer/slot order, so a save of a restored instance is
/// byte-identical.
fn encode_node_state(out: &mut Vec<u8>, st: &NodeState) {
    st.meetings.encode(out);

    // Replica beliefs, in slot (first-heard) order so restore reproduces
    // the interner's slot assignment exactly.
    let beliefs: Vec<_> = st.meta.iter_live().collect();
    write_varint(out, beliefs.len() as u64);
    for (id, belief) in beliefs {
        write_varint(out, id.0 as u64);
        write_varint(out, belief.changed_at.0);
        write_varint(out, belief.entries.len() as u64);
        for e in &belief.entries {
            write_varint(out, e.holder.0 as u64);
            put_f64(out, e.delay_secs);
            write_varint(out, e.stamp.0);
        }
    }

    write_varint(out, st.acks.len() as u64);
    for id in st.acks.iter() {
        write_varint(out, id.0 as u64);
    }

    let sent = || st.last_sent.iter().filter(|e| e.1 != Time::ZERO);
    write_varint(out, sent().count() as u64);
    for &(p, at) in sent() {
        write_varint(out, p as u64);
        write_varint(out, at.0);
    }

    let (mean, count) = st.avg_opp.state();
    put_f64(out, mean);
    write_varint(out, count);

    let opp: Vec<usize> = (0..st.believed_opp.len())
        .filter(|&p| st.believed_opp[p] != (0.0, Time::ZERO))
        .collect();
    write_varint(out, opp.len() as u64);
    for p in opp {
        write_varint(out, p as u64);
        put_f64(out, st.believed_opp[p].0);
        write_varint(out, st.believed_opp[p].1 .0);
    }
}

/// Restores one node's belief state onto a fresh [`NodeState`]. Inverse of
/// [`encode_node_state`]; every index is validated against `n`.
fn decode_node_state(
    cur: &mut dtn_trace::ByteCursor<'_>,
    st: &mut NodeState,
    n: usize,
) -> Result<(), String> {
    st.meetings.decode(cur)?;

    let beliefs = take_varint(cur)?;
    for _ in 0..beliefs {
        let id = PacketId(u32::try_from(take_varint(cur)?).map_err(|_| "packet id overflow")?);
        let changed_at = Time(take_varint(cur)?);
        let entries_len = take_varint(cur)?;
        let mut entries = Vec::with_capacity(entries_len.min(1 << 16) as usize);
        for _ in 0..entries_len {
            let holder = NodeId(take_index(cur, n)? as u32);
            let delay_secs = take_f64(cur)?;
            let stamp = Time(take_varint(cur)?);
            entries.push(HolderEntry {
                holder,
                delay_secs,
                stamp,
            });
        }
        if !entries.windows(2).all(|w| w[0].holder < w[1].holder) {
            return Err(format!("belief entries for packet {} not sorted", id.0));
        }
        st.meta.restore_belief(
            id,
            crate::control::PacketBelief {
                entries,
                changed_at,
            },
        );
    }

    let acks = take_varint(cur)?;
    let mut prev: Option<u32> = None;
    for _ in 0..acks {
        let id = u32::try_from(take_varint(cur)?).map_err(|_| "ack id overflow")?;
        if prev.is_some_and(|p| p >= id) {
            return Err("ack ids not strictly ascending".into());
        }
        prev = Some(id);
        st.acks.insert(PacketId(id));
    }

    let mut prev = None;
    for _ in 0..take_varint(cur)? {
        let p = take_ascending(cur, n, &mut prev, "last-sent peer")?;
        st.set_last_sent(NodeId(p as u32), Time(take_varint(cur)?));
    }

    let mean = take_f64(cur)?;
    let count = take_varint(cur)?;
    st.avg_opp = dtn_stats::RunningMean::from_state(mean, count);

    let mut prev = None;
    for _ in 0..take_varint(cur)? {
        let p = take_ascending(cur, n, &mut prev, "believed-opportunity node")?;
        let size = take_f64(cur)?;
        let stamp = Time(take_varint(cur)?);
        st.believed_opp[p] = (size, stamp);
    }
    Ok(())
}

/// One shard's lease over its contiguous run of RAPID node states during
/// a sharded epoch ([`Rapid::on_shard_epoch`]). The runtime delivers the
/// epoch's messages through the [`Routing`] interface with *global* node
/// ids; every hook here re-bases them onto the local subslice, so a
/// message addressing a node outside the shard's partition range is an
/// out-of-bounds panic rather than a data race.
///
/// Cross-endpoint effects need no special handling: an intra-shard
/// contact owns both endpoint states ([`StatePair::Pair`]), and
/// cross-shard contacts are barriers that run on the coordinator
/// instance with the full slice — the in-band metadata rows those
/// contacts exchange flow through the same serial path as before.
struct RapidShardView<'a> {
    cfg: &'a RapidConfig,
    /// Total node count (estimate vectors are world-sized even though the
    /// lease is not).
    n: usize,
    /// First node id owned by this shard; local index = `id - base`.
    base: usize,
    states: &'a mut [NodeState],
    scratch: &'a mut ContactScratch,
    row_warned: &'a AtomicBool,
}

impl Routing for RapidShardView<'_> {
    fn name(&self) -> String {
        "RAPID(shard-view)".into()
    }

    fn contact_concurrency(&self) -> ContactConcurrency {
        ContactConcurrency::NodeDisjoint
    }

    fn on_contact(&mut self, driver: &mut ContactDriver<'_>) {
        let (a, b) = driver.endpoints();
        let (ai, bi) = (a.index() - self.base, b.index() - self.base);
        let (sa, sb) = if ai < bi {
            let (lo, hi) = self.states.split_at_mut(bi);
            (&mut lo[ai], &mut hi[0])
        } else {
            let (lo, hi) = self.states.split_at_mut(ai);
            (&mut hi[0], &mut lo[bi])
        };
        let mut exec = ContactExec {
            cfg: self.cfg,
            n: self.n,
            states: StatePair::Pair { a, sa, b, sb },
            row_warned: self.row_warned,
        };
        exec.contact(driver, self.scratch);
    }

    fn make_room(
        &mut self,
        node: NodeId,
        incoming: &Packet,
        needed: u64,
        buffer: &NodeBuffer,
        packets: &PacketStore,
        now: Time,
    ) -> Vec<PacketId> {
        let sx = &mut self.states[node.index() - self.base];
        let mut exec = ContactExec {
            cfg: self.cfg,
            n: self.n,
            states: StatePair::Solo { x: node, sx },
            row_warned: self.row_warned,
        };
        exec.make_room(node, incoming, needed, buffer, packets, now, self.scratch)
    }
}

impl ContactExec<'_> {
    /// One full contact (Steps 1–3 plus state bounding). `scratch` is this
    /// execution's reusable storage; under batch execution each worker
    /// brings its own.
    fn contact(&mut self, driver: &mut ContactDriver<'_>, scratch: &mut ContactScratch) {
        let (a, b) = driver.endpoints();
        let now = driver.now();
        let full_opp = driver.remaining_bytes(a);

        // --- Record the meeting and the opportunity size.
        for (x, y) in [(a, b), (b, a)] {
            let st = self.states.state_mut(x);
            st.meetings.record_meeting(y, now);
            st.avg_opp.observe(full_opp as f64);
            let avg = st.avg_opp.mean_or(0.0);
            st.believed_opp[x.index()] = (avg, now);
        }

        // --- Step 1: metadata exchange (in-band modes only).
        match self.cfg.channel {
            ChannelMode::InBand { cap_fraction } => {
                let budget = cap_fraction
                    .map(|f| (f * full_opp as f64) as u64)
                    .unwrap_or(u64::MAX);
                self.exchange_metadata(driver, a, b, budget, full_opp, false, scratch);
                self.exchange_metadata(driver, b, a, budget, full_opp, false, scratch);
            }
            ChannelMode::LocalOnly => {
                self.exchange_metadata(driver, a, b, u64::MAX, full_opp, true, scratch);
                self.exchange_metadata(driver, b, a, u64::MAX, full_opp, true, scratch);
            }
            ChannelMode::InstantGlobal => {}
        }

        // --- Purge packets known to be delivered (acks / global truth).
        for x in [a, b] {
            // Filter while iterating; only the (few) hits are collected
            // into reusable scratch — the eviction below mutates the
            // buffer, so a snapshot of the hits is still required.
            scratch.purge.clear();
            {
                let is_global = self.is_global();
                let state = self.states.state(x);
                scratch
                    .purge
                    .extend(driver.buffer(x).iter().map(|(id, _)| id).filter(|&id| {
                        if is_global {
                            driver.global().is_delivered(id)
                        } else {
                            state.acks.contains(id)
                        }
                    }));
            }
            for &id in &scratch.purge {
                driver.evict(x, id);
                self.states.state_mut(x).meta.remove_packet(id);
            }
        }

        // --- Fast path: with both buffers empty there is nothing to
        // deliver, replicate, score or snapshot — skip the estimate and
        // snapshot setup entirely.
        if driver.buffer(a).is_empty() && driver.buffer(b).is_empty() {
            self.bound_meta(driver, a, b);
            return;
        }

        // --- Build per-side context: estimates and queue snapshots.
        let ContactScratch {
            snap_a,
            snap_b,
            destined,
            candidates,
            stored,
            est_x: est_a,
            est_y: est_b,
            est_y_from_x: est_b_from_a,
            est_x_from_y: est_a_from_b,
            row_self,
            row_peer,
            storage,
            ..
        } = scratch;
        self.fill_est(a, a, est_a);
        self.fill_est(b, b, est_b);
        // How each side values the *peer's* position (for a_peer): seen
        // through its own learned rows.
        self.fill_est(a, b, est_b_from_a);
        self.fill_est(b, a, est_a_from_b);
        // Contact-start queue state for scoring, even as transfers mutate
        // the buffers mid-contact.
        snap_a.refill_from_buffer(driver.buffer(a));
        snap_b.refill_from_buffer(driver.buffer(b));
        let (snap_a, snap_b) = (&*snap_a, &*snap_b);

        // --- Step 2: direct delivery, both sides.
        for (x, y) in [(a, b), (b, a)] {
            self.direct_delivery(driver, x, y, now, destined);
        }

        // --- Step 3: replication, both sides.
        stored.clear();
        self.replicate_side(
            driver,
            a,
            b,
            est_a,
            est_b_from_a,
            est_b,
            snap_a,
            snap_b,
            now,
            stored,
            candidates,
            row_self,
            row_peer,
            storage,
        );
        self.replicate_side(
            driver,
            b,
            a,
            est_b,
            est_a_from_b,
            est_a,
            snap_b,
            snap_a,
            now,
            stored,
            candidates,
            row_self,
            row_peer,
            storage,
        );

        self.bound_meta(driver, a, b);
    }

    /// Bounds each endpoint's control state (§4.2 table cap).
    fn bound_meta(&mut self, driver: &ContactDriver<'_>, a: NodeId, b: NodeId) {
        for x in [a, b] {
            let cap = self.cfg.meta_entry_cap;
            let buffer = driver.buffer(x);
            self.states
                .state_mut(x)
                .meta
                .prune(cap, |id| buffer.contains(id));
        }
    }

    /// Step 2: deliver packets destined to the peer, highest utility first.
    /// For the deadline metric, expired packets go last (their utility is
    /// 0); otherwise the queue order is decreasing `T(i)` (§4.1).
    ///
    /// The buffer's delivery queue for `y` is already in `(created_at, id)`
    /// order — exactly the delivery order — so no sort is needed: the
    /// deadline metric's expired packets form the (oldest) queue prefix,
    /// which is rotated to the back.
    fn direct_delivery(
        &mut self,
        driver: &mut ContactDriver<'_>,
        x: NodeId,
        y: NodeId,
        now: Time,
        destined: &mut Vec<PacketId>,
    ) {
        let queue = driver.buffer(x).queue(y);
        destined.clear();
        match self.cfg.metric {
            RoutingMetric::MinMissedDeadlines { lifetime } => {
                // `since` saturates and the queue is created-ascending, so
                // the expired predicate is monotone along it.
                let split = queue.partition_point(|e| now.since(e.created_at) >= lifetime);
                destined.extend(queue[split..].iter().chain(&queue[..split]).map(|e| e.id));
            }
            _ => destined.extend(queue.iter().map(|e| e.id)),
        };
        for &id in destined.iter() {
            match driver.try_transfer(x, id) {
                TransferOutcome::Delivered | TransferOutcome::DeliveredDuplicate => {
                    // Both endpoints witnessed the delivery: instant ack.
                    let (sx, sy) = self.states.two(x, y);
                    sx.acks.insert(id);
                    sy.acks.insert(id);
                    sx.meta.remove_packet(id);
                    sy.meta.remove_packet(id);
                }
                TransferOutcome::NoBandwidth => break,
                _ => {}
            }
        }
    }

    /// Step 3 for one side: score candidates by marginal utility per byte
    /// and replicate greedily.
    #[allow(clippy::too_many_arguments)]
    fn replicate_side(
        &mut self,
        driver: &mut ContactDriver<'_>,
        x: NodeId,
        y: NodeId,
        est_x: &[f64],
        est_y: &[f64],
        est_y_own: &[f64],
        snap_x: &QueueSnapshot,
        snap_y: &QueueSnapshot,
        now: Time,
        stored_this_contact: &mut HashSet<PacketId>,
        candidates: &mut Vec<Candidate>,
        row_self: &mut RateBatch,
        row_peer: &mut RateBatch,
        storage: &mut StorageScratch,
    ) {
        let b_x = self.opp_bytes(x, x);
        let b_y = if self.is_global() {
            self.opp_bytes_global(y)
        } else {
            self.opp_bytes(x, y)
        };

        // Global-mode caches: per-holder estimates and queue snapshots.
        let mut global_est: HashMap<u32, HopEstimates> = HashMap::new();
        let mut global_snap: HashMap<u32, QueueSnapshot> = HashMap::new();

        // Candidates are enumerated per destination queue of the
        // contact-start view: along a queue the own-side `b(i)` is an
        // O(1) prefix read, and the peer-side insertion point advances
        // monotonically (one cursor per destination) instead of a binary
        // search per packet. Enumeration order cannot affect decisions —
        // `sort_candidates` imposes a strict total order ((score, id), ids
        // unique) and every other per-packet effect is independent — but
        // the candidate *set* must match the live buffer: snapshot entries
        // evicted mid-contact are skipped via the O(1) membership check.
        candidates.clear();
        let mut rows = RateRows {
            own: row_self,
            peer: row_peer,
        };
        for (dst_node, queue) in snap_x.queues() {
            self.enumerate_queue(
                driver,
                x,
                y,
                dst_node,
                queue,
                snap_y,
                est_x,
                est_y,
                b_x,
                b_y,
                now,
                candidates,
                &mut rows,
                &mut global_est,
                &mut global_snap,
            );
        }

        sort_candidates(candidates, driver.remaining_bytes(x));

        // The receiver's eviction queue (`storage.evict_queue`) is built
        // on the first NeedsSpace.
        let mut evict_queue_built = false;

        for cand in candidates.drain(..) {
            if driver.remaining_bytes(x) < cand.size {
                // Packets are uniform-size in the paper's workloads; a
                // smaller later candidate could still fit, so keep going
                // only while something could fit.
                if driver.remaining_bytes(x) == 0 {
                    break;
                }
                continue;
            }
            loop {
                match driver.try_transfer(x, cand.id) {
                    TransferOutcome::Replicated => {
                        stored_this_contact.insert(cand.id);
                        if !self.is_global() {
                            let stamp = now;
                            let entry_peer = HolderEntry {
                                holder: y,
                                delay_secs: cand.a_peer,
                                stamp,
                            };
                            let entry_self = HolderEntry {
                                holder: x,
                                delay_secs: cand.a_self,
                                stamp,
                            };
                            for node in [x, y] {
                                let st = self.states.state_mut(node);
                                st.meta.upsert(cand.id, entry_peer);
                                st.meta.upsert(cand.id, entry_self);
                            }
                        }
                        break;
                    }
                    TransferOutcome::NeedsSpace(needed) => {
                        if !self.evict_for(
                            driver,
                            y,
                            est_y_own,
                            needed,
                            stored_this_contact,
                            snap_y,
                            now,
                            storage,
                            &mut evict_queue_built,
                        ) {
                            break; // could not make room: skip candidate
                        }
                        // Retry the transfer with space freed.
                    }
                    _ => break,
                }
            }
        }
    }

    /// Scores one contact-start destination queue into `candidates` (and
    /// publishes refreshed own-packet estimates).
    #[allow(clippy::too_many_arguments)]
    fn enumerate_queue(
        &mut self,
        driver: &ContactDriver<'_>,
        x: NodeId,
        y: NodeId,
        dst_node: NodeId,
        queue: &[QueueEntry],
        snap_y: &QueueSnapshot,
        est_x: &[f64],
        est_y: &[f64],
        b_x: f64,
        b_y: f64,
        now: Time,
        candidates: &mut Vec<Candidate>,
        rows: &mut RateRows<'_>,
        global_est: &mut HashMap<u32, HopEstimates>,
        global_snap: &mut HashMap<u32, QueueSnapshot>,
    ) {
        if dst_node == y {
            return; // destined packets belong to step 2, not step 3
        }
        let dst = dst_node.index();
        // Pass 1: evaluate both Eq. 4–5 rows over the whole queue in one
        // kernel call each. The own-side positions are the queue's prefix
        // sums; the peer-side insertion points advance monotonically, so
        // they are gathered for every entry — the cursor is a memoized
        // monotone scan, and a query for a later-skipped entry cannot
        // disturb the value any kept entry reads.
        let mut peer_pos = snap_y.insert_cursor(dst_node);
        rows.own.load_queue(queue);
        rows.peer.clear();
        for entry in queue {
            rows.peer
                .push(peer_pos.bytes_ahead_if_inserted(entry.created_at));
        }
        let cap = self.cfg.delay_cap_secs;
        rows.own.compute(est_x[dst], b_x, cap);
        rows.peer.compute(est_y[dst], b_y, cap);
        // Pass 2: score against the precomputed rows.
        for (
            i,
            &QueueEntry {
                created_at,
                id,
                size_bytes,
                ..
            },
        ) in queue.iter().enumerate()
        {
            if !driver.buffer(x).contains(id) || driver.buffer(y).contains(id) {
                continue;
            }
            if !self.is_global() && self.states.state(x).acks.contains(id) {
                continue; // known delivered but not yet purged (can't happen after purge, kept defensively)
            }
            let t = now.since(created_at).as_secs_f64();
            let a_self = rows.own.delays()[i];
            let a_peer = rows.peer.delays()[i];

            // Combined rate of the believed remote replicas (or the
            // true ones, by channel mode) — summed inline, no per-packet
            // allocation.
            let remote_rate: f64 = if self.is_global() {
                let g = driver.global();
                combined_rate(
                    g.holders(id)
                        .filter(|&h| h != x && h != y)
                        .map(|h| {
                            let est_h = global_est.entry(h.0).or_insert_with(|| {
                                let mut est = HopEstimates::default();
                                self.fill_est(h, h, &mut est);
                                est
                            });
                            let snap_h = global_snap
                                .entry(h.0)
                                .or_insert_with(|| QueueSnapshot::from_buffer(g.buffer(h)));
                            let ahead = snap_h.bytes_ahead(dst_node, id, created_at);
                            let b_h = self.opp_bytes_global(h);
                            self.cap(replica_delay(est_h[dst], meetings_needed(ahead, b_h)))
                        })
                        .collect::<Vec<f64>>(),
                )
            } else {
                match self.states.state(x).meta.get(id) {
                    Some(belief) => combined_rate(
                        belief
                            .entries
                            .iter()
                            .filter(|e| e.holder != x && e.holder != y)
                            .map(|e| self.cap(e.delay_secs)),
                    ),
                    None => 0.0,
                }
            };
            // Left-to-right extension keeps these sums bit-identical to
            // folding the full replica list at once.
            let rate_self = remote_rate + rate_contribution(a_self);
            let rate_both = rate_self + rate_contribution(a_peer);

            let score = match self.cfg.metric {
                RoutingMetric::MinAvgDelay => {
                    let before = delay_from_rate(rate_self);
                    let after = delay_from_rate(rate_both);
                    delta_or_zero(before, after) / size_bytes as f64
                }
                RoutingMetric::MinMissedDeadlines { lifetime } => {
                    let rem = lifetime.as_secs_f64() - t;
                    if rem <= 0.0 {
                        0.0
                    } else {
                        let before = prob_within_from_rate(rate_self, rem);
                        let after = prob_within_from_rate(rate_both, rem);
                        (after - before) / size_bytes as f64
                    }
                }
                RoutingMetric::MinMaxDelay => {
                    // Work-conserving Eq. 3: replicate in decreasing order
                    // of current expected delay D(i) = T(i) + A(i).
                    let before = delay_from_rate(rate_self);
                    if before.is_finite() {
                        t + before
                    } else if a_peer.is_finite() {
                        // No current replica can reach the destination but
                        // the peer can: the largest possible gain. Age
                        // preserves the work-conserving order among such
                        // packets.
                        UNREACHABLE_GAIN + t
                    } else {
                        0.0
                    }
                }
            };
            if score > 0.0 {
                candidates.push(Candidate {
                    id,
                    score,
                    size: size_bytes,
                    a_self,
                    a_peer,
                });
            }
            // Publish/refresh own delay estimate for the gossip channel —
            // only for packets this node originated ("for each of its own
            // packets", §4.2); carried replicas are already described by
            // the entries created at replication time.
            if !self.is_global() && driver.packets().get(id).src == x {
                self.publish_estimate(x, id, a_self, now);
            }
        }
    }

    /// Buffer-overflow policy at the receiving node: evict lowest-utility
    /// packets (never its own unacked source packets, never replicas stored
    /// during this contact) until `needed` bytes are free. Returns whether
    /// enough space was freed. The eviction queue is built on the first
    /// call of a replication side (`*built`) and consumed across the rest.
    #[allow(clippy::too_many_arguments)]
    fn evict_for(
        &mut self,
        driver: &mut ContactDriver<'_>,
        y: NodeId,
        est_y: &[f64],
        needed: u64,
        stored_this_contact: &HashSet<PacketId>,
        snap_y: &QueueSnapshot,
        now: Time,
        storage: &mut StorageScratch,
        built: &mut bool,
    ) -> bool {
        let StorageScratch {
            row,
            scored,
            evict_queue,
        } = storage;
        if !*built {
            *built = true;
            // Scored against the contact-start snapshot, like every other
            // in-contact decision (not the live, mid-contact queue): every
            // packet still buffered that was not stored during this contact
            // is in it.
            let buffer = driver.buffer(y);
            self.score_storage(
                y,
                est_y,
                snap_y.queues(),
                |id| buffer.contains(id) && !stored_this_contact.contains(&id),
                now,
                row,
                scored,
            );
            // §3.4's own-packet protection, applied as a strict
            // preference: a node's own unacked packets are evicted only
            // after every other packet is gone.
            let acks = &self.states.state(y).acks;
            let own_unacked =
                |id: PacketId| driver.packets().get(id).src == y && !acks.contains(id);
            evict_queue.clear();
            for own in [true, false] {
                evict_queue.extend(
                    scored
                        .iter()
                        .rev()
                        .filter(|&&(_, id, _)| own_unacked(id) == own)
                        .map(|&(_, id, size)| (id, size)),
                );
            }
        }
        let mut freed = 0u64;
        while freed < needed {
            let Some((victim, size)) = evict_queue.pop() else {
                return false; // nothing evictable left
            };
            if driver.evict(y, victim) {
                self.states.state_mut(y).meta.remove_holder(victim, y);
                freed += size;
            }
        }
        true
    }

    /// Debug-build oracle for `make_room`: asserts the batched scorer
    /// chose the victims of [`ContactExec::reference_victims`].
    #[cfg(debug_assertions)]
    #[allow(clippy::too_many_arguments)]
    fn assert_victims_match_reference(
        &self,
        node: NodeId,
        incoming: &Packet,
        needed: u64,
        buffer: &NodeBuffer,
        packets: &PacketStore,
        now: Time,
        got: &[PacketId],
    ) {
        debug_assert_eq!(
            got,
            self.reference_victims(node, incoming, needed, buffer, packets, now),
            "make_room diverged from the from-scratch scalar reference at {node}"
        );
    }

    /// The obviously-correct `make_room`: one scalar Estimate Delay
    /// ([`ContactExec::rate_with`]) per buffered packet, the §3.4 filter,
    /// a full sort.
    #[cfg(any(debug_assertions, test))]
    fn reference_victims(
        &self,
        node: NodeId,
        incoming: &Packet,
        needed: u64,
        buffer: &NodeBuffer,
        packets: &PacketStore,
        now: Time,
    ) -> Vec<PacketId> {
        let own_creation = incoming.src == node;
        let state = self.states.state(node);
        let mut est = HopEstimates::default();
        self.fill_est(node, node, &mut est);
        let mut scored: Vec<(f64, PacketId, u64)> = buffer
            .iter()
            .filter(|&(id, _)| {
                own_creation || {
                    let p = packets.get(id);
                    p.src != node || state.acks.contains(id)
                }
            })
            .map(|(id, meta)| {
                let p = packets.get(id);
                let ahead = buffer.bytes_ahead(p.dst, id, p.created_at);
                let rate = self.rate_with(node, &est, &p, ahead);
                (
                    self.utility_from_rate(rate, p.created_at, now),
                    id,
                    meta.size_bytes,
                )
            })
            .collect();
        scored.sort_unstable_by(|a, b| cmp_utility_then_id((a.0, a.1), (b.0, b.1)));
        let mut victims = Vec::new();
        let mut freed = 0u64;
        for (_, id, size) in scored {
            if freed >= needed {
                break;
            }
            victims.push(id);
            freed += size;
        }
        if freed < needed {
            victims.clear();
        }
        victims
    }

    /// Refreshes this node's own delay estimate for a packet in the gossip
    /// table, if it moved by more than [`PUBLISH_THRESHOLD`].
    fn publish_estimate(&mut self, x: NodeId, id: PacketId, a_self: f64, now: Time) {
        let st = self.states.state_mut(x);
        let stale = match st.meta.get(id).and_then(|b| b.entry(x)) {
            Some(e) => {
                let old = e.delay_secs;
                !(old.is_finite() && a_self.is_finite())
                    || (old - a_self).abs() > PUBLISH_THRESHOLD * old.abs().max(1.0)
            }
            None => true,
        };
        if stale && a_self.is_finite() {
            st.meta.upsert(
                id,
                HolderEntry {
                    holder: x,
                    delay_secs: a_self,
                    stamp: now,
                },
            );
        }
    }

    /// Step 1: the in-band metadata exchange in one direction, within a
    /// byte budget. Priority order: acks, meeting rows + opportunity
    /// averages, replica entries (own-buffer packets first). The watermark
    /// only advances when everything fit (§4.2's delta exchange).
    #[allow(clippy::too_many_arguments)]
    fn exchange_metadata(
        &mut self,
        driver: &mut ContactDriver<'_>,
        from: NodeId,
        to: NodeId,
        budget: u64,
        full_opp: u64,
        local_only: bool,
        scratch: &mut ContactScratch,
    ) {
        let ContactScratch {
            acks_new,
            changed_rows,
            changed,
            own_changed,
            third_changed,
            ..
        } = scratch;
        let now = driver.now();
        let mut allowed = budget.min(driver.remaining_bytes(from));
        let mut used = 0u64;
        let mut truncated = false;
        let since = self.states.state(from).last_sent_to(to);

        // 1. Acknowledgments.
        {
            let (from_st, to_st) = self.states.two(from, to);
            acks_new.clear();
            acks_new.extend(from_st.acks.iter().filter(|&id| !to_st.acks.contains(id)));
            for &id in acks_new.iter() {
                if allowed < wire::ACK_BYTES {
                    truncated = true;
                    break;
                }
                to_st.acks.insert(id);
                to_st.meta.remove_packet(id);
                allowed -= wire::ACK_BYTES;
                used += wire::ACK_BYTES;
            }
        }

        // 2. Meeting-time rows changed since the watermark.
        {
            let n = self.n as u64;
            let row_cost = n * wire::MEETING_ENTRY_BYTES;
            if full_opp < row_cost && !self.row_warned.load(AtomicOrdering::Relaxed) {
                self.warn_row_exceeds_opportunity(row_cost, full_opp);
            }
            self.states
                .state(from)
                .meetings
                .rows_changed_since_into(since, changed_rows);
            for &row in changed_rows.iter() {
                if allowed < row_cost {
                    truncated = true;
                    break;
                }
                let (from_st, to_st) = self.states.two(from, to);
                to_st.meetings.merge_rows_from(&from_st.meetings, &[row]);
                allowed -= row_cost;
                used += row_cost;
            }
            // Opportunity averages changed since the watermark.
            let (from_st, to_st) = self.states.two(from, to);
            for (&(v, stamp), theirs) in from_st.believed_opp.iter().zip(&mut to_st.believed_opp) {
                if stamp <= since {
                    continue;
                }
                if allowed < wire::AVG_OPP_BYTES {
                    truncated = true;
                    break;
                }
                if stamp > theirs.1 {
                    *theirs = (v, stamp);
                }
                allowed -= wire::AVG_OPP_BYTES;
                used += wire::AVG_OPP_BYTES;
            }
        }

        // 3. Replica entries. Two classes, following §4.2:
        //
        //    * "For each of its own packets, the updated delivery delay
        //      estimate" — packets this node originated (and, for
        //      rapid-local, everything currently in its buffer). These are
        //      few, so they go watermark-complete, oldest change first.
        //    * "Information about other packets if modified since last
        //      exchange" — the transitive gossip. Its global volume is
        //      proportional to the network-wide replication rate, so it is
        //      shipped newest-first under a small per-contact budget
        //      (THIRD_PARTY_FRACTION of the opportunity); older changes age
        //      out rather than queue forever. This bounding is what keeps
        //      metadata at the paper's ~percent-of-data scale (Table 3) —
        //      recorded as a design decision in DESIGN.md.
        let mut entry_watermark = now;
        {
            self.states
                .state(from)
                .meta
                .changed_since_into(since, changed);
            own_changed.clear();
            third_changed.clear();
            for &(id, n_entries, changed_at) in changed.iter() {
                let buffered = driver.buffer(from).contains(id);
                if local_only {
                    if buffered {
                        own_changed.push((id, n_entries, changed_at));
                    }
                    continue;
                }
                if driver.packets().get(id).src == from {
                    own_changed.push((id, n_entries, changed_at));
                } else {
                    third_changed.push((id, n_entries, changed_at));
                }
            }

            // Own/buffered estimates: complete, oldest first, watermarked.
            let mut sent_through = since;
            let mut entries_truncated = false;
            for &(id, n_entries, changed_at) in own_changed.iter() {
                let cost = n_entries as u64 * wire::META_ENTRY_BYTES;
                if allowed < cost {
                    entries_truncated = true;
                    break;
                }
                self.ship_belief(from, to, id, since);
                allowed -= cost;
                used += cost;
                sent_through = sent_through.max(changed_at);
            }
            if entries_truncated {
                truncated = true;
                entry_watermark = sent_through;
            }

            // Third-party gossip: newest first, bounded.
            let gossip_budget = ((full_opp as f64 * THIRD_PARTY_FRACTION) as u64).min(allowed);
            let mut gossip_left = gossip_budget;
            for &(id, n_entries, _) in third_changed.iter().rev() {
                let cost = n_entries as u64 * wire::META_ENTRY_BYTES;
                if gossip_left < cost {
                    break;
                }
                self.ship_belief(from, to, id, since);
                gossip_left -= cost;
                used += cost;
            }
        }

        driver.charge_metadata(from, used);
        // Advance the watermark to cover everything actually shipped; a
        // truncated exchange resumes from where it stopped next time.
        let sent_through = if truncated {
            entry_watermark.min(now)
        } else {
            now
        };
        self.states.state_mut(from).set_last_sent(to, sent_through);
    }

    /// One-shot notice that meeting rows cannot ship on this shape: a row
    /// is charged `n × MEETING_ENTRY_BYTES` and must fit the opportunity
    /// whole, so when a whole opportunity is smaller no row ever merges
    /// and every h-hop estimate degrades to the one-hop own row.
    #[cold]
    fn warn_row_exceeds_opportunity(&self, row_cost: u64, opportunity: u64) {
        // Relaxed: the flag publishes nothing, it only keeps later
        // contacts off the diag mutex (`warn_once` itself dedups racers).
        self.row_warned.store(true, AtomicOrdering::Relaxed);
        dtn_sim::diag::warn_once(
            "meeting-row-exceeds-opportunity",
            "a transfer opportunity is smaller than one meeting row: such contacts carry no \
             rows, and where every opportunity is this small h-hop estimates rest on direct \
             meetings only",
            &[
                ("row_cost", row_cost.to_string()),
                ("opportunity", opportunity.to_string()),
            ],
        );
    }

    /// Copies `from`'s belief entries about `id` newer than `since` into
    /// `to`'s table (unless the peer already knows the packet delivered).
    fn ship_belief(&mut self, from: NodeId, to: NodeId, id: PacketId, since: Time) {
        let (from_st, to_st) = self.states.two(from, to);
        if let Some(belief) = from_st.meta.get(id) {
            if !to_st.acks.contains(id) {
                to_st.meta.merge_packet_from(id, belief, since);
            }
        }
    }
}

/// `max(before − after, 0)`, handling infinities: replicating onto a
/// reachable peer when no replica could previously reach the destination is
/// an (arbitrarily) large gain, represented by the previous delay bound.
fn delta_or_zero(before: f64, after: f64) -> f64 {
    if !after.is_finite() {
        return 0.0;
    }
    if !before.is_finite() {
        // New reachability: treat as the largest finite gain available.
        return UNREACHABLE_GAIN;
    }
    (before - after).max(0.0)
}

/// The one total order every RAPID selection sort derives from: ascending
/// `(value, id)` over a float value with a deterministic id tie-break.
///
/// * Incomparable values (NaN) are treated as equal, falling through to
///   the id tie-break — no selection path produces NaN, but the order must
///   stay total regardless.
/// * Equal values — including `0.0` vs `-0.0` — break ties by **ascending
///   `PacketId`**, so every sort is deterministic and independent of input
///   order.
///
/// Call sites derive their direction from this single order: storage
/// eviction sorts ascending utility directly (lowest utility evicted
/// first); replication sorts by *negated* score (descending score, id
/// still ascending); the in-contact eviction queue reverses the call
/// (descending, so popping from the back yields ascending). The
/// `comparator_*` unit tests pin these tie-break rules.
fn cmp_utility_then_id(a: (f64, PacketId), b: (f64, PacketId)) -> Ordering {
    a.0.partial_cmp(&b.0)
        .unwrap_or(Ordering::Equal)
        .then(a.1.cmp(&b.1))
}

/// Sorts candidates by decreasing score (id ascending tiebreak); when many
/// more candidates exist than could possibly fit in `remaining` bytes, a
/// partial selection keeps the contact O(n + k log k).
fn sort_candidates(c: &mut Vec<Candidate>, remaining: u64) {
    let min_size = c.iter().map(|x| x.size.max(1)).min().unwrap_or(1);
    let fit = (remaining / min_size) as usize;
    let keep = fit.saturating_mul(2).saturating_add(64);
    // Descending score via the shared ascending order on the negated key
    // (negation is exact for every non-NaN float, so ties are preserved).
    let by_score =
        |a: &Candidate, b: &Candidate| cmp_utility_then_id((-a.score, a.id), (-b.score, b.id));
    if c.len() > keep {
        c.select_nth_unstable_by(keep - 1, by_score);
        c.truncate(keep);
    }
    c.sort_unstable_by(by_score);
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtn_sim::workload::{PacketSpec, Workload};
    use dtn_sim::{Contact, Schedule, Simulation, TimeDelta};

    fn spec(t: u64, src: u32, dst: u32) -> PacketSpec {
        PacketSpec {
            time: Time::from_secs(t),
            src: NodeId(src),
            dst: NodeId(dst),
            size_bytes: 1024,
        }
    }

    fn contact(t: u64, a: u32, b: u32, bytes: u64) -> Contact {
        Contact::new(Time::from_secs(t), NodeId(a), NodeId(b), bytes)
    }

    fn config(nodes: usize) -> SimConfig {
        SimConfig {
            nodes,
            horizon: Time::from_secs(10_000),
            ..SimConfig::default()
        }
    }

    #[test]
    fn direct_delivery_works() {
        let sim = Simulation::new(
            config(2),
            Schedule::new(vec![contact(10, 0, 1, 1 << 20)]),
            Workload::new(vec![spec(0, 0, 1)]),
        );
        let mut rapid = Rapid::new(RapidConfig::avg_delay());
        let r = sim.run(&mut rapid);
        assert_eq!(r.delivered(), 1);
        assert!((r.avg_delay_secs().unwrap() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn replication_then_relay_delivery() {
        // 0 meets 1, then 1 meets 2. Packet 0→2 should be replicated to 1
        // and delivered by it.
        let sim = Simulation::new(
            config(3),
            Schedule::new(vec![
                // Teach the nodes their meeting averages first.
                contact(10, 1, 2, 1 << 20),
                contact(40, 1, 2, 1 << 20),
                contact(70, 0, 1, 1 << 20),
                contact(100, 1, 2, 1 << 20),
            ]),
            Workload::new(vec![spec(50, 0, 2)]),
        );
        let mut rapid = Rapid::new(RapidConfig::avg_delay());
        let r = sim.run(&mut rapid);
        assert_eq!(r.delivered(), 1, "relay delivery must happen");
        assert!((r.avg_delay_secs().unwrap() - 50.0).abs() < 1e-9);
        assert!(r.replications >= 1);
        assert!(r.metadata_bytes > 0, "in-band channel must carry bytes");
    }

    #[test]
    fn acks_purge_replicas() {
        // After delivery, the ack must reach node 1 and purge its replica.
        let sim = Simulation::new(
            config(3),
            Schedule::new(vec![
                contact(1, 1, 2, 1 << 20),
                contact(5, 1, 2, 1 << 20),  // node 1 now has a 1↔2 average
                contact(20, 0, 1, 1 << 20), // replicate 0→1
                contact(30, 0, 2, 1 << 20), // 0 delivers directly
                contact(40, 0, 1, 1 << 20), // ack flows 0→1 here
                contact(50, 1, 2, 1 << 20), // 1 must NOT re-send the packet
            ]),
            Workload::new(vec![spec(10, 0, 2)]),
        );
        let mut rapid = Rapid::new(RapidConfig::avg_delay());
        let r = sim.run(&mut rapid);
        assert_eq!(r.delivered(), 1);
        // Data bytes: replication (0→1) + delivery (0→2) only; the purged
        // replica at 1 must not cross to 2 at t=50.
        assert_eq!(r.data_bytes, 2 * 1024);
    }

    #[test]
    fn opportunity_smaller_than_a_meeting_row_is_reported_once() {
        // Three nodes: a row is charged 3 × MEETING_ENTRY_BYTES = 36 B.
        let run = |opportunity: u64| {
            let sim = Simulation::new(
                config(3),
                Schedule::new(vec![
                    contact(10, 0, 1, opportunity),
                    contact(20, 0, 1, opportunity),
                    contact(30, 0, 1, opportunity),
                ]),
                Workload::new(vec![]),
            );
            let mut rapid = Rapid::new(RapidConfig::avg_delay());
            sim.run(&mut rapid);
            rapid
        };
        let roomy = run(36);
        assert!(!roomy.row_warned.load(AtomicOrdering::Relaxed));
        assert!(
            roomy.states[1].meetings.row(0)[1].is_finite(),
            "row shipped"
        );

        let starved = run(35);
        assert!(starved.row_warned.load(AtomicOrdering::Relaxed));
        assert!(dtn_sim::diag::warned("meeting-row-exceeds-opportunity"));
        assert!(
            starved.states[1].meetings.row(0)[1].is_infinite(),
            "a row that never fits never merges"
        );
    }

    /// Populates a Rapid instance with non-trivial state: meetings learned,
    /// replicas believed, acks recorded, metadata watermarks advanced.
    fn populated_rapid() -> (Rapid, SimConfig) {
        let cfg = config(3);
        let sim = Simulation::new(
            cfg.clone(),
            Schedule::new(vec![
                contact(1, 1, 2, 1 << 20),
                contact(5, 1, 2, 1 << 20),
                contact(20, 0, 1, 1 << 20),
                contact(30, 0, 2, 1 << 20),
                contact(40, 0, 1, 1 << 20),
                contact(50, 1, 2, 1 << 20),
            ]),
            Workload::new(vec![spec(10, 0, 2), spec(15, 1, 0)]),
        );
        let mut rapid = Rapid::new(RapidConfig::avg_delay());
        let r = sim.run(&mut rapid);
        assert!(r.delivered() >= 1);
        (rapid, cfg)
    }

    #[test]
    fn save_load_save_is_byte_identical() {
        let (rapid, cfg) = populated_rapid();
        let saved = rapid.save_state().expect("RAPID is checkpointable");
        assert!(!saved.is_empty());

        let mut restored = Rapid::new(RapidConfig::avg_delay());
        restored.on_init(&cfg);
        restored.load_state(&saved).expect("round trip");
        let resaved = restored.save_state().unwrap();
        assert_eq!(
            saved, resaved,
            "restored state must re-save byte-identically"
        );
    }

    #[test]
    fn saved_state_bytes_match_the_dense_era_encoder() {
        // CRC32 of `populated_rapid`'s state as the dense-matrix encoder
        // (commit 9832faf) wrote it: same live-row rule, same ascending
        // cell order, so snapshots stay readable across the storage change.
        let (rapid, _) = populated_rapid();
        let saved = rapid.save_state().unwrap();
        assert_eq!(saved.len(), 434);
        assert_eq!(dtn_trace::crc32(&saved), 0x1b92_82f9);
    }

    #[test]
    fn restore_reproduces_observable_state() {
        // The restored instance must report the same beliefs through every
        // read path a contact would use: meeting rows, expected meeting
        // times, replica listings, acks. (Behavioral continuation under
        // the engine is covered by the resume integration tests.)
        let (original, cfg) = populated_rapid();
        let saved = original.save_state().unwrap();
        let mut restored = Rapid::new(RapidConfig::avg_delay());
        restored.on_init(&cfg);
        restored.load_state(&saved).unwrap();

        for (a, b) in original.states.iter().zip(restored.states.iter()) {
            for u in 0..cfg.nodes {
                assert_eq!(a.meetings.row(u), b.meetings.row(u));
            }
            assert_eq!(
                a.meetings.expected_meeting_times(3),
                b.meetings.expected_meeting_times(3)
            );
            assert_eq!(a.meta.len(), b.meta.len());
            for ((ia, ba), (ib, bb)) in a.meta.iter_live().zip(b.meta.iter_live()) {
                assert_eq!(ia, ib);
                assert_eq!(ba, bb);
            }
            assert_eq!(
                a.acks.iter().collect::<Vec<_>>(),
                b.acks.iter().collect::<Vec<_>>()
            );
            assert_eq!(a.last_sent, b.last_sent);
            assert_eq!(a.avg_opp.state(), b.avg_opp.state());
            assert_eq!(a.believed_opp, b.believed_opp);
        }
    }

    #[test]
    fn load_rejects_malformed_state() {
        let (rapid, cfg) = populated_rapid();
        let saved = rapid.save_state().unwrap();

        let mut fresh = Rapid::new(RapidConfig::avg_delay());
        fresh.on_init(&config(5));
        let err = fresh.load_state(&saved).unwrap_err();
        assert!(err.contains("3 nodes"), "node-count mismatch named: {err}");

        let mut fresh = Rapid::new(RapidConfig::avg_delay());
        fresh.on_init(&cfg);
        assert!(fresh.load_state(&saved[..saved.len() / 2]).is_err());
        assert!(fresh.load_state(&[0xff; 16]).is_err());
        let mut trailing = saved.clone();
        trailing.push(0);
        let err = fresh.load_state(&trailing).unwrap_err();
        assert!(err.contains("trailing"), "trailing bytes named: {err}");

        // The four per-peer index lists of a node must be strictly
        // ascending: the sorted sparse forms are searched, not indexed.
        let load = |avg: &[u64], met: &[u64], sent: &[u64], opp: &[u64]| {
            let mut fresh = Rapid::new(RapidConfig::avg_delay());
            fresh.on_init(&cfg);
            fresh.load_state(&state_with_lists(avg, met, sent, opp))
        };
        load(&[1, 2], &[1, 2], &[1, 2], &[0, 1, 2]).expect("ascending lists load");
        for bad in [[2, 1], [1, 1]] {
            for (list, what) in [
                "running-mean peer",
                "last-met peer",
                "last-sent peer",
                "believed-opportunity node",
            ]
            .into_iter()
            .enumerate()
            {
                let mut lists = [&[][..], &[1, 2], &[1, 2], &[1, 2]];
                lists[list] = &bad;
                let err = load(lists[0], lists[1], lists[2], lists[3]).unwrap_err();
                assert!(
                    err.contains("node 0 (offset")
                        && err.contains(&format!("{what} {} not strictly ascending", bad[1])),
                    "{what} {bad:?}: {err}"
                );
            }
        }
        let err = load(&[1], &[2], &[], &[]).unwrap_err();
        assert!(
            err.contains("running mean for peer 1 without a last-met instant"),
            "{err}"
        );
    }

    /// A 3-node RAPID state in which node 0 holds entries for exactly the
    /// given peers in its running-mean, last-met, last-sent and
    /// believed-opportunity lists (in the given order) and nothing else.
    fn state_with_lists(avg: &[u64], met: &[u64], sent: &[u64], opp: &[u64]) -> Vec<u8> {
        let mut out = Vec::new();
        write_varint(&mut out, 3);
        let empty = [&[][..]; 4];
        for [avg, met, sent, opp] in [[avg, met, sent, opp], empty, empty] {
            write_varint(&mut out, 0); // meeting rows
            write_varint(&mut out, avg.len() as u64);
            for &p in avg {
                write_varint(&mut out, p);
                put_f64(&mut out, 30.0);
                write_varint(&mut out, 1);
            }
            write_varint(&mut out, met.len() as u64);
            for &p in met {
                write_varint(&mut out, p);
                write_varint(&mut out, 40);
            }
            write_varint(&mut out, 0); // beliefs
            write_varint(&mut out, 0); // acks
            write_varint(&mut out, sent.len() as u64);
            for &p in sent {
                write_varint(&mut out, p);
                write_varint(&mut out, 50);
            }
            put_f64(&mut out, 0.0); // avg_opp
            write_varint(&mut out, 0);
            write_varint(&mut out, opp.len() as u64);
            for &p in opp {
                write_varint(&mut out, p);
                put_f64(&mut out, 2048.0);
                write_varint(&mut out, 60);
            }
        }
        out
    }

    #[test]
    fn last_sent_list_reads_like_the_dense_vector() {
        use rand::Rng;
        const N: usize = 16;
        let mut st = NodeState::new(NodeId(0), N);
        let mut dense = [Time::ZERO; N];
        let mut rng = dtn_stats::stream(5, "last-sent");
        for _ in 0..300 {
            // Watermarks only move forward; a truncated first exchange
            // re-writes `Time::ZERO`, which must not create an entry.
            let p = rng.gen_range(1..N);
            let at = Time(dense[p].0 + rng.gen_range(0u64..3) * 25);
            st.set_last_sent(NodeId(p as u32), at);
            dense[p] = at;
            for (q, &want) in dense.iter().enumerate() {
                assert_eq!(st.last_sent_to(NodeId(q as u32)), want);
            }
            assert!(st.last_sent.windows(2).all(|w| w[0].0 < w[1].0));
            assert!(st.last_sent.iter().all(|e| e.1 != Time::ZERO));
        }
        assert!(st.last_sent.len() > N / 2);
    }

    #[test]
    fn metadata_cap_zero_sends_nothing() {
        let sim = Simulation::new(
            config(3),
            Schedule::new(vec![contact(10, 0, 1, 1 << 20), contact(20, 1, 2, 1 << 20)]),
            Workload::new(vec![spec(0, 0, 2)]),
        );
        let mut rapid = Rapid::new(RapidConfig::avg_delay().with_channel(ChannelMode::InBand {
            cap_fraction: Some(0.0),
        }));
        let r = sim.run(&mut rapid);
        assert_eq!(r.metadata_bytes, 0);
    }

    #[test]
    fn global_channel_requires_flag() {
        let sim = Simulation::new(
            config(2),
            Schedule::new(vec![contact(10, 0, 1, 1 << 20)]),
            Workload::new(vec![spec(0, 0, 1)]),
        );
        let mut rapid =
            Rapid::new(RapidConfig::avg_delay().with_channel(ChannelMode::InstantGlobal));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = sim.run(&mut rapid);
        }));
        assert!(result.is_err(), "must refuse to run without the flag");
    }

    #[test]
    fn global_channel_runs_clean() {
        let cfg = SimConfig {
            allow_global_knowledge: true,
            ..config(3)
        };
        let sim = Simulation::new(
            cfg,
            Schedule::new(vec![
                contact(10, 1, 2, 1 << 20),
                contact(40, 1, 2, 1 << 20),
                contact(70, 0, 1, 1 << 20),
                contact(100, 1, 2, 1 << 20),
            ]),
            Workload::new(vec![spec(50, 0, 2)]),
        );
        let mut rapid =
            Rapid::new(RapidConfig::avg_delay().with_channel(ChannelMode::InstantGlobal));
        let r = sim.run(&mut rapid);
        assert_eq!(r.delivered(), 1);
        assert_eq!(r.metadata_bytes, 0, "global channel is out of band");
    }

    #[test]
    fn deadline_metric_skips_expired_packets() {
        // Packet created at 0 with 10 s lifetime; contact at 100 s with a
        // relay: no replication should happen for the expired packet.
        let sim = Simulation::new(
            config(3),
            Schedule::new(vec![
                contact(90, 1, 2, 1 << 20),
                contact(100, 0, 1, 1 << 20),
            ]),
            Workload::new(vec![spec(0, 0, 2)]),
        );
        let mut rapid = Rapid::new(RapidConfig::deadline(TimeDelta::from_secs(10)));
        let r = sim.run(&mut rapid);
        assert_eq!(r.replications, 0, "expired packet must not replicate");
    }

    #[test]
    fn max_delay_prefers_older_packets() {
        // Two packets to the same destination; tiny opportunity fits one.
        // Max-delay RAPID must replicate the older one.
        let sim = Simulation::new(
            config(3),
            Schedule::new(vec![
                contact(5, 1, 2, 1 << 20),
                contact(35, 1, 2, 1 << 20),
                // Room for one packet plus the metadata that precedes it.
                contact(100, 0, 1, 2047),
                contact(130, 1, 2, 1 << 20),
            ]),
            Workload::new(vec![spec(10, 0, 2), spec(60, 0, 2)]),
        );
        let mut rapid = Rapid::new(RapidConfig::max_delay());
        let r = sim.run(&mut rapid);
        // The replicated (and hence relayed) packet must be the older one.
        let delivered: Vec<_> = r
            .outcomes
            .iter()
            .filter(|o| o.delivered_at.is_some())
            .collect();
        assert_eq!(delivered.len(), 1);
        assert_eq!(delivered[0].created_at, Time::from_secs(10));
    }

    #[test]
    fn eviction_prefers_foreign_packets_over_own() {
        // Node 1 (buffer = 2 packets) holds its own p0 and a replica of p1,
        // both destined to node 3. An incoming replica (p2) must displace
        // the foreign replica p1, never the own packet p0.
        let cfg = SimConfig {
            nodes: 4,
            buffer_capacity: 2048,
            horizon: Time::from_secs(10_000),
            ..SimConfig::default()
        };
        let sim = Simulation::new(
            cfg,
            Schedule::new(vec![
                contact(1, 1, 3, 1 << 20),
                contact(6, 1, 3, 1 << 20),  // node 1 knows it meets 3 often
                contact(20, 0, 1, 1 << 20), // p1 replicated 0→1
                contact(30, 2, 1, 1 << 20), // p2 incoming: must evict p1
                contact(40, 1, 3, 1 << 20), // node 1 delivers what it kept
            ]),
            Workload::new(vec![
                spec(10, 1, 3), // p0: node 1's own
                spec(11, 0, 3), // p1: foreign replica at node 1
                spec(25, 2, 3), // p2: incoming at t=30
            ]),
        );
        let mut rapid = Rapid::new(RapidConfig::avg_delay());
        let r = sim.run(&mut rapid);
        let delivered: Vec<bool> = r
            .outcomes
            .iter()
            .map(|o| o.delivered_at.is_some())
            .collect();
        assert!(delivered[0], "own packet survived eviction and delivered");
        assert!(delivered[2], "incoming replica stored and delivered");
    }

    /// RAPID behind a probe that answers every `make_room` twice: by an
    /// explicit call of the scalar reference first, then by the protocol.
    struct Checked {
        rapid: Rapid,
        /// `(needed, victims)` per storage decision, in call order.
        decisions: Vec<(u64, Vec<PacketId>)>,
        dropped: Vec<PacketId>,
    }

    impl Routing for Checked {
        fn name(&self) -> String {
            self.rapid.name()
        }
        fn on_init(&mut self, config: &SimConfig) {
            self.rapid.on_init(config);
        }
        fn on_contact(&mut self, driver: &mut ContactDriver<'_>) {
            self.rapid.on_contact(driver);
        }
        fn on_creation_dropped(&mut self, packet: &Packet) {
            self.dropped.push(packet.id);
        }
        fn make_room(
            &mut self,
            node: NodeId,
            incoming: &Packet,
            needed: u64,
            buffer: &NodeBuffer,
            packets: &PacketStore,
            now: Time,
        ) -> Vec<PacketId> {
            let rapid = &mut self.rapid;
            let exec = ContactExec {
                cfg: &rapid.cfg,
                n: rapid.states.len(),
                states: StatePair::Full(&mut rapid.states),
                row_warned: &rapid.row_warned,
            };
            let expect = exec.reference_victims(node, incoming, needed, buffer, packets, now);
            let got = rapid.make_room(node, incoming, needed, buffer, packets, now);
            assert_eq!(
                got, expect,
                "storage decision for {} at {node}",
                incoming.id
            );
            self.decisions.push((needed, got.clone()));
            got
        }
    }

    #[test]
    fn same_instant_creation_burst_matches_the_reference_scorer() {
        // Node 0 (room for three 1 KB packets) has met 1 twice and 2 once,
        // and heard 1's row, so its estimates differ per destination: 1 is
        // a direct average, 2 a two-hop one, 3 unreachable. Three packets
        // fill the buffer; at t=100 a burst of four more arrives in one
        // instant — the third too large for the whole buffer, so it drops
        // and leaves the node's state as the second left it.
        let cfg = SimConfig {
            nodes: 4,
            buffer_capacity: 3 * 1024,
            horizon: Time::from_secs(1_000),
            ..SimConfig::default()
        };
        let sized = |t, dst, size_bytes| PacketSpec {
            size_bytes,
            ..spec(t, 0, dst)
        };
        let sim = Simulation::new(
            cfg,
            Schedule::new(vec![
                contact(5, 1, 2, 1 << 20),
                contact(25, 1, 2, 1 << 20),
                contact(30, 0, 1, 0),
                contact(60, 0, 1, 0),
                contact(70, 0, 2, 0),
            ]),
            Workload::new(vec![
                spec(80, 0, 1),
                spec(85, 0, 3),
                spec(90, 0, 2),
                spec(100, 0, 2),
                spec(100, 0, 1),
                sized(100, 3, 4 * 1024),
                spec(100, 0, 3),
            ]),
        );
        let mut probe = Checked {
            rapid: Rapid::new(RapidConfig::avg_delay()),
            decisions: Vec::new(),
            dropped: Vec::new(),
        };
        sim.run(&mut probe);
        assert_eq!(probe.dropped, [PacketId(5)], "the oversized creation");
        let needed: Vec<u64> = probe.decisions.iter().map(|d| d.0).collect();
        assert_eq!(needed, [1024, 1024, 4096, 1024]);
        let victims: Vec<usize> = probe.decisions.iter().map(|d| d.1.len()).collect();
        assert_eq!(
            victims,
            [1, 1, 0, 1],
            "one eviction each, none for the drop"
        );
        // The unreachable destination's packet is the least useful replica.
        assert_eq!(probe.decisions[0].1, [PacketId(1)]);
    }

    #[test]
    fn name_reflects_configuration() {
        assert_eq!(
            Rapid::new(RapidConfig::avg_delay()).name(),
            "RAPID(avg-delay,in-band)"
        );
        assert_eq!(
            Rapid::new(RapidConfig::max_delay().with_channel(ChannelMode::LocalOnly)).name(),
            "RAPID(max-delay,local)"
        );
        assert_eq!(
            Rapid::new(
                RapidConfig::deadline(TimeDelta::from_secs(20))
                    .with_channel(ChannelMode::InstantGlobal)
            )
            .name(),
            "RAPID(deadline,global)"
        );
    }

    #[test]
    fn comparator_orders_ascending_value_then_id() {
        use std::cmp::Ordering;
        let c = |a: (f64, u32), b: (f64, u32)| {
            cmp_utility_then_id((a.0, PacketId(a.1)), (b.0, PacketId(b.1)))
        };
        // Primary: ascending value.
        assert_eq!(c((1.0, 9), (2.0, 1)), Ordering::Less);
        assert_eq!(c((2.0, 1), (1.0, 9)), Ordering::Greater);
        // Tie-break: equal values order by ascending id.
        assert_eq!(c((5.0, 3), (5.0, 7)), Ordering::Less);
        assert_eq!(c((5.0, 7), (5.0, 3)), Ordering::Greater);
        assert_eq!(c((5.0, 4), (5.0, 4)), Ordering::Equal);
        // Signed zero compares equal: the id still decides.
        assert_eq!(c((0.0, 2), (-0.0, 1)), Ordering::Greater);
        // Infinities participate in the primary order.
        assert_eq!(c((f64::NEG_INFINITY, 9), (0.0, 0)), Ordering::Less);
        assert_eq!(c((f64::INFINITY, 0), (0.0, 9)), Ordering::Greater);
        // NaN is treated as equal-valued: the id tie-break keeps the
        // order total and deterministic.
        assert_eq!(c((f64::NAN, 1), (3.0, 2)), Ordering::Less);
        assert_eq!(c((3.0, 2), (f64::NAN, 1)), Ordering::Greater);
    }

    #[test]
    fn comparator_derivations_match_their_direction() {
        // The descending-score order used by `sort_candidates` is the same
        // comparator on negated keys: descending score, id still ascending.
        let mut scored = [(1.0f64, 7u32), (2.0, 5), (2.0, 3), (0.5, 1)];
        scored.sort_unstable_by(|a, b| {
            cmp_utility_then_id((-a.0, PacketId(a.1)), (-b.0, PacketId(b.1)))
        });
        assert_eq!(scored, [(2.0, 3), (2.0, 5), (1.0, 7), (0.5, 1)]);
        // The reversed call used by the in-contact eviction queue sorts
        // descending so popping from the back yields ascending (utility,
        // id).
        let mut pops = [(1.0f64, 2u32), (1.0, 4), (3.0, 1)];
        pops.sort_unstable_by(|a, b| {
            cmp_utility_then_id((b.0, PacketId(b.1)), (a.0, PacketId(a.1)))
        });
        assert_eq!(pops, [(3.0, 1), (1.0, 4), (1.0, 2)]);
    }

    #[test]
    fn deterministic_runs() {
        let mobility = dtn_mobility::UniformExponential {
            nodes: 8,
            mean_inter_meeting: TimeDelta::from_secs(60),
            opportunity_bytes: 8 * 1024,
        };
        let build = || {
            let mut rng = dtn_stats::stream(11, "rapid-det");
            let sched = mobility.generate(Time::from_secs(900), &mut rng);
            let wl = dtn_sim::workload::pairwise_poisson(
                &(0..8).map(NodeId).collect::<Vec<_>>(),
                TimeDelta::from_secs(120),
                1024,
                Time::from_secs(900),
                &mut rng,
            );
            let cfg = SimConfig {
                nodes: 8,
                horizon: Time::from_secs(900),
                ..SimConfig::default()
            };
            Simulation::new(cfg, sched, wl)
        };
        let r1 = build().run(&mut Rapid::new(RapidConfig::avg_delay()));
        let r2 = build().run(&mut Rapid::new(RapidConfig::avg_delay()));
        assert_eq!(r1, r2);
    }
}
