//! Protocol RAPID (§3.4) — the selection algorithm over the inference
//! machinery, wired to the simulator's [`Routing`] interface.
//!
//! At every transfer opportunity between `X` and `Y`
//! (`ContactExec::contact`):
//!
//! 1. **Initialization** (`exchange`): metadata exchange over the in-band
//!    channel (§4.2), then purge of packets known to be delivered.
//! 2. **Direct delivery** (`select`): packets destined to the peer, in
//!    decreasing utility order.
//! 3. **Replication** (`select`): every other buffered packet, in
//!    decreasing marginal utility per byte `δU_i / s_i` (Eqs. 1–3 over
//!    Estimate Delay) until the opportunity is exhausted; a full receiver
//!    drops its lowest-utility packets first, never its own
//!    unacknowledged ones (`storage`, §3.4).
//! 4. **Termination**: implicit — the engine bounds each direction by the
//!    opportunity size.
//!
//! | module | paper | contents |
//! |--------|-------|----------|
//! | `state` | §4.1.2, §4.2 | per-node beliefs, the state lease, `RSNP1` save/load |
//! | `exchange` | §4.2 | the control channel: exchange, purge, table bound |
//! | `opp` | §4.2 | believed opportunity averages in two columns, and their budgeted merge |
//! | `select` | §3.3, Eqs. 1–3 | delivery and replication order, `marginal_utility` |
//! | `storage` | §3.4 | eviction order, `utility_from_rate`, the scalar reference |
//! | this one | §3.4 | [`Rapid`], its [`Routing`] hooks, the contact's four steps |
//!
//! The two scorers named above are free functions of the metric, rates,
//! age and size — no engine type in the signature.
//!
//! # Execution model
//!
//! All contact-time work runs through `ContactExec` over a `StatePair`
//! lease: exactly the contact's two endpoint states, or one node's state
//! for a storage decision; touching any other node's state panics — the
//! property behind RAPID's [`ContactConcurrency::NodeDisjoint`]
//! declaration. The [`Routing`] hooks that build a lease are written once,
//! on `RapidShardView`, a run of nodes: the sharded runtime hands each
//! shard a view over its [`Partition::split_mut`] range, and serial
//! execution runs through the same view over `0..n`. Every lease is a
//! borrow the compiler checks. The one exception is the
//! `InstantGlobal` oracle, which reads arbitrary nodes: it leases the full
//! slice and declares itself [`ContactConcurrency::Serial`].
//!
//! The steady-state contact is allocation-free: queue snapshots, h-hop
//! estimate vectors, candidate lists and exchange listings all live in a
//! reusable `ContactScratch` (one per shard under sharded execution),
//! and contacts where both endpoints' buffers are empty skip the
//! snapshot/estimate setup entirely.

mod exchange;
mod opp;
mod select;
mod state;
mod storage;

use crate::config::{ChannelMode, RapidConfig, RoutingMetric};
use crate::estimate::{Kernel, QueueSnapshot};
use crate::meetings::{relax_rows_into, HopEstimates};
use dtn_sim::{
    ContactConcurrency, ContactDriver, ContactPool, NodeBuffer, NodeId, Packet, PacketId,
    PacketStore, Partition, Routing, SimConfig, Time,
};
use exchange::ExchangeScratch;
use select::SelectScratch;
use state::{NodeState, StatePair};
use std::sync::atomic::AtomicBool;
use storage::RoomRequest;

/// The RAPID routing protocol.
pub struct Rapid {
    cfg: RapidConfig,
    states: Vec<NodeState>,
    /// Kernel for every batched Eq. 4–9 rate evaluation and for the §4.2
    /// opportunity-average merge (the `RAPID_KERNEL` knob; every kernel is
    /// bitwise-identical, see `estimate.rs` and `opp.rs`), handed to each
    /// call that runs one. Vetted by [`Kernel::assert_supported`] in
    /// [`Rapid::with_kernel`], and again by each AVX2 arm.
    kernel: Kernel,
    /// Reusable contact scratch; `[0]` serves serial execution. The vector
    /// grows to one slot per shard of a sharded epoch.
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
    /// Per endpoint `[a, b]`: contact-start queue snapshot, own h-hop
    /// estimates (`est_own[0]` also serves creation-time `make_room`), and
    /// the peer's position valued through this endpoint's learned rows.
    snap: [QueueSnapshot; 2],
    est_own: [HopEstimates; 2],
    est_peer: [HopEstimates; 2],
    exchange: ExchangeScratch,
    select: SelectScratch,
}

/// One direction of a contact as Steps 2–3 see it: `x` sends, `y`
/// receives. Everything is contact-start state — scoring reads it even as
/// transfers mutate the buffers mid-contact.
struct Side<'c> {
    x: NodeId,
    y: NodeId,
    /// `x`'s h-hop estimates.
    est_x: &'c [f64],
    /// `y`'s position as `x` values it, through `x`'s learned rows.
    est_y: &'c [f64],
    /// `y`'s own estimates (its eviction order when `x`'s replica needs
    /// space).
    est_y_own: &'c [f64],
    snap_x: &'c QueueSnapshot,
    snap_y: &'c QueueSnapshot,
    now: Time,
}

/// One execution's context: configuration plus the states it may touch.
/// Every exchange/selection/storage routine is a method of it, so the
/// serial and sharded paths share one implementation.
struct ContactExec<'a> {
    cfg: &'a RapidConfig,
    n: usize,
    states: StatePair<'a>,
    /// [`Rapid::kernel`].
    kernel: Kernel,
    /// [`Rapid::row_warned`].
    row_warned: &'a AtomicBool,
}

impl<'a> ContactExec<'a> {
    fn new(
        cfg: &'a RapidConfig,
        n: usize,
        states: StatePair<'a>,
        kernel: Kernel,
        row_warned: &'a AtomicBool,
    ) -> Self {
        Self {
            cfg,
            n,
            states,
            kernel,
            row_warned,
        }
    }

    fn is_global(&self) -> bool {
        matches!(self.cfg.channel, ChannelMode::InstantGlobal)
    }

    /// Applies the delay-estimate ceiling: replicas that cannot deliver
    /// within the cap are equivalent to the cap (see
    /// [`RapidConfig::delay_cap_secs`]).
    fn cap(&self, a: f64) -> f64 {
        a.min(self.cfg.delay_cap_secs)
    }

    /// Average transfer-opportunity size of `node` as `believer` believes
    /// it, bytes. (The instant global channel asks `node` itself.)
    fn opp_bytes(&self, believer: NodeId, node: NodeId) -> f64 {
        let (v, stamp) = self.states.state(believer).believed_opp.get(node.index());
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

    /// One full contact. `scratch` is this execution's reusable storage;
    /// under sharded execution each shard brings its own.
    fn contact(&mut self, driver: &mut ContactDriver<'_>, scratch: &mut ContactScratch) {
        let (a, b) = driver.endpoints();
        let now = driver.now();
        let full_opp = driver.remaining_bytes(a);
        for (x, y) in [(a, b), (b, a)] {
            self.states.state_mut(x).record_meeting(y, now, full_opp);
        }

        // Step 1 — initialization: metadata exchange, then purge.
        for (x, y) in [(a, b), (b, a)] {
            self.exchange_metadata(driver, x, y, full_opp, &mut scratch.exchange);
        }
        for x in [a, b] {
            self.purge_delivered(driver, x, &mut scratch.exchange);
        }

        // With both buffers empty there is nothing to deliver, replicate,
        // score or snapshot: skip the estimate and snapshot setup.
        if !(driver.buffer(a).is_empty() && driver.buffer(b).is_empty()) {
            let ContactScratch {
                snap,
                est_own,
                est_peer,
                select,
                ..
            } = scratch;
            let ends = [a, b];
            for i in 0..2 {
                self.fill_est(ends[i], ends[i], &mut est_own[i]);
                self.fill_est(ends[i], ends[1 - i], &mut est_peer[i]);
                snap[i].refill_from_buffer(driver.buffer(ends[i]));
            }
            let sides = [0, 1].map(|i| Side {
                x: ends[i],
                y: ends[1 - i],
                est_x: &est_own[i],
                est_y: &est_peer[i],
                est_y_own: &est_own[1 - i],
                snap_x: &snap[i],
                snap_y: &snap[1 - i],
                now,
            });

            // Step 2 — direct delivery, both sides.
            for side in &sides {
                self.direct_delivery(driver, side, select);
            }
            // Step 3 — replication, both sides.
            select.stored.clear();
            for side in &sides {
                self.replicate_side(driver, side, select);
            }
        }

        // Step 4 — termination is the engine's; bound the control state.
        self.bound_meta(driver, a, b);
    }
}

/// A lease over a contiguous run of RAPID node states, with the
/// [`Routing`] hooks that need one written once: a shard's partition
/// range during a sharded epoch ([`Rapid::on_shard_epoch`]), or the whole
/// fleet (`base` 0) for serial execution. Hooks arrive with *global* node
/// ids; a message addressing a node outside the run is a panic rather
/// than a data race.
///
/// Cross-endpoint effects need no special handling: an intra-shard
/// contact owns both endpoint states ([`StatePair::Pair`]), and
/// cross-shard contacts are barriers that run on the coordinator
/// instance's whole-fleet view — the in-band metadata rows those contacts
/// exchange flow through the same path.
struct RapidShardView<'a> {
    cfg: &'a RapidConfig,
    /// Total node count (estimate vectors are world-sized even though the
    /// lease is not).
    n: usize,
    /// First node id of the run; local index = `id - base`.
    base: usize,
    states: &'a mut [NodeState],
    scratch: &'a mut ContactScratch,
    kernel: Kernel,
    row_warned: &'a AtomicBool,
}

impl RapidShardView<'_> {
    /// Leases `x`'s state — and `y`'s, for a contact — to one execution.
    /// Only the `InstantGlobal` oracle gets more: the full slice.
    fn exec(&mut self, x: NodeId, y: Option<NodeId>) -> (ContactExec<'_>, &mut ContactScratch) {
        let states = match y {
            _ if self.cfg.channel == ChannelMode::InstantGlobal => StatePair::Full(self.states),
            Some(y) => StatePair::pair_in(self.base, self.states, x, y),
            None => StatePair::solo_in(self.base, self.states, x),
        };
        let exec = ContactExec::new(self.cfg, self.n, states, self.kernel, self.row_warned);
        (exec, self.scratch)
    }
}

impl Routing for RapidShardView<'_> {
    fn name(&self) -> String {
        "RAPID(shard-view)".into()
    }

    fn on_contact(&mut self, driver: &mut ContactDriver<'_>) {
        let (a, b) = driver.endpoints();
        let (mut exec, scratch) = self.exec(a, Some(b));
        exec.contact(driver, scratch);
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
        let req = RoomRequest {
            node,
            incoming,
            needed,
            buffer,
            packets,
            now,
        };
        let (mut exec, scratch) = self.exec(node, None);
        exec.make_room(&req, scratch)
    }
}

impl Rapid {
    /// Creates a RAPID instance with the given configuration, evaluating
    /// rate rows with the `RAPID_KERNEL` kernel (default: best detected).
    pub fn new(cfg: RapidConfig) -> Self {
        Self::with_kernel(cfg, Kernel::from_env())
    }

    /// Creates a RAPID instance pinned to a specific kernel (kernels are
    /// bitwise-interchangeable; this exists for equivalence tests and
    /// benchmarks).
    ///
    /// # Panics
    /// If the CPU cannot execute `kernel` (`diag=kernel-unsupported`), or
    /// if `cfg.delay_cap_secs` is not positive (`diag=delay-cap-invalid`;
    /// the field is public, so [`RapidConfig::with_delay_cap`]'s check can
    /// be bypassed).
    pub fn with_kernel(cfg: RapidConfig, kernel: Kernel) -> Self {
        let kernel = kernel.assert_supported();
        crate::estimate::assert_cap(cfg.delay_cap_secs);
        Self {
            cfg,
            states: Vec::new(),
            kernel,
            scratch: vec![ContactScratch::default()],
            row_warned: AtomicBool::new(false),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &RapidConfig {
        &self.cfg
    }

    /// The Eq. 4–9 and §4.2 merge kernel in use.
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }

    fn is_global(&self) -> bool {
        matches!(self.cfg.channel, ChannelMode::InstantGlobal)
    }

    /// The view serial execution runs through: the whole fleet as one run.
    fn serial_view(&mut self) -> RapidShardView<'_> {
        RapidShardView {
            cfg: &self.cfg,
            n: self.states.len(),
            base: 0,
            states: &mut self.states,
            scratch: &mut self.scratch[0],
            kernel: self.kernel,
            row_warned: &self.row_warned,
        }
    }
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
            !self.is_global() || config.allow_global_knowledge,
            "InstantGlobal RAPID requires SimConfig::allow_global_knowledge"
        );
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
        self.serial_view()
            .make_room(node, incoming, needed, buffer, packets, now)
    }

    fn on_contact(&mut self, driver: &mut ContactDriver<'_>) {
        self.serial_view().on_contact(driver);
    }

    fn contact_concurrency(&self) -> ContactConcurrency {
        // Non-global contacts run on the two-endpoint lease (see
        // `StatePair::Pair`), so node-disjoint contacts commute; the
        // global channel reads arbitrary nodes' states and stays serial.
        if self.is_global() {
            ContactConcurrency::Serial
        } else {
            ContactConcurrency::NodeDisjoint
        }
    }

    fn on_shard_epoch(
        &mut self,
        partition: &Partition,
        pool: &ContactPool,
        drain: &(dyn Fn(usize, &mut dyn Routing) + Sync),
    ) -> bool {
        debug_assert!(!self.is_global(), "global channel declared Serial");
        if self.scratch.len() < partition.shards() {
            self.scratch
                .resize_with(partition.shards(), ContactScratch::default);
        }
        let n = self.states.len();
        let (cfg, kernel, row_warned) = (&self.cfg, self.kernel, &self.row_warned);
        // Shard `s` gets its partition range of the states (a message for
        // a node outside it panics in `RapidShardView`) and scratch slot `s`.
        let mut shards: Vec<_> = partition
            .split_mut(&mut self.states)
            .zip(&mut self.scratch)
            .enumerate()
            .collect();
        pool.run_each(&mut shards, &|_worker, (s, (states, scratch))| {
            let mut view = RapidShardView {
                cfg,
                n,
                base: partition.range(*s).start,
                states,
                scratch,
                kernel,
                row_warned,
            };
            drain(*s, &mut view);
        });
        true
    }

    fn save_state(&self) -> Option<Vec<u8>> {
        Some(state::encode_states(&self.states))
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.states = state::decode_states(bytes, self.states.len())?;
        Ok(())
    }
}

#[cfg(test)]
mod tests;
