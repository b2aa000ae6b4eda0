//! The one event-merge scan behind both runtimes.
//!
//! `scan` owns everything the runtimes share: the three-way merge of the
//! event queue (churn, window closes, TTL expiries) against the two
//! pull-based sources on the `(time, rank)` key of the tie-break table
//! ([`crate::event`]), the source pulls and their asserts, node
//! availability and the open-window set, noise draws, contact sequence
//! numbers, TTL scheduling, resume, quiescent-point snapshot capture, the
//! report counters and the fault hooks. What differs between the two
//! runtimes — *who executes a drive and when its effects commit* — sits
//! behind the `Executor` trait:
//!
//! * `Immediate`: every action executes at once against the full world.
//!   The serial engine, and the coordinator inside the sharded runtime.
//! * `shard::Partitioned` (`run_sharded*`): actions whose nodes lie in one
//!   shard queue to it and free-run until the next cross-shard action
//!   ([`crate::shard`]).
//!
//! Because the scan is shared, the serial-order facts — which windows are
//! suppressed or fail, each drive's budget and sequence number, which
//! expiries are scheduled — are identical under every executor by
//! construction, and so is every [`Snapshot`].
//!
//! Everything here is crate-internal; the public entry points are
//! [`crate::engine::run_streaming`] and [`crate::shard::run_sharded`].

use crate::checkpoint::{config_digest, Counters, OpenSnap, RoutingState, RunHooks, Snapshot};
use crate::contact::ContactWindow;
use crate::driver::{ContactDriver, DeliveredAt, HolderOp, WorldMut};
use crate::event::{EventQueue, NodeEvent, SimEvent, WindowIdx};
use crate::ids::IndexSet;
use crate::noise::NoiseModel;
use crate::report::SimReport;
use crate::routing::{PacketStore, Routing, SimConfig};
use crate::source::{ContactSource, WorkloadSource};
use crate::time::{Time, TimeDelta};
use crate::types::{NodeId, Packet, PacketId};
use crate::NodeBuffer;
use dtn_stats::sample::Exponential;
use dtn_stats::stream;
use rand::Rng;
use std::sync::atomic::{AtomicBool, Ordering};

/// One contact drive as the scan hands it to an executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PendingDrive {
    /// The window being driven.
    pub window: ContactWindow,
    /// The drive instant (window close, or start for instantaneous).
    pub now: Time,
    /// Per-direction byte budget.
    pub budget: u64,
    /// Contact sequence number in serial scan order (drives the
    /// per-contact RNG substreams of randomized protocols).
    pub seq: u64,
    /// Whether this contact falls in the measured span.
    pub measured: bool,
}

/// The world state of a run, grouped so executors can borrow it whole.
/// The sharded executor splits `buffers` into `&mut` leases and shares the
/// two per-packet columns by `&` — their slots are relaxed atomics, so no
/// split needs them (see [`crate::shard`]).
pub(crate) struct World {
    pub buffers: Vec<NodeBuffer>,
    pub store: PacketStore,
    pub delivered_at: DeliveredAt,
    /// Per-packet replica holder sets (ascending-order bitsets — O(1)
    /// insert/remove keeps fleet-wide replica spread off the hot path).
    pub holders: Vec<IndexSet>,
    /// Whether each packet entered the network (its source stored it).
    pub entered: Vec<AtomicBool>,
}

/// What the scan lends every [`Executor`] call: the configuration, the
/// world, and the report counters accumulated so far.
pub(crate) struct Run<'a> {
    pub config: &'a SimConfig,
    pub world: World,
    pub counters: Counters,
}

/// Who executes each ordered action of the [`scan`], and when its effects
/// commit. Calls arrive in the total `(time, rank, seq)` order. An
/// executor may defer an action as long as every later action that reads
/// what the deferred one writes still sees the serial result, and
/// [`Executor::quiesce`] leaves the exact serial-order prefix behind.
pub(crate) trait Executor {
    /// The instance holding the run's protocol state: saved into
    /// snapshots, restored on resume.
    fn routing(&mut self) -> &mut dyn Routing;

    /// Drives one contact; `interrupted` when churn cut the window short.
    fn drive(&mut self, run: &mut Run<'_>, drive: PendingDrive, interrupted: bool);

    /// The source-buffer side of creating packet `id`, which the scan has
    /// already appended to the arena with `entered = false`. `src_up` is
    /// the scan's availability verdict at creation time.
    fn create(&mut self, run: &mut Run<'_>, id: PacketId, src_up: bool);

    /// Lifecycle hook: `node` came up (availability is already updated).
    fn node_up(&mut self, run: &mut Run<'_>, node: NodeId, now: Time);

    /// Lifecycle hook: `node` went down (its open windows have already
    /// been interrupted and driven).
    fn node_down(&mut self, run: &mut Run<'_>, node: NodeId, now: Time);

    /// TTL expiry of `id`. Reads and writes arbitrary holders and
    /// buffers, so every executor treats it as a barrier.
    fn expire(&mut self, run: &mut Run<'_>, id: PacketId);

    /// Commits everything deferred. Called before a snapshot and at end
    /// of run; calling it early is byte-identical (see [`crate::shard`]).
    fn quiesce(&mut self, run: &mut Run<'_>);
}

/// Executes every action at once against the full world.
pub(crate) struct Immediate<'a> {
    pub routing: &'a mut dyn Routing,
}

impl Executor for Immediate<'_> {
    fn routing(&mut self) -> &mut dyn Routing {
        self.routing
    }

    /// Hands one driven contact to the protocol and accounts its ledger.
    fn drive(&mut self, run: &mut Run<'_>, drive: PendingDrive, interrupted: bool) {
        let w = &drive.window;
        let mut driver = ContactDriver::new(
            WorldMut::Full {
                packets: &run.world.store,
                buffers: &mut run.world.buffers,
                delivered_at: &run.world.delivered_at,
                holders: &mut run.world.holders,
            },
            drive.now,
            w.a,
            w.b,
            drive.budget,
            run.config.allow_global_knowledge,
            drive.seq,
        );
        self.routing.on_contact(&mut driver);
        run.counters.add_drive(&drive, driver.ledger());
        self.routing
            .on_contact_end(w.a, w.b, drive.now, interrupted);
    }

    fn create(&mut self, run: &mut Run<'_>, id: PacketId, src_up: bool) {
        let World {
            buffers,
            store,
            holders,
            entered,
            ..
        } = &mut run.world;
        let packet = store.get(id);
        let buf = &mut buffers[packet.src.index()];
        if create_at_source(self.routing, &packet, src_up, buf, store, |op| {
            op.apply(holders)
        }) {
            entered[id.index()].store(true, Ordering::Relaxed);
        }
    }

    fn node_up(&mut self, _run: &mut Run<'_>, node: NodeId, now: Time) {
        self.routing.on_node_up(node, now);
    }

    fn node_down(&mut self, _run: &mut Run<'_>, node: NodeId, now: Time) {
        self.routing.on_node_down(node, now);
    }

    fn expire(&mut self, run: &mut Run<'_>, id: PacketId) {
        let world = &mut run.world;
        // Skip packets that were delivered first, and packets that never
        // entered the network: they carry no replicas, and their expiry
        // was scheduled before the creation verdict was known (see the
        // scheduling rule in `scan`).
        if !world.entered[id.index()].load(Ordering::Relaxed)
            || world.delivered_at.get(id).is_some()
        {
            return;
        }
        let holders = std::mem::take(&mut world.holders[id.index()]);
        for h in holders.iter() {
            world.buffers[h].remove(id);
        }
        run.counters.expired += 1;
        self.routing.on_packet_expired(&world.store.get(id));
    }

    fn quiesce(&mut self, _run: &mut Run<'_>) {}
}

/// The source-buffer side of a packet creation, shared by every executor:
/// a full buffer asks the protocol to make room, and the protocol hears
/// the verdict. Holder-set changes go through `holder_op` — applied in
/// place by [`Immediate`], logged for the epoch commit by a shard.
/// Returns whether the packet entered the network.
pub(crate) fn create_at_source(
    routing: &mut dyn Routing,
    packet: &Packet,
    src_up: bool,
    buf: &mut NodeBuffer,
    store: &PacketStore,
    mut holder_op: impl FnMut(HolderOp),
) -> bool {
    let src = packet.src;
    if !src_up {
        // A down node cannot originate traffic.
        routing.on_creation_dropped(packet);
        return false;
    }
    if buf.free_bytes() < packet.size_bytes {
        let needed = packet.size_bytes - buf.free_bytes();
        for v in routing.make_room(src, packet, needed, buf, store, packet.created_at) {
            if buf.remove(v) {
                holder_op(HolderOp {
                    id: v,
                    node: src,
                    added: false,
                });
            }
        }
    }
    if buf.insert(packet, packet.created_at) {
        holder_op(HolderOp {
            id: packet.id,
            node: src,
            added: true,
        });
        routing.on_packet_created(packet);
        true
    } else {
        routing.on_creation_dropped(packet);
        false
    }
}

/// The entered flags in packet order.
fn flags(entered: &[AtomicBool]) -> impl Iterator<Item = bool> + '_ {
    entered.iter().map(|e| e.load(Ordering::Relaxed))
}

/// The instant a packet created at `created` expires, or
/// [`PacketStore::NO_TTL`] on runs without a TTL. Checked: a sum that
/// wraps would schedule an expiry in the past, and one that lands exactly
/// on `u64::MAX` would alias the no-TTL sentinel.
fn ttl_deadline(created: Time, ttl: Option<TimeDelta>) -> Time {
    let Some(ttl) = ttl else {
        return PacketStore::NO_TTL;
    };
    match created.0.checked_add(ttl.0).map(Time) {
        Some(deadline) if deadline != PacketStore::NO_TTL => deadline,
        _ => panic!(
            "packet TTL deadline overflows simulated time \
             [diag=ttl-overflow time_us={} ttl_us={}]",
            created.0, ttl.0
        ),
    }
}

/// Closes an open window at `now`: the drive carries the capacity accrued
/// so far (less setup loss) and the next contact sequence number.
fn close_window(
    ow: OpenSnap,
    now: Time,
    contact_seq: &mut u64,
    config: &SimConfig,
) -> PendingDrive {
    let seq = *contact_seq;
    *contact_seq += 1;
    PendingDrive {
        window: ow.window,
        now,
        budget: ow.window.capacity_until(now).saturating_sub(ow.loss),
        seq,
        // Classified by window *start* (the seed engine's contact-time
        // convention): a warm-up window that spans `measure_from` stays
        // unmeasured even though it is driven inside the measured span.
        measured: ow.window.start >= config.measure_from,
    }
}

/// Executes one run by *pulling* contact windows and packet creations from
/// streaming sources and handing each ordered action to `exec`.
///
/// The drain order is identical to seeding an [`EventQueue`] with the full
/// schedule and workload: the queue and the two sources are merged on the
/// `(time, rank)` key of the event tie-break table, and ranks are disjoint
/// across the merged streams — contact starts and creations only ever
/// come from the sources, the other kinds only from the queue. Within a
/// stream, pull order preserves the FIFO tie-break the seed engine's
/// stable sorts guaranteed. The sources must yield nondecreasing times and
/// in-range node ids (asserted as items are pulled).
///
/// Events scheduled past `config.horizon` still execute (the seed engine
/// processed every contact it was given); generators are expected to clamp
/// at the horizon.
pub(crate) fn scan<E: Executor>(
    config: &SimConfig,
    contacts: &mut dyn ContactSource,
    workload: &mut dyn WorkloadSource,
    churn: &[NodeEvent],
    noise: Option<NoiseModel>,
    mut hooks: RunHooks<'_>,
    exec: &mut E,
) -> SimReport {
    let n = config.nodes;
    let mut run = Run {
        config,
        world: World {
            buffers: (0..n)
                .map(|_| NodeBuffer::new(config.buffer_capacity))
                .collect(),
            store: PacketStore::default(),
            delivered_at: DeliveredAt::default(),
            holders: Vec::new(),
            entered: Vec::new(),
        },
        counters: Counters::default(),
    };
    let mut noise_rng = stream(config.seed, "sim-noise");

    // Only churn is seeded; window closes and TTL expiries are scheduled
    // as their windows open / packets are created. On a resume the
    // snapshot's queue already holds the remaining churn events, so churn
    // is *not* re-seeded.
    let mut queue = EventQueue::new();
    if hooks.resume.is_none() {
        for ev in churn {
            assert!(ev.node.index() < n, "churn references node outside 0..{n}");
            let event = if ev.up {
                SimEvent::NodeUp(ev.node)
            } else {
                SimEvent::NodeDown(ev.node)
            };
            queue.push(ev.time, event);
        }
    }

    let mut up = vec![true; n];
    // Durative windows currently open, with their setup loss, in
    // ascending window-index order (windows open in pull order).
    let mut open: Vec<OpenSnap> = Vec::new();

    let pull_window = |contacts: &mut dyn ContactSource, last_start: &mut Time| {
        let w = contacts.next_window()?;
        assert!(
            w.a.index() < n && w.b.index() < n,
            "contact references node outside 0..{n}"
        );
        assert!(
            w.start >= *last_start,
            "contact source must yield nondecreasing start times"
        );
        *last_start = w.start;
        Some(w)
    };
    let pull_packet = |workload: &mut dyn WorkloadSource, last_time: &mut Time| {
        let s = workload.next_packet()?;
        assert!(
            s.src.index() < n && s.dst.index() < n,
            "packet references node outside 0..{n}"
        );
        assert!(
            s.time >= *last_time,
            "workload source must yield nondecreasing creation times"
        );
        *last_time = s.time;
        Some(s)
    };

    let mut last_window_start = Time::ZERO;
    let mut last_packet_time = Time::ZERO;
    let mut next_window_idx: WindowIdx = 0;
    // Assigned in scan = serial drive order; also what randomized
    // protocols derive their per-contact RNG substreams from.
    let mut contact_seq: u64 = 0;
    let (mut next_window, mut next_packet);

    if let Some(snap) = hooks.resume.take() {
        assert_eq!(
            snap.config_digest,
            config_digest(config),
            "snapshot was taken under a different scenario configuration \
             [diag=resume-config-mismatch]"
        );
        // World state, verbatim from the snapshot.
        run.world.store = snap.restore_store();
        let (buffers, holders) = snap.restore_buffers(config.buffer_capacity, &run.world.store);
        run.world.buffers = buffers;
        run.world.holders = holders;
        run.world.delivered_at = DeliveredAt::from_slots(&snap.delivered_at);
        run.world.entered = snap.entered.iter().map(|&e| AtomicBool::new(e)).collect();
        queue = snap.restore_queue();
        assert_eq!(snap.up.len(), n, "snapshot node count mismatch");
        up = snap.up.clone();
        open = snap.open.clone();
        noise_rng = rand::rngs::StdRng::from_state(snap.noise_rng);
        contact_seq = snap.contact_seq;
        run.counters = snap.counters;

        // Sources are replayed by count from the beginning (they are
        // deterministic), then the lookahead item each source had already
        // yielded is re-pulled and checked against the snapshot — a full
        // integrity check that the scenario inputs are the ones the
        // snapshot was taken from.
        for _ in 0..snap.windows_consumed {
            pull_window(contacts, &mut last_window_start)
                .expect("contact source ended before the snapshot's position");
        }
        next_window_idx = snap.windows_consumed as WindowIdx;
        next_window = pull_window(contacts, &mut last_window_start);
        assert_eq!(
            next_window, snap.next_window,
            "contact source diverged from the snapshot [diag=resume-source-mismatch]"
        );
        for _ in 0..snap.packets.len() {
            pull_packet(workload, &mut last_packet_time)
                .expect("workload source ended before the snapshot's position");
        }
        next_packet = pull_packet(workload, &mut last_packet_time);
        assert_eq!(
            next_packet, snap.next_packet,
            "workload source diverged from the snapshot [diag=resume-source-mismatch]"
        );

        // Protocol state. A snapshot without the section restores as empty
        // state, which a protocol that keeps beliefs rejects.
        let routing = exec.routing();
        if let Some(rs) = &snap.routing {
            assert_eq!(
                rs.name,
                routing.name(),
                "snapshot holds {} state but the run uses {} [diag=resume-proto-mismatch]",
                rs.name,
                routing.name()
            );
        }
        routing
            .load_state(snap.routing.as_ref().map_or(&[], |rs| &rs.bytes))
            .unwrap_or_else(|e| panic!("protocol state restore failed: {e}"));

        if let Some(faults) = hooks.faults.as_deref_mut() {
            faults.ack_crashes_before(snap.now);
        }
        if let Some(ckpt) = hooks.checkpoint.as_deref_mut() {
            ckpt.align(snap.now);
        }
    } else {
        next_window = pull_window(contacts, &mut last_window_start);
        next_packet = pull_packet(workload, &mut last_packet_time);
    }

    const START_RANK: u8 = 3; // SimEvent::ContactStart
    const CREATED_RANK: u8 = 4; // SimEvent::PacketCreated

    loop {
        // Three candidates for the earliest event; their (time, rank) keys
        // never collide across streams because the ranks are disjoint.
        let queue_key = queue.peek_key();
        let window_key = next_window.as_ref().map(|w| (w.start, START_RANK));
        let packet_key = next_packet.as_ref().map(|s| (s.time, CREATED_RANK));
        let best = [queue_key, window_key, packet_key]
            .into_iter()
            .flatten()
            .min();
        let Some(best) = best else { break };

        if let Some(faults) = hooks.faults.as_deref_mut() {
            faults.trip_crash(best.0);
        }
        if hooks.checkpoint.as_ref().is_some_and(|c| c.due(best.0)) {
            // The snapshot must be the full serial-order prefix: commit
            // whatever the executor still holds back first.
            exec.quiesce(&mut run);
            let routing = exec.routing();
            let snap = Snapshot {
                config_digest: config_digest(config),
                now: best.0,
                windows_consumed: next_window_idx as u64,
                contact_seq,
                next_window,
                next_packet,
                noise_rng: noise_rng.state(),
                events: queue.snapshot_events(),
                packets: Snapshot::capture_store(&run.world.store),
                delivered_at: run.world.delivered_at.slots().collect(),
                entered: flags(&run.world.entered).collect(),
                buffers: Snapshot::capture_buffers(&run.world.buffers),
                up: up.clone(),
                open: open.clone(),
                counters: run.counters,
                routing: routing.save_state().map(|bytes| RoutingState {
                    name: routing.name(),
                    bytes,
                }),
            };
            let ckpt = hooks.checkpoint.as_deref_mut().expect("checked above");
            ckpt.save(&snap, hooks.faults.as_deref())
                .unwrap_or_else(|e| {
                    panic!("checkpoint write failed: {e} [diag=ckpt-write-failed]")
                });
        }

        if window_key == Some(best) {
            let w = next_window.take().expect("window candidate exists");
            let i = next_window_idx;
            next_window_idx += 1;
            next_window = pull_window(contacts, &mut last_window_start);
            let now = w.start;
            let measured = now >= config.measure_from;

            if !up[w.a.index()] || !up[w.b.index()] {
                // A window never starts while an endpoint is down (and does
                // not reopen if the node returns mid-span). Gated on the
                // measured span like the sibling contact counters.
                if measured {
                    run.counters.contacts_suppressed += 1;
                }
                continue;
            }
            let mut loss = 0u64;
            if let Some(noise) = &noise {
                if noise_rng.gen::<f64>() < noise.contact_failure_prob {
                    if measured {
                        run.counters.contacts_failed += 1;
                    }
                    continue;
                }
                if noise.setup_loss_bytes_mean > 0.0 {
                    loss = Exponential::with_mean(noise.setup_loss_bytes_mean)
                        .sample(&mut noise_rng) as u64;
                }
            }
            if w.is_instantaneous() {
                let seq = contact_seq;
                contact_seq += 1;
                let drive = PendingDrive {
                    window: w,
                    now,
                    budget: w.lump_bytes.saturating_sub(loss),
                    seq,
                    measured,
                };
                exec.drive(&mut run, drive, false);
            } else {
                queue.push(w.end, SimEvent::ContactEnd(i));
                open.push(OpenSnap {
                    idx: i as u64,
                    window: w,
                    loss,
                });
            }
            continue;
        }

        if packet_key == Some(best) {
            let spec = next_packet.take().expect("packet candidate exists");
            next_packet = pull_packet(workload, &mut last_packet_time);

            let deadline = ttl_deadline(spec.time, config.ttl);
            let id = run
                .world
                .store
                .push(spec.src, spec.dst, spec.size_bytes, spec.time, deadline);
            run.world.delivered_at.push_undelivered();
            run.world.holders.push(IndexSet::new());
            // The executor flips this when the source-buffer insert
            // succeeds — possibly later, inside a shard's epoch.
            run.world.entered.push(AtomicBool::new(false));

            let src_up = up[spec.src.index()];
            exec.create(&mut run, id, src_up);
            // The one expiry-scheduling rule: whether the insert succeeds
            // may not be known yet (a deferring executor), so the expiry
            // is scheduled whenever it *could* succeed. The handler skips
            // packets that never entered, so the extra events are no-op
            // barriers, not report drift.
            if src_up && deadline != PacketStore::NO_TTL {
                queue.push(deadline, SimEvent::PacketExpired(id));
            }
            continue;
        }

        let (now, event) = queue.pop().expect("queue candidate exists");
        match event {
            SimEvent::NodeUp(node) => {
                up[node.index()] = true;
                exec.node_up(&mut run, node, now);
            }
            SimEvent::NodeDown(node) => {
                // Interrupt this node's active windows with the budget
                // accrued so far, ascending window index for determinism
                // (`open` is kept in that order).
                let mut k = 0;
                while k < open.len() {
                    if open[k].window.involves(node) {
                        let drive = close_window(open.remove(k), now, &mut contact_seq, config);
                        exec.drive(&mut run, drive, true);
                    } else {
                        k += 1;
                    }
                }
                up[node.index()] = false;
                exec.node_down(&mut run, node, now);
            }
            SimEvent::ContactEnd(i) => {
                // Not in the open set means the window failed, was
                // suppressed, or was already interrupted by churn.
                if let Some(pos) = open.iter().position(|ow| ow.idx == i as u64) {
                    let drive = close_window(open.remove(pos), now, &mut contact_seq, config);
                    exec.drive(&mut run, drive, false);
                }
            }
            SimEvent::PacketExpired(id) => exec.expire(&mut run, id),
            SimEvent::ContactStart(_) | SimEvent::PacketCreated(_) => {
                unreachable!("contact starts and creations come from the sources")
            }
        }
    }

    // Drives deferred behind the final events still pend: commit them.
    exec.quiesce(&mut run);

    // Per-delivery processing latency (deployment emulation only): the
    // routing decisions above are unaffected; only the recorded delivery
    // timestamps shift, exactly like computation delay on a bus. The draw
    // order over delivered slots is packet order under every executor.
    let jitter = noise
        .as_ref()
        .filter(|noise| noise.processing_delay_mean > TimeDelta::ZERO)
        .map(|noise| Exponential::with_mean(noise.processing_delay_mean.as_secs_f64()));
    let Run {
        world, counters, ..
    } = run;
    let delivered_at = world.delivered_at.slots().map(|slot| match &jitter {
        Some(jitter) => slot.map(|t| t + TimeDelta::from_secs_f64(jitter.sample(&mut noise_rng))),
        None => slot,
    });
    let mut report = SimReport::from_parts(
        world
            .store
            .iter()
            .zip(delivered_at)
            .zip(flags(&world.entered))
            .map(|((p, d), e)| (p, d, e)),
        config.horizon,
        config.deadline,
    );
    counters.write_into(&mut report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ttl_deadline_is_checked_up_to_the_sentinel() {
        assert_eq!(ttl_deadline(Time(5), None), PacketStore::NO_TTL);
        assert_eq!(ttl_deadline(Time(5), Some(TimeDelta(7))), Time(12));
        // The largest representable deadline sits one below the sentinel.
        assert_eq!(
            ttl_deadline(Time(u64::MAX - 8), Some(TimeDelta(7))),
            Time(u64::MAX - 1)
        );
    }

    #[test]
    #[should_panic(expected = "[diag=ttl-overflow time_us=18446744073709551608 ttl_us=7]")]
    fn ttl_deadline_rejects_the_sentinel_alias() {
        let _ = ttl_deadline(Time(u64::MAX - 7), Some(TimeDelta(7)));
    }

    #[test]
    #[should_panic(expected = "diag=ttl-overflow")]
    fn ttl_deadline_rejects_wraparound() {
        let _ = ttl_deadline(Time(u64::MAX - 3), Some(TimeDelta(7)));
    }
}
