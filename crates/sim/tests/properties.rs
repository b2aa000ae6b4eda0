//! Property tests for the simulator's data structures, against simple
//! reference models, plus whole-engine invariants.

use dtn_sim::workload::{PacketSpec, Workload};
use dtn_sim::{
    AckTable, Contact, ContactConcurrency, ContactDriver, ContactWindow, NodeBuffer, NodeId,
    Packet, PacketId, PacketSet, PacketStore, Routing, Schedule, SimConfig, Simulation, Time,
    TimeDelta, TransferOutcome,
};
use proptest::prelude::*;
use std::collections::BTreeSet;

#[derive(Debug, Clone)]
enum BufOp {
    /// `(id, dst, size, created_secs)`
    Insert(u32, u32, u64, u64),
    Remove(u32),
}

fn buf_ops() -> impl Strategy<Value = Vec<BufOp>> {
    prop::collection::vec(
        prop_oneof![
            (0u32..50, 0u32..5, 1u64..2_000, 0u64..500)
                .prop_map(|(id, dst, s, t)| BufOp::Insert(id, dst, s, t)),
            (0u32..50).prop_map(BufOp::Remove),
        ],
        1..100,
    )
}

proptest! {
    #[test]
    fn buffer_accounting_matches_model(ops in buf_ops(), cap in 1_000u64..50_000) {
        let mut buf = NodeBuffer::new(cap);
        // Model: id → (dst, size, created).
        let mut model: std::collections::BTreeMap<u32, (u32, u64, u64)> = Default::default();
        for (step, op) in ops.into_iter().enumerate() {
            match op {
                BufOp::Insert(id, dst, size, created) => {
                    let packet = Packet {
                        id: PacketId(id),
                        src: NodeId(0),
                        dst: NodeId(dst),
                        size_bytes: size,
                        created_at: Time::from_secs(created),
                    };
                    let fits = !model.contains_key(&id)
                        && model.values().map(|v| v.1).sum::<u64>() + size <= cap;
                    let ok = buf.insert(&packet, Time::from_secs(step as u64));
                    prop_assert_eq!(ok, fits, "insert outcome mismatch");
                    if ok {
                        model.insert(id, (dst, size, created));
                    }
                }
                BufOp::Remove(id) => {
                    let ok = buf.remove(PacketId(id));
                    prop_assert_eq!(ok, model.remove(&id).is_some());
                }
            }
            prop_assert_eq!(buf.used_bytes(), model.values().map(|v| v.1).sum::<u64>());
            prop_assert_eq!(buf.len(), model.len());
            prop_assert_eq!(buf.free_bytes(), cap - buf.used_bytes());
            let ids: Vec<u32> = buf.ids().iter().map(|p| p.0).collect();
            let expect: Vec<u32> = model.keys().copied().collect();
            prop_assert_eq!(ids, expect, "id-ordered iteration");
            // Per-destination delivery queues: `bytes_ahead` must equal the
            // total size of same-destination packets strictly earlier in
            // `(created_at, id)` order, and the hypothetical-insert variant
            // must count strictly older packets only.
            for (&id, &(dst, _, created)) in &model {
                let ahead = buf.bytes_ahead(NodeId(dst), PacketId(id), Time::from_secs(created));
                let expect: u64 = model
                    .iter()
                    .filter(|(&oid, &(odst, _, ocreated))| {
                        odst == dst && (ocreated, oid) < (created, id)
                    })
                    .map(|(_, &(_, osize, _))| osize)
                    .sum();
                prop_assert_eq!(ahead, expect, "bytes_ahead mismatch for p{}", id);
            }
            for probe_dst in 0u32..5 {
                for probe_t in [0u64, 250, 499] {
                    let got = buf.bytes_ahead_if_inserted(NodeId(probe_dst), Time::from_secs(probe_t));
                    let expect: u64 = model
                        .values()
                        .filter(|&&(odst, _, ocreated)| odst == probe_dst && ocreated < probe_t)
                        .map(|&(_, osize, _)| osize)
                        .sum();
                    prop_assert_eq!(got, expect);
                    let total = buf.total_bytes(NodeId(probe_dst));
                    let expect_total: u64 = model
                        .values()
                        .filter(|&&(odst, _, _)| odst == probe_dst)
                        .map(|&(_, osize, _)| osize)
                        .sum();
                    prop_assert_eq!(total, expect_total);
                }
            }
        }
    }

    #[test]
    fn packet_set_matches_btreeset(inserts in prop::collection::vec(0u32..500, 1..200)) {
        let mut set = PacketSet::new();
        let mut model = BTreeSet::new();
        for id in &inserts {
            prop_assert_eq!(set.insert(PacketId(*id)), model.insert(*id));
        }
        prop_assert_eq!(set.len(), model.len());
        let got: Vec<u32> = set.iter().map(|p| p.0).collect();
        let expect: Vec<u32> = model.iter().copied().collect();
        prop_assert_eq!(got, expect);
        for probe in 0u32..500 {
            prop_assert_eq!(set.contains(PacketId(probe)), model.contains(&probe));
        }
    }

    /// The word-wise and-not against the probing oracle, over sets whose
    /// word counts differ in either direction (id ranges 70 / 500 / 0).
    #[test]
    fn packet_set_difference_matches_filter_oracle(
        a in prop::collection::vec(0u32..500, 0..120),
        b in prop::collection::vec(0u32..70, 0..60),
    ) {
        let set = |ids: &[u32]| {
            let mut s = PacketSet::new();
            for &id in ids {
                s.insert(PacketId(id));
            }
            s
        };
        let (a, b, empty) = (set(&a), set(&b), PacketSet::new());
        for (x, y) in [(&a, &b), (&b, &a), (&a, &empty), (&empty, &a), (&a, &a)] {
            let got: Vec<PacketId> = x.difference(y).collect();
            let expect: Vec<PacketId> = x.iter().filter(|&id| !y.contains(id)).collect();
            prop_assert_eq!(got, expect);
        }
    }

    #[test]
    fn ack_exchange_reaches_fixed_point(
        learns in prop::collection::vec((0u32..4, 0u32..100), 1..60),
    ) {
        let mut t = AckTable::new(4);
        for &(node, pkt) in &learns {
            t.learn(NodeId(node), PacketId(pkt));
        }
        // A full gossip round among all pairs...
        for a in 0..4u32 {
            for b in (a + 1)..4 {
                let _ = t.exchange(NodeId(a), NodeId(b));
            }
        }
        // ...then every further exchange moves nothing (fixed point), and
        // every node knows every learned packet.
        for a in 0..4u32 {
            for b in (a + 1)..4 {
                prop_assert_eq!(t.exchange(NodeId(a), NodeId(b)), (0, 0));
            }
        }
        for &(_, pkt) in &learns {
            for node in 0..4u32 {
                prop_assert!(t.knows(NodeId(node), PacketId(pkt)));
            }
        }
    }
}

// --- Sorted-holders invariant --------------------------------------------
//
// `engine.rs` and `driver.rs` maintain the per-packet holder lists with
// `binary_search`, which is only correct while every list stays sorted and
// duplicate-free — through packet creation, replication, delivery,
// protocol-driven eviction, creation-time `make_room` eviction and TTL
// expiry. The auditor protocol below exercises all of those paths with
// proptest-chosen decisions and cross-checks the holder lists against the
// buffers at every contact.

/// A protocol that floods/evicts according to a decision tape while
/// auditing the holder lists via the global view.
struct HolderAuditor {
    nodes: usize,
    decisions: Vec<u8>,
    step: usize,
    violation: Option<String>,
}

impl HolderAuditor {
    fn new(decisions: Vec<u8>) -> Self {
        Self {
            nodes: 0,
            decisions,
            step: 0,
            violation: None,
        }
    }

    fn next_decision(&mut self) -> u8 {
        let d = self.decisions[self.step % self.decisions.len()];
        self.step += 1;
        d
    }

    fn audit(&mut self, driver: &ContactDriver<'_>) {
        let g = driver.global();
        for idx in 0..driver.packets().len() {
            let id = PacketId(idx as u32);
            let holders: Vec<NodeId> = g.holders(id).collect();
            if !holders.windows(2).all(|w| w[0] < w[1]) {
                self.violation = Some(format!("{id}: holders not sorted+unique: {holders:?}"));
                return;
            }
            for node in 0..self.nodes {
                let node = NodeId(node as u32);
                let listed = holders.binary_search(&node).is_ok();
                let stored = g.buffer(node).contains(id);
                if listed != stored {
                    self.violation = Some(format!(
                        "{id} at {node}: holder list says {listed}, buffer says {stored}"
                    ));
                    return;
                }
            }
        }
    }
}

impl Routing for HolderAuditor {
    fn name(&self) -> String {
        "holder-auditor".into()
    }

    fn on_init(&mut self, config: &SimConfig) {
        self.nodes = config.nodes;
    }

    fn make_room(
        &mut self,
        _node: NodeId,
        _incoming: &Packet,
        needed: u64,
        buffer: &NodeBuffer,
        _packets: &PacketStore,
        _now: Time,
    ) -> Vec<PacketId> {
        // Evict in id order until enough space frees (sometimes refuse, by
        // tape, to exercise the creation-drop path too).
        if self.next_decision().is_multiple_of(4) {
            return Vec::new();
        }
        let mut victims = Vec::new();
        let mut freed = 0u64;
        for (id, meta) in buffer.iter() {
            if freed >= needed {
                break;
            }
            victims.push(id);
            freed += meta.size_bytes;
        }
        victims
    }

    fn on_contact(&mut self, driver: &mut ContactDriver<'_>) {
        self.audit(driver);
        if self.violation.is_some() {
            return;
        }
        let (a, b) = driver.endpoints();
        for from in [a, b] {
            for id in driver.buffer(from).ids() {
                match self.next_decision() % 4 {
                    // Mostly transfer (replication/delivery/dup paths)...
                    0 | 1 => {
                        let _ = driver.try_transfer(from, id);
                    }
                    // ...sometimes evict (including double-evict no-ops)...
                    2 => {
                        driver.evict(from, id);
                        driver.evict(from, id);
                    }
                    // ...sometimes leave the replica alone.
                    _ => {}
                }
            }
        }
        self.audit(driver);
    }
}

/// `(time, endpoint, endpoint, bytes)` quadruples, pre-modulo.
type RawEvents = Vec<(u16, u8, u8, u16)>;
/// `(nodes, contacts, specs, capacity, decision tape, with_ttl)`.
type Scenario = (usize, RawEvents, RawEvents, u64, Vec<u8>, bool);

fn engine_scenario() -> impl Strategy<Value = Scenario> {
    (
        3usize..6,
        prop::collection::vec((0u16..500, 0u8..6, 0u8..6, 0u16..4096), 1..40),
        prop::collection::vec((0u16..500, 0u8..6, 0u8..6, 1u16..1500), 1..30),
        1_500u64..8_000,
        prop::collection::vec(any::<u8>(), 4..64),
        any::<bool>(),
    )
}

proptest! {
    #[test]
    fn holder_lists_stay_sorted_and_consistent(
        (nodes, contacts, specs, capacity, decisions, with_ttl) in engine_scenario(),
    ) {
        let n = nodes as u8;
        let contacts: Vec<Contact> = contacts
            .into_iter()
            .map(|(t, a, b, bytes)| {
                let a = a % n;
                let b = if b % n == a { (a + 1) % n } else { b % n };
                Contact::new(
                    Time::from_secs(u64::from(t)),
                    NodeId(u32::from(a)),
                    NodeId(u32::from(b)),
                    u64::from(bytes),
                )
            })
            .collect();
        let specs: Vec<PacketSpec> = specs
            .into_iter()
            .map(|(t, src, dst, size)| {
                let src = src % n;
                let dst = if dst % n == src { (src + 1) % n } else { dst % n };
                PacketSpec {
                    time: Time::from_secs(u64::from(t)),
                    src: NodeId(u32::from(src)),
                    dst: NodeId(u32::from(dst)),
                    size_bytes: u64::from(size),
                }
            })
            .collect();
        let config = SimConfig {
            nodes,
            buffer_capacity: capacity,
            horizon: Time::from_secs(600),
            allow_global_knowledge: true,
            ttl: with_ttl.then_some(TimeDelta::from_secs(120)),
            ..SimConfig::default()
        };
        let sim = Simulation::new(config, Schedule::new(contacts), Workload::new(specs));
        let mut auditor = HolderAuditor::new(decisions);
        let _ = sim.run(&mut auditor);
        prop_assert!(auditor.violation.is_none(), "{}", auditor.violation.unwrap());
    }
}

// --- Sharded runtime ------------------------------------------------------
//
// The shard layer (`dtn_sim::shard`) claims byte-identical reports for a
// NodeDisjoint protocol under ANY partition of the node space — however
// lopsided, wherever the cut lands relative to the contact structure's
// "gateways" — with churn, TTL expiry, and durative windows in play. The
// proptest draws arbitrary fence posts (which is what arbitrary gateway
// placement reduces to: a boundary either severs a pair or it doesn't)
// and replays the same scenario through the serial engine and the
// sharded runtime.

/// A flooding protocol with no protocol state at all: destination-first
/// transfer order, a pure function of the driver.
struct ShardFlood;

impl Routing for ShardFlood {
    fn name(&self) -> String {
        "shard-flood".into()
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

    fn contact_concurrency(&self) -> ContactConcurrency {
        ContactConcurrency::NodeDisjoint
    }
}

/// A stateful node-disjoint protocol, the in-band RAPID shape: per-node
/// memory of offered ids biases each node's transfer order, and per-node
/// lifecycle hooks (creation, churn) mutate that memory. Fresh instances
/// are NOT interchangeable, so the sharded runtime must route every hook
/// to the one instance's per-node partitions, as it does for `Rapid`.
struct MemFlood {
    seen: Vec<dtn_sim::PacketSet>,
}

impl MemFlood {
    fn new() -> Self {
        Self { seen: Vec::new() }
    }
}

impl Routing for MemFlood {
    fn name(&self) -> String {
        "memory-flood".into()
    }

    fn on_init(&mut self, config: &SimConfig) {
        self.seen = (0..config.nodes)
            .map(|_| dtn_sim::PacketSet::new())
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

    fn on_packet_created(&mut self, packet: &dtn_sim::Packet) {
        self.seen[packet.src.index()].insert(packet.id);
    }

    fn on_node_up(&mut self, node: NodeId, _now: Time) {
        self.seen[node.index()] = dtn_sim::PacketSet::new();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn sharded_engine_equals_serial(
        contacts in prop::collection::vec(
            (1u64..200, 0u32..10, 0u32..10, 256u64..4096, prop::option::of(1u64..40)),
            1..120,
        ),
        packets in prop::collection::vec((0u64..150, 0u32..10, 0u32..10, 128u64..1024), 1..40),
        ttl in prop::option::of(5u64..100),
        churn in prop::collection::vec((1u64..250, 0u32..10, any::<bool>()), 0..12),
        posts in prop::collection::vec(0u32..=10, 0..5),
    ) {
        // Durative windows (Some duration) and instantaneous ones mixed.
        let mut windows: Vec<ContactWindow> = contacts
            .iter()
            .filter(|&&(_, a, b, _, _)| a != b)
            .map(|&(t, a, b, bytes, dur)| match dur {
                None => ContactWindow::instant(
                    Time::from_secs(t), NodeId(a), NodeId(b), bytes,
                ),
                Some(d) => ContactWindow::new(
                    Time::from_secs(t),
                    Time::from_secs(t + d),
                    NodeId(a),
                    NodeId(b),
                    bytes.max(64),
                ),
            })
            .collect();
        windows.sort_by_key(|w| w.start);
        let mut specs: Vec<PacketSpec> = packets
            .iter()
            .filter(|&&(_, s, d, _)| s != d)
            .map(|&(t, src, dst, size)| PacketSpec {
                time: Time::from_secs(t),
                src: NodeId(src),
                dst: NodeId(dst),
                size_bytes: size,
            })
            .collect();
        specs.sort_by_key(|s| s.time);
        if windows.is_empty() || specs.is_empty() {
            continue;
        }
        let mut churn_events: Vec<dtn_sim::NodeEvent> = churn
            .iter()
            .map(|&(t, node, up)| dtn_sim::NodeEvent {
                time: Time::from_secs(t),
                node: NodeId(node),
                up,
            })
            .collect();
        churn_events.sort_by_key(|e| e.time);

        // Arbitrary partition of the 10-node space: proptest-drawn fence
        // posts, so shard ranges may be empty, singleton, or lopsided.
        let mut bounds = posts;
        bounds.push(0);
        bounds.push(10);
        bounds.sort_unstable();
        let partition = dtn_sim::Partition::from_bounds(bounds);

        let cfg = SimConfig {
            nodes: 10,
            buffer_capacity: 4096,
            horizon: Time::from_secs(300),
            ttl: ttl.map(TimeDelta::from_secs),
            ..SimConfig::default()
        };
        let serial = Simulation::new(
            cfg.clone(),
            Schedule::new(windows.clone()),
            Workload::new(specs.clone()),
        )
        .with_churn(churn_events.clone())
        .run(&mut ShardFlood);

        let mut contact_src = windows.iter().copied();
        let mut packet_src = specs.iter().copied();
        let sharded = dtn_sim::run_sharded(
            &cfg,
            &partition,
            &mut contact_src,
            &mut packet_src,
            &churn_events,
            None,
            &mut || Box::new(ShardFlood),
        );
        prop_assert_eq!(
            serial,
            sharded,
            "sharded run diverged from the serial engine under partition {:?}",
            partition
        );

        // Same scenario and partition through a protocol with evolving
        // per-node state: hooks routed to the one instance's partitions.
        let serial_mem = Simulation::new(
            cfg.clone(),
            Schedule::new(windows.clone()),
            Workload::new(specs.clone()),
        )
        .with_churn(churn_events.clone())
        .run(&mut MemFlood::new());

        let mut contact_src = windows.iter().copied();
        let mut packet_src = specs.iter().copied();
        let (sharded_mem, stats) = dtn_sim::run_sharded_with_stats(
            &cfg,
            &partition,
            &mut contact_src,
            &mut packet_src,
            &churn_events,
            None,
            &mut || Box::new(MemFlood::new()),
        );
        prop_assert_eq!(
            serial_mem,
            sharded_mem,
            "stateful NodeDisjoint sharded run diverged under partition {:?}",
            partition
        );
        prop_assert!(stats
            .iter()
            .all(|s| s.concurrency == ContactConcurrency::NodeDisjoint));
    }
}
