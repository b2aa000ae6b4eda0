use super::storage::cmp_utility_then_id;
use super::*;
use crate::meetings::put_f64;
use dtn_sim::workload::{PacketSpec, Workload};
use dtn_sim::{Contact, Schedule, Simulation, TimeDelta};
use dtn_trace::write_varint;
use std::sync::atomic::Ordering as AtomicOrdering;

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
    let mut rapid = Rapid::new(RapidConfig::avg_delay().with_channel(ChannelMode::InstantGlobal));
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ = sim.run(&mut rapid);
    }));
    assert!(result.is_err(), "must refuse to run without the flag");
}

/// `delay_cap_secs` is a public field, so `with_delay_cap`'s check can be
/// bypassed; construction refuses what would reach the rows.
#[test]
#[should_panic(expected = "diag=delay-cap-invalid")]
fn a_nan_delay_cap_is_refused_at_construction() {
    let cfg = RapidConfig {
        delay_cap_secs: f64::NAN,
        ..RapidConfig::avg_delay()
    };
    Rapid::with_kernel(cfg, Kernel::Scalar);
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
    let mut rapid = Rapid::new(RapidConfig::avg_delay().with_channel(ChannelMode::InstantGlobal));
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
        let n = rapid.states.len();
        let lease = StatePair::Full(&mut rapid.states);
        let exec = ContactExec::new(&rapid.cfg, n, lease, rapid.kernel, &rapid.row_warned);
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
    scored
        .sort_unstable_by(|a, b| cmp_utility_then_id((-a.0, PacketId(a.1)), (-b.0, PacketId(b.1))));
    assert_eq!(scored, [(2.0, 3), (2.0, 5), (1.0, 7), (0.5, 1)]);
    // The reversed call used by the in-contact eviction queue sorts
    // descending so popping from the back yields ascending (utility,
    // id).
    let mut pops = [(1.0f64, 2u32), (1.0, 4), (3.0, 1)];
    pops.sort_unstable_by(|a, b| cmp_utility_then_id((b.0, PacketId(b.1)), (a.0, PacketId(a.1))));
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
