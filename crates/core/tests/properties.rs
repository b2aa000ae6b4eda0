//! Property tests for RAPID's inference machinery: the monotonicity and
//! consistency facts the selection algorithm silently relies on, and the
//! storage decisions' agreement with their from-scratch scalar reference.

use dtn_sim::workload::{PacketSpec, Workload};
use dtn_sim::{
    Contact, NodeEvent, NodeId, PacketId, Schedule, SimConfig, Simulation, Time, TimeDelta,
};
use proptest::prelude::*;
use rapid_core::{
    combined_rate, expected_meeting_times_from, expected_remaining_delay, meetings_needed,
    prob_delivered_within, replica_delay, HopEstimates, Kernel, MeetingView, QueueSnapshot, Rapid,
    RapidConfig, RateBatch,
};

proptest! {
    #[test]
    fn combined_delay_never_exceeds_best_replica(
        delays in prop::collection::vec(0.1f64..1e6, 1..20),
    ) {
        let combined = expected_remaining_delay(delays.iter().copied());
        let best = delays.iter().cloned().fold(f64::INFINITY, f64::min);
        prop_assert!(combined <= best + 1e-9);
    }

    #[test]
    fn adding_a_replica_never_hurts(
        delays in prop::collection::vec(0.1f64..1e6, 1..20),
        extra in 0.1f64..1e6,
    ) {
        let before = expected_remaining_delay(delays.iter().copied());
        let after = expected_remaining_delay(delays.iter().copied().chain([extra]));
        prop_assert!(after <= before + 1e-9);
        let p_before = prob_delivered_within(delays.iter().copied(), 100.0);
        let p_after = prob_delivered_within(delays.iter().copied().chain([extra]), 100.0);
        prop_assert!(p_after + 1e-12 >= p_before);
    }

    #[test]
    fn prob_is_a_cdf_in_t(
        delays in prop::collection::vec(1.0f64..1e4, 1..8),
        t1 in 0.0f64..1e4,
        dt in 0.0f64..1e4,
    ) {
        let p1 = prob_delivered_within(delays.iter().copied(), t1);
        let p2 = prob_delivered_within(delays.iter().copied(), t1 + dt);
        prop_assert!((0.0..=1.0).contains(&p1));
        prop_assert!(p2 + 1e-12 >= p1);
    }

    #[test]
    fn meetings_needed_monotone_in_backlog(b1 in 0u64..10_000_000, extra in 0u64..1_000_000, opp in 1.0f64..1e7) {
        let m1 = meetings_needed(b1, opp);
        let m2 = meetings_needed(b1 + extra, opp);
        prop_assert!(m1 >= 1.0);
        prop_assert!(m2 >= m1);
    }

    #[test]
    fn deeper_queue_position_never_reduces_delay(
        est in 1.0f64..1e5,
        b in 0u64..1_000_000,
        extra in 1u64..1_000_000,
        opp in 1.0f64..1e6,
    ) {
        let shallow = replica_delay(est, meetings_needed(b, opp));
        let deep = replica_delay(est, meetings_needed(b + extra, opp));
        prop_assert!(deep + 1e-9 >= shallow);
    }

    #[test]
    fn hop_limit_monotonicity(
        seed in 0u64..1000,
        n in 3usize..12,
    ) {
        // More hops can only improve (reduce) estimated meeting times.
        use rand::Rng;
        let mut rng = dtn_stats::stream(seed, "prop-matrix");
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| {
                (0..n)
                    .map(|_| {
                        if rng.gen::<f64>() < 0.5 {
                            rng.gen_range(1.0..1e4)
                        } else {
                            f64::INFINITY
                        }
                    })
                    .collect()
            })
            .collect();
        let h2 = expected_meeting_times_from(&rows, NodeId(0), 2);
        let h3 = expected_meeting_times_from(&rows, NodeId(0), 3);
        let h4 = expected_meeting_times_from(&rows, NodeId(0), 4);
        for z in 0..n {
            prop_assert!(h3[z] <= h2[z] + 1e-9);
            prop_assert!(h4[z] <= h3[z] + 1e-9);
            // And no estimate beats the direct row entry's best 1-hop value.
            prop_assert!(h2[z] <= rows[0][z] + 1e-9);
        }
    }

    // --- Storage decisions vs the from-scratch scalar reference -----------
    //
    // In debug builds `protocol/storage.rs` compares every `make_room`
    // decision — batched Eq. 4–5 rows, one sort, the §3.4 own-packet filter — against
    // a per-packet scalar filter→score→sort reference. Driving RAPID
    // through proptest-chosen scenarios (tight buffers forcing storage
    // evictions, transfers and deliveries at contacts, TTL expiry, node
    // churn) therefore checks the batched scorer on each of them: any
    // divergence panics the run. Two runs of one scenario must also
    // produce equal reports.
    #[test]
    fn storage_decisions_match_reference_and_runs_repeat(
        contacts in prop::collection::vec((0u16..400, 0u8..5, 0u8..5, 256u16..4096), 1..30),
        specs in prop::collection::vec((0u16..400, 0u8..5, 0u8..5), 1..40),
        capacity in 1024u64..6_000,
        with_ttl in any::<bool>(),
        churn in prop::collection::vec((0u16..400, 0u8..5, any::<bool>()), 0..6),
        deadline_metric in any::<bool>(),
    ) {
        let n = 5u8;
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
            .map(|(t, src, dst)| {
                let src = src % n;
                let dst = if dst % n == src { (src + 1) % n } else { dst % n };
                PacketSpec {
                    time: Time::from_secs(u64::from(t)),
                    src: NodeId(u32::from(src)),
                    dst: NodeId(u32::from(dst)),
                    size_bytes: 1024,
                }
            })
            .collect();
        let churn: Vec<NodeEvent> = churn
            .into_iter()
            .map(|(t, node, up)| NodeEvent {
                time: Time::from_secs(u64::from(t)),
                node: NodeId(u32::from(node % n)),
                up,
            })
            .collect();
        let config = SimConfig {
            nodes: n as usize,
            buffer_capacity: capacity,
            horizon: Time::from_secs(500),
            ttl: with_ttl.then_some(TimeDelta::from_secs(90)),
            ..SimConfig::default()
        };
        let build = || {
            Simulation::new(
                config.clone(),
                Schedule::new(contacts.clone()),
                Workload::new(specs.clone()),
            )
            .with_churn(churn.clone())
        };
        let rapid_config = if deadline_metric {
            RapidConfig::deadline(TimeDelta::from_secs(60))
        } else {
            RapidConfig::avg_delay()
        };
        let r1 = build().run(&mut Rapid::new(rapid_config));
        let r2 = build().run(&mut Rapid::new(rapid_config));
        prop_assert_eq!(r1, r2, "a re-run must reproduce the report");
    }

    #[test]
    fn queue_snapshot_prefix_sums_are_exact(
        entries in prop::collection::vec(
            (0u32..200, 0u32..5, 1u64..5_000, 0u64..10_000),
            1..60,
        ),
    ) {
        // Deduplicate ids (a buffer holds one replica per packet).
        let mut seen = std::collections::HashSet::new();
        let entries: Vec<_> = entries
            .into_iter()
            .filter(|(id, _, _, _)| seen.insert(*id))
            .collect();
        let snap = QueueSnapshot::build(entries.iter().map(|&(id, dst, size, t)| {
            (PacketId(id), NodeId(dst), size, Time::from_secs(t))
        }));
        for &(id, dst, size, t) in &entries {
            let _ = size;
            let ahead = snap.bytes_ahead(NodeId(dst), PacketId(id), Time::from_secs(t));
            // Model: sum of sizes of strictly earlier (time, id) pairs with
            // the same destination.
            let expect: u64 = entries
                .iter()
                .filter(|&&(oid, odst, _, ot)| {
                    odst == dst && (ot, oid) < (t, id)
                })
                .map(|&(_, _, osize, _)| osize)
                .sum();
            prop_assert_eq!(ahead, expect);
        }
    }

    /// The batched Eq. 4–9 kernels must be **bitwise** equal to the scalar
    /// chain for arbitrary queues — every tail width (`len % RATE_LANES`,
    /// lengths 0–9 drawn often), every available kernel (AVX2 included
    /// when the host supports it), the integer-rounding corners of the
    /// `u64 → f64` position (`u64::MAX`, 2^53 ± 1), degenerate meeting
    /// estimates and opportunity sizes, and caps above, at infinity and
    /// below the minimum per-replica delay.
    #[test]
    fn rate_batch_kernels_match_scalar_chain_bitwise(
        bytes in prop_oneof![
            prop::collection::vec(0u64..10_000, 0..10),
            prop::collection::vec(
                prop_oneof![
                    0u64..1 << 30,
                    Just(0),
                    Just(u64::MAX),
                    Just((1u64 << 53) - 1),
                    Just(1u64 << 53),
                    Just((1u64 << 53) + 1),
                ],
                0..40,
            ),
        ],
        meeting in prop_oneof![
            1e-12f64..1e9,
            Just(0.0),
            Just(f64::INFINITY),
            Just(f64::NAN),
            Just(1e-12),
        ],
        opp in prop_oneof![1.0f64..1e9, Just(0.0), Just(1.0), Just(f64::INFINITY)],
        cap in prop_oneof![Just(1e9), Just(f64::INFINITY), Just(1e-9)],
    ) {
        let kernels: &[Kernel] = if Kernel::detect() == Kernel::Scalar {
            &[Kernel::Scalar]
        } else {
            &[Kernel::Scalar, Kernel::Avx2]
        };
        let scalar = |b: u64| replica_delay(meeting, meetings_needed(b, opp)).min(cap);
        for &kernel in kernels {
            let mut batch = RateBatch::default();
            for &b in &bytes {
                batch.push(b);
            }
            let rows = batch.compute(meeting, opp, cap, kernel);
            prop_assert_eq!(rows.len(), bytes.len());
            for (&b, &row) in bytes.iter().zip(rows) {
                prop_assert_eq!(
                    row.to_bits(),
                    scalar(b).to_bits(),
                    "kernel {:?} row for bytes={} cap={} diverges: {} vs {}",
                    kernel, b, cap, row, scalar(b)
                );
            }
            let batched_rate = batch.combined_rate(kernel);
            let scalar_rate = combined_rate(bytes.iter().map(|&b| scalar(b)));
            prop_assert_eq!(batched_rate.to_bits(), scalar_rate.to_bits());
        }
    }
}

// --- Sparse meeting rows vs the dense oracle --------------------------------

/// The dense state `MeetingView` used to be, kept as the shadow model:
/// `INFINITY`-filled rows, one stamp, running average and last-met
/// instant per fleet member, last-writer-wins merges, a full-row scan for
/// "has any finite cell".
#[derive(Clone)]
struct DenseShadow {
    me: usize,
    rows: Vec<Vec<f64>>,
    stamp: Vec<Time>,
    avg: Vec<dtn_stats::RunningMean>,
    last_met: Vec<Option<Time>>,
}

impl DenseShadow {
    fn new(me: usize, n: usize) -> Self {
        Self {
            me,
            rows: vec![vec![f64::INFINITY; n]; n],
            stamp: vec![Time::ZERO; n],
            avg: vec![dtn_stats::RunningMean::new(); n],
            last_met: vec![None; n],
        }
    }

    fn record_meeting(&mut self, peer: usize, now: Time) {
        if let Some(last) = self.last_met[peer] {
            self.avg[peer].observe(now.since(last).as_secs_f64());
        }
        self.last_met[peer] = Some(now);
        if let Some(mean) = self.avg[peer].mean() {
            self.rows[self.me][peer] = mean;
        }
        self.stamp[self.me] = now;
    }

    fn merge_rows_from(&mut self, other: &DenseShadow, rows: &[NodeId]) {
        for u in rows.iter().map(|u| u.index()) {
            if u != self.me && other.stamp[u] > self.stamp[u] {
                self.rows[u] = other.rows[u].clone();
                self.stamp[u] = other.stamp[u];
            }
        }
    }

    fn rows_changed_since(&self, since: Time) -> Vec<NodeId> {
        (0..self.rows.len())
            .filter(|&u| self.stamp[u] > since && self.rows[u].iter().any(|v| v.is_finite()))
            .map(|u| NodeId(u as u32))
            .collect()
    }
}

/// Everything a `MeetingView` answers, checked against its shadow: cell
/// reads, the delta listing, and — bit for bit — the h-hop estimates from
/// every start node at `hop_limit` 1..=4 against the dense oracle. `est`
/// is refilled by every call and outlives them all (other views, other
/// fleet states), so an entry a refill failed to reset shows up as a
/// mismatch with the oracle and with a fresh buffer.
fn assert_view_matches_shadow(
    view: &MeetingView,
    shadow: &DenseShadow,
    now: Time,
    est: &mut HopEstimates,
) {
    let n = shadow.rows.len();
    for u in 0..n {
        let cells: Vec<(usize, f64)> = view.row(u).cells().collect();
        assert!(cells.windows(2).all(|w| w[0].0 < w[1].0));
        for c in 0..n {
            assert_eq!(view.row(u)[c].to_bits(), shadow.rows[u][c].to_bits());
            assert_eq!(
                cells.iter().any(|&(col, _)| col == c),
                shadow.rows[u][c].is_finite()
            );
        }
    }
    for peer in 0..n {
        assert_eq!(
            view.direct_mean(NodeId(peer as u32)).to_bits(),
            shadow.rows[shadow.me][peer].to_bits()
        );
    }
    for since in [Time::ZERO, Time(now.0 / 2), now] {
        assert_eq!(
            view.rows_changed_since(since),
            shadow.rows_changed_since(since)
        );
    }
    let bits = |d: &[f64]| d.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
    for from in (0..n as u32).map(NodeId) {
        for hop_limit in 1..=4 {
            view.expected_from_into(from, hop_limit, est);
            let want = expected_meeting_times_from(&shadow.rows, from, hop_limit);
            assert_eq!(bits(est), bits(&want), "from {from} at h={hop_limit}");
            let mut fresh = HopEstimates::default();
            view.expected_from_into(from, hop_limit, &mut fresh);
            assert_eq!(bits(est), bits(&fresh), "reused vs fresh buffer");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random fleets driven by random meetings, row merges — fresh, stale
    /// (from an earlier clone of the sender) and aimed at the receiver's
    /// own row — and watermarked delta exchanges (the rows changed since a
    /// dense per-pair `last_sent`, cut short by a random budget as the
    /// metadata channel does) stay indistinguishable from the dense model.
    #[test]
    fn sparse_meeting_rows_match_dense_oracle(
        seed in 0u64..1_000_000,
        n in 2usize..=24,
        steps in 1usize..60,
    ) {
        use rand::Rng;
        let mut rng = dtn_stats::stream(seed, "prop-sparse-rows");
        let mut fleet: Vec<(MeetingView, DenseShadow)> = (0..n)
            .map(|i| (MeetingView::new(NodeId(i as u32), n), DenseShadow::new(i, n)))
            .collect();
        // Earlier states of random nodes: the senders of stale merges.
        let mut stale: Vec<(MeetingView, DenseShadow)> = Vec::new();
        let mut last_sent = vec![vec![Time::ZERO; n]; n];
        let mut est = HopEstimates::default();
        let mut now = Time::ZERO;
        for _ in 0..steps {
            now += TimeDelta::from_secs(rng.gen_range(1u64..500));
            let a = rng.gen_range(0..n);
            let b = (a + rng.gen_range(1..n)) % n;
            let step = rng.gen::<f64>();
            if step < 0.4 {
                for (x, y) in [(a, b), (b, a)] {
                    fleet[x].0.record_meeting(NodeId(y as u32), now);
                    fleet[x].1.record_meeting(y, now);
                }
                assert_view_matches_shadow(&fleet[b].0, &fleet[b].1, now, &mut est);
            } else if step < 0.6 {
                // b → a, as `exchange_metadata` ships rows.
                let since = last_sent[b][a];
                let rows = fleet[b].0.rows_changed_since(since);
                prop_assert_eq!(&rows, &fleet[b].1.rows_changed_since(since));
                let fits = rng.gen_range(0..=rows.len() + 1).min(rows.len());
                let (sender_view, sender_shadow) = fleet[b].clone();
                for row in &rows[..fits] {
                    fleet[a].0.merge_rows_from(&sender_view, &[*row]);
                    fleet[a].1.merge_rows_from(&sender_shadow, &[*row]);
                }
                if fits == rows.len() {
                    last_sent[b][a] = now;
                }
            } else {
                // Any subset of rows, the receiver's own included.
                let rows: Vec<NodeId> = (0..n as u32)
                    .map(NodeId)
                    .filter(|_| rng.gen::<f64>() < 0.4)
                    .chain([NodeId(a as u32)])
                    .collect();
                let from_stale = !stale.is_empty() && rng.gen::<f64>() < 0.4;
                let (sender_view, sender_shadow) = if from_stale {
                    stale[rng.gen_range(0..stale.len())].clone()
                } else {
                    fleet[b].clone()
                };
                fleet[a].0.merge_rows_from(&sender_view, &rows);
                fleet[a].1.merge_rows_from(&sender_shadow, &rows);
            }
            assert_view_matches_shadow(&fleet[a].0, &fleet[a].1, now, &mut est);
            if rng.gen::<f64>() < 0.3 {
                stale.push(fleet[rng.gen_range(0..n)].clone());
            }
        }
    }
}
