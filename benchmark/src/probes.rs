//! Isolated probes: single layers timed through their public functions,
//! away from any run. They explain the traced numbers (why
//! `engine.ns_per_contact` is what it is) and guard layers no end-to-end
//! workload leans on (plans, `RPLN1`, checkpoints).
//!
//! Every probe reports the *minimum* over a few repeats of a loop long
//! enough to swamp the clock: an isolated loop has no legitimate slow
//! mode, so the minimum is the least-disturbed reading.

use dtn_mobility::{DieselNet, DieselNetConfig, ScaleFleet};
use dtn_sim::{
    CompiledPlan, EventQueue, NodeBuffer, NodeId, Packet, PacketId, SimEvent, Time, TimeDelta,
};
use rapid_core::{expected_meeting_times_from, Kernel, MeetingView};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// `(metric name, value)` pairs.
pub type Readings = Vec<(&'static str, f64)>;

/// Minimum wall nanoseconds of `body` over `repeats` calls.
fn min_ns(repeats: usize, mut body: impl FnMut()) -> f64 {
    (0..repeats)
        .map(|_| {
            let start = Instant::now();
            body();
            start.elapsed().as_nanos() as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// SplitMix64: deterministic pseudo-random inputs without an RNG crate.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Resident bytes one dense meeting row costs at `n = 400`, measured as
/// the growth of the resident set over sixteen fresh `MeetingView`s.
/// Must run before anything else has grown (and freed into) the heap, so
/// the views cannot be served from recycled pages.
pub fn meeting_row_bytes() -> Readings {
    const N: usize = 400;
    const VIEWS: usize = 16;
    let before = crate::host::resident_bytes();
    let views: Vec<MeetingView> = (0..VIEWS)
        .map(|i| MeetingView::new(NodeId(i as u32), N))
        .collect();
    let after = crate::host::resident_bytes();
    black_box(&views);
    let per_row = after.saturating_sub(before) as f64 / (VIEWS * N) as f64;
    vec![("core.meetings.row_bytes.n400", per_row)]
}

/// Eq. 4–9 row kernel: detected kernel vs scalar over a 512-entry queue.
fn kernel() -> Readings {
    let (iters, repeats, rows) = (2_000u64, 5u64, 512usize);
    let per_row = |k: Kernel| {
        let (min_ms, _, checksum) =
            rapid_bench::kbench::measure_rows_stats(k, rows, iters, repeats);
        black_box(checksum);
        min_ms * 1e6 / (iters as f64 * rows as f64)
    };
    vec![
        ("core.kernel.ns_per_row", per_row(Kernel::detect())),
        ("core.kernel.scalar_ns_per_row", per_row(Kernel::Scalar)),
    ]
}

/// A dense believed-meeting matrix with every pair observed.
fn meeting_rows(n: usize) -> Vec<Vec<f64>> {
    let mut rng = SplitMix(n as u64);
    (0..n)
        .map(|_| (0..n).map(|_| 60.0 + (rng.next() % 7200) as f64).collect())
        .collect()
}

/// h-hop expected meeting times (the protocol's `hop_limit = 3`) and the
/// per-row cost of merging a peer's meeting rows.
fn meetings() -> Readings {
    let hhop_us = |n: usize, iters: usize| {
        let rows = meeting_rows(n);
        min_ns(5, || {
            for i in 0..iters {
                black_box(expected_meeting_times_from(
                    &rows,
                    NodeId((i % n) as u32),
                    3,
                ));
            }
        }) / iters as f64
            / 1e3
    };

    // A collector that has learned `ROWS` peers' rows, each from the peer
    // itself (row stamps only move through a node's own meetings and
    // merges); a fresh view then copies all of them in one merge.
    const N: usize = 400;
    const ROWS: usize = 64;
    let peers: Vec<NodeId> = (0..ROWS as u32).map(NodeId).collect();
    let mut collector = MeetingView::new(NodeId(N as u32 - 1), N);
    for &peer in &peers {
        let mut view = MeetingView::new(peer, N);
        for k in 1..=3u64 {
            view.record_meeting(NodeId(peer.0 + 100), Time::from_secs(60 * k));
        }
        collector.merge_rows_from(&view, &[peer]);
    }
    let merge_ns = (0..5)
        .map(|_| {
            let mut fresh = MeetingView::new(NodeId(N as u32 - 2), N);
            let start = Instant::now();
            fresh.merge_rows_from(&collector, &peers);
            let ns = start.elapsed().as_nanos() as f64;
            assert!(
                fresh.row(0)[100].is_finite(),
                "the merge must have copied the learned rows"
            );
            ns
        })
        .fold(f64::INFINITY, f64::min);

    vec![
        ("core.meetings.hhop_us.n40", hhop_us(40, 2_000)),
        ("core.meetings.hhop_us.n400", hhop_us(400, 40)),
        (
            "core.meetings.merge_ns_per_row.n400",
            merge_ns / ROWS as f64,
        ),
    ]
}

/// Event queue: one pop and one push against 100k queued events.
fn event_queue() -> Readings {
    const QUEUED: usize = 100_000;
    const OPS: usize = 200_000;
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let mut rng = SplitMix(1);
        let mut queue = EventQueue::new();
        for i in 0..QUEUED {
            queue.push(Time(rng.next() % 7_200_000_000), SimEvent::PacketCreated(i));
        }
        // The first pop sorts the seeded backbone; keep that out of the
        // steady state being measured.
        let (now, _) = queue.pop().expect("seeded");
        queue.push(now, SimEvent::PacketCreated(0));
        let start = Instant::now();
        for i in 0..OPS {
            let (t, event) = queue.pop().expect("never drains");
            black_box(event);
            queue.push(
                Time(t.0 + rng.next() % 900_000_000),
                SimEvent::PacketExpired(PacketId(i as u32)),
            );
        }
        best = best.min(start.elapsed().as_nanos() as f64);
    }
    vec![("sim.event.ns_per_op", best / OPS as f64)]
}

/// Node buffer: insert, `bytes_ahead` and remove over 10k replicas spread
/// across 64 destination queues.
fn node_buffer() -> Readings {
    const PACKETS: usize = 10_000;
    let mut rng = SplitMix(2);
    let packets: Vec<Packet> = (0..PACKETS)
        .map(|i| Packet {
            id: PacketId(i as u32),
            src: NodeId(1_000),
            dst: NodeId((rng.next() % 64) as u32),
            size_bytes: 1024,
            created_at: Time(rng.next() % 7_200_000_000),
        })
        .collect();
    let (mut insert, mut ahead, mut remove) = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    for _ in 0..5 {
        let mut buffer = NodeBuffer::new(u64::MAX);
        let start = Instant::now();
        for p in &packets {
            black_box(buffer.insert(p, p.created_at));
        }
        insert = insert.min(start.elapsed().as_nanos() as f64);
        let start = Instant::now();
        for p in &packets {
            black_box(buffer.bytes_ahead(p.dst, p.id, p.created_at));
        }
        ahead = ahead.min(start.elapsed().as_nanos() as f64);
        let start = Instant::now();
        for p in &packets {
            black_box(buffer.remove(p.id));
        }
        remove = remove.min(start.elapsed().as_nanos() as f64);
    }
    let n = PACKETS as f64;
    vec![
        ("sim.buffer.insert_ns", insert / n),
        ("sim.buffer.bytes_ahead_ns", ahead / n),
        ("sim.buffer.remove_ns", remove / n),
    ]
}

fn probe_fleet(contacts: u64) -> ScaleFleet {
    ScaleFleet {
        nodes: 20_000,
        contacts,
        opportunity_bytes: 2 * 1024,
        contact_duration: TimeDelta::ZERO,
        horizon: Time::from_secs(7200),
        hubs: 64,
        hub_bias: 0.3,
    }
}

/// Compiled plans and their `RPLN1` wire form, over an irregular
/// (Poisson) schedule of 100k windows — the literal-heavy worst case —
/// plus the generator that feeds `scale_stream`.
fn plans_and_generators() -> Readings {
    const WINDOWS: u64 = 100_000;
    let mut generated = Vec::new();
    let generate_ns = min_ns(3, || {
        generated = probe_fleet(WINDOWS).contact_stream(11, 0).collect();
    });
    let windows = generated.len() as f64;

    let mut plan = CompiledPlan::new(Vec::new());
    let compress_ns = min_ns(3, || {
        plan = CompiledPlan::compress(generated.iter().copied());
    });
    let plan = Arc::new(plan);
    let stream_ns = min_ns(3, || {
        black_box(plan.stream().count());
    });

    let record_plan = plan.to_record_plan();
    let mut bytes = Vec::new();
    let encode_ns = min_ns(5, || bytes = record_plan.to_bytes());
    let decode_ns = min_ns(5, || {
        black_box(dtn_trace::RecordPlan::from_bytes(&bytes).expect("own encoding decodes"));
    });
    let mb = bytes.len() as f64 / 1e6;

    let fleet = DieselNet::new(DieselNetConfig::default(), 11);
    let days = 10u32;
    let day_ns = min_ns(3, || {
        for day in 0..days {
            black_box(fleet.generate_day(day));
        }
    });

    vec![
        ("sim.plan.compress_ns_per_window", compress_ns / windows),
        ("sim.plan.stream_ns_per_window", stream_ns / windows),
        (
            "sim.plan.bytes_per_window",
            plan.in_memory_bytes() as f64 / windows,
        ),
        ("trace.rpln1.encode_mb_s", mb / (encode_ns / 1e9)),
        ("trace.rpln1.decode_mb_s", mb / (decode_ns / 1e9)),
        ("mobility.scale.ns_per_window", generate_ns / windows),
        ("mobility.dieselnet.day_ms", day_ns / f64::from(days) / 1e6),
    ]
}

/// Every isolated probe that can run at any point of the process.
pub fn isolated() -> Readings {
    let mut out = kernel();
    out.extend(meetings());
    out.extend(event_queue());
    out.extend(node_buffer());
    out.extend(plans_and_generators());
    out
}
