//! Memory regression guard for RAPID's per-node meeting state. A counting
//! global allocator tracks live heap bytes and their high-water mark; the
//! bounds sit an order of magnitude below what dense `n × n` meeting rows
//! cost (134 MB for one 4096-node view, 8 GB for a 1000-node fleet), so
//! reintroducing a per-node matrix fails here long before a benchmark run.
//! The fleet bounds are the measured peak + 25 %: one more dense 8-byte
//! per-peer vector (8 MB at 1000 nodes, 128 MB at 4000) would trip them
//! too.
//!
//! One test only: the counters are process-global, and a sibling test's
//! allocations would pollute the measurement.

use dtn_sim::workload::{PacketSpec, Workload};
use dtn_sim::{Contact, NodeId, Schedule, SimConfig, SimReport, Simulation, Time};
use rand::Rng;
use rapid_core::{MeetingView, Rapid, RapidConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

struct Tracking;

// SAFETY: delegates to `System`; the counters have no safety impact.
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        grew(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static TRACKER: Tracking = Tracking;

/// Peak live heap of an in-band RAPID run over a ring-like fleet: each
/// contact joins a random node to one of its next four neighbours (so
/// averages form) with opportunities large enough for whole meeting rows
/// to ship and merge; a packet every 20 s to a nearby destination.
fn fleet_peak(nodes: u32, contacts: u64, packets: u64) -> (usize, SimReport) {
    let mut rng = dtn_stats::stream(7, "meeting-memory");
    let contacts: Vec<Contact> = (0..contacts)
        .map(|k| {
            let a = rng.gen_range(0..nodes);
            let b = (a + rng.gen_range(1u32..5)) % nodes;
            Contact::new(Time::from_secs(10 + k), NodeId(a), NodeId(b), 1 << 20)
        })
        .collect();
    let specs: Vec<PacketSpec> = (0..packets)
        .map(|k| {
            let src = rng.gen_range(0..nodes);
            PacketSpec {
                time: Time::from_secs(1 + k * 20),
                src: NodeId(src),
                dst: NodeId((src + rng.gen_range(2u32..10)) % nodes),
                size_bytes: 1024,
            }
        })
        .collect();
    let horizon = Time::from_secs(1000 + contacts.len() as u64);
    let sim = Simulation::new(
        SimConfig {
            nodes: nodes as usize,
            horizon,
            ..SimConfig::default()
        },
        Schedule::new(contacts),
        Workload::new(specs),
    );
    let mut rapid = Rapid::new(RapidConfig::avg_delay());
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
    let report = sim.run(&mut rapid);
    (PEAK.load(Ordering::Relaxed), report)
}

#[test]
fn meeting_state_stays_far_below_dense_rows() {
    // An empty view allocates nothing per fleet member.
    let before = LIVE.load(Ordering::Relaxed);
    let view = MeetingView::new(NodeId(0), 4096);
    let view_bytes = LIVE.load(Ordering::Relaxed) - before;
    assert!(
        view_bytes < 1 << 10,
        "MeetingView::new(_, 4096) holds {view_bytes} B; a dense matrix would be 134 MB"
    );
    drop(view);

    // 1000 nodes through 5000 contacts. Measured 21.3 MB (debug and
    // release alike), 16.0 MB of it the dense `believed_opp` (two 8 B
    // columns per node); the bound is that + 25 %.
    let (peak, report) = fleet_peak(1000, 5000, 200);
    assert!(report.delivered() > 0, "the run must route something");
    assert!(
        report.metadata_bytes > 5000 * 12 * 1000,
        "meeting rows must actually have shipped"
    );
    assert!(
        peak < 26_600_000,
        "1000-node RAPID peaked at {} KiB of live heap; dense rows would be 8 GB",
        peak >> 10
    );

    // 4000 nodes through 1000 contacts: construction dominates. Measured
    // 258.6 MB, 256 MB of it the two `believed_opp` columns; with the
    // dense per-peer vectors this state used to keep it was 1.9 GB.
    let (peak, report) = fleet_peak(4000, 1000, 40);
    assert_eq!(report.contacts, 1000);
    assert!(
        peak < 323_000_000,
        "4000-node RAPID peaked at {} MiB of live heap",
        peak >> 20
    );
}
