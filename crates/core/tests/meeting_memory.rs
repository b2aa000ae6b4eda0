//! Memory regression guard for RAPID's per-node meeting state. A counting
//! global allocator tracks live heap bytes and their high-water mark; the
//! bounds sit an order of magnitude below what dense `n × n` meeting rows
//! cost (134 MB for one 4096-node view, 8 GB for a 1000-node fleet), so
//! reintroducing a per-node matrix fails here long before a benchmark run.
//! The fleet bound is the measured peak + 25 %: four more dense 8-byte
//! per-peer vectors (8 MB each at 1000 nodes) would trip it too.
//!
//! One test only: the counters are process-global, and a sibling test's
//! allocations would pollute the measurement.

use dtn_sim::workload::{PacketSpec, Workload};
use dtn_sim::{Contact, NodeId, Schedule, SimConfig, Simulation, Time};
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

#[test]
fn meeting_state_stays_far_below_dense_rows() {
    // An empty view is row headers and per-peer vectors, nothing n².
    let before = LIVE.load(Ordering::Relaxed);
    let view = MeetingView::new(NodeId(0), 4096);
    let view_bytes = LIVE.load(Ordering::Relaxed) - before;
    assert!(
        view_bytes < 512 << 10,
        "MeetingView::new(_, 4096) holds {view_bytes} B; a dense matrix would be 134 MB"
    );
    drop(view);

    // A 1000-node in-band fleet through 5000 contacts. Each node meets a
    // handful of neighbours repeatedly (so averages form) with opportunities
    // large enough for whole rows to ship and merge.
    const NODES: u32 = 1000;
    let mut rng = dtn_stats::stream(7, "meeting-memory");
    let contacts: Vec<Contact> = (0..5000u64)
        .map(|k| {
            let a = rng.gen_range(0..NODES);
            let b = (a + rng.gen_range(1u32..5)) % NODES;
            Contact::new(Time::from_secs(10 + k), NodeId(a), NodeId(b), 1 << 20)
        })
        .collect();
    let specs: Vec<PacketSpec> = (0..200u64)
        .map(|k| {
            let src = rng.gen_range(0..NODES);
            PacketSpec {
                time: Time::from_secs(1 + k * 20),
                src: NodeId(src),
                dst: NodeId((src + rng.gen_range(2u32..10)) % NODES),
                size_bytes: 1024,
            }
        })
        .collect();
    let sim = Simulation::new(
        SimConfig {
            nodes: NODES as usize,
            horizon: Time::from_secs(6000),
            ..SimConfig::default()
        },
        Schedule::new(contacts),
        Workload::new(specs),
    );
    let mut rapid = Rapid::new(RapidConfig::avg_delay());
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
    let report = sim.run(&mut rapid);
    let peak = PEAK.load(Ordering::Relaxed);
    assert!(report.delivered() > 0, "the run must route something");
    assert!(
        report.metadata_bytes > 5000 * 12 * NODES as u64,
        "meeting rows must actually have shipped"
    );
    // Measured 123.3 MB (117.6 MiB, debug and release alike); the bound is
    // that + 25 %.
    assert!(
        peak < 147 << 20,
        "1000-node RAPID peaked at {} MiB of live heap; dense rows would be 8 GB",
        peak >> 20
    );
}
