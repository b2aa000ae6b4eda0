//! Steady-state allocation audit for the contact hot path. A counting
//! global allocator wraps the system allocator; after a warm-up pass has
//! sized each structure's buffers, further same-shaped work must perform
//! **zero** heap allocations. Audited phases: snapshot refill (the
//! per-contact scratch reuse in `protocol/mod.rs`), the [`RateBatch`] kernel
//! rows (Eq. 4–9 over whole queues), the contact pool's dispatch by index
//! and by item, and whole RAPID contacts between nodes that have met
//! before (the sparse per-peer state's sorted inserts are
//! first-meeting-only).
//!
//! One test only: the counter is process-global, and a sibling test's
//! allocations would pollute the measurement.

use dtn_sim::workload::{PacketSpec, Workload};
use dtn_sim::{
    Contact, ContactDriver, ContactPool, NodeBuffer, NodeId, Packet, PacketId, PacketStore,
    Routing, Schedule, SimConfig, Simulation, Time,
};
use rapid_core::{Kernel, QueueSnapshot, Rapid, RapidConfig, RateBatch};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: delegates to `System`; the counter has no safety impact.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTER: Counting = Counting;

fn filled_buffer(id_base: u32, packets: usize, dsts: u32) -> NodeBuffer {
    let mut buf = NodeBuffer::new(u64::MAX);
    for k in 0..packets {
        let stored = buf.insert(
            &Packet {
                id: PacketId(id_base + k as u32),
                src: NodeId(0),
                dst: NodeId(1 + (k as u32 % dsts)),
                size_bytes: 1024,
                created_at: Time::from_secs(k as u64),
            },
            Time::from_secs(k as u64),
        );
        assert!(stored);
    }
    buf
}

#[test]
fn steady_state_snapshot_refill_allocates_nothing() {
    let first = filled_buffer(0, 48, 6);
    // Same shape (queue count and per-queue sizes), different packets —
    // the steady-state case: one contact after another refilling the same
    // scratch snapshot.
    let second = filled_buffer(1000, 48, 6);

    let mut snap = QueueSnapshot::default();
    // Warm-up: sizes every internal buffer.
    snap.refill_from_buffer(&first);

    let before = ALLOCS.load(Ordering::Relaxed);
    snap.refill_from_buffer(&second);
    snap.refill_from_buffer(&first);
    let after = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "steady-state snapshot refill must not touch the heap"
    );

    // The refilled snapshot still answers queries correctly.
    assert_eq!(
        snap.bytes_ahead(NodeId(1), PacketId(6), Time::from_secs(6)),
        1024,
        "second same-destination packet sits one packet deep"
    );

    rate_batch_phase();
    pool_phase();
    repeat_contact_phase();
}

/// RAPID behind a probe that counts the allocations of each `on_contact`.
struct PerContact {
    rapid: Rapid,
    allocs: Vec<usize>,
}

impl Routing for PerContact {
    fn name(&self) -> String {
        self.rapid.name()
    }
    fn on_init(&mut self, config: &SimConfig) {
        self.rapid.on_init(config);
    }
    fn on_contact(&mut self, driver: &mut ContactDriver<'_>) {
        let before = ALLOCS.load(Ordering::Relaxed);
        self.rapid.on_contact(driver);
        self.allocs.push(ALLOCS.load(Ordering::Relaxed) - before);
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
        self.rapid
            .make_room(node, incoming, needed, buffer, packets, now)
    }
}

/// Nodes 0 and 1 meet six times while 0 holds a packet for a node neither
/// ever meets (so every contact runs the exchange, the estimates and the
/// replication scoring). The first meeting inserts the peer into each
/// side's sorted per-peer state, the second its first average and learned
/// row; from the third on a contact must not touch the heap.
fn repeat_contact_phase() {
    let contacts = (1..=6)
        .map(|k| Contact::new(Time::from_secs(10 * k), NodeId(0), NodeId(1), 1 << 20))
        .collect();
    let sim = Simulation::new(
        SimConfig {
            nodes: 3,
            horizon: Time::from_secs(100),
            ..SimConfig::default()
        },
        Schedule::new(contacts),
        Workload::new(vec![PacketSpec {
            time: Time::from_secs(1),
            src: NodeId(0),
            dst: NodeId(2),
            size_bytes: 1024,
        }]),
    );
    let mut probe = PerContact {
        rapid: Rapid::new(RapidConfig::avg_delay()),
        allocs: Vec::new(),
    };
    sim.run(&mut probe);
    assert_eq!(probe.allocs.len(), 6);
    assert!(probe.allocs[0] > 0, "the first meeting sizes the state");
    assert_eq!(
        probe.allocs[2..],
        [0; 4],
        "a repeat contact must not touch the heap: {:?}",
        probe.allocs
    );
}

/// Same-length Eq. 4–9 kernel rows must reuse the batch's lane storage.
fn rate_batch_phase() {
    let mut batch = RateBatch::default();
    let kernel = Kernel::detect();
    // Warm-up: sizes the input and output lanes.
    for k in 0..33u64 {
        batch.push(k * 1024);
    }
    batch.compute(120.0, 4096.0, 1e9, kernel);

    let before = ALLOCS.load(Ordering::Relaxed);
    batch.clear();
    for k in 0..33u64 {
        batch.push(k * 2048 + 7);
    }
    let rows = batch.compute(90.0, 2048.0, 1e9, kernel);
    assert_eq!(rows.len(), 33);
    let after = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "steady-state RateBatch compute must not touch the heap"
    );
}

/// Dispatch reuses the pool's cursor and hand-shake state: after the
/// first batch, further batches allocate nothing — by index, and by item
/// through `run_each`'s locked iterator.
fn pool_phase() {
    std::thread::scope(|scope| {
        let pool = ContactPool::start(scope, 2);
        let hits = AtomicUsize::new(0);
        let task = |_worker: usize, _idx: usize| {
            hits.fetch_add(1, Ordering::Relaxed);
        };
        let mut items = vec![0u64; 64];
        let bump = |_worker: usize, item: &mut u64| *item += 1;
        // Warm-up: first dispatch may fault in thread state.
        pool.run(64, &task);
        pool.run_each(&mut items, &bump);

        let before = ALLOCS.load(Ordering::Relaxed);
        pool.run(64, &task);
        pool.run(64, &task);
        pool.run_each(&mut items, &bump);
        pool.run_each(&mut items, &bump);
        let after = ALLOCS.load(Ordering::Relaxed);
        assert_eq!(hits.load(Ordering::Relaxed), 192);
        assert!(
            items.iter().all(|&n| n == 3),
            "every item ran once per dispatch"
        );
        assert_eq!(
            after - before,
            0,
            "steady-state pool dispatch must not touch the heap"
        );
    });
}
