//! Intra-run parallel execution: the conservative batch scheduler, the
//! worker pool both parallel executors run on, and the borrow-checked
//! split that leases a batch its endpoints.
//!
//! The engine's event stream is inherently sequential — events commit in
//! the documented `(time, rank, seq)` order — but most of the *work* is
//! driven contacts, and a contact only touches per-endpoint state (its two
//! node buffers, its two protocol states) plus per-packet facts that are
//! exclusive to it (see `driver.rs`). Contacts whose node sets are
//! disjoint therefore commute, and the engine exploits that with a
//! conservative parallel discrete-event layer:
//!
//! 1. [`Batcher`] scans the merged event stream over a bounded lookahead
//!    window ([`Lookahead`], adaptive by default) and greedily groups
//!    contact drives with pairwise-disjoint node sets; a drive that
//!    conflicts with anything already grouped is *deferred* to a later
//!    pass (never reordered against a conflicting drive). Any non-contact
//!    event (creation, TTL expiry, churn) is a barrier: every pending
//!    drive executes before it.
//! 2. [`ContactPool`] executes one batch across `RAPID_INTRA_JOBS` workers
//!    (scoped threads; the caller participates, so `jobs = 1` never
//!    spawns). Workers claim indices one at a time from a shared cursor,
//!    so a slow contact holds up only the worker running it.
//! 3. The engine commits results — report accounting, holder-table ops,
//!    `on_contact_end` hooks — serially, in the scan order.
//!
//! Race freedom is the compiler's to check, not a contract's: each batch
//! member gets `&mut` access to its two endpoints through
//! [`disjoint_pairs`], a `split_at_mut` walk that panics when a node is
//! named twice; [`ContactPool::run_each`] hands every item to exactly one
//! worker through a locked iterator; and the per-packet facts a contact
//! writes (`delivered_at`) are relaxed atomics shared by `&`. The only
//! `unsafe` left is the pool's lifetime erasure of its task.
//!
//! Determinism argument: the scan itself follows the serial drain order
//! (so noise draws, suppression checks and contact sequence numbers are
//! identical to the serial engine); batch members are pairwise
//! node-disjoint, and a deferred drive is only ever executed *after*
//! every earlier drive it conflicts with; all cross-contact effects
//! (holder sets, delivered-at facts, report sums) commute across
//! node-disjoint contacts. `RAPID_INTRA_JOBS=1` (the default) bypasses
//! this module entirely — byte-identical by construction, not by
//! argument.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// How a routing protocol's contact handler may be scheduled within one
/// run (see [`crate::routing::Routing::contact_concurrency`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContactConcurrency {
    /// Contacts must be driven one at a time, in event order (the
    /// default; always correct).
    Serial,
    /// Contacts whose node sets are disjoint may be driven concurrently:
    /// the protocol promises that `on_contact` / `on_contact_end` touch
    /// only per-endpoint protocol state (plus the driver), and that any
    /// randomness is derived from the driver's contact sequence number
    /// rather than a shared stream.
    NodeDisjoint,
}

impl ContactConcurrency {
    /// Whether node-disjoint contacts may be driven concurrently within
    /// one instance (the gate of the intra-run batch scheduler and of the
    /// sharded runtime).
    pub fn is_node_disjoint(self) -> bool {
        self == Self::NodeDisjoint
    }

    /// Stable snake-case label for telemetry columns (the per-shard
    /// timing TSV's `concurrency` field).
    pub fn label(self) -> &'static str {
        match self {
            Self::Serial => "serial",
            Self::NodeDisjoint => "node_disjoint",
        }
    }
}

impl std::fmt::Display for ContactConcurrency {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

// The strict knob-parsing helpers began life here; re-exported from
// their consolidated home for compatibility.
pub use crate::env::{intra_jobs_from_env, jobs_from_env, parse_jobs};

/// The batch scheduler's lookahead policy: how many contact drives the
/// [`Batcher`] may hold before a flush is forced.
///
/// The bound trades batch width (more lookahead → wider node-disjoint
/// groups → better worker utilization) against flush latency and
/// conflict churn. `Adaptive` starts at `min` and resizes itself from
/// observed conflict rates: a capacity-triggered flush whose window was
/// conflict-free doubles the bound, a conflict-heavy window (deferred
/// drives ≥ ¼ of held) halves it. Adaptation depends only on the serial
/// drive stream, never on worker timing, so any policy at any
/// `RAPID_INTRA_JOBS` commits byte-identical results — the policy moves
/// only *where* the flush boundaries fall, and node-disjoint drives
/// commute across them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookahead {
    /// Flush after exactly `n` held drives (the pre-adaptive behavior;
    /// `Fixed(1024)` reproduces it).
    Fixed(usize),
    /// Self-sizing bound within `[min, max]`.
    Adaptive { min: usize, max: usize },
}

/// Default adaptive floor: small enough that conflict-heavy workloads
/// (hub topologies) flush promptly.
pub const LOOKAHEAD_MIN: usize = 64;
/// Default adaptive ceiling: wide enough to feed every worker on
/// conflict-free scale shapes.
pub const LOOKAHEAD_MAX: usize = 8192;

impl Default for Lookahead {
    fn default() -> Self {
        Lookahead::Adaptive {
            min: LOOKAHEAD_MIN,
            max: LOOKAHEAD_MAX,
        }
    }
}

impl Lookahead {
    /// Parses a `RAPID_LOOKAHEAD` value: `adaptive` (the default) or a
    /// fixed positive drive count. Anything else is an error.
    pub fn parse(value: Option<&str>) -> Result<Self, String> {
        match value {
            None => Ok(Self::default()),
            Some("adaptive") => Ok(Self::default()),
            Some(v) => match v.trim().parse::<usize>() {
                Ok(n) if n >= 1 => Ok(Lookahead::Fixed(n)),
                _ => Err(format!(
                    "invalid RAPID_LOOKAHEAD value {v:?}: expected \"adaptive\" or a positive drive count"
                )),
            },
        }
    }

    /// [`Lookahead::parse`] over the `RAPID_LOOKAHEAD` environment knob;
    /// invalid values abort with a clear message.
    pub fn from_env() -> Self {
        crate::env::from_env_or("RAPID_LOOKAHEAD", Self::default(), |v| Self::parse(Some(v)))
    }
}

// ---------------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------------

/// A raw reference to the batch task, stored type-erased so worker threads
/// can pick it up. Validity: only dereferenced for indices of the current
/// generation, all of which complete before [`ContactPool::run`] returns.
struct TaskRef(*const (dyn Fn(usize, usize) + Sync));
// SAFETY: the pointee is `Sync` (shared calls are safe) and the pointer is
// only dereferenced while `run` keeps the referent alive (see above).
#[allow(unsafe_code)]
unsafe impl Send for TaskRef {}

struct PoolState {
    /// Monotone batch counter; workers wake when it advances.
    generation: u64,
    /// Highest generation fully completed (all `n` indices executed and
    /// every drainer left). Guarded by the mutex: once set, late-waking
    /// workers skip the generation entirely.
    completed: u64,
    /// The current batch task and its index count. The pointer is only
    /// dereferenced after a successful index claim, which can only happen
    /// while [`ContactPool::run`] is still blocked on this generation.
    task: Option<TaskRef>,
    n: usize,
    /// Workers currently inside the drain loop of the current generation.
    /// `run` does not return (and no later generation can reset the
    /// cursor) until this reaches zero — which is what makes the raw task
    /// pointer and the shared atomics sound across generations.
    active: usize,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Workers wait here for a new generation (or shutdown).
    work: Condvar,
    /// The caller waits here for batch completion.
    done_cv: Condvar,
    /// Next unclaimed index of the current batch; a `fetch_add` that
    /// returns `i < n` is the claim on index `i`.
    next: AtomicUsize,
    /// Indices completed within the current batch.
    done: AtomicUsize,
}

/// Drains batch work as `worker`: claims indices off the shared cursor
/// until it runs past `n`. Every index below `n` is returned by exactly
/// one `fetch_add`, so each runs exactly once; completion is counted by
/// `done`.
fn drain_batch(shared: &PoolShared, worker: usize, n: usize, task: &(dyn Fn(usize, usize) + Sync)) {
    loop {
        // Relaxed: the claim publishes nothing. The cursor's reset and the
        // task reach a worker through the state mutex, and the task's
        // effects reach the caller through `done` and that same mutex.
        let i = shared.next.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            return;
        }
        task(worker, i);
        shared.done.fetch_add(1, Ordering::AcqRel);
    }
}

/// A run-scoped worker pool executing index-addressed batch tasks.
///
/// `run(n, task)` calls `task(worker, index)` for every `index in 0..n`,
/// spreading indices over `jobs` workers (`worker in 0..jobs`; worker 0 is
/// the calling thread). Per-worker scratch state can safely be indexed by
/// `worker`. The pool is started inside a [`std::thread::scope`] by the
/// engine, so no thread outlives the run; dropping the pool shuts the
/// workers down.
pub struct ContactPool {
    shared: Arc<PoolShared>,
    jobs: usize,
}

impl ContactPool {
    /// Starts `jobs - 1` workers on `scope` (the caller is worker 0).
    pub fn start<'scope, 'env>(
        scope: &'scope std::thread::Scope<'scope, 'env>,
        jobs: usize,
    ) -> Self {
        assert!(jobs >= 1, "need at least the calling worker");
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                generation: 0,
                completed: 0,
                task: None,
                n: 0,
                active: 0,
                shutdown: false,
            }),
            work: Condvar::new(),
            done_cv: Condvar::new(),
            next: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
        });
        for worker in 1..jobs {
            let shared = Arc::clone(&shared);
            scope.spawn(move || worker_loop(&shared, worker));
        }
        Self { shared, jobs }
    }

    /// Number of workers, including the calling thread. Protocols size
    /// per-worker scratch tables off this.
    pub fn workers(&self) -> usize {
        self.jobs
    }

    /// Executes `task(worker, index)` for every `index in 0..n` and
    /// returns when all calls completed. Calls for distinct indices may
    /// run concurrently on distinct workers, so `task` is `Sync`: whatever
    /// it mutates per index it must reach through its own split (see
    /// [`ContactPool::run_each`]) or a lock.
    #[allow(unsafe_code)]
    pub fn run(&self, n: usize, task: &(dyn Fn(usize, usize) + Sync)) {
        if n == 0 {
            return;
        }
        if self.jobs == 1 || n == 1 {
            for i in 0..n {
                task(0, i);
            }
            return;
        }
        {
            let mut state = self.shared.state.lock().expect("pool lock");
            // No drainer of an earlier generation can be live here: `run`
            // only returned once `active == 0`, and workers re-enter the
            // drain only for a fresh, uncompleted generation.
            self.shared.done.store(0, Ordering::Relaxed);
            self.shared.next.store(0, Ordering::Relaxed);
            // SAFETY: lifetime erasure only — the pointer is dereferenced
            // solely for indices of this generation, all of which complete
            // before `run` returns (the completion wait below).
            let erased: &'static (dyn Fn(usize, usize) + Sync) =
                unsafe { std::mem::transmute(task) };
            state.task = Some(TaskRef(erased as *const _));
            state.n = n;
            state.generation += 1;
        }
        self.shared.work.notify_all();

        // The caller participates as worker 0 (through the safe
        // reference; worker threads go through the claimed-index raw
        // pointer path, see `worker_loop`).
        drain_batch(&self.shared, 0, n, task);

        // Wait until every index completed AND every worker has left the
        // drain loop; only then may the task reference die or the atomics
        // be reused. Marking the generation completed under the same lock
        // hold makes late-waking workers skip it entirely.
        let mut state = self.shared.state.lock().expect("pool lock");
        while self.shared.done.load(Ordering::Acquire) < n || state.active > 0 {
            state = self.shared.done_cv.wait(state).expect("pool wait");
        }
        state.completed = state.generation;
    }

    /// Executes `task(worker, item)` once for every element of `items`
    /// and returns when all calls completed. Workers take items off one
    /// locked iterator, so each `&mut` goes to exactly one call — the
    /// split is the borrow checker's, and the cost is one uncontended lock
    /// per item on top of [`ContactPool::run`]'s claim.
    pub fn run_each<T: Send>(&self, items: &mut [T], task: &(dyn Fn(usize, &mut T) + Sync)) {
        let n = items.len();
        let queue = Mutex::new(items.iter_mut());
        self.run(n, &|worker, _| {
            let item = queue
                .lock()
                .expect("run_each queue lock")
                .next()
                .expect("one item per claimed index");
            task(worker, item);
        });
    }
}

impl Drop for ContactPool {
    fn drop(&mut self) {
        let mut state = self.shared.state.lock().expect("pool lock");
        state.shutdown = true;
        drop(state);
        self.shared.work.notify_all();
    }
}

#[allow(unsafe_code)]
fn worker_loop(shared: &PoolShared, worker: usize) {
    let mut last_seen = 0u64;
    loop {
        let (task, n) = {
            let mut state = shared.state.lock().expect("pool lock");
            loop {
                if state.shutdown {
                    return;
                }
                if state.generation > last_seen {
                    if state.completed >= state.generation {
                        // Woke after the batch already finished: skip it.
                        last_seen = state.generation;
                    } else {
                        break;
                    }
                }
                state = shared.work.wait(state).expect("pool wait");
            }
            last_seen = state.generation;
            state.active += 1;
            let task = state.task.as_ref().expect("live generation has a task").0;
            (task, state.n)
        };
        // SAFETY: while this worker counts as `active`, `run` is still
        // blocked on this generation (it waits for done == n and
        // active == 0), so the referent is alive.
        let task: &(dyn Fn(usize, usize) + Sync) = unsafe { &*task };
        drain_batch(shared, worker, n, task);
        let mut state = shared.state.lock().expect("pool lock");
        state.active -= 1;
        drop(state);
        shared.done_cv.notify_all();
    }
}

// ---------------------------------------------------------------------------
// Disjoint leases
// ---------------------------------------------------------------------------

/// Leases `[x, y]` out of `items` for every `(x, y)` of `pairs`, in
/// `pairs` order — how a batch of node-disjoint contacts borrows its
/// endpoints' buffers or protocol states. The indices are sorted and taken
/// by one `split_at_mut` walk; an index named twice (an overlapping batch,
/// or a pair with itself) panics in every build.
pub fn disjoint_pairs<T>(
    items: &mut [T],
    pairs: impl Iterator<Item = (usize, usize)>,
) -> Vec<(&mut T, &mut T)> {
    let mut order: Vec<(usize, usize)> = pairs
        .enumerate()
        .flat_map(|(k, (x, y))| [(x, 2 * k), (y, 2 * k + 1)])
        .collect();
    order.sort_unstable();
    let mut slots: Vec<Option<&mut T>> = order.iter().map(|_| None).collect();
    let (mut rest, mut next) = (items, 0);
    for (i, slot) in order {
        assert!(
            i >= next,
            "batch members must be node-disjoint: index {i} is leased twice"
        );
        let (item, tail) = std::mem::take(&mut rest)
            .split_at_mut(i - next)
            .1
            .split_first_mut()
            .expect("pair index in bounds");
        slots[slot] = Some(item);
        (rest, next) = (tail, i + 1);
    }
    let mut leased = slots.into_iter().map(|s| s.expect("every slot is leased"));
    std::iter::from_fn(|| Some((leased.next()?, leased.next()?))).collect()
}

// ---------------------------------------------------------------------------
// Batch grouping
// ---------------------------------------------------------------------------

/// One contact drive pending batch execution; built by the engine's scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingDrive {
    /// The window being driven.
    pub window: crate::contact::ContactWindow,
    /// The drive instant (window close, or start for instantaneous).
    pub now: crate::time::Time,
    /// Per-direction byte budget.
    pub budget: u64,
    /// Contact sequence number in serial scan order (drives the
    /// per-contact RNG substreams of randomized protocols).
    pub seq: u64,
    /// Whether this contact falls in the measured span.
    pub measured: bool,
}

/// Greedy conflict-free grouping of contact drives (see the module docs).
///
/// Drives are `push`ed in serial scan order. A drive whose node set is
/// disjoint from everything currently held joins the *ready* set; a
/// conflicting drive is *deferred*. [`Batcher::take_ready_into`] yields
/// the ready set for execution and promotes deferred drives (in order,
/// again conflict-checked) into the next ready set, so two conflicting
/// drives always execute in scan order, across distinct passes.
#[derive(Debug)]
pub struct Batcher {
    ready: Vec<PendingDrive>,
    deferred: Vec<PendingDrive>,
    /// Epoch-stamped membership: `stamp[node] == epoch` means some held
    /// drive (ready or deferred) uses the node.
    stamp: Vec<u64>,
    epoch: u64,
    policy: Lookahead,
    /// Current flush bound (fixed, or the adaptive policy's live value).
    lookahead: usize,
}

impl Batcher {
    /// A batcher for `nodes` node ids under the given lookahead policy
    /// (bounding the drives held before a flush is forced).
    pub fn new(nodes: usize, policy: Lookahead) -> Self {
        let lookahead = match policy {
            Lookahead::Fixed(n) => n.max(1),
            Lookahead::Adaptive { min, .. } => min.max(1),
        };
        Self {
            ready: Vec::new(),
            deferred: Vec::new(),
            stamp: vec![0; nodes],
            epoch: 0,
            policy,
            lookahead,
        }
    }

    /// The current flush bound (observable for tests and diagnostics).
    pub fn lookahead(&self) -> usize {
        self.lookahead
    }

    /// Number of drives currently held (ready + deferred).
    pub fn held(&self) -> usize {
        self.ready.len() + self.deferred.len()
    }

    /// Whether the lookahead bound is reached and a flush is due.
    pub fn full(&self) -> bool {
        self.held() >= self.lookahead
    }

    /// Whether no drives are held.
    pub fn is_empty(&self) -> bool {
        self.held() == 0
    }

    fn uses(&self, node: usize) -> bool {
        self.stamp[node] == self.epoch
    }

    fn mark(&mut self, node: usize) {
        self.stamp[node] = self.epoch;
    }

    /// Adds a drive in scan order.
    pub fn push(&mut self, drive: PendingDrive) {
        if self.is_empty() {
            self.epoch += 1;
        }
        let (a, b) = (drive.window.a.index(), drive.window.b.index());
        if self.uses(a) || self.uses(b) {
            self.deferred.push(drive);
        } else {
            self.ready.push(drive);
        }
        self.mark(a);
        self.mark(b);
    }

    /// Takes the ready set (pairwise node-disjoint, scan-ordered) into
    /// `out` for execution, then promotes deferred drives into the next
    /// ready set. Leaves `out` empty when nothing is held. Call
    /// repeatedly until empty to flush.
    ///
    /// Allocation-free in steady state: `out`'s storage is swapped with
    /// the internal ready vector (capacities ping-pong between the two),
    /// and the deferred list is compacted in place.
    ///
    /// An adaptive policy resizes itself here, exactly when the flush was
    /// capacity-triggered (`full()` on entry): a window with no conflicts
    /// doubles the bound, a conflict-heavy one (deferred ≥ ¼ of held)
    /// halves it. The decision reads only the held drives — a pure
    /// function of the serial drive stream, independent of worker count
    /// and timing.
    pub fn take_ready_into(&mut self, out: &mut Vec<PendingDrive>) {
        if self.full() {
            if let Lookahead::Adaptive { min, max } = self.policy {
                if self.deferred.is_empty() {
                    self.lookahead = (self.lookahead * 2).min(max.max(1));
                } else if self.deferred.len() * 4 >= self.held() {
                    self.lookahead = (self.lookahead / 2).max(min.max(1));
                }
            }
        }
        out.clear();
        std::mem::swap(&mut self.ready, out);
        // Re-admit deferred drives in order under a fresh epoch; drives
        // conflicting among themselves defer again (compacted in place —
        // the write index never passes the read index).
        self.epoch += 1;
        let mut kept = 0;
        for idx in 0..self.deferred.len() {
            let drive = self.deferred[idx];
            let (a, b) = (drive.window.a.index(), drive.window.b.index());
            if self.uses(a) || self.uses(b) {
                self.deferred[kept] = drive;
                kept += 1;
            } else {
                self.ready.push(drive);
            }
            self.mark(a);
            self.mark(b);
        }
        self.deferred.truncate(kept);
    }

    /// [`Batcher::take_ready_into`] returning a fresh vector (test and
    /// small-call convenience; the engine uses the reusable form).
    pub fn take_ready(&mut self) -> Vec<PendingDrive> {
        let mut out = Vec::new();
        self.take_ready_into(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contact::ContactWindow;
    use crate::time::Time;
    use crate::types::NodeId;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn drive(seq: u64, a: u32, b: u32) -> PendingDrive {
        PendingDrive {
            window: ContactWindow::instant(Time::from_secs(seq), NodeId(a), NodeId(b), 1),
            now: Time::from_secs(seq),
            budget: 1,
            seq,
            measured: true,
        }
    }

    #[test]
    fn batcher_groups_disjoint_and_defers_conflicts() {
        let mut b = Batcher::new(10, Lookahead::Fixed(64));
        b.push(drive(0, 0, 1));
        b.push(drive(1, 2, 3)); // disjoint → same batch
        b.push(drive(2, 1, 4)); // conflicts with (0,1) → deferred
        b.push(drive(3, 4, 5)); // conflicts with deferred (1,4) → deferred
        b.push(drive(4, 6, 7)); // disjoint from everything held → ready
        let first: Vec<u64> = b.take_ready().iter().map(|d| d.seq).collect();
        assert_eq!(first, vec![0, 1, 4]);
        let second: Vec<u64> = b.take_ready().iter().map(|d| d.seq).collect();
        assert_eq!(second, vec![2], "deferred drives stay in scan order");
        let third: Vec<u64> = b.take_ready().iter().map(|d| d.seq).collect();
        assert_eq!(third, vec![3]);
        assert!(b.is_empty());
        assert!(b.take_ready().is_empty());
    }

    #[test]
    fn batcher_lookahead_bounds_held_drives() {
        let mut b = Batcher::new(100, Lookahead::Fixed(4));
        for i in 0..4 {
            assert!(!b.full());
            b.push(drive(i, 2 * i as u32, 2 * i as u32 + 1));
        }
        assert!(b.full());
    }

    #[test]
    fn adaptive_lookahead_grows_when_conflict_free_and_shrinks_under_conflicts() {
        let mut b = Batcher::new(100, Lookahead::Adaptive { min: 4, max: 16 });
        assert_eq!(b.lookahead(), 4);
        // Conflict-free capacity flush: the bound doubles.
        for i in 0..4 {
            b.push(drive(i, 2 * i as u32, 2 * i as u32 + 1));
        }
        assert!(b.full());
        while !b.is_empty() {
            b.take_ready();
        }
        assert_eq!(b.lookahead(), 8);
        // Conflict-heavy capacity flush (every drive shares node 0): the
        // bound halves again, and never below the floor.
        for round in 0..4 {
            for i in 0..b.lookahead() as u64 {
                b.push(drive(i, 0, 1 + i as u32));
            }
            assert!(b.full());
            while !b.is_empty() {
                b.take_ready();
            }
            assert!(b.lookahead() >= 4, "round {round} went below the floor");
        }
        assert_eq!(b.lookahead(), 4);
        // Barrier flushes (not full) never adapt.
        b.push(drive(0, 50, 51));
        while !b.is_empty() {
            b.take_ready();
        }
        assert_eq!(b.lookahead(), 4);
    }

    #[test]
    fn take_ready_into_reuses_storage() {
        let mut b = Batcher::new(10, Lookahead::Fixed(64));
        let mut out = Vec::with_capacity(8);
        for round in 0..5u64 {
            b.push(drive(round, 0, 1));
            b.push(drive(round, 2, 3));
            b.take_ready_into(&mut out);
            assert_eq!(out.len(), 2);
            assert!(out.capacity() >= 2, "swapped storage keeps usable capacity");
            assert!(b.is_empty());
        }
    }

    #[test]
    fn parse_jobs_rejects_zero_and_garbage() {
        assert_eq!(parse_jobs("RAPID_INTRA_JOBS", "1"), Ok(1));
        assert_eq!(parse_jobs("RAPID_INTRA_JOBS", " 8 "), Ok(8));
        assert!(parse_jobs("RAPID_INTRA_JOBS", "0")
            .unwrap_err()
            .contains("must be >= 1"));
        for bad in ["", "four", "-2", "1.5"] {
            assert!(
                parse_jobs("RAPID_JOBS", bad)
                    .unwrap_err()
                    .contains("positive integer"),
                "{bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn lookahead_parse_is_strict() {
        assert_eq!(Lookahead::parse(None), Ok(Lookahead::default()));
        assert_eq!(Lookahead::parse(Some("adaptive")), Ok(Lookahead::default()));
        assert_eq!(Lookahead::parse(Some("1024")), Ok(Lookahead::Fixed(1024)));
        for bad in ["0", "", "fast", "-1"] {
            assert!(Lookahead::parse(Some(bad)).is_err(), "{bad:?} must error");
        }
    }

    #[test]
    fn pool_runs_every_index_once_under_front_loaded_work() {
        // Front-loaded work: the first quarter of the indices is slow, so
        // workers sit in long tasks while others race the cursor to its
        // end; no index may be lost or run twice.
        std::thread::scope(|scope| {
            let pool = ContactPool::start(scope, 4);
            let hits: Vec<AtomicUsize> = (0..256).map(|_| AtomicUsize::new(0)).collect();
            pool.run(hits.len(), &|_, i| {
                if i < 64 {
                    std::thread::sleep(std::time::Duration::from_micros(50));
                }
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            for (i, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::Relaxed), 1, "index {i} ran once");
            }
        });
    }

    #[test]
    fn pool_runs_every_index_once() {
        std::thread::scope(|scope| {
            let pool = ContactPool::start(scope, 4);
            let hits: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
            for round in 0..10 {
                pool.run(hits.len(), &|worker, i| {
                    assert!(worker < 4);
                    hits[i].fetch_add(1, Ordering::Relaxed);
                });
                for h in &hits {
                    assert_eq!(h.load(Ordering::Relaxed), round + 1);
                }
            }
        });
    }

    #[test]
    fn pool_single_worker_runs_inline() {
        std::thread::scope(|scope| {
            let pool = ContactPool::start(scope, 1);
            let mut seen = Vec::new();
            let cell = std::sync::Mutex::new(&mut seen);
            pool.run(5, &|worker, i| {
                assert_eq!(worker, 0);
                cell.lock().unwrap().push(i);
            });
            assert_eq!(seen, vec![0, 1, 2, 3, 4]);
        });
    }

    #[test]
    fn run_each_visits_every_item_once_under_front_loaded_work() {
        // The twin of the index test above, through the item queue: the
        // first quarter of the items is slow, and every item must still be
        // handed to exactly one call.
        std::thread::scope(|scope| {
            let pool = ContactPool::start(scope, 4);
            let mut items: Vec<(usize, u32)> = (0..256).map(|i| (i, 0)).collect();
            pool.run_each(&mut items, &|worker, (i, hits)| {
                assert!(worker < 4);
                if *i < 64 {
                    std::thread::sleep(std::time::Duration::from_micros(50));
                }
                *hits += 1;
            });
            for (i, hits) in &items {
                assert_eq!(*hits, 1, "item {i} ran once");
            }
        });
    }

    #[test]
    fn disjoint_pairs_lease_in_pair_order() {
        let mut data = vec![0u32; 8];
        for (k, (x, y)) in disjoint_pairs(&mut data, [(6, 1), (3, 7), (0, 2)].into_iter())
            .into_iter()
            .enumerate()
        {
            *x = 10 * k as u32 + 1;
            *y = 10 * k as u32 + 2;
        }
        assert_eq!(data, vec![21, 2, 22, 11, 0, 0, 1, 12]);
    }

    #[test]
    #[should_panic(expected = "batch members must be node-disjoint: index 1 is leased twice")]
    fn an_overlapping_batch_panics() {
        let mut data = vec![0u32; 4];
        let _ = disjoint_pairs(&mut data, [(0, 1), (1, 2)].into_iter());
    }

    #[test]
    #[should_panic(expected = "index 2 is leased twice")]
    fn a_pair_with_itself_panics() {
        let mut data = vec![0u32; 4];
        let _ = disjoint_pairs(&mut data, [(2, 2)].into_iter());
    }

    #[test]
    fn intra_jobs_default_is_serial() {
        // The knob is read by harness code; unset it means 1.
        assert!(intra_jobs_from_env() >= 1);
    }
}
