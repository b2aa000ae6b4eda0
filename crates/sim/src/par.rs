//! The worker pool the sharded runtime ([`crate::shard`]) drains its
//! epochs on, and two inert names kept for outside callers.
//!
//! [`ContactPool::run`] executes one index-addressed task across a fixed
//! set of scoped workers; the caller participates, so one worker never
//! spawns. Workers claim indices one at a time from a shared cursor, so a
//! slow shard holds up only the worker draining it.
//! [`ContactPool::run_each`] hands every item of a slice to exactly one
//! call through a locked iterator — the split is the borrow checker's.
//! The only `unsafe` in the crate is the pool's lifetime erasure of its
//! task.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

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
/// the calling thread). The pool is started inside a
/// [`std::thread::scope`] by the sharded runtime, so no thread outlives the
/// run; dropping the pool shuts the workers down.
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
// Inert names
// ---------------------------------------------------------------------------

/// Always 1. The run has one event loop and one parallel executor, the
/// sharded runtime; this name stays only because the benchmark of record
/// still calls it, and goes with ROADMAP item 1. It reads no environment.
pub fn intra_jobs_from_env() -> usize {
    1
}

/// A field-less placeholder for the retired batch scheduler's lookahead
/// policy. Nothing reads [`crate::routing::SimConfig::lookahead`]; the
/// name stays only because the benchmark of record still builds one, and
/// goes with ROADMAP item 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lookahead;

impl Lookahead {
    /// Returns the placeholder. It reads no environment.
    pub fn from_env() -> Self {
        Lookahead
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

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
    fn intra_jobs_default_is_serial() {
        assert_eq!(intra_jobs_from_env(), 1);
        assert_eq!(Lookahead::from_env(), Lookahead);
    }

    #[test]
    fn parse_jobs_rejects_zero_and_garbage() {
        // The worker count a `ContactPool` is started with comes from
        // `RAPID_JOBS` through the shared parser: it must be a positive
        // integer, never zero.
        use crate::env::parse_jobs;
        assert_eq!(parse_jobs("RAPID_JOBS", "1"), Ok(1));
        assert_eq!(parse_jobs("RAPID_JOBS", " 8 "), Ok(8));
        assert!(parse_jobs("RAPID_JOBS", "0")
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
}
