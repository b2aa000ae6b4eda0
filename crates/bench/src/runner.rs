//! Run assembly and a small worker pool.
//!
//! A [`RunSpec`] no longer owns materialized scenario data: contacts and
//! packets are described by [`ContactsSpec`] / [`PacketsSpec`], which open
//! a fresh streaming source per run. Materialized scenarios are shared
//! behind `Arc`s and streamed through cursors — zero per-run clones —
//! while generator-backed scenarios are never materialized at all.

use crate::proto::Proto;
use dtn_sim::checkpoint::routing_checkpointable;
use dtn_sim::source::{ContactSource, ScheduleStream, WorkloadSource, WorkloadStream};
use dtn_sim::workload::Workload;
use dtn_sim::{
    config_digest, diag, load_latest, run_sharded_hooked, Checkpointer, CompiledPlan, Fault,
    FaultPlan, NodeEvent, NoiseModel, Partition, RunHooks, Schedule, ShardStats, SimConfig,
    SimReport, Time, TimeDelta,
};
use std::collections::BTreeMap;
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};

/// Factory building a fresh contact source for one run.
pub type ContactFactory = Arc<dyn Fn() -> Box<dyn ContactSource + Send> + Send + Sync>;

/// Factory building a fresh workload source for one run.
pub type PacketFactory = Arc<dyn Fn() -> Box<dyn WorkloadSource + Send> + Send + Sync>;

/// How a run obtains its contact windows.
#[derive(Clone)]
pub enum ContactsSpec {
    /// A materialized schedule shared behind an `Arc`, streamed through a
    /// per-run cursor (the seed-exact path; never cloned).
    Shared(Arc<Schedule>),
    /// A factory that opens a fresh streaming source per run; the schedule
    /// never exists in memory.
    Streaming(ContactFactory),
    /// A compiled (compressed) plan shared behind an `Arc`, expanded
    /// through a per-run [`dtn_sim::PlanStream`] cursor. Like `Shared` the scenario
    /// is built once and never cloned per run — but the shared state is
    /// the atom plan, not the expansion, so a sweep holds the plan's
    /// memory, not `windows × runs × protocols`.
    Compiled(Arc<CompiledPlan>),
}

impl ContactsSpec {
    /// Wraps a materialized schedule for sharing.
    pub fn shared(schedule: Schedule) -> Self {
        Self::Shared(Arc::new(schedule))
    }

    /// Wraps a per-run source factory.
    pub fn streaming<F>(factory: F) -> Self
    where
        F: Fn() -> Box<dyn ContactSource + Send> + Send + Sync + 'static,
    {
        Self::Streaming(Arc::new(factory))
    }

    /// Wraps a compiled plan for sharing across sweep points.
    pub fn compiled(plan: Arc<CompiledPlan>) -> Self {
        Self::Compiled(plan)
    }

    /// Opens a fresh source over this scenario.
    pub fn source(&self) -> Box<dyn ContactSource + Send> {
        match self {
            Self::Shared(s) => Box::new(ScheduleStream::new(Arc::clone(s))),
            Self::Streaming(f) => f(),
            Self::Compiled(p) => Box::new(p.stream()),
        }
    }

    /// Drains a fresh source into a [`Schedule`] — for consumers that need
    /// random access (the optimal solver, diagnostics). Costs the full
    /// materialization a streaming run avoids; keep it off hot paths.
    pub fn materialize(&self) -> Schedule {
        match self {
            Self::Shared(s) => (**s).clone(),
            Self::Streaming(_) => {
                let mut source = self.source();
                let mut windows = Vec::new();
                while let Some(w) = source.next_window() {
                    windows.push(w);
                }
                Schedule::new(windows)
            }
            Self::Compiled(p) => p.materialize(),
        }
    }
}

impl fmt::Debug for ContactsSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Shared(s) => f.debug_tuple("Shared").field(&s.len()).finish(),
            Self::Streaming(_) => f.write_str("Streaming(..)"),
            Self::Compiled(p) => f
                .debug_struct("Compiled")
                .field("atoms", &p.atom_count())
                .field("windows", &p.window_count())
                .finish(),
        }
    }
}

/// How a run obtains its packet creations.
#[derive(Clone)]
pub enum PacketsSpec {
    /// A materialized workload shared behind an `Arc`, streamed through a
    /// per-run cursor.
    Shared(Arc<Workload>),
    /// A factory that opens a fresh streaming source per run.
    Streaming(PacketFactory),
}

impl PacketsSpec {
    /// Wraps a materialized workload for sharing.
    pub fn shared(workload: Workload) -> Self {
        Self::Shared(Arc::new(workload))
    }

    /// Wraps a per-run source factory.
    pub fn streaming<F>(factory: F) -> Self
    where
        F: Fn() -> Box<dyn WorkloadSource + Send> + Send + Sync + 'static,
    {
        Self::Streaming(Arc::new(factory))
    }

    /// Opens a fresh source over this workload.
    pub fn source(&self) -> Box<dyn WorkloadSource + Send> {
        match self {
            Self::Shared(w) => Box::new(WorkloadStream::new(Arc::clone(w))),
            Self::Streaming(f) => f(),
        }
    }

    /// Drains a fresh source into a [`Workload`] (see
    /// [`ContactsSpec::materialize`]).
    pub fn materialize(&self) -> Workload {
        match self {
            Self::Shared(w) => (**w).clone(),
            Self::Streaming(_) => {
                let mut source = self.source();
                let mut specs = Vec::new();
                while let Some(s) = source.next_packet() {
                    specs.push(s);
                }
                Workload::new(specs)
            }
        }
    }
}

impl fmt::Debug for PacketsSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Shared(w) => f.debug_tuple("Shared").field(&w.len()).finish(),
            Self::Streaming(_) => f.write_str("Streaming(..)"),
        }
    }
}

/// A fully specified simulation job.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Contact-window scenario.
    pub contacts: ContactsSpec,
    /// Packet workload scenario.
    pub packets: PacketsSpec,
    /// Node-id space.
    pub nodes: usize,
    /// Per-node buffer capacity, bytes.
    pub buffer: u64,
    /// Delivery deadline (reporting and the RAPID deadline metric).
    pub deadline: TimeDelta,
    /// End of the run.
    pub horizon: Time,
    /// Run seed.
    pub seed: u64,
    /// Deployment-noise emulation, if any.
    pub noise: Option<NoiseModel>,
    /// Start of the measured window (contacts before it are warm-up).
    pub measure_from: Time,
    /// Node churn events (empty = everyone stays up, the paper's model).
    pub churn: Vec<NodeEvent>,
    /// Per-packet TTL (`None` = packets live to the horizon).
    pub ttl: Option<TimeDelta>,
}

/// Executes one job with one protocol, streaming the scenario through the
/// engine — no per-run clones of schedules or workloads.
///
/// `RAPID_SHARDS=N` (default 1 = today's engine) routes the run through
/// the sharded runtime over an even node partition; results are
/// byte-identical at any shard count. Every `NodeDisjoint` protocol
/// qualifies (plain Random, Epidemic, in-band/local RAPID) and runs as
/// one instance drained through per-shard views. `Serial` protocols and
/// global-knowledge runs fall back to the serial engine — same report,
/// one event loop — with a one-shot warning naming the protocol and the
/// reason (no silent fallback).
pub fn run_spec(spec: &RunSpec, proto: Proto) -> SimReport {
    run_spec_on(spec, proto, &env_partition(spec.nodes)).0
}

/// The even partition of `nodes` into `RAPID_SHARDS` shards (clamped to
/// the node count).
pub(crate) fn env_partition(nodes: usize) -> Partition {
    let shards = dtn_sim::clamp_shards(dtn_sim::shards_from_env(), nodes);
    Partition::even(nodes, shards)
}

/// The engine [`SimConfig`] for one job (shared by the direct and the
/// checkpointed paths — the snapshot config digest hangs off it).
fn spec_config(spec: &RunSpec, proto: Proto) -> SimConfig {
    SimConfig {
        nodes: spec.nodes,
        buffer_capacity: spec.buffer,
        deadline: Some(spec.deadline),
        ttl: spec.ttl,
        horizon: spec.horizon,
        allow_global_knowledge: proto.needs_global(),
        seed: spec.seed,
        measure_from: spec.measure_from,
        ..SimConfig::default()
    }
}

/// [`run_spec`] over an explicit node partition (one shard = the serial
/// engine), returning the per-shard telemetry as well — one row on the
/// serial engine, including a warned serial fallback. Every attempt
/// [`run_with_recovery`] makes opens the scenario sources afresh, so
/// retries replay the identical input streams.
pub(crate) fn run_spec_on(
    spec: &RunSpec,
    proto: Proto,
    partition: &Partition,
) -> (SimReport, Vec<ShardStats>) {
    let config = spec_config(spec, proto);
    let measured_len = TimeDelta(spec.horizon.0.saturating_sub(spec.measure_from.0));
    let probe = proto.build(spec.deadline, measured_len);
    let checkpointable = routing_checkpointable(probe.as_ref());
    let shards = partition.shards();
    let serial;
    let partition = if shards > 1
        && (config.allow_global_knowledge || !probe.contact_concurrency().is_node_disjoint())
    {
        // Loud serial fallback: say once per process why RAPID_SHARDS had
        // no effect, instead of quietly timing the serial engine.
        let (reason, tag) = if config.allow_global_knowledge {
            (
                "it needs global knowledge (an oracle, not a protocol state partition)",
                "global-knowledge",
            )
        } else {
            (
                "its contact handling declares ContactConcurrency::Serial",
                "serial-concurrency",
            )
        };
        diag::warn_once(
            "serial-fallback",
            &format!(
                "RAPID_SHARDS={shards} ignored for {}: {reason}; running serial",
                probe.name()
            ),
            &[
                ("proto", probe.name()),
                ("shards", shards.to_string()),
                ("reason", tag.into()),
            ],
        );
        serial = Partition::even(spec.nodes, 1);
        &serial
    } else {
        partition
    };
    let mut stats = Vec::new();
    let report = run_with_recovery(&config, &probe.name(), checkpointable, &mut |hooks| {
        let mut contacts = spec.contacts.source();
        let mut packets = spec.packets.source();
        let (report, shard_stats) = run_sharded_hooked(
            &config,
            partition,
            contacts.as_mut(),
            packets.as_mut(),
            &spec.churn,
            spec.noise,
            &mut || proto.build(spec.deadline, measured_len),
            hooks,
        );
        stats = shard_stats;
        report
    });
    (report, stats)
}

/// Checkpoint policy from the environment:
///
/// * `RAPID_CKPT_EVERY_S` — snapshot cadence in sim seconds; unset or
///   absent = checkpointing off (the zero-overhead default).
/// * `RAPID_CKPT_DIR` — checkpoint directory (default `rapid-ckpt`).
///   Each job writes under a subdirectory keyed by its config digest and
///   protocol, so a killed process restarted with the same environment
///   resumes the right run.
struct CkptPolicy {
    dir: PathBuf,
    every: TimeDelta,
}

/// Snapshots retained per job: older ones are pruned, and a corrupt
/// newest degrades to the previous.
const CKPT_KEEP: usize = 3;

/// Attempts a job gets under checkpointing before its crash is re-raised.
const CKPT_ATTEMPTS: u64 = 3;

impl CkptPolicy {
    fn from_env() -> Option<Self> {
        let every = dtn_sim::from_env_or("RAPID_CKPT_EVERY_S", None, |v| {
            match v.trim().parse::<f64>() {
                Ok(x) if x.is_finite() && x > 0.0 => Ok(Some(TimeDelta::from_secs_f64(x))),
                _ => Err(format!(
                    "invalid RAPID_CKPT_EVERY_S value {v:?}: expected a finite positive number of seconds"
                )),
            }
        })?;
        Some(Self {
            dir: std::env::var_os("RAPID_CKPT_DIR")
                .unwrap_or_else(|| "rapid-ckpt".into())
                .into(),
            every,
        })
    }
}

/// Scheduled fault injection from `RAPID_FAULT_CRASH_S`: a comma-separated
/// list of sim-time seconds at which the run panics (once each). A testing
/// and CI hook — with checkpointing on, the retry loop must recover and
/// the final report must match an undisturbed run.
fn fault_plan_from_env() -> Option<FaultPlan> {
    dtn_sim::from_env_or("RAPID_FAULT_CRASH_S", None, |v| {
        let mut faults = Vec::new();
        for part in v.split(',') {
            match part.trim().parse::<f64>() {
                Ok(x) if x.is_finite() && x >= 0.0 => faults.push(Fault::Crash {
                    at: Time::from_secs_f64(x),
                }),
                _ => {
                    return Err(format!(
                        "invalid RAPID_FAULT_CRASH_S value {v:?}: expected comma-separated seconds"
                    ))
                }
            }
        }
        Ok(Some(FaultPlan::scheduled(faults)))
    })
}

/// Runs one job under the environment's checkpoint policy: resume from
/// the last good snapshot if one exists, checkpoint on cadence, and on a
/// crash retry from the freshest surviving snapshot with bounded backoff.
/// Every recovery step is reported through [`diag`] (grep
/// `diag=run-retry`, `diag=resume-from-checkpoint`); exhausting the retry
/// budget re-raises the original panic.
///
/// `attempt` is one full run of the job with the supplied hooks; it must
/// open its scenario sources fresh per call so retries replay identical
/// input streams. With `RAPID_CKPT_EVERY_S` unset (the default) this is a
/// single hook-free call with zero overhead. Both [`run_spec`] and the
/// scale-family runner route through here, so the knobs and the crash
/// recovery behave identically for spec-driven and scale-driven jobs.
pub fn run_with_recovery(
    config: &SimConfig,
    name: &str,
    checkpointable: bool,
    attempt_fn: &mut dyn FnMut(RunHooks<'_>) -> SimReport,
) -> SimReport {
    let policy = match CkptPolicy::from_env() {
        Some(policy) => policy,
        None => return attempt_fn(RunHooks::default()),
    };
    if !checkpointable {
        diag::warn_once(
            "ckpt-unsupported",
            &format!("RAPID_CKPT_EVERY_S ignored for {name}: it does not implement save_state"),
            &[("proto", name.to_string())],
        );
        return attempt_fn(RunHooks::default());
    }
    let digest = config_digest(config);
    let slug: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '-'
            }
        })
        .collect();
    let run_dir = policy.dir.join(format!("{digest:016x}-{slug}"));

    let mut faults = fault_plan_from_env();
    let mut backoff = std::time::Duration::from_millis(50);
    for attempt in 1..=CKPT_ATTEMPTS {
        let resume = match load_latest(&run_dir) {
            Ok(Some(loaded)) if loaded.snapshot.config_digest == digest => {
                diag::warn(
                    "resume-from-checkpoint",
                    &format!(
                        "resuming {name} from {} (sim time {})",
                        loaded.path.display(),
                        loaded.snapshot.now
                    ),
                    &[
                        ("proto", name.to_string()),
                        ("path", loaded.path.display().to_string()),
                        ("at_us", loaded.snapshot.now.0.to_string()),
                    ],
                );
                Some(loaded.snapshot)
            }
            Ok(Some(loaded)) => {
                diag::warn(
                    "ckpt-stale",
                    &format!(
                        "ignoring checkpoint {}: config digest mismatch (snapshot {:016x}, run {digest:016x})",
                        loaded.path.display(),
                        loaded.snapshot.config_digest
                    ),
                    &[("path", loaded.path.display().to_string())],
                );
                None
            }
            Ok(None) => None,
            Err(e) => {
                diag::warn(
                    "ckpt-dir-unreadable",
                    &format!("cannot scan {}: {e}; starting fresh", run_dir.display()),
                    &[("dir", run_dir.display().to_string())],
                );
                None
            }
        };
        let mut ckpt = Checkpointer::new(&run_dir, policy.every, CKPT_KEEP).unwrap_or_else(|e| {
            panic!(
                "cannot create checkpoint dir {}: {e} [diag=ckpt-dir-failed]",
                run_dir.display()
            )
        });
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            attempt_fn(RunHooks {
                checkpoint: Some(&mut ckpt),
                resume,
                faults: faults.as_mut(),
            })
        }));
        match outcome {
            Ok(report) => {
                // The run completed; its snapshots have served their
                // purpose (a later identical invocation should start
                // fresh, not replay the tail of this one).
                let _ = std::fs::remove_dir_all(&run_dir);
                return report;
            }
            Err(payload) => {
                let msg = panic_message(&payload);
                if attempt == CKPT_ATTEMPTS {
                    diag::warn(
                        "run-failed",
                        &format!("{name} failed after {attempt} attempts: {msg}"),
                        &[
                            ("proto", name.to_string()),
                            ("attempts", attempt.to_string()),
                        ],
                    );
                    resume_unwind(payload);
                }
                diag::warn(
                    "run-retry",
                    &format!(
                        "attempt {attempt}/{CKPT_ATTEMPTS} of {name} crashed ({msg}); retrying from last good checkpoint in {}",
                        run_dir.display()
                    ),
                    &[
                        ("proto", name.to_string()),
                        ("attempt", attempt.to_string()),
                        ("of", CKPT_ATTEMPTS.to_string()),
                    ],
                );
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(std::time::Duration::from_secs(2));
            }
        }
    }
    unreachable!("retry loop either returns or re-raises")
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).into()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

/// Worker count: `RAPID_JOBS` (default: available parallelism), capped at
/// the job count. Rejects `0` and non-numeric values loudly instead of
/// silently falling back to serial execution.
fn worker_count(n: usize) -> usize {
    let default_jobs = std::thread::available_parallelism().map_or(4, |p| p.get());
    let jobs = dtn_sim::jobs_from_env("RAPID_JOBS", default_jobs);
    jobs.clamp(1, n.max(1))
}

/// Maps `f` over `0..n` on a small worker pool and returns results in
/// index order. Worker count comes from `RAPID_JOBS` (default: available
/// parallelism, capped at `n`).
pub fn parallel_map<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    parallel_reduce(n, f, |i, v| out[i] = Some(v));
    out.into_iter()
        .map(|s| s.expect("every index computed"))
        .collect()
}

/// Computes `f(i)` for `0..n` on the worker pool and hands each result to
/// `push` in **strict index order** — the streaming reduction behind sweep
/// aggregation. Only out-of-order completions are buffered, so memory
/// stays bounded by the pool's reordering window instead of all `n`
/// results, and the deterministic fold order keeps aggregate floats
/// bit-identical to a sequential reduction.
pub fn parallel_reduce<T, F, G>(n: usize, f: F, mut push: G)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
    G: FnMut(usize, T),
{
    if n == 0 {
        return;
    }
    let jobs = worker_count(n);
    if jobs == 1 {
        for i in 0..n {
            let v = f(i);
            push(i, v);
        }
        return;
    }
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, T)>();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            let tx = tx.clone();
            let next = &next;
            let f = &f;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let value = f(i);
                if tx.send((i, value)).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        // Reorder buffer: release results to `push` in index order.
        let mut pending: BTreeMap<usize, T> = BTreeMap::new();
        let mut expected = 0usize;
        for (i, value) in rx {
            pending.insert(i, value);
            while let Some(value) = pending.remove(&expected) {
                push(expected, value);
                expected += 1;
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtn_sim::workload::PacketSpec;
    use dtn_sim::{Contact, NodeId};

    #[test]
    fn parallel_map_preserves_order() {
        let out = parallel_map(100, |i| i * i);
        assert_eq!(out.len(), 100);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * i);
        }
    }

    #[test]
    fn parallel_map_empty() {
        let out: Vec<u32> = parallel_map(0, |_| unreachable!("no jobs"));
        assert!(out.is_empty());
    }

    #[test]
    fn parallel_reduce_pushes_in_index_order() {
        let mut seen = Vec::new();
        parallel_reduce(64, |i| i * 3, |i, v| seen.push((i, v)));
        assert_eq!(seen.len(), 64);
        for (k, (i, v)) in seen.iter().enumerate() {
            assert_eq!(*i, k);
            assert_eq!(*v, k * 3);
        }
    }

    #[test]
    fn shared_specs_stream_without_cloning() {
        let schedule = Schedule::new(vec![Contact::new(
            Time::from_secs(1),
            NodeId(0),
            NodeId(1),
            64,
        )]);
        let contacts = ContactsSpec::shared(schedule.clone());
        // Two independent runs read the same Arc'd data.
        for _ in 0..2 {
            let mut src = contacts.source();
            assert_eq!(src.next_window(), Some(schedule.windows()[0]));
            assert_eq!(src.next_window(), None);
        }
        assert_eq!(contacts.materialize(), schedule);
    }

    #[test]
    fn compiled_specs_share_one_plan_across_runs() {
        let schedule = Schedule::new(vec![
            Contact::new(Time::from_secs(1), NodeId(0), NodeId(1), 64),
            Contact::new(Time::from_secs(2), NodeId(0), NodeId(1), 64),
            Contact::new(Time::from_secs(3), NodeId(0), NodeId(1), 64),
        ]);
        let plan = Arc::new(CompiledPlan::compress_schedule(&schedule));
        let contacts = ContactsSpec::compiled(Arc::clone(&plan));
        // Two independent runs expand the same Arc'd plan.
        for _ in 0..2 {
            let mut src = contacts.source();
            let mut windows = Vec::new();
            while let Some(w) = src.next_window() {
                windows.push(w);
            }
            assert_eq!(windows, schedule.windows());
        }
        assert_eq!(contacts.materialize(), schedule);
        assert_eq!(Arc::strong_count(&plan), 2, "spec holds one shared Arc");
        assert!(format!("{contacts:?}").contains("atoms"));
    }

    #[test]
    fn streaming_specs_rebuild_per_run() {
        let contacts = ContactsSpec::streaming(|| {
            Box::new(
                [
                    dtn_sim::ContactWindow::instant(Time::from_secs(2), NodeId(0), NodeId(1), 9),
                    dtn_sim::ContactWindow::instant(Time::from_secs(4), NodeId(1), NodeId(2), 9),
                ]
                .into_iter(),
            )
        });
        assert_eq!(contacts.materialize().len(), 2);
        assert_eq!(contacts.materialize().len(), 2, "factory reopens cleanly");

        let packets = PacketsSpec::streaming(|| {
            Box::new(
                [PacketSpec {
                    time: Time::from_secs(1),
                    src: NodeId(0),
                    dst: NodeId(1),
                    size_bytes: 10,
                }]
                .into_iter(),
            )
        });
        assert_eq!(packets.materialize().len(), 1);
    }
}
