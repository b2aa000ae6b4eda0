//! Crash-safe run properties: a run checkpointed at time T and resumed
//! from the snapshot must finish byte-identical to the uninterrupted run —
//! under the serial engine and the sharded runtime, at any shard count,
//! from a snapshot written by either runtime (the format captures only
//! global serial-order state), for both a stateful protocol (RAPID, via
//! `Routing::save_state`/`load_state`) and one that saves empty state
//! (Epidemic) — and a snapshot never restores into a different protocol.

use proptest::prelude::*;
use rapid_dtn::protocols::{Epidemic, Random};
use rapid_dtn::rapid::{Rapid, RapidConfig};
use rapid_dtn::sim::contact::Schedule;
use rapid_dtn::sim::workload::{PacketSpec, Workload};
use rapid_dtn::sim::{
    load_latest, run_sharded_hooked, run_streaming_hooked, Checkpointer, CompiledPlan,
    ContactWindow, NodeEvent, NodeId, Partition, Routing, RunHooks, SimConfig, SimEvent, SimReport,
    Snapshot, Time, TimeDelta,
};
use rapid_dtn::trace::ByteCursor;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A self-contained deterministic run: everything the engine pulls.
struct Scenario {
    config: SimConfig,
    windows: Vec<ContactWindow>,
    specs: Vec<PacketSpec>,
    churn: Vec<NodeEvent>,
}

impl Scenario {
    /// The engine pulls sources in nondecreasing time order; route the raw
    /// vectors through `Schedule`/`Workload` to get their canonical sort.
    fn normalized(mut self) -> Self {
        self.windows = Schedule::new(self.windows).windows().to_vec();
        self.specs = Workload::new(self.specs).specs().to_vec();
        self
    }

    fn run_serial(&self, routing: &mut dyn Routing, hooks: RunHooks<'_>) -> SimReport {
        run_streaming_hooked(
            &self.config,
            &mut self.windows.iter().copied(),
            &mut self.specs.iter().copied(),
            &self.churn,
            None,
            routing,
            hooks,
        )
    }

    /// Same run through the compressed-plan streaming source.
    fn run_serial_compiled(&self, routing: &mut dyn Routing, hooks: RunHooks<'_>) -> SimReport {
        let plan = Arc::new(CompiledPlan::compress(self.windows.iter().copied()));
        run_streaming_hooked(
            &self.config,
            &mut plan.stream(),
            &mut self.specs.iter().copied(),
            &self.churn,
            None,
            routing,
            hooks,
        )
    }

    fn run_sharded(
        &self,
        shards: usize,
        factory: &mut dyn FnMut() -> Box<dyn Routing + Send>,
        hooks: RunHooks<'_>,
    ) -> SimReport {
        run_sharded_hooked(
            &self.config,
            &Partition::even(self.config.nodes, shards),
            &mut self.windows.iter().copied(),
            &mut self.specs.iter().copied(),
            &self.churn,
            None,
            factory,
            hooks,
        )
        .0
    }
}

/// The shard tests' 9-node scenario: churn interrupting a durative window,
/// TTL expiry, cross-shard traffic, a creation dropped at its source (too
/// big for the buffer even after `make_room`) — every event kind a
/// snapshot carries.
fn scenario() -> Scenario {
    let spec = |t, src, dst, size| PacketSpec {
        time: Time::from_secs(t),
        src: NodeId(src),
        dst: NodeId(dst),
        size_bytes: size,
    };
    Scenario {
        config: SimConfig {
            nodes: 9,
            buffer_capacity: 4096,
            horizon: Time::from_secs(300),
            ttl: Some(TimeDelta::from_secs(60)),
            seed: 7,
            ..SimConfig::default()
        },
        windows: vec![
            ContactWindow::instant(Time::from_secs(10), NodeId(0), NodeId(1), 4096),
            ContactWindow::instant(Time::from_secs(20), NodeId(2), NodeId(3), 4096),
            ContactWindow::new(
                Time::from_secs(25),
                Time::from_secs(80),
                NodeId(4),
                NodeId(5),
                64,
            ),
            ContactWindow::instant(Time::from_secs(40), NodeId(6), NodeId(7), 4096),
            ContactWindow::instant(Time::from_secs(90), NodeId(8), NodeId(0), 4096),
            ContactWindow::instant(Time::from_secs(50), NodeId(4), NodeId(5), 4096),
            ContactWindow::instant(Time::from_secs(120), NodeId(0), NodeId(8), 4096),
            ContactWindow::instant(Time::from_secs(150), NodeId(3), NodeId(8), 4096),
        ],
        specs: vec![
            spec(1, 0, 2, 512),
            spec(2, 1, 8, 512),
            spec(3, 4, 5, 1024),
            spec(35, 6, 3, 512),
            spec(50, 5, 6, 512),
            spec(60, 7, 2, 4608),
            spec(100, 0, 3, 512),
        ],
        churn: vec![
            NodeEvent {
                time: Time::from_secs(45),
                node: NodeId(5),
                up: false,
            },
            NodeEvent {
                time: Time::from_secs(85),
                node: NodeId(5),
                up: true,
            },
        ],
    }
    .normalized()
}

fn temp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "rapid-resume-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

fn snapshots_in(dir: &PathBuf) -> Vec<Snapshot> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "rsnp"))
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|p| Snapshot::decode(&std::fs::read(p).unwrap()).expect("well-formed snapshot"))
        .collect()
}

fn rapid() -> Box<dyn Routing + Send> {
    Box::new(Rapid::new(RapidConfig::avg_delay()))
}

fn resume_hooks(snap: Snapshot) -> RunHooks<'static> {
    RunHooks {
        resume: Some(snap),
        ..RunHooks::default()
    }
}

/// Serial engine, RAPID: checkpointing does not perturb the run, and a
/// resume from *every* snapshot taken along the way finishes identically.
#[test]
fn serial_rapid_resume_from_each_checkpoint_is_identical() {
    let sc = scenario();
    let reference = sc.run_serial(rapid().as_mut(), RunHooks::default());
    assert!(reference.delivered() >= 1, "scenario must be non-trivial");

    let dir = temp_dir("serial-rapid");
    let mut ckpt = Checkpointer::new(&dir, TimeDelta::from_secs(40), 64).unwrap();
    let checkpointed = sc.run_serial(
        rapid().as_mut(),
        RunHooks {
            checkpoint: Some(&mut ckpt),
            ..RunHooks::default()
        },
    );
    assert_eq!(checkpointed, reference, "checkpointing perturbed the run");

    let snaps = snapshots_in(&dir);
    assert!(
        snaps.len() >= 3,
        "expected several snapshots, got {}",
        snaps.len()
    );
    for (i, snap) in snaps.into_iter().enumerate() {
        let resumed = sc.run_serial(rapid().as_mut(), resume_hooks(snap));
        assert_eq!(resumed, reference, "resume from snapshot {i} diverged");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Epidemic saves empty state under its name and resumes exactly — also
/// from a snapshot with no routing section at all, as older snapshots of
/// state-free protocols are.
#[test]
fn serial_epidemic_resume_is_identical() {
    let sc = scenario();
    let reference = sc.run_serial(&mut Epidemic::new(), RunHooks::default());

    let dir = temp_dir("serial-epidemic");
    let mut ckpt = Checkpointer::new(&dir, TimeDelta::from_secs(60), 64).unwrap();
    let checkpointed = sc.run_serial(
        &mut Epidemic::new(),
        RunHooks {
            checkpoint: Some(&mut ckpt),
            ..RunHooks::default()
        },
    );
    assert_eq!(checkpointed, reference);

    for mut snap in snapshots_in(&dir) {
        let section = snap
            .routing
            .as_ref()
            .expect("every snapshot names its protocol");
        assert_eq!(
            (section.name.as_str(), section.bytes.len()),
            ("Epidemic", 0)
        );
        let resumed = sc.run_serial(&mut Epidemic::new(), resume_hooks(snap.clone()));
        assert_eq!(resumed, reference);
        snap.routing = None;
        let resumed = sc.run_serial(&mut Epidemic::new(), resume_hooks(snap));
        assert_eq!(resumed, reference, "section-less snapshot diverged");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The newest snapshot of an Epidemic run over the scenario.
fn epidemic_snapshot(tag: &str) -> Snapshot {
    let dir = temp_dir(tag);
    let mut ckpt = Checkpointer::new(&dir, TimeDelta::from_secs(60), 64).unwrap();
    let _ = scenario().run_serial(
        &mut Epidemic::new(),
        RunHooks {
            checkpoint: Some(&mut ckpt),
            ..RunHooks::default()
        },
    );
    let latest = load_latest(&dir).unwrap().expect("snapshots written");
    std::fs::remove_dir_all(&dir).unwrap();
    latest.snapshot
}

/// The panic message of a resume that must not go through.
fn resume_refusal(routing: &mut dyn Routing, snap: Snapshot) -> String {
    let crash = catch_unwind(AssertUnwindSafe(|| {
        scenario().run_serial(routing, resume_hooks(snap))
    }))
    .expect_err("the resume must be refused");
    crash
        .downcast_ref::<String>()
        .expect("formatted panic")
        .clone()
}

/// RAPID must never start from an Epidemic snapshot on fresh beliefs:
/// the name check refuses it, and a section-less (older) snapshot —
/// which has no name to check — is refused by RAPID's own decoder.
#[test]
fn epidemic_snapshot_resumed_with_rapid_fails_loudly() {
    let mut snap = epidemic_snapshot("epidemic-into-rapid");
    let msg = resume_refusal(rapid().as_mut(), snap.clone());
    assert!(msg.contains("resume-proto-mismatch"), "{msg}");
    snap.routing = None;
    let msg = resume_refusal(rapid().as_mut(), snap);
    assert!(msg.contains("protocol state restore failed"), "{msg}");
}

/// Two protocols that both save empty state are still told apart.
#[test]
fn epidemic_snapshot_resumed_with_random_fails_the_name_check() {
    let snap = epidemic_snapshot("epidemic-into-random");
    let msg = resume_refusal(&mut Random::new(), snap);
    assert!(
        msg.contains("resume-proto-mismatch") && msg.contains("Epidemic") && msg.contains("Random"),
        "{msg}"
    );
}

/// Snapshots are runtime- and partition-independent: one written by the
/// serial engine restores under the sharded runtime at any shard count,
/// and one written by a 3-shard run restores serially and at other
/// shard counts — all byte-identical to the uninterrupted run. Stronger:
/// both runtimes execute the one event-merge scan, so at a fixed cadence
/// the serial engine and the sharded runtime write *equal* snapshots at
/// every cadence index — pending events (incl. the expiry of the creation
/// dropped at its source), availability, open windows, counters, source
/// cursors, noise RNG, contact sequence, world and protocol state.
#[test]
fn snapshots_cross_runtimes_and_shard_counts() {
    let sc = scenario();
    let reference = sc.run_serial(rapid().as_mut(), RunHooks::default());
    assert!(
        reference.outcomes.iter().any(|o| !o.entered_network),
        "scenario must drop a creation at its source"
    );
    let mut by_runtime: Vec<(&str, Vec<Snapshot>)> = Vec::new();

    // Serial-written snapshot → sharded resume.
    let dir = temp_dir("cross-serial");
    let mut ckpt = Checkpointer::new(&dir, TimeDelta::from_secs(70), 64).unwrap();
    let _ = sc.run_serial(
        rapid().as_mut(),
        RunHooks {
            checkpoint: Some(&mut ckpt),
            ..RunHooks::default()
        },
    );
    let latest = load_latest(&dir).unwrap().expect("snapshots written");
    assert!(latest.skipped.is_empty());
    by_runtime.push(("serial", snapshots_in(&dir)));
    for shards in [1, 2, 4] {
        let resumed = sc.run_sharded(shards, &mut rapid, resume_hooks(latest.snapshot.clone()));
        assert_eq!(
            resumed, reference,
            "serial snapshot on {shards} shards diverged"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();

    // Sharded-written snapshot → serial and differently-sharded resumes.
    let dir = temp_dir("cross-sharded");
    let mut ckpt = Checkpointer::new(&dir, TimeDelta::from_secs(70), 64).unwrap();
    let sharded = sc.run_sharded(
        3,
        &mut rapid,
        RunHooks {
            checkpoint: Some(&mut ckpt),
            ..RunHooks::default()
        },
    );
    assert_eq!(sharded, reference, "sharded checkpointed run diverged");
    let latest = load_latest(&dir).unwrap().expect("snapshots written");
    by_runtime.push(("3 shards", snapshots_in(&dir)));
    let resumed = sc.run_serial(rapid().as_mut(), resume_hooks(latest.snapshot.clone()));
    assert_eq!(
        resumed, reference,
        "sharded snapshot on serial engine diverged"
    );
    for shards in [2, 4] {
        let resumed = sc.run_sharded(shards, &mut rapid, resume_hooks(latest.snapshot.clone()));
        assert_eq!(
            resumed, reference,
            "sharded snapshot on {shards} shards diverged"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();

    // The same cadence at a second shard count.
    let dir = temp_dir("cross-cadence");
    let mut ckpt = Checkpointer::new(&dir, TimeDelta::from_secs(70), 64).unwrap();
    let report = sc.run_sharded(
        2,
        &mut rapid,
        RunHooks {
            checkpoint: Some(&mut ckpt),
            ..RunHooks::default()
        },
    );
    assert_eq!(report, reference, "2 shards: checkpointed run diverged");
    by_runtime.push(("2 shards", snapshots_in(&dir)));
    std::fs::remove_dir_all(&dir).unwrap();

    let (_, serial) = &by_runtime[0];
    assert!(serial.len() >= 2, "expected several cadence points");
    for (runtime, snaps) in &by_runtime[1..] {
        assert_eq!(snaps.len(), serial.len(), "{runtime}: cadence count");
        for (i, (snap, want)) in snaps.iter().zip(serial).enumerate() {
            assert_eq!(snap, want, "{runtime}: snapshot {i} differs from serial");
        }
    }
    // The comparison covered the one expiry-scheduling rule: some snapshot
    // holds the pending expiry of the creation that never entered.
    assert!(
        serial.iter().any(|s| s
            .events
            .iter()
            .any(|(_, e)| matches!(e, SimEvent::PacketExpired(id) if !s.entered[id.index()]))),
        "some snapshot must hold the dropped creation's pending expiry"
    );
}

/// Offset of the first meeting cell's `f64` in RAPID's saved state:
/// past the node count, node 0's live-row count, the first row's index
/// and stamp, its cell count and the cell's column.
fn first_meeting_cell_value(state: &[u8]) -> usize {
    let mut cur = ByteCursor::new(state);
    for _ in 0..4 {
        cur.varint().unwrap();
    }
    assert!(cur.varint().unwrap() >= 1, "node 0's first row has a cell");
    cur.varint().unwrap();
    cur.offset()
}

/// Offset of the peer index of node 0's second last-met entry in RAPID's
/// saved state: past the node count, node 0's meeting rows and
/// running-mean list, and the first last-met entry.
fn second_last_met_peer(state: &[u8]) -> usize {
    let mut cur = ByteCursor::new(state);
    cur.varint().unwrap();
    for _ in 0..cur.varint().unwrap() {
        cur.varint().unwrap();
        cur.varint().unwrap();
        for _ in 0..cur.varint().unwrap() {
            cur.varint().unwrap();
            cur.take(8).unwrap();
        }
    }
    for _ in 0..cur.varint().unwrap() {
        cur.varint().unwrap();
        cur.take(8).unwrap();
        cur.varint().unwrap();
    }
    assert!(cur.varint().unwrap() >= 2, "node 0 has met two peers");
    cur.varint().unwrap();
    cur.varint().unwrap();
    cur.offset()
}

/// Checkpoints the scenario, rewrites the RAPID state of the newest
/// snapshot through `corrupt` (every section CRC stays valid, so the file
/// still decodes) and checks that the restore fails loudly naming
/// `expect` instead of resuming on misread state; with the bad file set
/// aside, the previous snapshot resumes to the reference result.
fn corrupt_newest_then_fall_back(tag: &str, corrupt: impl FnOnce(&mut Vec<u8>), expect: &str) {
    let sc = scenario();
    let reference = sc.run_serial(rapid().as_mut(), RunHooks::default());

    let dir = temp_dir(tag);
    let mut ckpt = Checkpointer::new(&dir, TimeDelta::from_secs(40), 64).unwrap();
    let _ = sc.run_serial(
        rapid().as_mut(),
        RunHooks {
            checkpoint: Some(&mut ckpt),
            ..RunHooks::default()
        },
    );
    let newest = load_latest(&dir).unwrap().expect("snapshots written");

    let mut bad = newest.snapshot.clone();
    corrupt(&mut bad.routing.as_mut().expect("RAPID saves state").bytes);
    std::fs::write(&newest.path, bad.encode()).unwrap();

    let loaded = load_latest(&dir).unwrap().unwrap();
    assert_eq!(loaded.path, newest.path, "the mutated file still decodes");
    let crash = catch_unwind(AssertUnwindSafe(|| {
        sc.run_serial(rapid().as_mut(), resume_hooks(loaded.snapshot))
    }))
    .expect_err("restore must reject the state");
    let msg = crash.downcast_ref::<String>().expect("formatted panic");
    assert!(
        msg.contains("protocol state restore failed") && msg.contains(expect),
        "{msg}"
    );

    std::fs::remove_file(&newest.path).unwrap();
    let previous = load_latest(&dir).unwrap().expect("an older snapshot");
    assert!(previous.snapshot.now < newest.snapshot.now);
    let resumed = sc.run_serial(rapid().as_mut(), resume_hooks(previous.snapshot));
    assert_eq!(resumed, reference, "fallback resume diverged");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A non-finite meeting cell — a cell the sparse rows define as absent.
#[test]
fn unrepresentable_meeting_row_fails_loudly_and_previous_snapshot_resumes() {
    corrupt_newest_then_fall_back(
        "bad-row",
        |state| {
            // All-ones exponent: the first cell's mean becomes NaN or
            // infinite.
            let at = first_meeting_cell_value(state);
            state[at + 6] |= 0xF0;
            state[at + 7] = 0x7F;
        },
        "not finite",
    );
}

/// A repeated peer in a last-met list — the sorted per-met-peer vectors
/// are binary-searched, so the later entry can no longer just overwrite.
#[test]
fn repeated_last_met_peer_fails_loudly_and_previous_snapshot_resumes() {
    corrupt_newest_then_fall_back(
        "bad-last-met",
        |state| {
            let at = second_last_met_peer(state);
            state[at] = 0; // never above the (ascending) first entry's peer
        },
        "last-met peer 0 not strictly ascending",
    );
}

/// The compressed-plan streaming source supports resume too (the snapshot
/// replays source positions by count, whatever the source's shape).
#[test]
fn compiled_plan_source_resumes_identically() {
    let sc = scenario();
    let reference = sc.run_serial_compiled(rapid().as_mut(), RunHooks::default());
    assert_eq!(
        reference,
        sc.run_serial(rapid().as_mut(), RunHooks::default()),
        "compiled plan must replay the raw schedule exactly"
    );

    let dir = temp_dir("compiled");
    let mut ckpt = Checkpointer::new(&dir, TimeDelta::from_secs(40), 64).unwrap();
    let _ = sc.run_serial_compiled(
        rapid().as_mut(),
        RunHooks {
            checkpoint: Some(&mut ckpt),
            ..RunHooks::default()
        },
    );
    for snap in snapshots_in(&dir) {
        let resumed = sc.run_serial_compiled(rapid().as_mut(), resume_hooks(snap));
        assert_eq!(resumed, reference);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Save at an arbitrary point → restore → run to end == uninterrupted,
    /// across proptest-chosen contact plans, workloads, churn, TTL,
    /// checkpoint cadence, runtimes and shard counts, for both protocols.
    #[test]
    fn resume_matches_uninterrupted_run(
        contacts in prop::collection::vec((0u16..400, 0u8..5, 0u8..5, 256u16..4096, 0u16..40), 1..24),
        specs in prop::collection::vec((0u16..380, 0u8..5, 0u8..5), 1..24),
        churn in prop::collection::vec((0u16..400, 0u8..5, any::<bool>()), 0..5),
        capacity in 1024u64..6_000,
        with_ttl in any::<bool>(),
        every_s in 20u64..120,
        use_rapid in any::<bool>(),
        shards in prop_oneof![Just(1usize), Just(2), Just(4)],
    ) {
        let n = 5u8;
        let windows = contacts
            .into_iter()
            .map(|(t, a, b, bytes, dur)| {
                let a = a % n;
                let b = if b % n == a { (a + 1) % n } else { b % n };
                let start = Time::from_secs(u64::from(t));
                if dur == 0 {
                    ContactWindow::instant(start, NodeId(a.into()), NodeId(b.into()), bytes.into())
                } else {
                    ContactWindow::new(
                        start,
                        start + TimeDelta::from_secs(u64::from(dur)),
                        NodeId(a.into()),
                        NodeId(b.into()),
                        64,
                    )
                }
            })
            .collect();
        let specs = specs
            .into_iter()
            .map(|(t, src, dst)| {
                let src = src % n;
                let dst = if dst % n == src { (src + 1) % n } else { dst % n };
                PacketSpec {
                    time: Time::from_secs(u64::from(t)),
                    src: NodeId(src.into()),
                    dst: NodeId(dst.into()),
                    size_bytes: 512,
                }
            })
            .collect();
        let churn = churn
            .into_iter()
            .map(|(t, node, up)| NodeEvent {
                time: Time::from_secs(u64::from(t)),
                node: NodeId(u32::from(node % n)),
                up,
            })
            .collect();
        let sc = Scenario {
            config: SimConfig {
                nodes: n as usize,
                buffer_capacity: capacity,
                horizon: Time::from_secs(450),
                ttl: with_ttl.then_some(TimeDelta::from_secs(90)),
                seed: 11,
                ..SimConfig::default()
            },
            windows,
            specs,
            churn,
        }
        .normalized();
        let mut fresh: Box<dyn FnMut() -> Box<dyn Routing + Send>> = if use_rapid {
            Box::new(rapid)
        } else {
            Box::new(|| Box::new(Epidemic::new()))
        };

        let reference = sc.run_serial(fresh().as_mut(), RunHooks::default());

        let dir = temp_dir("prop");
        let mut ckpt = Checkpointer::new(&dir, TimeDelta::from_secs(every_s), 64).unwrap();
        let checkpointed = sc.run_serial(
            fresh().as_mut(),
            RunHooks { checkpoint: Some(&mut ckpt), ..RunHooks::default() },
        );
        prop_assert_eq!(&checkpointed, &reference);

        if let Some(loaded) = load_latest(&dir).unwrap() {
            let resumed = if shards == 1 {
                sc.run_serial(fresh().as_mut(), resume_hooks(loaded.snapshot))
            } else {
                sc.run_sharded(shards, &mut fresh, resume_hooks(loaded.snapshot))
            };
            prop_assert_eq!(&resumed, &reference);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
