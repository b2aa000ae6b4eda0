//! Sharded RAPID equivalence: the paper's own protocol under
//! `RAPID_SHARDS > 1` must be observationally identical to the serial
//! engine — same reports under churn/TTL and arbitrary partitions, and
//! byte-identical figure TSVs.
//!
//! Everything that reads a knob lives in **one** test function: the
//! figure plans and the `RAPID_SHARDS` knob are driven
//! through process environment variables, so concurrent tests in this
//! binary would race on them. The kernel-equivalence test calls the
//! engine entry points directly and reads no variable.

use dtn_mobility::{RegionalFleet, ScaleFleet};
use dtn_sim::{
    load_latest, run_sharded, run_sharded_hooked, run_streaming, run_streaming_hooked,
    Checkpointer, NodeEvent, NodeId, Partition, Routing, RunHooks, SimConfig, SimReport,
};
use dtn_sim::{Time, TimeDelta};
use rapid_bench::families::{synth_load_sweep, synth_loads};
use rapid_bench::runner::{run_spec, ContactsSpec, PacketsSpec, RunSpec};
use rapid_bench::{registry, Mobility, Proto};
use rapid_core::{Kernel, Rapid, RapidConfig};

fn fleet() -> ScaleFleet {
    ScaleFleet {
        nodes: 600,
        contacts: 4_000,
        opportunity_bytes: 2 * 1024,
        contact_duration: TimeDelta::ZERO,
        horizon: Time::from_secs(1800),
        hubs: 16,
        hub_bias: 0.3,
    }
}

/// Churn that lands inside the contact structure: hubs flap, so sharded
/// runs must replay the suppressed contacts and cache invalidations in
/// the engine's exact order.
fn churn() -> Vec<NodeEvent> {
    vec![
        NodeEvent {
            time: Time::from_secs(400),
            node: NodeId(3),
            up: false,
        },
        NodeEvent {
            time: Time::from_secs(900),
            node: NodeId(3),
            up: true,
        },
        NodeEvent {
            time: Time::from_secs(600),
            node: NodeId(17),
            up: false,
        },
        NodeEvent {
            time: Time::from_secs(1000),
            node: NodeId(17),
            up: true,
        },
    ]
}

/// A sparse-fleet run spec (hub traffic, tight buffers, TTL, churn) that
/// exercises replication, eviction, expiry and full-buffer contacts.
fn spec(run: u32) -> RunSpec {
    let fleet = fleet();
    RunSpec {
        contacts: ContactsSpec::streaming(move || {
            Box::new(fleet.contact_stream(11, u64::from(run)))
        }),
        packets: PacketsSpec::streaming(move || {
            Box::new(fleet.packet_stream(300, 1024, 11, u64::from(run)))
        }),
        nodes: fleet.nodes,
        buffer: 8 * 1024,
        deadline: TimeDelta::from_secs(300),
        horizon: fleet.horizon,
        seed: 11,
        noise: None,
        measure_from: Time::ZERO,
        churn: churn(),
        ttl: Some(TimeDelta::from_secs(600)),
    }
}

/// `fig16_18`'s synthetic load sweep cut to its first load.
fn fig16_18_first_load() {
    synth_load_sweep(
        "fig16_18",
        "Figs. 16-18 (Powerlaw) at the first load",
        Mobility::PowerLaw,
        &synth_loads()[..1],
    );
}

/// Runs `plan` and returns the TSV it wrote as `results/<id>.tsv`.
fn run_plan(id: &str, plan: fn()) -> String {
    plan();
    std::fs::read_to_string(format!("results/{id}.tsv"))
        .unwrap_or_else(|e| panic!("results/{id}.tsv unreadable: {e}"))
}

#[test]
fn sharded_rapid_reproduces_serial_byte_for_byte() {
    // Shrink every figure to its smoke shape (mirrors the CI smoke).
    std::env::set_var("RAPID_DAYS", "1");
    std::env::set_var("RAPID_RUNS", "1");
    std::env::set_var("RAPID_FIG3_DAYS", "1");

    // Report equivalence for the node-disjoint RAPID variants across
    // shard counts, with churn and TTL expiry in play.
    for proto in [Proto::RapidAvg, Proto::RapidAvgLocal] {
        std::env::set_var("RAPID_SHARDS", "1");
        let serial = run_spec(&spec(0), proto);
        for shards in ["2", "4", "7"] {
            std::env::set_var("RAPID_SHARDS", shards);
            let sharded = run_spec(&spec(0), proto);
            assert_eq!(
                serial, sharded,
                "{proto:?} with RAPID_SHARDS={shards} diverged from serial"
            );
        }
        std::env::remove_var("RAPID_SHARDS");
    }

    // Arbitrary (lopsided, singleton-shard) partitions through the
    // sharded runtime directly — gateway placement must not matter.
    {
        let fleet = fleet();
        let cfg = SimConfig {
            nodes: fleet.nodes,
            buffer_capacity: 8 * 1024,
            deadline: Some(TimeDelta::from_secs(300)),
            ttl: Some(TimeDelta::from_secs(600)),
            horizon: fleet.horizon,
            seed: 11,
            ..SimConfig::default()
        };
        let build = || Proto::RapidAvg.build(TimeDelta::from_secs(300), TimeDelta(fleet.horizon.0));
        let serial = {
            let mut contacts = fleet.contact_stream(11, 0);
            let mut packets = fleet.packet_stream(300, 1024, 11, 0);
            let mut routing = build();
            run_streaming(
                &cfg,
                &mut contacts,
                &mut packets,
                &churn(),
                None,
                routing.as_mut(),
            )
        };
        for bounds in [
            vec![0, 1, 600],
            vec![0, 599, 600],
            vec![0, 37, 37, 301, 600],
        ] {
            let partition = Partition::from_bounds(bounds.clone());
            let mut contacts = fleet.contact_stream(11, 0);
            let mut packets = fleet.packet_stream(300, 1024, 11, 0);
            let sharded = run_sharded(
                &cfg,
                &partition,
                &mut contacts,
                &mut packets,
                &churn(),
                None,
                &mut || build(),
            );
            assert_eq!(serial, sharded, "RAPID diverged under bounds {bounds:?}");
        }
    }

    // TSV-level equivalence across figure plans: fig03 is all-RAPID
    // (trace-driven validation), fig16_18 carries labeled Rapid rows in
    // the synthetic load sweep (one load of it here). Both must be
    // byte-identical on the sharded runtime.
    let fig03 = registry::find("fig03").expect("fig03 is registered").run;
    let plans: [(&str, fn(), &str); 2] = [
        ("fig03", fig03, "sim_avg_delay_min"),
        ("fig16_18", fig16_18_first_load, "Rapid"),
    ];
    for (id, plan, rapid_marker) in plans {
        std::env::set_var("RAPID_SHARDS", "1");
        let serial = run_plan(id, plan);
        assert!(
            serial.contains(rapid_marker),
            "{id} TSV lost its Rapid rows — the diff below would be vacuous"
        );
        std::env::set_var("RAPID_SHARDS", "4");
        let sharded = run_plan(id, plan);
        assert_eq!(
            serial, sharded,
            "{id} TSV not byte-identical under RAPID_SHARDS=4"
        );
        std::env::remove_var("RAPID_SHARDS");
    }
}

/// The regional RAPID shape of the benchmark of record, cut to test size:
/// 2 KiB opportunities against 320 nodes' worth of opportunity averages,
/// so the §4.2 exchange runs out of budget at nearly every contact. Runs
/// it under `kernel` on `shards` shards (1 = the serial engine),
/// checkpointing every 500 simulated seconds, and returns the report, the
/// newest snapshot's `RSNP1` bytes (RAPID's `save_state` section
/// included) and, for a serial run, the end-of-run `save_state` bytes.
fn regional_run(kernel: Kernel, shards: usize) -> (SimReport, Vec<u8>, Option<Vec<u8>>) {
    let rf = RegionalFleet {
        fleet: ScaleFleet {
            nodes: 320,
            contacts: 12_000,
            opportunity_bytes: 2 * 1024,
            contact_duration: TimeDelta::ZERO,
            horizon: Time::from_secs(1800),
            hubs: 16,
            hub_bias: 0.3,
        },
        regions: 8,
        locality: 0.95,
    };
    let cfg = SimConfig {
        nodes: rf.fleet.nodes,
        buffer_capacity: 16 * 1024,
        deadline: Some(TimeDelta::from_secs(600)),
        ttl: Some(TimeDelta::from_secs(900)),
        horizon: rf.fleet.horizon,
        seed: 11,
        ..SimConfig::default()
    };
    let build = || Rapid::with_kernel(RapidConfig::avg_delay().with_delay_cap(2700.0), kernel);
    let dir = std::env::temp_dir().join(format!(
        "rapid-kernel-eq-{}-{kernel:?}-{shards}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut ckpt = Checkpointer::new(&dir, TimeDelta::from_secs(500), 1).expect("checkpoint dir");
    let hooks = RunHooks {
        checkpoint: Some(&mut ckpt),
        ..RunHooks::default()
    };
    let mut contacts = rf.contact_stream(11, 0);
    let mut packets = rf.packet_stream(200, 1024, 11, 0);
    let (report, end_state) = if shards == 1 {
        let mut rapid = build();
        let report = run_streaming_hooked(
            &cfg,
            &mut contacts,
            &mut packets,
            &[],
            None,
            &mut rapid,
            hooks,
        );
        (report, rapid.save_state())
    } else {
        let partition = Partition::even(cfg.nodes, shards);
        let mut factory = || Box::new(build()) as Box<dyn Routing + Send>;
        let (report, _) = run_sharded_hooked(
            &cfg,
            &partition,
            &mut contacts,
            &mut packets,
            &[],
            None,
            &mut factory,
            hooks,
        );
        (report, None)
    };
    let snapshot = load_latest(&dir)
        .expect("checkpoint dir readable")
        .expect("a 1800 s run checkpoints at 500 s intervals")
        .snapshot;
    let _ = std::fs::remove_dir_all(&dir);
    (report, snapshot.encode(), end_state)
}

/// `RAPID_KERNEL` is never a results knob: the plain and the detected
/// instantiation of the Eq. 4–9 rows and of the §4.2 opportunity-average
/// merge leave the same report and the same protocol state, serial and
/// sharded, on a shape whose exchanges are cut short by their budget.
#[test]
fn kernels_agree_on_a_regional_run_that_truncates() {
    let (report, snapshot, end_state) = regional_run(Kernel::Scalar, 1);
    assert!(report.delivered() > 0, "the run must route something");
    // Acks, replica entries and 8 B averages are all the channel carries
    // here (a 320 × 12 B meeting row never fits): budget-bound means the
    // mean direction fills most of its 2 KiB.
    let per_direction = report.metadata_bytes / (2 * report.contacts);
    assert!(
        per_direction > 1024,
        "exchanges average {per_direction} B of 2048: the shape no longer truncates"
    );
    for (kernel, shards) in [
        (Kernel::detect(), 1),
        (Kernel::Scalar, 2),
        (Kernel::detect(), 2),
    ] {
        let (r, s, e) = regional_run(kernel, shards);
        assert_eq!(report, r, "{kernel:?} on {shards} shard(s): report");
        assert!(
            snapshot == s,
            "{kernel:?} on {shards} shard(s): snapshot bytes"
        );
        if shards == 1 {
            assert!(end_state == e, "{kernel:?} serial: end-of-run save_state");
        }
    }
}
