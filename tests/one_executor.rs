//! The serial engine is the one-shard partition of the one executor, so
//! `run_sharded` over one shard accepts every protocol — `Serial` ones and
//! global-knowledge ones included — and reports what `Simulation::run`
//! reports.

use rapid_dtn::protocols::MaxProp;
use rapid_dtn::rapid::{ChannelMode, Rapid, RapidConfig};
use rapid_dtn::sim::workload::{PacketSpec, Workload};
use rapid_dtn::sim::{
    run_sharded, ContactConcurrency, ContactWindow, NodeEvent, NodeId, NoiseModel, Partition,
    Routing, Schedule, SimConfig, Simulation, Time, TimeDelta,
};

const NOISE: NoiseModel = NoiseModel {
    contact_failure_prob: 0.1,
    setup_loss_bytes_mean: 64.0,
    processing_delay_mean: TimeDelta(2_000_000),
};

/// 12 nodes, 240 windows (one in five durative), 50 packets into 4-packet
/// buffers — one of them larger than a whole buffer — a 150 s TTL, noise
/// and two nodes churning.
fn scenario(allow_global_knowledge: bool) -> Simulation {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move |m: u64| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x % m
    };
    let n = 12;
    let mut windows = Vec::new();
    for _ in 0..240 {
        let t = Time::from_secs(next(900));
        let a = next(n) as u32;
        let b = (a + 1 + next(n - 1) as u32) % n as u32;
        windows.push(if next(5) == 0 {
            let end = t + TimeDelta::from_secs(1 + next(40));
            ContactWindow::new(t, end, NodeId(a), NodeId(b), 64)
        } else {
            ContactWindow::instant(t, NodeId(a), NodeId(b), 1024 * (1 + next(3)))
        });
    }
    let mut specs = Vec::new();
    for i in 0..50 {
        let src = next(n) as u32;
        specs.push(PacketSpec {
            time: Time::from_secs(next(700)),
            src: NodeId(src),
            dst: NodeId((src + 1 + next(n - 1) as u32) % n as u32),
            size_bytes: if i == 7 { 5 * 1024 } else { 1024 },
        });
    }
    let churn = [
        (200, 3, false),
        (320, 3, true),
        (400, 9, false),
        (650, 9, true),
    ]
    .map(|(t, node, up)| NodeEvent {
        time: Time::from_secs(t),
        node: NodeId(node),
        up,
    });
    let config = SimConfig {
        nodes: n as usize,
        buffer_capacity: 4 * 1024,
        horizon: Time::from_secs(1000),
        ttl: Some(TimeDelta::from_secs(150)),
        allow_global_knowledge,
        seed: 3,
        ..SimConfig::default()
    };
    Simulation::new(config, Schedule::new(windows), Workload::new(specs))
        .with_churn(churn.to_vec())
        .with_noise(NOISE)
}

/// Runs `build`'s protocol serially and over a one-shard partition on a
/// scenario that exercises every action kind, and checks the reports.
fn one_shard_matches_serial(global: bool, build: &mut dyn FnMut() -> Box<dyn Routing + Send>) {
    let sim = scenario(global);
    let serial = sim.run(build().as_mut());
    let one_shard = run_sharded(
        sim.config(),
        &Partition::even(sim.config().nodes, 1),
        &mut sim.schedule().windows().iter().copied(),
        &mut sim.workload().specs().iter().copied(),
        sim.churn(),
        Some(NOISE),
        build,
    );
    assert_eq!(one_shard, serial);
    assert!(serial.delivered() >= 3, "the scenario must deliver");
    assert!(serial.expired >= 1, "the scenario must expire packets");
    assert!(serial.contacts_failed >= 1, "noise must fail a contact");
    assert!(
        serial.outcomes.iter().any(|o| !o.entered_network),
        "a creation must not fit its source buffer"
    );
}

#[test]
fn one_shard_runs_a_serial_protocol() {
    let mut build = || Box::new(MaxProp::new()) as Box<dyn Routing + Send>;
    assert_eq!(build().contact_concurrency(), ContactConcurrency::Serial);
    one_shard_matches_serial(false, &mut build);
}

#[test]
fn one_shard_runs_a_global_knowledge_protocol() {
    let mut build = || {
        let cfg = RapidConfig::avg_delay().with_channel(ChannelMode::InstantGlobal);
        Box::new(Rapid::new(cfg)) as Box<dyn Routing + Send>
    };
    assert_eq!(build().contact_concurrency(), ContactConcurrency::Serial);
    one_shard_matches_serial(true, &mut build);
}
