//! Plain Random and Epidemic on the sharded runtime: they drain epochs
//! through views built from their `Copy` data, a path `dtn-sim`'s own
//! shard tests (which cannot depend on this crate) never reach.

use dtn_protocols::{Epidemic, Random};
use dtn_sim::workload::{PacketSpec, Workload};
use dtn_sim::{
    run_sharded, ContactConcurrency, ContactPool, ContactWindow, NodeEvent, NodeId, Partition,
    Routing, Schedule, SimConfig, Simulation, Time, TimeDelta,
};
use std::sync::atomic::{AtomicUsize, Ordering};

type Build = fn() -> Box<dyn Routing + Send>;

const BASELINES: [Build; 2] = [|| Box::new(Random::new()), || Box::new(Epidemic::new())];

#[test]
fn shard_epoch_drains_every_shard_exactly_once() {
    // Shard 1 owns no nodes; it must still be offered its (empty) queue.
    let partition = Partition::from_bounds(vec![0, 3, 3, 8]);
    for build in BASELINES {
        let mut routing = build();
        assert_eq!(
            routing.contact_concurrency(),
            ContactConcurrency::NodeDisjoint
        );
        let calls: Vec<AtomicUsize> = (0..partition.shards())
            .map(|_| AtomicUsize::new(0))
            .collect();
        let drained = std::thread::scope(|scope| {
            let pool = ContactPool::start(scope, 2);
            routing.on_shard_epoch(&partition, &pool, &|s, view| {
                assert_eq!(view.contact_concurrency(), ContactConcurrency::NodeDisjoint);
                calls[s].fetch_add(1, Ordering::Relaxed);
            })
        });
        assert!(drained, "{} must drain its own epochs", routing.name());
        for (s, n) in calls.iter().enumerate() {
            assert_eq!(n.load(Ordering::Relaxed), 1, "shard {s}");
        }
    }
}

/// The one checkpoint rule, `save_state().is_some()`: the state-free
/// baselines save (and accept only) empty state; the ack table is state
/// Random does not capture, so that variant stays out — and stays serial.
#[test]
fn only_state_free_baselines_are_checkpointable() {
    for build in BASELINES {
        let mut routing = build();
        assert_eq!(routing.save_state(), Some(Vec::new()));
        assert!(routing.load_state(&[]).is_ok());
        let err = routing.load_state(&[9, 0]).unwrap_err();
        assert!(err.contains("keeps no state"), "{err}");
    }
    let acks = Random::with_acks();
    assert_eq!(acks.contact_concurrency(), ContactConcurrency::Serial);
    assert!(acks.save_state().is_none());
}

/// 14 nodes, 300 windows (one in five durative), 60 packets into 4-packet
/// buffers, a 150 s TTL and two nodes churning: creations overflow
/// (`make_room`), transfers overflow (Random's in-contact eviction draws),
/// packets expire, and a window is cut short.
fn scenario() -> Simulation {
    let mut x = 0x2545_f491_4f6c_dd1du64;
    let mut next = move |m: u64| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x % m
    };
    let n = 14;
    let mut windows = Vec::new();
    for _ in 0..300 {
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
    for _ in 0..60 {
        let src = next(n) as u32;
        specs.push(PacketSpec {
            time: Time::from_secs(next(700)),
            src: NodeId(src),
            dst: NodeId((src + 1 + next(n - 1) as u32) % n as u32),
            size_bytes: 1024,
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
        seed: 5,
        ..SimConfig::default()
    };
    Simulation::new(config, Schedule::new(windows), Workload::new(specs)).with_churn(churn.to_vec())
}

#[test]
fn sharded_baselines_match_the_serial_engine() {
    let sim = scenario();
    for mut build in BASELINES {
        let serial = sim.run(build().as_mut());
        assert!(serial.delivered() >= 5, "scenario must deliver");
        assert!(serial.expired >= 1, "scenario must expire packets");
        assert!(serial.replications >= 20, "scenario must replicate");
        for shards in [1, 2, 4, 7] {
            let sharded = run_sharded(
                sim.config(),
                &Partition::even(sim.config().nodes, shards),
                &mut sim.schedule().windows().iter().copied(),
                &mut sim.workload().specs().iter().copied(),
                sim.churn(),
                None,
                &mut build,
            );
            assert_eq!(sharded, serial, "{shards} shards diverged");
        }
    }
}
