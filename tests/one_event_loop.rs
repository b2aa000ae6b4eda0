//! The engine has one event loop: `SimConfig::intra_jobs` is read by
//! nothing, and no runtime calls `Routing::on_contact_batch`.

use rapid_dtn::sim::workload::{PacketSpec, Workload};
use rapid_dtn::sim::{
    Contact, ContactConcurrency, ContactDriver, ContactPool, NodeId, Routing, Schedule, SimConfig,
    Simulation, Time, TimeDelta, TransferOutcome,
};

/// Destination-first flooding that declares `NodeDisjoint` — the tier the
/// retired batch scheduler dispatched through `on_contact_batch` — and
/// panics if that hook is ever called.
struct NoBatchFlood;

impl Routing for NoBatchFlood {
    fn name(&self) -> String {
        "no-batch-flood".into()
    }

    fn contact_concurrency(&self) -> ContactConcurrency {
        ContactConcurrency::NodeDisjoint
    }

    fn on_contact(&mut self, driver: &mut ContactDriver<'_>) {
        let (a, b) = driver.endpoints();
        for from in [a, b] {
            let to = driver.peer_of(from);
            let mut ids = driver.buffer(from).ids();
            ids.sort_by_key(|&id| driver.packets().get(id).dst != to);
            for id in ids {
                if driver.try_transfer(from, id) == TransferOutcome::NoBandwidth {
                    break;
                }
            }
        }
    }

    fn on_contact_batch(&mut self, _batch: &mut [ContactDriver<'_>], _pool: &ContactPool) {
        panic!("the engine called on_contact_batch");
    }
}

/// Node-disjoint contacts at shared instants (what a batch would group),
/// a relay chain and a TTL, on eight nodes.
fn run(intra_jobs: usize) -> rapid_dtn::sim::SimReport {
    let contact = |t, a, b| Contact::new(Time::from_secs(t), NodeId(a), NodeId(b), 2048);
    let schedule = Schedule::new(vec![
        contact(10, 0, 1),
        contact(10, 2, 3),
        contact(10, 4, 5),
        contact(10, 6, 7),
        contact(20, 1, 2),
        contact(20, 3, 4),
        contact(20, 5, 6),
        contact(30, 2, 7),
        contact(30, 4, 0),
    ]);
    let spec = |t, src, dst| PacketSpec {
        time: Time::from_secs(t),
        src: NodeId(src),
        dst: NodeId(dst),
        size_bytes: 512,
    };
    let workload = Workload::new(vec![
        spec(1, 0, 7),
        spec(2, 3, 0),
        spec(3, 5, 2),
        spec(4, 6, 1),
    ]);
    let config = SimConfig {
        nodes: 8,
        horizon: Time::from_secs(100),
        ttl: Some(TimeDelta::from_secs(50)),
        intra_jobs,
        ..SimConfig::default()
    };
    Simulation::new(config, schedule, workload).run(&mut NoBatchFlood)
}

#[test]
fn intra_jobs_runs_the_serial_engine() {
    let serial = run(1);
    assert!(serial.delivered() >= 2, "the scenario must route something");
    assert_eq!(run(8), serial);
}
