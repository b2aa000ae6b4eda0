//! Epidemic routing (Vahdat & Becker; P1 in the paper's Table 1).
//!
//! Unbounded flooding: at every contact each side hands the peer every
//! packet it does not already have, oldest first. With unlimited resources
//! epidemic is delay-optimal; under the paper's finite opportunities and
//! buffers "naive flooding wastes resources and can severely degrade
//! performance" (§2) — which makes it a useful sanity baseline for the
//! resource-constrained experiments.

use crate::common::{deliver_destined, load_empty_state, replication_candidates, victims_until};
use dtn_sim::{
    ContactConcurrency, ContactDriver, ContactPool, NodeBuffer, NodeId, Packet, PacketId,
    PacketStore, Partition, Routing, SimConfig, Time, TransferOutcome,
};

/// Unbounded flooding.
#[derive(Debug, Default)]
pub struct Epidemic;

impl Epidemic {
    /// Creates the flooding protocol.
    pub fn new() -> Self {
        Self
    }
}

impl Routing for Epidemic {
    fn name(&self) -> String {
        "Epidemic".into()
    }

    fn on_init(&mut self, _config: &SimConfig) {}

    fn make_room(
        &mut self,
        _node: NodeId,
        _incoming: &Packet,
        needed: u64,
        buffer: &NodeBuffer,
        packets: &PacketStore,
        _now: Time,
    ) -> Vec<PacketId> {
        // Drop the newest packets first (drop-tail on creation age): the
        // oldest copies have spread furthest and are closest to delivery.
        let mut newest_first: Vec<(dtn_sim::Time, PacketId)> = buffer
            .iter()
            .map(|(id, _)| (packets.get(id).created_at, id))
            .collect();
        newest_first.sort_unstable_by_key(|&key| std::cmp::Reverse(key));
        victims_until(newest_first.into_iter().map(|(_, id)| id), needed, |id| {
            packets.get(id).size_bytes
        })
    }

    fn on_contact(&mut self, driver: &mut ContactDriver<'_>) {
        Self::contact_core(driver);
    }

    fn contact_concurrency(&self) -> ContactConcurrency {
        // Flooding keeps no protocol state at all: contacts are a pure
        // function of the driver, so node-disjoint ones commute.
        ContactConcurrency::NodeDisjoint
    }

    fn on_contact_batch(&mut self, batch: &mut [ContactDriver<'_>], pool: &ContactPool) {
        pool.run_each(batch, &|_worker, driver| Self::contact_core(driver));
    }

    fn on_shard_epoch(
        &mut self,
        partition: &Partition,
        pool: &ContactPool,
        drain: &(dyn Fn(usize, &mut dyn Routing) + Sync),
    ) -> bool {
        // No per-node state to lease: every shard drains against its own
        // copy of the unit struct.
        pool.run(partition.shards(), &|_worker, s| drain(s, &mut Epidemic));
        true
    }

    fn save_state(&self) -> Option<Vec<u8>> {
        Some(Vec::new())
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        load_empty_state("Epidemic", bytes)
    }
}

impl Epidemic {
    /// One flooding contact; free of `self`, so batches parallelize.
    fn contact_core(driver: &mut ContactDriver<'_>) {
        let (a, b) = driver.endpoints();
        for x in [a, b] {
            let _ = deliver_destined(driver, x);
        }
        for x in [a, b] {
            let mut candidates = replication_candidates(driver, x);
            candidates.sort_unstable_by_key(|&id| {
                let p = driver.packets().get(id);
                (p.created_at, id)
            });
            for id in candidates {
                // Flooding does not evict at the receiver: a full buffer
                // simply rejects new replicas, so only bandwidth stops us.
                if driver.try_transfer(x, id) == TransferOutcome::NoBandwidth {
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtn_sim::workload::{PacketSpec, Workload};
    use dtn_sim::{Contact, Schedule, Simulation};

    fn spec(t: u64, src: u32, dst: u32) -> PacketSpec {
        PacketSpec {
            time: Time::from_secs(t),
            src: NodeId(src),
            dst: NodeId(dst),
            size_bytes: 1024,
        }
    }

    fn contact(t: u64, a: u32, b: u32) -> Contact {
        Contact::new(Time::from_secs(t), NodeId(a), NodeId(b), 1 << 20)
    }

    #[test]
    fn floods_to_everyone() {
        let cfg = SimConfig {
            nodes: 4,
            horizon: Time::from_secs(100),
            ..SimConfig::default()
        };
        let sim = Simulation::new(
            cfg,
            Schedule::new(vec![
                contact(10, 0, 1),
                contact(20, 1, 2),
                contact(30, 2, 3),
            ]),
            Workload::new(vec![spec(0, 0, 3)]),
        );
        let r = sim.run(&mut Epidemic::new());
        assert_eq!(r.delivered(), 1);
        // Replicated 0→1, 1→2; delivered 2→3.
        assert_eq!(r.replications, 2);
    }

    #[test]
    fn oldest_spread_first_under_bandwidth_pressure() {
        let cfg = SimConfig {
            nodes: 3,
            horizon: Time::from_secs(100),
            ..SimConfig::default()
        };
        let sim = Simulation::new(
            cfg,
            Schedule::new(vec![Contact::new(
                Time::from_secs(50),
                NodeId(0),
                NodeId(1),
                1024, // one packet only
            )]),
            Workload::new(vec![spec(20, 0, 2), spec(10, 0, 2)]),
        );
        let r = sim.run(&mut Epidemic::new());
        assert_eq!(r.replications, 1);
        // The replica that moved is the older one (created at 10).
        let moved: Vec<_> = r
            .outcomes
            .iter()
            .filter(|o| o.created_at == Time::from_secs(10))
            .collect();
        assert_eq!(moved.len(), 1);
    }

    #[test]
    fn full_buffer_rejects_without_eviction() {
        let cfg = SimConfig {
            nodes: 3,
            buffer_capacity: 1024,
            horizon: Time::from_secs(100),
            ..SimConfig::default()
        };
        let sim = Simulation::new(
            cfg,
            Schedule::new(vec![contact(50, 0, 1)]),
            // Node 1 already holds its own packet; node 0 tries to flood.
            Workload::new(vec![spec(0, 1, 2), spec(1, 0, 2)]),
        );
        let r = sim.run(&mut Epidemic::new());
        assert_eq!(r.replications, 0, "no eviction in flooding");
    }
}
