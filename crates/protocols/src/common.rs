//! Building blocks shared by the baseline protocols.

use dtn_sim::{ContactDriver, NodeId, PacketId, TransferOutcome};

/// `Routing::load_state` for a protocol whose `save_state` is
/// `Some(Vec::new())`: any other bytes were written by a different
/// protocol and must not restore.
pub fn load_empty_state(name: &str, bytes: &[u8]) -> Result<(), String> {
    if bytes.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{name} keeps no state but the snapshot holds {} bytes of it",
            bytes.len()
        ))
    }
}

/// Delivers every packet destined to the peer, oldest first, until the
/// opportunity in that direction runs out. Returns the ids delivered
/// (first-time or duplicate — bandwidth was spent either way).
///
/// The buffer's per-destination delivery queue is already in
/// `(created_at, id)` order, so no scan or sort is needed — the transfer
/// loop just walks a snapshot of that queue (a snapshot because transfers
/// mutate the buffer).
pub fn deliver_destined(driver: &mut ContactDriver<'_>, from: NodeId) -> Vec<PacketId> {
    let to = driver.peer_of(from);
    let destined: Vec<PacketId> = driver.buffer(from).queue(to).iter().map(|e| e.id).collect();
    let mut delivered = Vec::new();
    for id in destined {
        match driver.try_transfer(from, id) {
            TransferOutcome::Delivered | TransferOutcome::DeliveredDuplicate => {
                delivered.push(id);
            }
            TransferOutcome::NoBandwidth => break,
            _ => {}
        }
    }
    delivered
}

/// The replication candidates from `from` towards its peer: buffered
/// packets not destined to the peer and not already held by it.
pub fn replication_candidates(driver: &ContactDriver<'_>, from: NodeId) -> Vec<PacketId> {
    let mut candidates = Vec::new();
    fill_replication_candidates(driver, from, &mut candidates);
    candidates
}

/// [`replication_candidates`] into a reused list (cleared first), in the
/// same buffer-id order.
pub fn fill_replication_candidates(
    driver: &ContactDriver<'_>,
    from: NodeId,
    out: &mut Vec<PacketId>,
) {
    let to = driver.peer_of(from);
    out.clear();
    out.extend(
        driver
            .buffer(from)
            .iter()
            .map(|(id, _)| id)
            .filter(|&id| driver.packets().get(id).dst != to && !driver.buffer(to).contains(id)),
    );
}

/// Evicts victims produced by `next_victim` until `needed` bytes are free
/// at `node`; returns whether enough space was freed. `next_victim` is
/// called with the ids still evictable (it pops its choice).
pub fn evict_until(
    driver: &mut ContactDriver<'_>,
    node: NodeId,
    needed: u64,
    victims: &mut Vec<PacketId>,
) -> bool {
    let mut freed = 0u64;
    while freed < needed {
        let Some(victim) = victims.pop() else {
            return false;
        };
        let size = driver.packets().get(victim).size_bytes;
        if driver.evict(node, victim) {
            freed += size;
        }
    }
    true
}

/// The victims `Routing::make_room` returns for an eviction `order`: its
/// shortest prefix whose sizes reach `needed` bytes, or nothing when the
/// whole order falls short (room is made in full or not at all).
pub fn victims_until(
    order: impl IntoIterator<Item = PacketId>,
    needed: u64,
    size_of: impl Fn(PacketId) -> u64,
) -> Vec<PacketId> {
    let mut victims = Vec::new();
    let mut freed = 0u64;
    for id in order {
        if freed >= needed {
            break;
        }
        freed += size_of(id);
        victims.push(id);
    }
    if freed >= needed {
        victims
    } else {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use dtn_sim::workload::{PacketSpec, Workload};
    use dtn_sim::{Contact, ContactDriver, NodeId, Routing, Schedule, SimConfig, Simulation, Time};

    struct Probe {
        delivered: usize,
        candidates: usize,
    }

    impl Routing for Probe {
        fn name(&self) -> String {
            "probe".into()
        }
        fn on_contact(&mut self, driver: &mut ContactDriver<'_>) {
            let (a, _) = driver.endpoints();
            self.candidates = super::replication_candidates(driver, a).len();
            self.delivered = super::deliver_destined(driver, a).len();
        }
    }

    #[test]
    fn helpers_deliver_and_enumerate() {
        let cfg = SimConfig {
            nodes: 3,
            horizon: Time::from_secs(100),
            ..SimConfig::default()
        };
        let sim = Simulation::new(
            cfg,
            Schedule::new(vec![Contact::new(
                Time::from_secs(10),
                NodeId(0),
                NodeId(1),
                1 << 20,
            )]),
            Workload::new(vec![
                PacketSpec {
                    time: Time::from_secs(1),
                    src: NodeId(0),
                    dst: NodeId(1),
                    size_bytes: 1024,
                },
                PacketSpec {
                    time: Time::from_secs(2),
                    src: NodeId(0),
                    dst: NodeId(2),
                    size_bytes: 1024,
                },
            ]),
        );
        let mut p = Probe {
            delivered: 0,
            candidates: 0,
        };
        let r = sim.run(&mut p);
        assert_eq!(p.delivered, 1);
        assert_eq!(p.candidates, 1, "the packet for node 2 is a candidate");
        assert_eq!(r.delivered(), 1);
    }
}
