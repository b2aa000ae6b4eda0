//! Binary Spray and Wait (Spyropoulos et al.; §6.1 of the paper).
//!
//! Each packet starts with `L` logical copies at its source. **Spray**: a
//! node holding `c > 1` copies that meets a node without the packet hands
//! over the replica together with `⌊c/2⌋` of the copies, keeping `⌈c/2⌉`
//! (the *binary* variant). **Wait**: a node with `c = 1` holds its single
//! copy until it meets the destination. The paper sets `L = 12` (from
//! Lemma 4.3 of the Spray and Wait paper with `a = 4`).
//!
//! Spray and Wait "does not take into account bandwidth or storage
//! constraints" (§2): under pressure it sprays oldest-first and deletes
//! randomly (§6.3.2).

use crate::common::{deliver_destined, evict_until, replication_candidates, victims_until};
use dtn_sim::{
    ContactDriver, NodeBuffer, NodeId, Packet, PacketId, PacketStore, Routing, SimConfig, Time,
    TransferOutcome,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use std::collections::HashMap;

/// Binary Spray and Wait.
pub struct SprayAndWait {
    /// Initial copy budget `L`.
    l: u32,
    /// Copies held: `(node, packet) → c`.
    copies: HashMap<(u32, u32), u32>,
    rng: StdRng,
}

impl SprayAndWait {
    /// Creates binary Spray and Wait with the paper's `L = 12`.
    pub fn new() -> Self {
        Self::with_copies(12)
    }

    /// Creates binary Spray and Wait with a custom `L`.
    pub fn with_copies(l: u32) -> Self {
        assert!(l >= 1, "need at least one copy");
        Self {
            l,
            copies: HashMap::new(),
            rng: dtn_stats::stream(0, "spray-wait"),
        }
    }

    /// Copies of `packet` held by `node` (0 if none).
    pub fn copies_at(&self, node: NodeId, packet: PacketId) -> u32 {
        self.copies.get(&(node.0, packet.0)).copied().unwrap_or(0)
    }
}

impl Default for SprayAndWait {
    fn default() -> Self {
        Self::new()
    }
}

impl Routing for SprayAndWait {
    fn name(&self) -> String {
        format!("SprayAndWait(L={})", self.l)
    }

    fn on_init(&mut self, config: &SimConfig) {
        self.copies.clear();
        self.rng = dtn_stats::stream(config.seed, "spray-wait");
    }

    fn on_packet_created(&mut self, packet: &Packet) {
        self.copies.insert((packet.src.0, packet.id.0), self.l);
    }

    fn make_room(
        &mut self,
        _node: NodeId,
        _incoming: &Packet,
        needed: u64,
        buffer: &NodeBuffer,
        _packets: &PacketStore,
        _now: Time,
    ) -> Vec<PacketId> {
        let mut ids = buffer.ids();
        ids.shuffle(&mut self.rng);
        victims_until(ids, needed, |id| {
            buffer.meta(id).expect("id from buffer").size_bytes
        })
    }

    fn on_contact(&mut self, driver: &mut ContactDriver<'_>) {
        let (a, b) = driver.endpoints();
        for x in [a, b] {
            for id in deliver_destined(driver, x) {
                self.copies.remove(&(x.0, id.0));
            }
        }
        for x in [a, b] {
            let y = driver.peer_of(x);
            // Spray phase: only packets with more than one copy.
            let mut sprayable: Vec<PacketId> = replication_candidates(driver, x)
                .into_iter()
                .filter(|&id| self.copies_at(x, id) > 1)
                .collect();
            sprayable.sort_unstable_by_key(|&id| {
                let p = driver.packets().get(id);
                (p.created_at, id)
            });
            for id in sprayable {
                loop {
                    match driver.try_transfer(x, id) {
                        TransferOutcome::Replicated => {
                            let c = self.copies_at(x, id);
                            debug_assert!(c > 1);
                            let give = c / 2;
                            self.copies.insert((x.0, id.0), c - give);
                            self.copies.insert((y.0, id.0), give);
                            break;
                        }
                        TransferOutcome::NeedsSpace(needed) => {
                            let mut pool = driver.buffer(y).ids();
                            pool.shuffle(&mut self.rng);
                            if !evict_until(driver, y, needed, &mut pool) {
                                break;
                            }
                        }
                        TransferOutcome::NoBandwidth => return,
                        _ => break,
                    }
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

    fn cfg(nodes: usize) -> SimConfig {
        SimConfig {
            nodes,
            horizon: Time::from_secs(1000),
            ..SimConfig::default()
        }
    }

    #[test]
    fn binary_halving_of_copies() {
        let mut sw = SprayAndWait::with_copies(12);
        let sim = Simulation::new(
            cfg(3),
            Schedule::new(vec![contact(10, 0, 1)]),
            Workload::new(vec![spec(0, 0, 2)]),
        );
        let _ = sim.run(&mut sw);
        assert_eq!(sw.copies_at(NodeId(0), PacketId(0)), 6);
        assert_eq!(sw.copies_at(NodeId(1), PacketId(0)), 6);
    }

    #[test]
    fn wait_phase_blocks_further_spraying() {
        // L=2: after one spray both holders have c=1 and must wait.
        let mut sw = SprayAndWait::with_copies(2);
        let sim = Simulation::new(
            cfg(4),
            Schedule::new(vec![
                contact(10, 0, 1), // spray: 0 and 1 now have c=1
                contact(20, 0, 2), // wait phase: no spray to 2
                contact(30, 1, 2), // wait phase: no spray either
            ]),
            Workload::new(vec![spec(0, 0, 3)]),
        );
        let r = sim.run(&mut sw);
        assert_eq!(r.replications, 1, "only the first spray");
        assert_eq!(sw.copies_at(NodeId(2), PacketId(0)), 0);
    }

    #[test]
    fn wait_phase_still_delivers_directly() {
        let mut sw = SprayAndWait::with_copies(1);
        let sim = Simulation::new(
            cfg(3),
            Schedule::new(vec![
                contact(10, 0, 1), // c=1: no spray
                contact(20, 0, 2), // destination: deliver
            ]),
            Workload::new(vec![spec(0, 0, 2)]),
        );
        let r = sim.run(&mut sw);
        assert_eq!(r.replications, 0);
        assert_eq!(r.delivered(), 1);
    }

    #[test]
    fn copy_budget_is_conserved() {
        let mut sw = SprayAndWait::with_copies(12);
        let sim = Simulation::new(
            cfg(5),
            Schedule::new(vec![
                contact(10, 0, 1),
                contact(20, 1, 2),
                contact(30, 0, 3),
                contact(40, 2, 3),
            ]),
            Workload::new(vec![spec(0, 0, 4)]),
        );
        let _ = sim.run(&mut sw);
        let total: u32 = (0..5).map(|n| sw.copies_at(NodeId(n), PacketId(0))).sum();
        assert_eq!(total, 12, "copies are moved, never created");
    }

    #[test]
    fn l_one_is_direct_only() {
        let mut sw = SprayAndWait::with_copies(1);
        let sim = Simulation::new(
            cfg(3),
            Schedule::new(vec![contact(10, 0, 1), contact(20, 1, 2)]),
            Workload::new(vec![spec(0, 0, 2)]),
        );
        let r = sim.run(&mut sw);
        assert_eq!(r.delivered(), 0, "source never met the destination");
        assert_eq!(r.replications, 0);
    }
}
