//! MaxProp (Burgess, Gallagher, Jensen, Levine; Infocom 2006) — the
//! strongest baseline in the paper's evaluation and, like RAPID, designed
//! for finite storage and bandwidth (P5 in Table 1).
//!
//! Mechanisms reproduced from the MaxProp paper, as the RAPID paper uses
//! them (§6.1):
//!
//! * **Meeting likelihoods**: each node keeps an incrementally-averaged
//!   probability vector over peers (start uniform; on a meeting, add 1 to
//!   the met peer and renormalize). Vectors are exchanged at contacts.
//! * **Path cost**: the cost of reaching a destination is the minimum over
//!   paths of `Σ (1 − P(edge))` — computed with Dijkstra over the believed
//!   vectors.
//! * **Priorities**: destined packets first; then packets with hop count
//!   below a threshold, lowest hop count first ("MaxProp prioritizes new
//!   packets", §6.3.1); then the rest by lowest path cost.
//! * **Acks**: delivery acknowledgments are flooded and purge replicas.
//! * **Eviction**: drops the most-replicated/most-traveled packets first
//!   (highest hop count, then highest path cost) — §6.3.2's description.
//!
//! Per the paper's methodology, its control traffic is not charged against
//! the data channel.

use crate::common::{deliver_destined, evict_until, replication_candidates, victims_until};
use dtn_sim::{
    AckTable, ContactDriver, NodeBuffer, NodeId, Packet, PacketId, PacketStore, Routing, SimConfig,
    Time, TransferOutcome,
};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// Hop-count threshold below which packets are prioritized by hop count.
const HOP_PRIORITY_THRESHOLD: u32 = 3;

/// The MaxProp protocol.
pub struct MaxProp {
    /// Meeting counts: `counts[x][y]` = times x met y (plus-one smoothing).
    counts: Vec<Vec<f64>>,
    /// Believed probability vectors: `belief[x][u]` = x's copy of u's
    /// normalized vector, with a stamp.
    belief: Vec<Vec<(Vec<f64>, Time)>>,
    /// Hops traveled by each replica: `(node, packet) → hops from source`.
    hops: HashMap<(u32, u32), u32>,
    acks: AckTable,
}

impl MaxProp {
    /// Creates MaxProp.
    pub fn new() -> Self {
        Self {
            counts: Vec::new(),
            belief: Vec::new(),
            hops: HashMap::new(),
            acks: AckTable::new(0),
        }
    }

    /// x's normalized meeting-probability vector.
    fn own_vector(&self, x: NodeId) -> Vec<f64> {
        let row = &self.counts[x.index()];
        let total: f64 = row.iter().sum();
        if total == 0.0 {
            return vec![0.0; row.len()];
        }
        row.iter().map(|c| c / total).collect()
    }

    /// Dijkstra over believed vectors: cost from `x` to every node, where
    /// edge `u→v` costs `1 − P_u(v)`; edges with zero probability are
    /// unusable.
    pub fn path_costs(&self, x: NodeId) -> Vec<f64> {
        let n = self.counts.len();
        let mut dist = vec![f64::INFINITY; n];
        dist[x.index()] = 0.0;
        let mut heap: BinaryHeap<Reverse<(OrderedF64, usize)>> = BinaryHeap::new();
        heap.push(Reverse((OrderedF64(0.0), x.index())));
        while let Some(Reverse((OrderedF64(d), u))) = heap.pop() {
            if d > dist[u] {
                continue;
            }
            let vector = if u == x.index() {
                self.own_vector(x)
            } else {
                self.belief[x.index()][u].0.clone()
            };
            for (v, &p) in vector.iter().enumerate() {
                if p <= 0.0 || v == u {
                    continue;
                }
                let nd = d + (1.0 - p);
                if nd < dist[v] {
                    dist[v] = nd;
                    heap.push(Reverse((OrderedF64(nd), v)));
                }
            }
        }
        dist
    }

    /// Hops traveled by the replica of `packet` held at `node`.
    pub fn hops_at(&self, node: NodeId, packet: PacketId) -> u32 {
        self.hops.get(&(node.0, packet.0)).copied().unwrap_or(0)
    }

    /// Eviction order at `node`: most-traveled (highest hops), then highest
    /// path cost, newest first — returned worst-first.
    fn eviction_order(
        &self,
        node: NodeId,
        buffer: &NodeBuffer,
        packets: &PacketStore,
    ) -> Vec<PacketId> {
        // Sort key: hop count, path cost, then newest-first tiebreak.
        type EvictionScore = (u32, OrderedF64, Reverse<(Time, PacketId)>, PacketId);
        let costs = self.path_costs(node);
        let mut scored: Vec<EvictionScore> = buffer
            .iter()
            .map(|(id, _)| {
                let p = packets.get(id);
                (
                    self.hops_at(node, id),
                    OrderedF64(costs[p.dst.index()]),
                    Reverse((p.created_at, id)),
                    id,
                )
            })
            .collect();
        scored.sort_unstable_by(|l, r| r.0.cmp(&l.0).then(r.1.cmp(&l.1)).then(l.2.cmp(&r.2)));
        scored.into_iter().map(|(_, _, _, id)| id).collect()
    }
}

impl Default for MaxProp {
    fn default() -> Self {
        Self::new()
    }
}

impl Routing for MaxProp {
    fn name(&self) -> String {
        "MaxProp".into()
    }

    fn on_init(&mut self, config: &SimConfig) {
        let n = config.nodes;
        self.counts = vec![vec![0.0; n]; n];
        self.belief = vec![vec![(vec![0.0; n], Time::ZERO); n]; n];
        self.hops = HashMap::new();
        self.acks = AckTable::new(n);
    }

    fn on_packet_created(&mut self, packet: &Packet) {
        self.hops.insert((packet.src.0, packet.id.0), 0);
    }

    fn make_room(
        &mut self,
        node: NodeId,
        _incoming: &Packet,
        needed: u64,
        buffer: &NodeBuffer,
        packets: &PacketStore,
        _now: Time,
    ) -> Vec<PacketId> {
        let order = self.eviction_order(node, buffer, packets);
        victims_until(order, needed, |id| packets.get(id).size_bytes)
    }

    fn on_contact(&mut self, driver: &mut ContactDriver<'_>) {
        let (a, b) = driver.endpoints();
        let now = driver.now();

        // Meeting likelihood update + vector exchange (not charged; §6.1).
        for (x, y) in [(a, b), (b, a)] {
            self.counts[x.index()][y.index()] += 1.0;
            let own = self.own_vector(x);
            self.belief[x.index()][x.index()] = (own, now);
        }
        // Swap all believed rows, freshest stamp wins (epidemic routing of
        // link state, as MaxProp does).
        for u in 0..self.counts.len() {
            let (ai, bi) = (a.index(), b.index());
            if self.belief[ai][u].1 > self.belief[bi][u].1 {
                self.belief[bi][u] = self.belief[ai][u].clone();
            } else if self.belief[bi][u].1 > self.belief[ai][u].1 {
                self.belief[ai][u] = self.belief[bi][u].clone();
            }
        }

        // Ack flooding and purge.
        let _ = self.acks.exchange(a, b);
        for x in [a, b] {
            for id in driver.buffer(x).ids() {
                if self.acks.knows(x, id) {
                    driver.evict(x, id);
                    self.hops.remove(&(x.0, id.0));
                }
            }
        }

        // Direct delivery.
        for x in [a, b] {
            for id in deliver_destined(driver, x) {
                self.acks.learn(x, id);
                self.acks.learn(driver.peer_of(x), id);
                self.hops.remove(&(x.0, id.0));
            }
        }

        // Replication by MaxProp priority.
        for x in [a, b] {
            let y = driver.peer_of(x);
            let costs = self.path_costs(y);
            let mut ranked: Vec<(u8, u32, OrderedF64, PacketId)> =
                replication_candidates(driver, x)
                    .into_iter()
                    .filter(|&id| !self.acks.knows(x, id))
                    .map(|id| {
                        let p = driver.packets().get(id);
                        let hops = self.hops_at(x, id);
                        let cost = OrderedF64(costs[p.dst.index()]);
                        if hops < HOP_PRIORITY_THRESHOLD {
                            (0u8, hops, cost, id)
                        } else {
                            (1u8, 0, cost, id)
                        }
                    })
                    .collect();
            ranked.sort_unstable_by(|l, r| {
                l.0.cmp(&r.0)
                    .then(l.1.cmp(&r.1))
                    .then(l.2.cmp(&r.2))
                    .then(l.3.cmp(&r.3))
            });
            for (_, _, _, id) in ranked {
                loop {
                    match driver.try_transfer(x, id) {
                        TransferOutcome::Replicated => {
                            let h = self.hops_at(x, id) + 1;
                            self.hops.insert((y.0, id.0), h);
                            break;
                        }
                        TransferOutcome::NeedsSpace(needed) => {
                            let mut order = {
                                let buffer = driver.buffer(y);
                                let packets = driver.packets();
                                self.eviction_order(y, buffer, packets)
                            };
                            order.reverse(); // evict_until pops from the end
                            if !evict_until(driver, y, needed, &mut order) {
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

/// Total-order wrapper for non-NaN f64 (Dijkstra keys, sort keys).
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrderedF64(f64);

impl Eq for OrderedF64 {}

impl PartialOrd for OrderedF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrderedF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.partial_cmp(&other.0).expect("NaN in ordering key")
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
            horizon: Time::from_secs(10_000),
            ..SimConfig::default()
        }
    }

    #[test]
    fn vectors_normalize() {
        let mut mp = MaxProp::new();
        let sim = Simulation::new(
            cfg(3),
            Schedule::new(vec![contact(1, 0, 1), contact(2, 0, 1), contact(3, 0, 2)]),
            Workload::default(),
        );
        let _ = sim.run(&mut mp);
        let v = mp.own_vector(NodeId(0));
        assert!((v[1] - 2.0 / 3.0).abs() < 1e-9);
        assert!((v[2] - 1.0 / 3.0).abs() < 1e-9);
        assert!((v.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn path_costs_follow_meeting_probability() {
        let mut mp = MaxProp::new();
        let sim = Simulation::new(
            cfg(3),
            Schedule::new(vec![
                contact(1, 0, 1),
                contact(2, 0, 1),
                contact(3, 1, 2),
                contact(4, 0, 1), // pick up 1's fresh vector
            ]),
            Workload::default(),
        );
        let _ = sim.run(&mut mp);
        let costs = mp.path_costs(NodeId(0));
        assert_eq!(costs[0], 0.0);
        assert!(costs[1] < 1.0, "direct edge exists");
        assert!(costs[2].is_finite(), "two-hop path through 1");
        assert!(costs[2] > costs[1]);
    }

    #[test]
    fn delivers_and_replicates_end_to_end() {
        let mut mp = MaxProp::new();
        let sim = Simulation::new(
            cfg(3),
            Schedule::new(vec![contact(5, 1, 2), contact(15, 0, 1), contact(30, 1, 2)]),
            Workload::new(vec![spec(10, 0, 2)]),
        );
        let r = sim.run(&mut mp);
        assert_eq!(r.delivered(), 1);
        assert!((r.avg_delay_secs().unwrap() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn acks_purge_replicas() {
        let mut mp = MaxProp::new();
        let sim = Simulation::new(
            cfg(3),
            Schedule::new(vec![
                contact(10, 0, 1), // replicate
                contact(20, 0, 2), // deliver
                contact(30, 0, 1), // ack → purge at 1
                contact(40, 1, 2), // no duplicate
            ]),
            Workload::new(vec![spec(0, 0, 2)]),
        );
        let r = sim.run(&mut mp);
        assert_eq!(r.data_bytes, 2 * 1024);
    }

    #[test]
    fn hop_counts_accumulate() {
        let mut mp = MaxProp::new();
        let sim = Simulation::new(
            cfg(4),
            Schedule::new(vec![contact(10, 0, 1), contact(20, 1, 2)]),
            Workload::new(vec![spec(0, 0, 3)]),
        );
        let _ = sim.run(&mut mp);
        assert_eq!(mp.hops_at(NodeId(0), PacketId(0)), 0);
        assert_eq!(mp.hops_at(NodeId(1), PacketId(0)), 1);
        assert_eq!(mp.hops_at(NodeId(2), PacketId(0)), 2);
    }

    #[test]
    fn eviction_drops_most_traveled_first() {
        // Node 1's buffer: 2 slots. It holds a 1-hop replica and its own
        // packet; a new incoming replica should displace the traveled one
        // only (own packet has 0 hops).
        let c = SimConfig {
            buffer_capacity: 2048,
            ..cfg(4)
        };
        let mut mp = MaxProp::new();
        let sim = Simulation::new(
            c,
            Schedule::new(vec![
                contact(10, 0, 1), // replica of p0 (hops 1) at node 1
                contact(30, 2, 1), // p2's replica incoming; buffer full
            ]),
            Workload::new(vec![
                spec(0, 0, 3),  // p0: replicated to 1
                spec(5, 1, 3),  // p1: node 1's own
                spec(25, 2, 3), // p2: incoming at t=30
            ]),
        );
        let r = sim.run(&mut mp);
        // p0's replica at node 1 was evicted for p2.
        assert_eq!(mp.hops_at(NodeId(1), PacketId(2)), 1);
        assert!(r.replications >= 2);
    }
}
