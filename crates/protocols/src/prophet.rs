//! PRoPHET — Probabilistic Routing Protocol using History of Encounters
//! and Transitivity (Lindgren et al.; §6.1 of the paper).
//!
//! Every node keeps a delivery predictability `P(x, z) ∈ [0, 1]` for every
//! destination:
//!
//! * **Encounter**: on meeting `y`, `P(x,y) ← P(x,y) + (1 − P(x,y))·P_init`.
//! * **Aging**: `P ← P · γ^k`, `k` time units since the last aging.
//! * **Transitivity**: `P(x,z) ← max(P(x,z), P(x,y)·P(y,z)·β)`.
//!
//! A packet is replicated to a peer with higher predictability for its
//! destination. The paper uses `P_init = 0.75, β = 0.25, γ = 0.98`; the
//! time unit is a scenario parameter (Lindgren et al. leave it workload
//! dependent) — the default here is 60 s, giving meaningful decay at
//! vehicular meeting cadences. Eviction is FIFO (the Lindgren default).
//! Per the paper's methodology its control traffic is not charged.

use crate::common::{deliver_destined, evict_until, replication_candidates, victims_until};
use dtn_sim::{
    ContactDriver, NodeBuffer, NodeId, Packet, PacketId, PacketStore, Routing, SimConfig, Time,
    TransferOutcome,
};

/// PRoPHET parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProphetParams {
    /// Encounter increment (paper: 0.75).
    pub p_init: f64,
    /// Transitivity damping (paper: 0.25).
    pub beta: f64,
    /// Aging base (paper: 0.98).
    pub gamma: f64,
    /// Seconds per aging time unit.
    pub time_unit_secs: f64,
}

impl Default for ProphetParams {
    fn default() -> Self {
        Self {
            p_init: 0.75,
            beta: 0.25,
            gamma: 0.98,
            time_unit_secs: 60.0,
        }
    }
}

/// The PRoPHET protocol.
pub struct Prophet {
    params: ProphetParams,
    /// `p[x][z]`: x's delivery predictability for z.
    p: Vec<Vec<f64>>,
    /// Last aging instant per node.
    last_aged: Vec<Time>,
}

impl Prophet {
    /// PRoPHET with the paper's parameters.
    pub fn new() -> Self {
        Self::with_params(ProphetParams::default())
    }

    /// PRoPHET with custom parameters.
    pub fn with_params(params: ProphetParams) -> Self {
        assert!(params.p_init > 0.0 && params.p_init <= 1.0);
        assert!(params.beta >= 0.0 && params.beta <= 1.0);
        assert!(params.gamma > 0.0 && params.gamma < 1.0);
        assert!(params.time_unit_secs > 0.0);
        Self {
            params,
            p: Vec::new(),
            last_aged: Vec::new(),
        }
    }

    /// Current predictability `P(x, z)`.
    pub fn predictability(&self, x: NodeId, z: NodeId) -> f64 {
        self.p[x.index()][z.index()]
    }

    fn age(&mut self, x: NodeId, now: Time) {
        let dt = now.since(self.last_aged[x.index()]).as_secs_f64();
        if dt <= 0.0 {
            return;
        }
        let factor = self.params.gamma.powf(dt / self.params.time_unit_secs);
        for v in &mut self.p[x.index()] {
            *v *= factor;
        }
        self.last_aged[x.index()] = now;
    }
}

impl Default for Prophet {
    fn default() -> Self {
        Self::new()
    }
}

impl Routing for Prophet {
    fn name(&self) -> String {
        "Prophet".into()
    }

    fn on_init(&mut self, config: &SimConfig) {
        self.p = vec![vec![0.0; config.nodes]; config.nodes];
        self.last_aged = vec![Time::ZERO; config.nodes];
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
        // FIFO: evict the replicas received longest ago.
        let mut ids: Vec<(Time, PacketId)> = buffer
            .iter()
            .map(|(id, meta)| (meta.stored_at, id))
            .collect();
        ids.sort_unstable();
        victims_until(ids.into_iter().map(|(_, id)| id), needed, |id| {
            buffer.meta(id).expect("id from buffer").size_bytes
        })
    }

    fn on_contact(&mut self, driver: &mut ContactDriver<'_>) {
        let (a, b) = driver.endpoints();
        let now = driver.now();

        // Age both vectors, apply the encounter update, then transitivity
        // using the peer's (just-exchanged) vector.
        self.age(a, now);
        self.age(b, now);
        for (x, y) in [(a, b), (b, a)] {
            let old = self.p[x.index()][y.index()];
            self.p[x.index()][y.index()] = old + (1.0 - old) * self.params.p_init;
        }
        let pa = self.p[a.index()].clone();
        let pb = self.p[b.index()].clone();
        for z in 0..self.p.len() {
            let via_b = pa[b.index()] * pb[z] * self.params.beta;
            if via_b > self.p[a.index()][z] {
                self.p[a.index()][z] = via_b;
            }
            let via_a = pb[a.index()] * pa[z] * self.params.beta;
            if via_a > self.p[b.index()][z] {
                self.p[b.index()][z] = via_a;
            }
        }

        for x in [a, b] {
            let _ = deliver_destined(driver, x);
        }

        // Replicate where the peer is a strictly better custodian,
        // best-predictability-first.
        for x in [a, b] {
            let y = driver.peer_of(x);
            let mut scored: Vec<(f64, PacketId)> = replication_candidates(driver, x)
                .into_iter()
                .filter_map(|id| {
                    let dst = driver.packets().get(id).dst;
                    let py = self.p[y.index()][dst.index()];
                    let px = self.p[x.index()][dst.index()];
                    (py > px).then_some((py, id))
                })
                .collect();
            scored.sort_unstable_by(|l, r| {
                r.0.partial_cmp(&l.0)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(l.1.cmp(&r.1))
            });
            for (_, id) in scored {
                loop {
                    match driver.try_transfer(x, id) {
                        TransferOutcome::NeedsSpace(needed) => {
                            // FIFO eviction at the receiver.
                            let mut pool: Vec<(Time, PacketId)> = driver
                                .buffer(y)
                                .iter()
                                .map(|(pid, meta)| (meta.stored_at, pid))
                                .collect();
                            pool.sort_unstable_by_key(|&(t, pid)| std::cmp::Reverse((t, pid)));
                            let mut victims: Vec<PacketId> =
                                pool.into_iter().map(|(_, pid)| pid).collect();
                            if !evict_until(driver, y, needed, &mut victims) {
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
            horizon: Time::from_secs(10_000),
            ..SimConfig::default()
        }
    }

    #[test]
    fn encounter_update_math() {
        let mut pr = Prophet::new();
        let sim = Simulation::new(
            cfg(2),
            Schedule::new(vec![contact(10, 0, 1)]),
            Workload::default(),
        );
        let _ = sim.run(&mut pr);
        // One encounter: P = 0 + (1-0)*0.75.
        assert!((pr.predictability(NodeId(0), NodeId(1)) - 0.75).abs() < 1e-9);
    }

    #[test]
    fn repeated_encounters_approach_one() {
        let mut pr = Prophet::new();
        let sim = Simulation::new(
            cfg(2),
            Schedule::new((1..=20).map(|k| contact(k, 0, 1)).collect()),
            Workload::default(),
        );
        let _ = sim.run(&mut pr);
        assert!(pr.predictability(NodeId(0), NodeId(1)) > 0.95);
    }

    #[test]
    fn aging_decays_predictability() {
        let mut pr = Prophet::new();
        let sim = Simulation::new(
            cfg(3),
            Schedule::new(vec![
                contact(10, 0, 1),
                // Much later: 0 meets 2; P(0,1) must have decayed.
                contact(10 + 3600, 0, 2),
            ]),
            Workload::default(),
        );
        let _ = sim.run(&mut pr);
        let p01 = pr.predictability(NodeId(0), NodeId(1));
        // 0.75 · 0.98^(3600/60) ≈ 0.75 · 0.298 ≈ 0.224.
        assert!((p01 - 0.75 * 0.98f64.powf(60.0)).abs() < 1e-6, "{p01}");
    }

    #[test]
    fn transitivity_builds_indirect_predictability() {
        let mut pr = Prophet::new();
        let sim = Simulation::new(
            cfg(3),
            Schedule::new(vec![contact(10, 1, 2), contact(20, 0, 1)]),
            Workload::default(),
        );
        let _ = sim.run(&mut pr);
        let p02 = pr.predictability(NodeId(0), NodeId(2));
        assert!(p02 > 0.0, "transitivity must give 0 some P(0,2)");
        assert!(p02 < pr.predictability(NodeId(0), NodeId(1)));
    }

    #[test]
    fn forwards_only_to_better_custodians() {
        // Node 1 meets the destination often → higher P. Node 3 never does.
        let mut pr = Prophet::new();
        let sim = Simulation::new(
            cfg(4),
            Schedule::new(vec![
                contact(5, 1, 2),
                contact(15, 1, 2),
                contact(30, 0, 1), // should replicate: P(1,2) > P(0,2)
                contact(40, 0, 3), // must not replicate: P(3,2) = 0
            ]),
            Workload::new(vec![spec(0, 0, 2)]),
        );
        let r = sim.run(&mut pr);
        assert_eq!(r.replications, 1, "only the good custodian gets a copy");
    }

    #[test]
    fn end_to_end_delivery_via_custodian() {
        let mut pr = Prophet::new();
        let sim = Simulation::new(
            cfg(3),
            Schedule::new(vec![
                contact(5, 1, 2),
                contact(15, 1, 2),
                contact(30, 0, 1),
                contact(45, 1, 2),
            ]),
            Workload::new(vec![spec(20, 0, 2)]),
        );
        let r = sim.run(&mut pr);
        assert_eq!(r.delivered(), 1);
        assert!((r.avg_delay_secs().unwrap() - 25.0).abs() < 1e-9);
    }
}
