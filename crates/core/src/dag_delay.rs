//! `DAG_DELAY` — the idealized delay estimator of Appendix C.
//!
//! Estimate Delay (§4.1) ignores the *non-vertical* dependencies between
//! packet delays: if replicas of packet `b` sit behind replicas of packet
//! `a` in several buffers, delivering `a` anywhere unblocks every replica of
//! `b`. Appendix C constructs the dependency graph explicitly and computes,
//! for unit-size packets and unit transfer opportunities,
//!
//! ```text
//! d'(p_j) = d(succ(p_j)) ⊕ e_{node(p_j)}        (per replica)
//! d(p)    = min(d'(p_1), …, d'(p_k))            (per packet)
//! ```
//!
//! where `e_n` is the distribution of node `n`'s wait to meet the
//! destination and `⊕` is the sum of independent delays. The distribution
//! calculus is the discretized one from `dtn-stats` (exact for min, grid
//! convolution for ⊕).
//!
//! The paper uses this algorithm only as an idealized reference (it needs a
//! global view); the reproduction ships it for the same purpose — tests
//! quantify how far Estimate Delay's independence assumption strays from
//! it.
//!
//! Packet and node identities are interned onto dense indices up front
//! (the workspace-wide discipline from `dtn_sim::ids`): the recursion,
//! memoization and cycle tracking are all `Vec`-indexed — no hashing on
//! the evaluation path — and both inputs and outputs are plain ordered
//! slices, so iteration order is deterministic by construction (results
//! come back in ascending [`PacketId`] order).

use dtn_sim::{NodeId, NodeInterner, PacketId, PacketInterner};
use dtn_stats::DiscreteDist;

/// The queue state fed to `dag_delay`: for each node, the packets destined
/// to the (implicit, common) destination in delivery order, head first.
/// Packet ids may repeat across nodes (replicas), not within a node.
#[derive(Debug, Clone, Default)]
pub struct QueueState {
    /// `(node, its queue head-first)` pairs.
    pub queues: Vec<(NodeId, Vec<PacketId>)>,
}

/// Dense working tables for one `dag_delay` evaluation.
struct DagTables<'a> {
    /// Per dense packet index: its replicas as
    /// `(dense node, predecessor dense packet if any)`.
    replicas: Vec<Vec<(u32, Option<u32>)>>,
    /// Per dense node index: its meeting-time distribution.
    meet: Vec<&'a DiscreteDist>,
    /// Memoized results per dense packet index.
    memo: Vec<Option<DiscreteDist>>,
    /// Cycle guard per dense packet index.
    in_progress: Vec<bool>,
}

/// Computes the delivery-delay distribution of every packet appearing in
/// `queues`, given each node's meeting-time distribution with the
/// destination.
///
/// `meet` maps a node to its `e_node` distribution; every node with a
/// non-empty queue must be present (duplicates: the first entry wins).
/// All distributions must share one grid. Results are returned in
/// ascending [`PacketId`] order.
///
/// # Panics
/// Panics if queue orders are inconsistent (a packet precedes another in
/// one buffer and follows it in another — impossible under the global
/// age-ordering of §4.1, and the recursion would not terminate).
pub fn dag_delay(
    queues: &QueueState,
    meet: &[(NodeId, DiscreteDist)],
) -> Vec<(PacketId, DiscreteDist)> {
    // Intern nodes and packets onto dense indices; gather replica lists.
    let mut nodes = NodeInterner::new();
    let mut packets = PacketInterner::new();
    let mut replicas: Vec<Vec<(u32, Option<u32>)>> = Vec::new();
    for (node, queue) in &queues.queues {
        let ni = nodes.intern(*node);
        let mut prev: Option<u32> = None;
        for &p in queue {
            let pi = packets.intern(p);
            if pi.index() >= replicas.len() {
                replicas.resize_with(pi.index() + 1, Vec::new);
            }
            replicas[pi.index()].push((ni.0, prev));
            prev = Some(pi.0);
        }
    }

    // Resolve each interned node's distribution (first meet entry wins).
    let mut meet_of: Vec<Option<&DiscreteDist>> = vec![None; nodes.len()];
    for (node, dist) in meet {
        if let Some(ni) = nodes.get(*node) {
            meet_of[ni.index()].get_or_insert(dist);
        }
    }
    let meet_dense: Vec<&DiscreteDist> = (0..nodes.len())
        .map(|ni| {
            meet_of[ni].unwrap_or_else(|| {
                panic!(
                    "missing meeting distribution for {}",
                    nodes.id(dtn_sim::NodeIdx(ni as u32))
                )
            })
        })
        .collect();

    let n_packets = packets.len();
    let mut tables = DagTables {
        replicas,
        meet: meet_dense,
        memo: vec![None; n_packets],
        in_progress: vec![false; n_packets],
    };

    // Evaluate in ascending PacketId order (deterministic, and the order
    // the results are returned in).
    let mut order: Vec<PacketId> = (0..n_packets)
        .map(|pi| packets.id(dtn_sim::PacketIdx(pi as u32)))
        .collect();
    order.sort_unstable();
    order
        .into_iter()
        .map(|id| {
            let pi = packets.get(id).expect("interned above").0;
            let dist = compute(pi, &mut tables, &packets);
            (id, dist)
        })
        .collect()
}

fn compute(pi: u32, tables: &mut DagTables<'_>, packets: &PacketInterner) -> DiscreteDist {
    let i = pi as usize;
    if let Some(d) = &tables.memo[i] {
        return d.clone();
    }
    assert!(
        !tables.in_progress[i],
        "cyclic packet ordering at {}: queues are not globally age-ordered",
        packets.id(dtn_sim::PacketIdx(pi))
    );
    tables.in_progress[i] = true;
    // Taking (not cloning) is safe: the memo check above means this body
    // runs at most once per packet, and the recursion below only reads
    // *other* packets' replica lists (self-reference panics via
    // `in_progress`), so the emptied slot is never consulted again.
    let reps = std::mem::take(&mut tables.replicas[i]);
    let mut per_replica: Vec<DiscreteDist> = Vec::with_capacity(reps.len());
    for (ni, pred) in reps {
        let e = tables.meet[ni as usize];
        let d = match pred {
            None => e.clone(),
            Some(q) => {
                let dq = compute(q, tables, packets);
                dq.convolve(e)
            }
        };
        per_replica.push(d);
    }
    let result = DiscreteDist::min_of(&per_replica);
    tables.in_progress[i] = false;
    tables.memo[i] = Some(result.clone());
    result
}

/// Estimate Delay's answer on the same inputs, for comparison: each replica
/// of the packet waits `position + 1` meetings of *its own node* (gamma,
/// approximated exponential with the same mean), independent across
/// replicas (Eq. 8). Results in ascending [`PacketId`] order.
pub fn estimate_delay_reference(
    queues: &QueueState,
    mean_meet_secs: &[(NodeId, f64)],
) -> Vec<(PacketId, f64)> {
    let mut packets = PacketInterner::new();
    let mut delays: Vec<Vec<f64>> = Vec::new();
    for (node, queue) in &queues.queues {
        let m = mean_meet_secs
            .iter()
            .find(|(n, _)| n == node)
            .unwrap_or_else(|| panic!("missing mean meeting time for {node}"))
            .1;
        for (pos, &p) in queue.iter().enumerate() {
            let pi = packets.intern(p);
            if pi.index() >= delays.len() {
                delays.resize_with(pi.index() + 1, Vec::new);
            }
            delays[pi.index()].push(m * (pos as f64 + 1.0));
        }
    }
    let mut order: Vec<PacketId> = (0..packets.len())
        .map(|pi| packets.id(dtn_sim::PacketIdx(pi as u32)))
        .collect();
    order.sort_unstable();
    order
        .into_iter()
        .map(|id| {
            let pi = packets.get(id).expect("interned above");
            let reps = std::mem::take(&mut delays[pi.index()]);
            (id, crate::estimate::expected_remaining_delay(reps))
        })
        .collect()
}

/// Looks up one packet's entry in an ascending-`PacketId` result slice.
pub fn delay_of<T>(results: &[(PacketId, T)], id: PacketId) -> Option<&T> {
    results
        .binary_search_by_key(&id, |(p, _)| *p)
        .ok()
        .map(|k| &results[k].1)
}

#[cfg(test)]
mod tests {
    use super::*;

    const N: usize = 3000;
    const DT: f64 = 0.05;

    fn exp_dist(mean: f64) -> DiscreteDist {
        DiscreteDist::exponential(1.0 / mean, N, DT)
    }

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} !~ {b} (tol {tol})");
    }

    fn get<T>(results: &[(PacketId, T)], id: PacketId) -> &T {
        delay_of(results, id).expect("packet in results")
    }

    #[test]
    fn single_replica_head_is_meeting_time() {
        let queues = QueueState {
            queues: vec![(NodeId(0), vec![PacketId(1)])],
        };
        let meet = vec![(NodeId(0), exp_dist(10.0))];
        let d = dag_delay(&queues, &meet);
        close(get(&d, PacketId(1)).mean(), 10.0, 0.3);
    }

    #[test]
    fn second_in_queue_is_two_meetings() {
        let queues = QueueState {
            queues: vec![(NodeId(0), vec![PacketId(1), PacketId(2)])],
        };
        let meet = vec![(NodeId(0), exp_dist(10.0))];
        let d = dag_delay(&queues, &meet);
        // Gamma(2, 1/10): mean 20.
        close(get(&d, PacketId(2)).mean(), 20.0, 0.5);
    }

    #[test]
    fn replicas_take_the_minimum() {
        let queues = QueueState {
            queues: vec![
                (NodeId(0), vec![PacketId(1)]),
                (NodeId(1), vec![PacketId(1)]),
            ],
        };
        let meet = vec![(NodeId(0), exp_dist(10.0)), (NodeId(1), exp_dist(10.0))];
        let d = dag_delay(&queues, &meet);
        // min of two Exp(1/10) = Exp(2/10): mean 5.
        close(get(&d, PacketId(1)).mean(), 5.0, 0.2);
    }

    #[test]
    fn results_are_packet_id_ordered() {
        let queues = QueueState {
            queues: vec![
                (NodeId(0), vec![PacketId(9), PacketId(2)]),
                (NodeId(1), vec![PacketId(5)]),
            ],
        };
        let meet = vec![(NodeId(0), exp_dist(10.0)), (NodeId(1), exp_dist(10.0))];
        let d = dag_delay(&queues, &meet);
        let ids: Vec<u32> = d.iter().map(|(p, _)| p.0).collect();
        assert_eq!(ids, vec![2, 5, 9], "ascending by construction");
        let est = estimate_delay_reference(&queues, &[(NodeId(0), 10.0), (NodeId(1), 10.0)]);
        let ids: Vec<u32> = est.iter().map(|(p, _)| p.0).collect();
        assert_eq!(ids, vec![2, 5, 9]);
    }

    #[test]
    fn paper_example_dependency_captured() {
        // Fig. 2: a ahead of b at X; b alone at W. dag_delay accounts for
        // b's X-replica waiting on a's delivery by ANY replica of a.
        // Setup: a at X and Y (head of both), b behind a at X, b alone at W.
        let (a, b) = (PacketId(1), PacketId(2));
        let queues = QueueState {
            queues: vec![
                (NodeId(0), vec![a, b]), // X
                (NodeId(1), vec![a]),    // Y
                (NodeId(2), vec![b]),    // W
            ],
        };
        let meet = vec![
            (NodeId(0), exp_dist(10.0)),
            (NodeId(1), exp_dist(10.0)),
            (NodeId(2), exp_dist(10.0)),
        ];
        let d = dag_delay(&queues, &meet);
        // d(a) = min(Exp10, Exp10) → mean 5.
        close(get(&d, a).mean(), 5.0, 0.2);
        // d(b) = min( d(a) ⊕ Exp10 at X, Exp10 at W ).
        // Reference via the calculus itself:
        let da = exp_dist(10.0).min_with(&exp_dist(10.0));
        let expect = da.convolve(&exp_dist(10.0)).min_with(&exp_dist(10.0));
        close(get(&d, b).mean(), expect.mean(), 1e-9);
        // Estimate Delay would model b's X-replica as 2 meetings of X
        // alone — a *larger* estimate than dag_delay's, because it ignores
        // that Y may deliver a first (the Appendix's inflation direction).
        let est = estimate_delay_reference(
            &queues,
            &[(NodeId(0), 10.0), (NodeId(1), 10.0), (NodeId(2), 10.0)],
        );
        assert!(*get(&est, b) > 0.0);
    }

    #[test]
    #[should_panic(expected = "cyclic")]
    fn inconsistent_orders_panic() {
        let (a, b) = (PacketId(1), PacketId(2));
        let queues = QueueState {
            queues: vec![
                (NodeId(0), vec![a, b]),
                (NodeId(1), vec![b, a]), // contradicts the other buffer
            ],
        };
        let meet = vec![(NodeId(0), exp_dist(10.0)), (NodeId(1), exp_dist(10.0))];
        let _ = dag_delay(&queues, &meet);
    }

    #[test]
    #[should_panic(expected = "missing meeting distribution")]
    fn missing_distribution_panics() {
        let queues = QueueState {
            queues: vec![(NodeId(0), vec![PacketId(1)])],
        };
        let _ = dag_delay(&queues, &[]);
    }

    #[test]
    fn estimate_delay_reference_matches_eq8() {
        let queues = QueueState {
            queues: vec![
                (NodeId(0), vec![PacketId(1)]),
                (NodeId(1), vec![PacketId(1)]),
            ],
        };
        let est = estimate_delay_reference(&queues, &[(NodeId(0), 100.0), (NodeId(1), 50.0)]);
        close(
            *get(&est, PacketId(1)),
            1.0 / (1.0 / 100.0 + 1.0 / 50.0),
            1e-9,
        );
    }
}
