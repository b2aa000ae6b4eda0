//! Scalable optimal bounds for realistic instance sizes.
//!
//! The exact solver ([`crate::exact`]) is exponential; Fig. 13's workloads
//! (hundreds to thousands of packets per day) need the scalable pair:
//!
//! * **Lower bound**: per-packet uncapacitated earliest-arrival delay —
//!   no feasible schedule beats it.
//! * **Feasible upper bound**: greedy capacity-respecting assignment of
//!   earliest journeys, packets in creation order.
//!
//! At small loads the network is uncongested and the two coincide
//! (`gap == 0` certifies the greedy is optimal); at higher loads the gap is
//! reported so Fig. 13's "Optimal" line carries its own error bar. This
//! substitution for CPLEX is recorded in EXPERIMENTS.md, "Deviations from
//! the paper".

use crate::journeys::{creation_pos, EventPos};
use dtn_sim::workload::Workload;
use dtn_sim::{Schedule, Time};

/// Bounds on the optimal objective for one instance.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimalReport {
    /// Packets in the workload.
    pub packets: usize,
    /// Lower bound: average delay (undelivered charged to horizon), secs.
    pub lower_bound_avg_delay_secs: f64,
    /// Feasible schedule: average delay, secs.
    pub feasible_avg_delay_secs: f64,
    /// Deliveries in the lower bound (uncapacitated reachability).
    pub lower_bound_delivered: usize,
    /// Deliveries achieved by the feasible schedule.
    pub feasible_delivered: usize,
}

impl OptimalReport {
    /// Relative gap between the bounds (0 = certified optimal).
    pub fn gap(&self) -> f64 {
        if self.lower_bound_avg_delay_secs == 0.0 {
            return 0.0;
        }
        (self.feasible_avg_delay_secs - self.lower_bound_avg_delay_secs)
            / self.lower_bound_avg_delay_secs
    }
}

/// Computes the bound pair for an instance.
///
/// The greedy pass processes packets in creation order; for each it runs a
/// capacity-aware earliest-arrival scan (per-direction contact capacities
/// in packets of that packet's size) and commits the winning journey.
pub fn solve_bounded(schedule: &Schedule, workload: &Workload, horizon: Time) -> OptimalReport {
    let specs = workload.specs();
    let nodes = schedule.node_count_hint().max(
        specs
            .iter()
            .map(|s| s.src.index().max(s.dst.index()) + 1)
            .max()
            .unwrap_or(0),
    );
    let contacts = schedule.windows();

    // Remaining per-direction capacity, in bytes.
    let mut cap: Vec<(u64, u64)> = contacts
        .iter()
        .map(|c| (c.capacity(), c.capacity()))
        .collect();

    let mut lb_total = 0.0;
    let mut lb_delivered = 0usize;
    let mut fs_total = 0.0;
    let mut fs_delivered = 0usize;

    for s in specs {
        let undelivered = horizon.since(s.time).as_secs_f64();

        // Lower bound: uncapacitated earliest arrival.
        let lb = crate::journeys::earliest_arrivals(schedule, nodes, s.src, s.time)[s.dst.index()]
            .map(|(t, _)| t.since(s.time).as_secs_f64());
        match lb {
            Some(d) if d <= undelivered => {
                lb_total += d;
                lb_delivered += 1;
            }
            _ => lb_total += undelivered,
        }

        // Feasible: capacity-aware earliest arrival with predecessor
        // tracking, then commit the journey.
        let mut arrival: Vec<Option<EventPos>> = vec![None; nodes];
        let mut pred: Vec<Option<(usize, usize)>> = vec![None; nodes]; // (contact, dir)
        arrival[s.src.index()] = Some(creation_pos(s.time));
        for (idx, c) in contacts.iter().enumerate() {
            let pos = (c.start, idx);
            let (ab, ba) = cap[idx];
            let a_ok = ab >= s.size_bytes && arrival[c.a.index()].is_some_and(|p| p < pos);
            let b_ok = ba >= s.size_bytes && arrival[c.b.index()].is_some_and(|p| p < pos);
            if a_ok && arrival[c.b.index()].is_none_or(|p| pos < p) {
                arrival[c.b.index()] = Some(pos);
                pred[c.b.index()] = Some((idx, 0));
            }
            if b_ok && arrival[c.a.index()].is_none_or(|p| pos < p) {
                arrival[c.a.index()] = Some(pos);
                pred[c.a.index()] = Some((idx, 1));
            }
        }
        let feasible = arrival[s.dst.index()]
            .map(|(t, _)| t.since(s.time).as_secs_f64())
            .filter(|&d| d <= undelivered);
        match feasible {
            Some(d) => {
                fs_total += d;
                fs_delivered += 1;
                // Commit capacity along the journey (walk predecessors back
                // from dst).
                let mut node = s.dst;
                while node != s.src {
                    let (idx, dir) = pred[node.index()].expect("reachable ⇒ predecessor");
                    let slot = if dir == 0 {
                        &mut cap[idx].0
                    } else {
                        &mut cap[idx].1
                    };
                    *slot -= s.size_bytes;
                    let c = contacts[idx];
                    node = if dir == 0 { c.a } else { c.b };
                }
            }
            None => fs_total += undelivered,
        }
    }

    let n = specs.len().max(1) as f64;
    OptimalReport {
        packets: specs.len(),
        lower_bound_avg_delay_secs: lb_total / n,
        feasible_avg_delay_secs: fs_total / n,
        lower_bound_delivered: lb_delivered,
        feasible_delivered: fs_delivered,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::{solve_exact, ExactLimits};
    use dtn_sim::workload::PacketSpec;
    use dtn_sim::{Contact, NodeId};

    fn contact(t: u64, a: u32, b: u32, bytes: u64) -> Contact {
        Contact::new(Time::from_secs(t), NodeId(a), NodeId(b), bytes)
    }

    fn spec(t: u64, src: u32, dst: u32) -> PacketSpec {
        PacketSpec {
            time: Time::from_secs(t),
            src: NodeId(src),
            dst: NodeId(dst),
            size_bytes: 1024,
        }
    }

    #[test]
    fn uncongested_bounds_coincide() {
        let r = solve_bounded(
            &Schedule::new(vec![contact(10, 0, 1, 1 << 20), contact(20, 1, 2, 1 << 20)]),
            &Workload::new(vec![spec(0, 0, 2), spec(5, 0, 1)]),
            Time::from_secs(100),
        );
        assert_eq!(r.feasible_delivered, 2);
        assert!((r.gap()).abs() < 1e-12, "no congestion ⇒ certified optimal");
        // Delays: p0 = 20 (relay at t=20), p1 = 10 − 5 = 5 → avg 12.5.
        assert!((r.feasible_avg_delay_secs - 12.5).abs() < 1e-9);
    }

    #[test]
    fn congestion_creates_gap_and_feasibility_holds() {
        // Capacity 1 packet on the only useful relay: one packet diverts.
        let r = solve_bounded(
            &Schedule::new(vec![
                contact(10, 0, 1, 4096),
                contact(20, 1, 2, 1024),
                contact(60, 0, 2, 4096),
            ]),
            &Workload::new(vec![spec(0, 0, 2), spec(0, 0, 2)]),
            Time::from_secs(100),
        );
        assert_eq!(r.feasible_delivered, 2);
        assert!(r.feasible_avg_delay_secs >= r.lower_bound_avg_delay_secs);
        assert!(r.gap() > 0.0, "contention must show up in the gap");
        // Feasible: 20 + 60 → avg 40. Lower bound: 20 + 20 → avg 20.
        assert!((r.feasible_avg_delay_secs - 40.0).abs() < 1e-9);
        assert!((r.lower_bound_avg_delay_secs - 20.0).abs() < 1e-9);
    }

    #[test]
    fn feasible_matches_exact_on_small_instances() {
        // Cross-validate greedy-feasible against the exact solver: greedy
        // must never beat exact, and the lower bound never exceeds it.
        let schedule = Schedule::new(vec![
            contact(5, 0, 1, 2048),
            contact(12, 1, 3, 1024),
            contact(18, 0, 2, 1024),
            contact(25, 2, 3, 2048),
            contact(40, 0, 3, 1024),
        ]);
        let workload = Workload::new(vec![spec(0, 0, 3), spec(1, 0, 3), spec(2, 0, 2)]);
        let horizon = Time::from_secs(120);
        let bounds = solve_bounded(&schedule, &workload, horizon);
        let exact = solve_exact(&schedule, &workload, horizon, ExactLimits::default())
            .expect("small instance");
        let n = workload.len() as f64;
        assert!(
            bounds.lower_bound_avg_delay_secs <= exact.avg_delay_secs + 1e-9,
            "lb {} vs exact {}",
            bounds.lower_bound_avg_delay_secs,
            exact.avg_delay_secs
        );
        assert!(
            exact.avg_delay_secs <= bounds.feasible_avg_delay_secs + 1e-9,
            "exact {} vs feasible {}",
            exact.avg_delay_secs,
            bounds.feasible_avg_delay_secs
        );
        assert!(exact.total_delay_secs <= bounds.feasible_avg_delay_secs * n + 1e-9);
    }

    #[test]
    fn empty_workload_is_zero() {
        let r = solve_bounded(
            &Schedule::default(),
            &Workload::default(),
            Time::from_secs(10),
        );
        assert_eq!(r.packets, 0);
        assert_eq!(r.feasible_avg_delay_secs, 0.0);
        assert_eq!(r.gap(), 0.0);
    }

    #[test]
    fn unreachable_charged_to_horizon_in_both_bounds() {
        let r = solve_bounded(
            &Schedule::new(vec![contact(10, 0, 1, 1024)]),
            &Workload::new(vec![spec(0, 0, 3)]),
            Time::from_secs(50),
        );
        assert_eq!(r.feasible_delivered, 0);
        assert_eq!(r.lower_bound_delivered, 0);
        assert!((r.feasible_avg_delay_secs - 50.0).abs() < 1e-9);
        assert!((r.lower_bound_avg_delay_secs - 50.0).abs() < 1e-9);
    }
}
