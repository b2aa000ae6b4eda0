//! Steps 2–3 of Protocol RAPID (§3.3–3.4): direct delivery, then
//! replication in decreasing marginal utility per byte `δU_i / s_i`
//! (Eqs. 1–3 over Estimate Delay) until the opportunity is exhausted.

use super::storage::{cmp_utility_then_id, StorageScratch};
use super::{ContactExec, Side};
use crate::config::RoutingMetric;
use crate::control::HolderEntry;
use crate::estimate::{
    combined_rate, delay_from_rate, meetings_needed, prob_within_from_rate, rate_contribution,
    replica_delay, QueueSnapshot, RateBatch,
};
use crate::meetings::HopEstimates;
use dtn_sim::{ContactDriver, NodeId, PacketId, QueueEntry, TransferOutcome};
use std::collections::{HashMap, HashSet};

/// Score assigned when replication newly makes a destination reachable —
/// larger than any finite delay gain, far below `f64::MAX` so age offsets
/// and size divisions stay meaningful.
pub(super) const UNREACHABLE_GAIN: f64 = 1e18;

/// Reusable working storage of Steps 2–3 and the evictions they trigger.
#[derive(Default)]
pub(super) struct SelectScratch {
    destined: Vec<PacketId>,
    candidates: Vec<Candidate>,
    /// Replicas stored during this contact (never evicted by it).
    pub(super) stored: HashSet<PacketId>,
    /// Batched Eq. 4–5 rows: own-side and peer-side replica delays of one
    /// delivery queue, evaluated whole-queue per kernel.
    pub(super) row_self: RateBatch,
    pub(super) row_peer: RateBatch,
    pub(super) storage: StorageScratch,
}

/// One replication candidate, scored.
struct Candidate {
    id: PacketId,
    score: f64,
    size: u64,
    a_self: f64,
    a_peer: f64,
}

/// What the `InstantGlobal` oracle has looked up while scoring one side:
/// the true h-hop estimates and queue snapshot of every third-party holder
/// met so far, built on first use.
#[derive(Default)]
struct GlobalOracle(HashMap<u32, (HopEstimates, QueueSnapshot)>);

/// `max(before − after, 0)`, handling infinities: replicating onto a
/// reachable peer when no replica could previously reach the destination is
/// an (arbitrarily) large gain, represented by the previous delay bound.
pub(super) fn delta_or_zero(before: f64, after: f64) -> f64 {
    if !after.is_finite() {
        return 0.0;
    }
    if !before.is_finite() {
        // New reachability: treat as the largest finite gain available.
        return UNREACHABLE_GAIN;
    }
    (before - after).max(0.0)
}

/// Marginal utility per byte of one more replica (Eqs. 1–3) for a packet
/// of age `age_secs` and `size` bytes: `rate_self` is its combined replica
/// rate now, `rate_both` the rate with the peer's replica (own delay
/// `a_peer`) added.
pub(super) fn marginal_utility(
    metric: RoutingMetric,
    (rate_self, rate_both): (f64, f64),
    a_peer: f64,
    age_secs: f64,
    size: u64,
) -> f64 {
    match metric {
        RoutingMetric::MinAvgDelay => {
            let before = delay_from_rate(rate_self);
            let after = delay_from_rate(rate_both);
            delta_or_zero(before, after) / size as f64
        }
        RoutingMetric::MinMissedDeadlines { lifetime } => {
            let rem = lifetime.as_secs_f64() - age_secs;
            if rem <= 0.0 {
                0.0
            } else {
                let before = prob_within_from_rate(rate_self, rem);
                let after = prob_within_from_rate(rate_both, rem);
                (after - before) / size as f64
            }
        }
        RoutingMetric::MinMaxDelay => {
            // Work-conserving Eq. 3: replicate in decreasing order of
            // current expected delay D(i) = T(i) + A(i).
            let before = delay_from_rate(rate_self);
            if before.is_finite() {
                age_secs + before
            } else if a_peer.is_finite() {
                // No current replica can reach the destination but the
                // peer can: the largest possible gain. Age preserves the
                // work-conserving order among such packets.
                UNREACHABLE_GAIN + age_secs
            } else {
                0.0
            }
        }
    }
}

/// Sorts candidates by decreasing score (id ascending tiebreak); when many
/// more candidates exist than could possibly fit in `remaining` bytes, a
/// partial selection keeps the contact O(n + k log k).
fn sort_candidates(c: &mut Vec<Candidate>, remaining: u64) {
    let min_size = c.iter().map(|x| x.size.max(1)).min().unwrap_or(1);
    let fit = (remaining / min_size) as usize;
    let keep = fit.saturating_mul(2).saturating_add(64);
    // Descending score via the shared ascending order on the negated key
    // (negation is exact for every non-NaN float, so ties are preserved).
    let by_score =
        |a: &Candidate, b: &Candidate| cmp_utility_then_id((-a.score, a.id), (-b.score, b.id));
    if c.len() > keep {
        c.select_nth_unstable_by(keep - 1, by_score);
        c.truncate(keep);
    }
    c.sort_unstable_by(by_score);
}

impl ContactExec<'_> {
    /// Step 2: deliver packets destined to the peer, highest utility first.
    /// For the deadline metric, expired packets go last (their utility is
    /// 0); otherwise the queue order is decreasing `T(i)` (§4.1).
    ///
    /// The buffer's delivery queue for `y` is already in `(created_at, id)`
    /// order — exactly the delivery order — so no sort is needed: the
    /// deadline metric's expired packets form the (oldest) queue prefix,
    /// which is rotated to the back.
    pub(super) fn direct_delivery(
        &mut self,
        driver: &mut ContactDriver<'_>,
        &Side { x, y, now, .. }: &Side<'_>,
        work: &mut SelectScratch,
    ) {
        let destined = &mut work.destined;
        let queue = driver.buffer(x).queue(y);
        destined.clear();
        match self.cfg.metric {
            RoutingMetric::MinMissedDeadlines { lifetime } => {
                // `since` saturates and the queue is created-ascending, so
                // the expired predicate is monotone along it.
                let split = queue.partition_point(|e| now.since(e.created_at) >= lifetime);
                destined.extend(queue[split..].iter().chain(&queue[..split]).map(|e| e.id));
            }
            _ => destined.extend(queue.iter().map(|e| e.id)),
        };
        for &id in destined.iter() {
            match driver.try_transfer(x, id) {
                TransferOutcome::Delivered | TransferOutcome::DeliveredDuplicate => {
                    // Both endpoints witnessed the delivery: instant ack.
                    let (sx, sy) = self.states.two(x, y);
                    sx.acks.insert(id);
                    sy.acks.insert(id);
                    sx.meta.remove_packet(id);
                    sy.meta.remove_packet(id);
                }
                TransferOutcome::NoBandwidth => break,
                _ => {}
            }
        }
    }

    /// Step 3 for one side: score candidates by marginal utility per byte
    /// and replicate greedily.
    pub(super) fn replicate_side(
        &mut self,
        driver: &mut ContactDriver<'_>,
        side: &Side<'_>,
        work: &mut SelectScratch,
    ) {
        let &Side { x, y, now, .. } = side;
        // Candidates are enumerated per destination queue of the
        // contact-start view: along a queue the own-side `b(i)` is an
        // O(1) prefix read, and the peer-side insertion point advances
        // monotonically (one cursor per destination) instead of a binary
        // search per packet. Enumeration order cannot affect decisions —
        // `sort_candidates` imposes a strict total order ((score, id), ids
        // unique) and every other per-packet effect is independent — but
        // the candidate *set* must match the live buffer: snapshot entries
        // evicted mid-contact are skipped via the O(1) membership check.
        work.candidates.clear();
        let mut oracle = GlobalOracle::default();
        for (dst_node, queue) in side.snap_x.queues() {
            // Destined packets belong to step 2, not step 3.
            if dst_node != y {
                self.enumerate_queue(driver, side, dst_node, queue, work, &mut oracle);
            }
        }

        sort_candidates(&mut work.candidates, driver.remaining_bytes(x));

        // The receiver's eviction queue (in `work.storage`) is built on
        // the first NeedsSpace.
        let mut queue_built = false;
        for cand in work.candidates.drain(..) {
            if driver.remaining_bytes(x) < cand.size {
                // Packets are uniform-size in the paper's workloads; a
                // smaller later candidate could still fit, so keep going
                // only while something could fit.
                if driver.remaining_bytes(x) == 0 {
                    break;
                }
                continue;
            }
            loop {
                match driver.try_transfer(x, cand.id) {
                    TransferOutcome::Replicated => {
                        work.stored.insert(cand.id);
                        if !self.is_global() {
                            let entry = |holder, delay_secs| HolderEntry {
                                holder,
                                delay_secs,
                                stamp: now,
                            };
                            for node in [x, y] {
                                let st = self.states.state_mut(node);
                                st.meta.upsert(cand.id, entry(y, cand.a_peer));
                                st.meta.upsert(cand.id, entry(x, cand.a_self));
                            }
                        }
                        break;
                    }
                    TransferOutcome::NeedsSpace(needed) => {
                        let (stored, storage) = (&work.stored, &mut work.storage);
                        if !self.evict_for(driver, side, needed, stored, storage, &mut queue_built)
                        {
                            break; // could not make room: skip candidate
                        }
                        // Retry the transfer with space freed.
                    }
                    _ => break,
                }
            }
        }
    }

    /// Scores one contact-start destination queue into `work.candidates`
    /// (and publishes refreshed own-packet estimates).
    fn enumerate_queue(
        &mut self,
        driver: &ContactDriver<'_>,
        side: &Side<'_>,
        dst_node: NodeId,
        queue: &[QueueEntry],
        work: &mut SelectScratch,
        oracle: &mut GlobalOracle,
    ) {
        let &Side { x, y, now, .. } = side;
        let dst = dst_node.index();
        let b_x = self.opp_bytes(x, x);
        let b_y = self.opp_bytes(if self.is_global() { y } else { x }, y);
        // Pass 1: evaluate both Eq. 4–5 rows over the whole queue in one
        // kernel call each. The own-side positions are the queue's prefix
        // sums; the peer-side insertion points advance monotonically, so
        // they are gathered for every entry — the cursor is a memoized
        // monotone scan, and a query for a later-skipped entry cannot
        // disturb the value any kept entry reads.
        let (row_self, row_peer) = (&mut work.row_self, &mut work.row_peer);
        let mut peer_pos = side.snap_y.insert_cursor(dst_node);
        row_self.load_queue(queue);
        row_peer.clear();
        for entry in queue {
            row_peer.push(peer_pos.bytes_ahead_if_inserted(entry.created_at));
        }
        let cap = self.cfg.delay_cap_secs;
        row_self.compute(side.est_x[dst], b_x, cap, self.kernel);
        row_peer.compute(side.est_y[dst], b_y, cap, self.kernel);
        // Pass 2: score against the precomputed rows.
        for (i, entry) in queue.iter().enumerate() {
            let id = entry.id;
            if !driver.buffer(x).contains(id) || driver.buffer(y).contains(id) {
                continue;
            }
            // The snapshot postdates the purge, and only direct delivery
            // acks since — for ids destined to an endpoint, never here.
            debug_assert!(!self.states.state(x).acks.contains(id));
            let a_self = row_self.delays()[i];
            let a_peer = row_peer.delays()[i];

            // Combined rate of the believed remote replicas (or the
            // true ones, by channel mode) — summed inline, no per-packet
            // allocation.
            let remote_rate = if self.is_global() {
                self.true_remote_rate(driver, side, dst_node, entry, oracle)
            } else {
                match self.states.state(x).meta.get(id) {
                    Some(belief) => combined_rate(
                        belief
                            .entries
                            .iter()
                            .filter(|e| e.holder != x && e.holder != y)
                            .map(|e| self.cap(e.delay_secs)),
                    ),
                    None => 0.0,
                }
            };
            // Left-to-right extension keeps these sums bit-identical to
            // folding the full replica list at once.
            let rate_self = remote_rate + rate_contribution(a_self);
            let rate_both = rate_self + rate_contribution(a_peer);
            let score = marginal_utility(
                self.cfg.metric,
                (rate_self, rate_both),
                a_peer,
                now.since(entry.created_at).as_secs_f64(),
                entry.size_bytes,
            );
            if score > 0.0 {
                work.candidates.push(Candidate {
                    id,
                    score,
                    size: entry.size_bytes,
                    a_self,
                    a_peer,
                });
            }
            // Publish/refresh own delay estimate for the gossip channel —
            // only for packets this node originated ("for each of its own
            // packets", §4.2); carried replicas are already described by
            // the entries created at replication time.
            if !self.is_global() && driver.packets().get(id).src == x {
                self.publish_estimate(x, id, a_self, now);
            }
        }
    }

    /// The `InstantGlobal` oracle's remote rate of `entry`: the true
    /// replica delay at every holder other than the two endpoints, from
    /// that holder's own estimates, queue and opportunity average.
    fn true_remote_rate(
        &self,
        driver: &ContactDriver<'_>,
        side: &Side<'_>,
        dst_node: NodeId,
        entry: &QueueEntry,
        oracle: &mut GlobalOracle,
    ) -> f64 {
        let g = driver.global();
        let holders = g.holders(entry.id).filter(|&h| h != side.x && h != side.y);
        combined_rate(holders.map(|h| {
            let (est_h, snap_h) = oracle.0.entry(h.0).or_insert_with(|| {
                let mut est = HopEstimates::default();
                self.fill_est(h, h, &mut est);
                (est, QueueSnapshot::from_buffer(g.buffer(h)))
            });
            let ahead = snap_h.bytes_ahead(dst_node, entry.id, entry.created_at);
            let b_h = self.opp_bytes(h, h);
            self.cap(replica_delay(
                est_h[dst_node.index()],
                meetings_needed(ahead, b_h),
            ))
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtn_sim::TimeDelta;
    use RoutingMetric::{MinAvgDelay, MinMaxDelay, MinMissedDeadlines};

    /// The score as `enumerate_queue` computed it inline before the scorers
    /// were free functions (commit 6c1de87), kept verbatim as the oracle.
    fn inline_score(
        metric: RoutingMetric,
        (rate_self, rate_both): (f64, f64),
        a_peer: f64,
        t: f64,
        size_bytes: u64,
    ) -> f64 {
        match metric {
            RoutingMetric::MinAvgDelay => {
                let before = delay_from_rate(rate_self);
                let after = delay_from_rate(rate_both);
                delta_or_zero(before, after) / size_bytes as f64
            }
            RoutingMetric::MinMissedDeadlines { lifetime } => {
                let rem = lifetime.as_secs_f64() - t;
                if rem <= 0.0 {
                    0.0
                } else {
                    let before = prob_within_from_rate(rate_self, rem);
                    let after = prob_within_from_rate(rate_both, rem);
                    (after - before) / size_bytes as f64
                }
            }
            RoutingMetric::MinMaxDelay => {
                let before = delay_from_rate(rate_self);
                if before.is_finite() {
                    t + before
                } else if a_peer.is_finite() {
                    UNREACHABLE_GAIN + t
                } else {
                    0.0
                }
            }
        }
    }

    #[test]
    fn marginal_utility_matches_the_inline_scorer_on_every_branch() {
        const INF: f64 = f64::INFINITY;
        let deadline = MinMissedDeadlines {
            lifetime: TimeDelta::from_secs(100),
        };
        let within = |rate: f64, rem: f64| 1.0 - (-rate * rem).exp();
        // (metric, (rate_self, rate_both), a_peer, age, size, expected)
        let table = [
            // Eq. 1: the delay gain 1/0.5 − 1/1.0, per byte.
            (MinAvgDelay, (0.5, 1.0), 2.0, 7.0, 4, 0.25),
            // No replica reached the destination, the peer does.
            (
                MinAvgDelay,
                (0.0, 0.25),
                4.0,
                7.0,
                1024,
                UNREACHABLE_GAIN / 1024.0,
            ),
            // Nor does the peer: `after` is infinite.
            (MinAvgDelay, (0.0, 0.0), INF, 7.0, 1024, 0.0),
            // An unreachable peer adds nothing to a reachable packet.
            (MinAvgDelay, (0.5, 0.5), INF, 7.0, 8, 0.0),
            // Eq. 2: the gain in P(a < L − T) over the 40 s left, per byte.
            (
                deadline,
                (0.01, 0.03),
                50.0,
                60.0,
                2,
                (within(0.03, 40.0) - within(0.01, 40.0)) / 2.0,
            ),
            // At and past the lifetime the packet is worth nothing.
            (deadline, (0.01, 0.03), 50.0, 100.0, 2, 0.0),
            (deadline, (0.01, 0.03), 50.0, 250.0, 2, 0.0),
            // Eq. 3, work-conserving: current expected delay T + A.
            (MinMaxDelay, (0.5, 1.0), 2.0, 7.0, 4, 9.0),
            (
                MinMaxDelay,
                (0.0, 0.25),
                4.0,
                3600.0,
                4,
                UNREACHABLE_GAIN + 3600.0,
            ),
            (MinMaxDelay, (0.0, 0.0), INF, 3600.0, 4, 0.0),
        ];
        for (metric, rates, a_peer, age, size, expected) in table {
            let got = marginal_utility(metric, rates, a_peer, age, size);
            let case = format!("{metric:?} {rates:?} a_peer={a_peer} age={age} size={size}");
            assert_eq!(
                got.to_bits(),
                expected.to_bits(),
                "{case}: {got} vs {expected}"
            );
            let inline = inline_score(metric, rates, a_peer, age, size);
            assert_eq!(
                got.to_bits(),
                inline.to_bits(),
                "{case}: {got} vs inline {inline}"
            );
        }
    }

    /// Among packets only the peer can deliver, max-delay replicates the
    /// older first, and all of them before any packet with a finite delay.
    #[test]
    fn newly_reachable_packets_order_by_age_under_max_delay() {
        let score = |rates, age| marginal_utility(MinMaxDelay, rates, 4.0, age, 1024);
        let (old, young) = (score((0.0, 0.25), 7200.0), score((0.0, 0.25), 3600.0));
        assert!(old > young, "{old} vs {young}");
        assert!(young > score((1e-9, 0.25), 7200.0));

        let mut c: Vec<Candidate> = [(0, young), (1, 9.0), (2, old)]
            .into_iter()
            .map(|(id, score)| Candidate {
                id: PacketId(id),
                score,
                size: 1024,
                a_self: f64::INFINITY,
                a_peer: 4.0,
            })
            .collect();
        sort_candidates(&mut c, 1 << 20);
        assert_eq!(c.iter().map(|c| c.id.0).collect::<Vec<_>>(), [2, 0, 1]);
    }

    #[test]
    fn delta_or_zero_clamps_losses_and_maps_infinities() {
        assert_eq!(delta_or_zero(5.0, 3.0), 2.0);
        assert_eq!(delta_or_zero(3.0, 5.0), 0.0);
        assert_eq!(delta_or_zero(f64::INFINITY, 3.0), UNREACHABLE_GAIN);
        assert_eq!(delta_or_zero(3.0, f64::INFINITY), 0.0);
        assert_eq!(delta_or_zero(f64::INFINITY, f64::INFINITY), 0.0);
    }
}
