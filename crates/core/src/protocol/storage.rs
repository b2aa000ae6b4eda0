//! Storage (§3.4): when a buffer overflows, the lowest-utility packets are
//! dropped first, and a source never drops its own unacknowledged packet
//! to an incoming replica. One scorer serves the creation-time decision
//! ([`ContactExec::make_room`]) and in-contact eviction
//! ([`ContactExec::evict_for`]); a scalar per-packet reference checks it.

use super::{ContactExec, ContactScratch, Side};
use crate::config::RoutingMetric;
use crate::estimate::{combined_rate, delay_from_rate, prob_within_from_rate, RateBatch};
use dtn_sim::{ContactDriver, NodeBuffer, NodeId, Packet, PacketId, PacketStore, QueueEntry, Time};
use std::cmp::Ordering;
use std::collections::HashSet;

/// Reusable vectors of the §3.4 storage decisions
/// ([`ContactExec::score_storage`] and its two callers).
#[derive(Default)]
pub(super) struct StorageScratch {
    /// Own-replica delays of one delivery queue.
    pub(super) row: RateBatch,
    /// `(utility, id, size)` per scored packet, ascending `(utility, id)`.
    scored: Vec<(f64, PacketId, u64)>,
    /// In-contact eviction queue `(id, size)`, popped from the back:
    /// lowest utility first, the receiver's own unacked packets last.
    evict_queue: Vec<(PacketId, u64)>,
}

/// One creation-time storage decision as `Routing::make_room` poses it:
/// free `needed` bytes of `buffer` at `node` for `incoming`.
pub(super) struct RoomRequest<'a> {
    pub(super) node: NodeId,
    pub(super) incoming: &'a Packet,
    pub(super) needed: u64,
    pub(super) buffer: &'a NodeBuffer,
    pub(super) packets: &'a PacketStore,
    pub(super) now: Time,
}

/// Utility of a buffered packet of age `age_secs` from its combined
/// replica rate (for eviction ordering). Higher = more valuable to keep.
pub(super) fn utility_from_rate(metric: RoutingMetric, rate: f64, age_secs: f64) -> f64 {
    match metric {
        RoutingMetric::MinAvgDelay | RoutingMetric::MinMaxDelay => {
            -(age_secs + delay_from_rate(rate))
        }
        RoutingMetric::MinMissedDeadlines { lifetime } => {
            let l = lifetime.as_secs_f64();
            if age_secs >= l {
                0.0
            } else {
                prob_within_from_rate(rate, l - age_secs)
            }
        }
    }
}

/// The one total order every RAPID selection sort derives from: ascending
/// `(value, id)` over a float value with a deterministic id tie-break.
///
/// * Incomparable values (NaN) are treated as equal, falling through to
///   the id tie-break — no selection path produces NaN, but the order must
///   stay total regardless.
/// * Equal values — including `0.0` vs `-0.0` — break ties by **ascending
///   `PacketId`**, so every sort is deterministic and independent of input
///   order.
///
/// Call sites derive their direction from this single order: storage
/// eviction sorts ascending utility directly (lowest utility evicted
/// first); replication sorts by *negated* score (descending score, id
/// still ascending); the in-contact eviction queue reverses the call
/// (descending, so popping from the back yields ascending). The
/// `comparator_*` unit tests pin these tie-break rules.
pub(super) fn cmp_utility_then_id(a: (f64, PacketId), b: (f64, PacketId)) -> Ordering {
    a.0.partial_cmp(&b.0)
        .unwrap_or(Ordering::Equal)
        .then(a.1.cmp(&b.1))
}

impl ContactExec<'_> {
    /// The combined replica rate (Eqs. 4–9) of a buffered packet at `node`,
    /// computed from scratch with the given queue position: the own-replica
    /// delay from the h-hop estimates plus the believed remote-replica
    /// delays, folded into `Σ_j 1/a_j`. The scalar form of what
    /// [`ContactExec::score_storage`] evaluates a queue at a time — kept
    /// as the reference the storage oracle scores with.
    #[cfg(any(debug_assertions, test))]
    fn rate_with(&self, node: NodeId, est: &[f64], packet: &Packet, bytes_ahead: u64) -> f64 {
        use crate::estimate::{meetings_needed, replica_delay};
        let b_self = self.opp_bytes(node, node);
        let a_self = self.cap(replica_delay(
            est[packet.dst.index()],
            meetings_needed(bytes_ahead, b_self),
        ));
        self.rate_from_a_self(node, packet.id, a_self)
    }

    /// The remote-belief half of [`ContactExec::rate_with`]: folds the
    /// believed remote-replica delays of `id` with an already-computed
    /// own-replica delay — the exact sequence `rate_with` folds, so a
    /// batched `a_self` row produces bitwise-identical rates.
    fn rate_from_a_self(&self, node: NodeId, id: PacketId, a_self: f64) -> f64 {
        match self.states.state(node).meta.get(id) {
            Some(b) => combined_rate(
                b.entries
                    .iter()
                    .filter(|e| e.holder != node)
                    .map(|e| self.cap(e.delay_secs))
                    .chain([a_self]),
            ),
            None => combined_rate([a_self]),
        }
    }

    /// The §3.4 scorer, shared by [`ContactExec::make_room`] and in-contact
    /// eviction: fills `storage.scored` with `(utility, id, size)` of every
    /// entry of `queues` that `keep` admits, in ascending `(utility, id)`
    /// order — lowest utility, the first to drop, at the front. Per
    /// delivery queue that is one Eq. 4–5 row over the entries' queue
    /// positions (the destination estimate, opportunity size and cap
    /// broadcast across it), then the remote-belief fold per packet. `est`
    /// is `node`'s current h-hop estimates — the contact's own, or computed
    /// for the call at creation time; no node keeps a copy.
    fn score_storage<'q>(
        &self,
        node: NodeId,
        est: &[f64],
        queues: impl Iterator<Item = (NodeId, &'q [QueueEntry])>,
        keep: impl Fn(PacketId) -> bool,
        now: Time,
        storage: &mut StorageScratch,
    ) {
        let StorageScratch { row, scored, .. } = storage;
        let (b_self, cap) = (self.opp_bytes(node, node), self.cfg.delay_cap_secs);
        scored.clear();
        for (dst, queue) in queues {
            row.load_queue(queue);
            row.compute(est[dst.index()], b_self, cap, self.kernel);
            for (entry, &a_self) in queue.iter().zip(row.delays()) {
                if keep(entry.id) {
                    let rate = self.rate_from_a_self(node, entry.id, a_self);
                    let age = now.since(entry.created_at).as_secs_f64();
                    let utility = utility_from_rate(self.cfg.metric, rate, age);
                    scored.push((utility, entry.id, entry.size_bytes));
                }
            }
        }
        scored.sort_unstable_by(|a, b| cmp_utility_then_id((a.0, a.1), (b.0, b.1)));
    }

    /// §3.4 storage decision: the lowest-utility victims freeing
    /// `req.needed` bytes at `req.node`. Touches only that node's state
    /// (that it runs under a solo lease is the proof).
    pub(super) fn make_room(
        &mut self,
        req: &RoomRequest<'_>,
        scratch: &mut ContactScratch,
    ) -> Vec<PacketId> {
        let &RoomRequest { node, needed, .. } = req;
        let (est, storage) = (&mut scratch.est_own[0], &mut scratch.select.storage);
        self.fill_est(node, node, est);
        self.score_storage(node, est, req.buffer.queues(), |_| true, req.now, storage);

        // §3.4 protects a source's own unacked packets from being displaced
        // by *incoming replicas*; when the incoming packet is the node's own
        // creation, the source manages its own queue and may shed its own
        // lowest-utility packets (otherwise a saturated source would drop
        // every new packet at birth).
        let own_creation = req.incoming.src == node;
        let state = self.states.state(node);
        let mut victims = Vec::new();
        let mut freed = 0u64;
        for &(_, id, size) in storage.scored.iter() {
            if freed >= needed {
                break;
            }
            if own_creation || req.packets.get(id).src != node || state.acks.contains(id) {
                victims.push(id);
                freed += size;
            }
        }
        if freed < needed {
            victims.clear();
        }
        #[cfg(debug_assertions)]
        assert_eq!(
            victims,
            self.reference_victims(node, req.incoming, needed, req.buffer, req.packets, req.now),
            "make_room diverged from the from-scratch scalar reference at {node}"
        );

        let st = self.states.state_mut(node);
        for &v in &victims {
            st.meta.remove_holder(v, node);
        }
        victims
    }

    /// Buffer-overflow policy at the receiving node `side.y`: evict
    /// lowest-utility packets (never its own unacked source packets, never
    /// replicas stored during this contact) until `needed` bytes are free.
    /// Returns whether enough space was freed. The eviction queue is built
    /// on the first call of a replication side (`*built`) and consumed
    /// across the rest.
    pub(super) fn evict_for(
        &mut self,
        driver: &mut ContactDriver<'_>,
        side: &Side<'_>,
        needed: u64,
        stored_this_contact: &HashSet<PacketId>,
        storage: &mut StorageScratch,
        built: &mut bool,
    ) -> bool {
        let y = side.y;
        if !*built {
            *built = true;
            // Scored against the contact-start snapshot, like every other
            // in-contact decision (not the live, mid-contact queue): every
            // packet still buffered that was not stored during this contact
            // is in it.
            let buffer = driver.buffer(y);
            let keep = |id| buffer.contains(id) && !stored_this_contact.contains(&id);
            let queues = side.snap_y.queues();
            self.score_storage(y, side.est_y_own, queues, keep, side.now, storage);
            // §3.4's own-packet protection, applied as a strict
            // preference: a node's own unacked packets are evicted only
            // after every other packet is gone.
            let acks = &self.states.state(y).acks;
            let own_unacked =
                |id: PacketId| driver.packets().get(id).src == y && !acks.contains(id);
            let StorageScratch {
                scored,
                evict_queue,
                ..
            } = storage;
            evict_queue.clear();
            for own in [true, false] {
                evict_queue.extend(
                    scored
                        .iter()
                        .rev()
                        .filter(|&&(_, id, _)| own_unacked(id) == own)
                        .map(|&(_, id, size)| (id, size)),
                );
            }
        }
        let mut freed = 0u64;
        while freed < needed {
            let Some((victim, size)) = storage.evict_queue.pop() else {
                return false; // nothing evictable left
            };
            if driver.evict(y, victim) {
                self.states.state_mut(y).meta.remove_holder(victim, y);
                freed += size;
            }
        }
        true
    }

    /// The obviously-correct `make_room`: one scalar Estimate Delay
    /// ([`ContactExec::rate_with`]) per buffered packet, the §3.4 filter,
    /// a full sort.
    #[cfg(any(debug_assertions, test))]
    pub(super) fn reference_victims(
        &self,
        node: NodeId,
        incoming: &Packet,
        needed: u64,
        buffer: &NodeBuffer,
        packets: &PacketStore,
        now: Time,
    ) -> Vec<PacketId> {
        let own_creation = incoming.src == node;
        let state = self.states.state(node);
        let mut est = crate::meetings::HopEstimates::default();
        self.fill_est(node, node, &mut est);
        let mut scored: Vec<(f64, PacketId, u64)> = buffer
            .iter()
            .filter(|&(id, _)| {
                own_creation || {
                    let p = packets.get(id);
                    p.src != node || state.acks.contains(id)
                }
            })
            .map(|(id, meta)| {
                let p = packets.get(id);
                let ahead = buffer.bytes_ahead(p.dst, id, p.created_at);
                let rate = self.rate_with(node, &est, &p, ahead);
                let age = now.since(p.created_at).as_secs_f64();
                let utility = utility_from_rate(self.cfg.metric, rate, age);
                (utility, id, meta.size_bytes)
            })
            .collect();
        scored.sort_unstable_by(|a, b| cmp_utility_then_id((a.0, a.1), (b.0, b.1)));
        let mut victims = Vec::new();
        let mut freed = 0u64;
        for (_, id, size) in scored {
            if freed >= needed {
                break;
            }
            victims.push(id);
            freed += size;
        }
        if freed < needed {
            victims.clear();
        }
        victims
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtn_sim::TimeDelta;

    /// `ContactExec::utility_from_rate` as it read before the scorers were
    /// free functions (commit 6c1de87), kept verbatim as the oracle.
    fn inline_utility(metric: RoutingMetric, rate: f64, created_at: Time, now: Time) -> f64 {
        let t = now.since(created_at).as_secs_f64();
        match metric {
            RoutingMetric::MinAvgDelay | RoutingMetric::MinMaxDelay => -(t + delay_from_rate(rate)),
            RoutingMetric::MinMissedDeadlines { lifetime } => {
                let l = lifetime.as_secs_f64();
                if t >= l {
                    0.0
                } else {
                    prob_within_from_rate(rate, l - t)
                }
            }
        }
    }

    #[test]
    fn utility_from_rate_matches_the_inline_scorer_for_every_metric() {
        let deadline = RoutingMetric::MinMissedDeadlines {
            lifetime: TimeDelta::from_secs(100),
        };
        let now = Time::from_secs(1_000);
        // (metric, rate, age in seconds, expected)
        let table = [
            // Delay metrics keep what is expected to arrive soonest: −(T + A).
            (RoutingMetric::MinAvgDelay, 0.5, 10, -12.0),
            (RoutingMetric::MinMaxDelay, 0.5, 10, -12.0),
            // No viable replica: infinitely late, the first to drop.
            (RoutingMetric::MinAvgDelay, 0.0, 10, f64::NEG_INFINITY),
            (RoutingMetric::MinMaxDelay, 0.0, 10, f64::NEG_INFINITY),
            // Deadline: P(a < L − T) over the 40 s left …
            (deadline, 0.02, 60, 1.0 - (-0.02f64 * 40.0).exp()),
            (deadline, 0.0, 60, 0.0),
            // … and nothing at or past the lifetime.
            (deadline, 0.02, 100, 0.0),
            (deadline, 0.02, 250, 0.0),
        ];
        for (metric, rate, age, expected) in table {
            let created_at = Time::from_secs(1_000 - age);
            let got = utility_from_rate(metric, rate, now.since(created_at).as_secs_f64());
            let case = format!("{metric:?} rate={rate} age={age}");
            assert_eq!(
                got.to_bits(),
                expected.to_bits(),
                "{case}: {got} vs {expected}"
            );
            let inline = inline_utility(metric, rate, created_at, now);
            assert_eq!(
                got.to_bits(),
                inline.to_bits(),
                "{case}: {got} vs inline {inline}"
            );
        }
    }
}
