//! The typed discrete-event core: event kinds, the deterministic event
//! queue, and node-churn records.
//!
//! The engine drains a single binary-heap queue of [`SimEvent`]s instead of
//! merging per-kind streams by hand, which is what lets one loop host
//! durative contact windows, TTL expiry and node churn at once. Determinism
//! is part of the contract: the drain order is a total order, documented
//! below, so identical inputs replay identically.
//!
//! # Tie-break order
//!
//! Events at the same instant are processed in ascending *rank*:
//!
//! | rank | event | why this position |
//! |------|-------|-------------------|
//! | 0 | [`SimEvent::NodeUp`] | a node returning is available to everything else at this instant |
//! | 1 | [`SimEvent::PacketExpired`] | TTL eviction precedes any transfer at the expiry instant — an expired packet does not ride a same-instant contact |
//! | 2 | [`SimEvent::ContactEnd`] | a closing window is driven with its accrued budget before any new window opens |
//! | 3 | [`SimEvent::ContactStart`] | instantaneous windows transfer here; precedes creations so a packet created at the moment of a meeting does not ride it (the seed semantics) |
//! | 4 | [`SimEvent::PacketCreated`] | after contacts, see above |
//! | 5 | [`SimEvent::NodeDown`] | a node serves every same-instant event, then leaves |
//!
//! Events with equal `(time, rank)` drain in insertion (FIFO) order, so
//! equal-time contacts keep their schedule order and equal-time creations
//! keep their workload order — exactly what the seed's stable sorts
//! guaranteed.

use crate::time::Time;
use crate::types::{NodeId, PacketId};
use std::collections::BinaryHeap;

/// Index of a window within a [`crate::contact::Schedule`].
pub type WindowIdx = usize;

/// Index of a spec within a [`crate::workload::Workload`].
pub type SpecIdx = usize;

/// One simulation event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimEvent {
    /// A churned node comes back up.
    NodeUp(NodeId),
    /// A packet reaches its TTL: every replica is evicted.
    PacketExpired(PacketId),
    /// A durative contact window closes; the protocol is driven with the
    /// window's accrued budget.
    ContactEnd(WindowIdx),
    /// A contact window opens. Instantaneous windows are driven here.
    ContactStart(WindowIdx),
    /// A workload packet is created at its source.
    PacketCreated(SpecIdx),
    /// A node goes down: its active windows are interrupted (driven with
    /// the capacity accrued so far) and future windows involving it are
    /// suppressed until it comes back up.
    NodeDown(NodeId),
}

impl SimEvent {
    /// Same-instant processing rank (see the module docs).
    pub fn rank(&self) -> u8 {
        match self {
            SimEvent::NodeUp(_) => 0,
            SimEvent::PacketExpired(_) => 1,
            SimEvent::ContactEnd(_) => 2,
            SimEvent::ContactStart(_) => 3,
            SimEvent::PacketCreated(_) => 4,
            SimEvent::NodeDown(_) => 5,
        }
    }
}

/// One node availability transition (churn). Nodes start up; a `down`
/// transition interrupts the node's active contact windows and suppresses
/// new ones until the matching `up`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeEvent {
    /// When the transition happens.
    pub time: Time,
    /// The node changing state.
    pub node: NodeId,
    /// `true` = comes up, `false` = goes down.
    pub up: bool,
}

/// A queued event with its total-order key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Queued {
    time: Time,
    rank: u8,
    seq: u64,
    event: SimEvent,
}

// `BinaryHeap` is a max-heap; invert the comparison for earliest-first.
impl Ord for Queued {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (other.time, other.rank, other.seq).cmp(&(self.time, self.rank, self.seq))
    }
}

impl PartialOrd for Queued {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Deterministic event queue keyed by `(time, rank, insertion order)`: a
/// binary heap over the `(time, rank, seq)` total order, `seq` being the
/// push count. The scan seeds it with churn only and pulls contacts and
/// creations from its sources, so the queue holds what is scheduled while
/// draining — window ends and TTL expiries — a few thousand events at most.
#[derive(Debug, Clone, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Queued>,
    seq: u64,
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `event` at `time`.
    pub fn push(&mut self, time: Time, event: SimEvent) {
        self.heap.push(Queued {
            time,
            rank: event.rank(),
            seq: self.seq,
            event,
        });
        self.seq += 1;
    }

    /// The `(time, rank)` key of the earliest pending event, without
    /// removing it. The streaming engine merges the queue against its
    /// pull-based sources on exactly this key (ranks are disjoint across
    /// the merged streams, so `(time, rank)` is decisive).
    pub fn peek_key(&self) -> Option<(Time, u8)> {
        self.heap.peek().map(|q| (q.time, q.rank))
    }

    /// Removes and returns the earliest event (ties broken by rank, then
    /// insertion order).
    pub fn pop(&mut self) -> Option<(Time, SimEvent)> {
        self.heap.pop().map(|q| (q.time, q.event))
    }

    /// Every pending event in drain order, without consuming the queue —
    /// the checkpoint capture. Replaying the returned pairs through
    /// [`EventQueue::from_events`] rebuilds a queue with the identical
    /// drain order (`seq` values are renumbered but their relative order,
    /// which is all the total order consumes, is preserved).
    pub fn snapshot_events(&self) -> Vec<(Time, SimEvent)> {
        // Ascending `Ord` is latest-first (see `Queued`): reverse to drain order.
        let sorted = self.heap.clone().into_sorted_vec();
        sorted.iter().rev().map(|q| (q.time, q.event)).collect()
    }

    /// Rebuilds a queue from [`EventQueue::snapshot_events`] output. The
    /// input must be in drain order (nondecreasing `(time, rank)`); pushes
    /// after restore interleave exactly as they would have in the original
    /// queue.
    pub fn from_events(events: impl IntoIterator<Item = (Time, SimEvent)>) -> Self {
        let mut queue = Self::new();
        for (time, event) in events {
            queue.push(time, event);
        }
        queue
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn earliest_first() {
        let mut q = EventQueue::new();
        q.push(Time::from_secs(5), SimEvent::ContactStart(0));
        q.push(Time::from_secs(1), SimEvent::PacketCreated(0));
        q.push(Time::from_secs(3), SimEvent::ContactStart(1));
        assert_eq!(q.len(), 3);
        assert_eq!(
            q.pop(),
            Some((Time::from_secs(1), SimEvent::PacketCreated(0)))
        );
        assert_eq!(
            q.pop(),
            Some((Time::from_secs(3), SimEvent::ContactStart(1)))
        );
        assert_eq!(
            q.pop(),
            Some((Time::from_secs(5), SimEvent::ContactStart(0)))
        );
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn rank_orders_same_instant_events() {
        let t = Time::from_secs(10);
        let mut q = EventQueue::new();
        // Push in deliberately scrambled order.
        q.push(t, SimEvent::NodeDown(NodeId(0)));
        q.push(t, SimEvent::PacketCreated(0));
        q.push(t, SimEvent::ContactStart(0));
        q.push(t, SimEvent::ContactEnd(1));
        q.push(t, SimEvent::PacketExpired(PacketId(0)));
        q.push(t, SimEvent::NodeUp(NodeId(1)));
        let drained: Vec<SimEvent> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(
            drained,
            vec![
                SimEvent::NodeUp(NodeId(1)),
                SimEvent::PacketExpired(PacketId(0)),
                SimEvent::ContactEnd(1),
                SimEvent::ContactStart(0),
                SimEvent::PacketCreated(0),
                SimEvent::NodeDown(NodeId(0)),
            ]
        );
    }

    #[test]
    fn fifo_within_equal_time_and_rank() {
        let t = Time::from_secs(2);
        let mut q = EventQueue::new();
        for i in 0..50 {
            q.push(t, SimEvent::ContactStart(i));
        }
        for i in 0..50 {
            assert_eq!(q.pop(), Some((t, SimEvent::ContactStart(i))));
        }
    }

    #[test]
    fn dynamic_pushes_interleave_with_seeded_events() {
        let mut q = EventQueue::new();
        // Seed (pre-drain) events.
        q.push(Time::from_secs(10), SimEvent::ContactStart(0));
        q.push(Time::from_secs(30), SimEvent::ContactStart(1));
        q.push(Time::from_secs(50), SimEvent::ContactStart(2));
        assert_eq!(
            q.pop(),
            Some((Time::from_secs(10), SimEvent::ContactStart(0)))
        );
        // Scheduled mid-drain: earlier than, equal to (same rank — the
        // seeded event wins FIFO), and between remaining seed events.
        q.push(Time::from_secs(20), SimEvent::PacketExpired(PacketId(7)));
        q.push(Time::from_secs(30), SimEvent::ContactStart(9));
        q.push(Time::from_secs(40), SimEvent::NodeDown(NodeId(1)));
        assert_eq!(q.len(), 5);
        assert_eq!(
            q.pop(),
            Some((Time::from_secs(20), SimEvent::PacketExpired(PacketId(7))))
        );
        assert_eq!(
            q.pop(),
            Some((Time::from_secs(30), SimEvent::ContactStart(1))),
            "equal (time, rank): seeded event drains first (FIFO)"
        );
        assert_eq!(
            q.pop(),
            Some((Time::from_secs(30), SimEvent::ContactStart(9)))
        );
        assert_eq!(
            q.pop(),
            Some((Time::from_secs(40), SimEvent::NodeDown(NodeId(1))))
        );
        assert_eq!(
            q.pop(),
            Some((Time::from_secs(50), SimEvent::ContactStart(2)))
        );
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn peek_key_tracks_the_front_without_consuming() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_key(), None);
        q.push(Time::from_secs(10), SimEvent::ContactStart(0));
        q.push(Time::from_secs(5), SimEvent::PacketCreated(0));
        assert_eq!(q.peek_key(), Some((Time::from_secs(5), 4)));
        assert_eq!(q.len(), 2, "peek must not consume");
        let _ = q.pop();
        // Overlay (post-drain) events participate in the peeked key.
        q.push(Time::from_secs(7), SimEvent::PacketExpired(PacketId(0)));
        assert_eq!(q.peek_key(), Some((Time::from_secs(7), 1)));
        let _ = q.pop();
        assert_eq!(q.peek_key(), Some((Time::from_secs(10), 3)));
    }
}
