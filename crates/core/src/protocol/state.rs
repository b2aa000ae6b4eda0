//! Per-node beliefs: what a node knows ([`NodeState`]), which nodes'
//! beliefs one execution may touch (the [`StatePair`] lease), and the
//! `RSNP1` protocol-state section that saves and restores them.

use super::opp::OppBeliefs;
use crate::control::{HolderEntry, MetaTable, PacketBelief};
use crate::meetings::{put_f64, take_ascending, take_f64, take_index, take_varint, MeetingView};
use dtn_sim::{NodeId, PacketId, PacketSet, Time};
use dtn_trace::{write_varint, ByteCursor};

/// Per-node protocol state (beliefs only — the world lives in the engine).
///
/// Everything is stored by what the node knows — met peers, reported rows,
/// peers sent to — except `believed_opp`, the fleet's one remaining n²
/// term (two 8 B × n columns per node, 16 B × n² together: 2.6 MB at 400
/// nodes, 256 MB at 4000).
#[derive(Debug, Clone)]
pub(super) struct NodeState {
    /// Believed meeting-time matrix, finite cells only.
    pub(super) meetings: MeetingView,
    pub(super) meta: MetaTable,
    pub(super) acks: PacketSet,
    /// Watermark of the last *complete* metadata send to each peer sent
    /// to, ascending by peer; an absent peer reads as `Time::ZERO`.
    pub(super) last_sent: Vec<(u32, Time)>,
    /// Average opportunity size observed by this node (bytes).
    pub(super) avg_opp: dtn_stats::RunningMean,
    /// Believed average opportunity size of every node, with stamp: a
    /// value column and a stamp column, `n` entries each.
    pub(super) believed_opp: OppBeliefs,
}

impl NodeState {
    pub(super) fn new(me: NodeId, n: usize) -> Self {
        Self {
            meetings: MeetingView::new(me, n),
            meta: MetaTable::new(),
            acks: PacketSet::new(),
            last_sent: Vec::new(),
            avg_opp: dtn_stats::RunningMean::new(),
            believed_opp: OppBeliefs::new(n),
        }
    }

    pub(super) fn last_sent_to(&self, peer: NodeId) -> Time {
        match self.last_sent.binary_search_by_key(&peer.0, |e| e.0) {
            Ok(i) => self.last_sent[i].1,
            Err(_) => Time::ZERO,
        }
    }

    pub(super) fn set_last_sent(&mut self, peer: NodeId, at: Time) {
        match self.last_sent.binary_search_by_key(&peer.0, |e| e.0) {
            Ok(i) => self.last_sent[i].1 = at,
            Err(i) if at != Time::ZERO => self.last_sent.insert(i, (peer.0, at)),
            Err(_) => {}
        }
    }

    /// Records a meeting with `peer` over a `full_opp`-byte opportunity:
    /// the meeting-time average and this node's own opportunity average.
    pub(super) fn record_meeting(&mut self, peer: NodeId, now: Time, full_opp: u64) {
        self.meetings.record_meeting(peer, now);
        self.avg_opp.observe(full_opp as f64);
        let me = self.meetings.me().index();
        self.believed_opp.set(me, self.avg_opp.mean_or(0.0), now);
    }
}

/// The per-node states an execution may address: exactly the two endpoints
/// of a contact, a single node (storage decisions — `make_room` is a
/// one-node operation), or the full slice (the `InstantGlobal` oracle
/// reads arbitrary nodes, and always runs serial). Any access outside the
/// leased states is a bug and panics.
pub(super) enum StatePair<'a> {
    Full(&'a mut [NodeState]),
    Pair {
        a: NodeId,
        sa: &'a mut NodeState,
        b: NodeId,
        sb: &'a mut NodeState,
    },
    Solo {
        x: NodeId,
        sx: &'a mut NodeState,
    },
}

/// Index of node `x` in a shard's run of `len` states starting at node
/// `base`; a node outside the run is a routing-contract breach.
fn local(base: usize, len: usize, x: NodeId) -> usize {
    match x.index().checked_sub(base) {
        Some(i) if i < len => i,
        _ => panic!(
            "{x} is outside this shard's node range {base}..{}",
            base + len
        ),
    }
}

impl<'a> StatePair<'a> {
    /// Leases a contact's two endpoint states out of a shard's run
    /// `states` (node `base` first).
    pub(super) fn pair_in(base: usize, states: &'a mut [NodeState], a: NodeId, b: NodeId) -> Self {
        let (ai, bi) = (local(base, states.len(), a), local(base, states.len(), b));
        let [sa, sb] = states
            .get_disjoint_mut([ai, bi])
            .expect("a contact's two endpoints are distinct");
        StatePair::Pair { a, sa, b, sb }
    }

    /// Leases one node's state out of a shard's run (see [`Self::pair_in`]).
    pub(super) fn solo_in(base: usize, states: &'a mut [NodeState], x: NodeId) -> Self {
        let sx = &mut states[local(base, states.len(), x)];
        StatePair::Solo { x, sx }
    }
}

impl StatePair<'_> {
    pub(super) fn state(&self, x: NodeId) -> &NodeState {
        match self {
            StatePair::Full(states) => &states[x.index()],
            StatePair::Pair { a, sa, .. } if x == *a => sa,
            StatePair::Pair { b, sb, .. } if x == *b => sb,
            StatePair::Pair { .. } => panic!("{x} is outside this contact's state pair"),
            StatePair::Solo { x: n, sx } if x == *n => sx,
            StatePair::Solo { .. } => panic!("{x} is outside this solo state lease"),
        }
    }

    pub(super) fn state_mut(&mut self, x: NodeId) -> &mut NodeState {
        match self {
            StatePair::Full(states) => &mut states[x.index()],
            StatePair::Pair { a, sa, b, sb } => {
                if x == *a {
                    sa
                } else if x == *b {
                    sb
                } else {
                    panic!("{x} is outside this contact's state pair")
                }
            }
            StatePair::Solo { x: n, sx } => {
                if x == *n {
                    sx
                } else {
                    panic!("{x} is outside this solo state lease")
                }
            }
        }
    }

    /// Split-borrows two distinct node states.
    pub(super) fn two(&mut self, x: NodeId, y: NodeId) -> (&mut NodeState, &mut NodeState) {
        match self {
            StatePair::Full(states) => {
                let [sx, sy] = states
                    .get_disjoint_mut([x.index(), y.index()])
                    .expect("two distinct node states");
                (sx, sy)
            }
            StatePair::Pair { a, sa, b, sb } => {
                if x == *a && y == *b {
                    (sa, sb)
                } else if x == *b && y == *a {
                    (sb, sa)
                } else {
                    panic!("({x}, {y}) is not this contact's state pair")
                }
            }
            StatePair::Solo { .. } => panic!("({x}, {y}) requested from a solo state lease"),
        }
    }

    /// Every node state — the `InstantGlobal` oracle's paths only.
    pub(super) fn all(&self) -> &[NodeState] {
        match self {
            StatePair::Full(states) => states,
            StatePair::Pair { .. } | StatePair::Solo { .. } => {
                unreachable!("global-knowledge paths run on the full slice only")
            }
        }
    }
}

/// The protocol-state section of an `RSNP1` snapshot: every node's
/// beliefs, in node order.
pub(super) fn encode_states(states: &[NodeState]) -> Vec<u8> {
    let mut out = Vec::new();
    write_varint(&mut out, states.len() as u64);
    for st in states {
        encode_node_state(&mut out, st);
    }
    out
}

/// Inverse of [`encode_states`] for a world of `n` nodes.
pub(super) fn decode_states(bytes: &[u8], n: usize) -> Result<Vec<NodeState>, String> {
    let mut cur = ByteCursor::new(bytes);
    let saved = cur.varint().map_err(|e| format!("node count: {e}"))? as usize;
    if saved != n {
        return Err(format!("RAPID state for {saved} nodes, world has {n}"));
    }
    let mut states = Vec::with_capacity(n);
    for i in 0..n {
        let mut st = NodeState::new(NodeId(i as u32), n);
        decode_node_state(&mut cur, &mut st, n)
            .map_err(|e| format!("node {i} (offset {}): {e}", cur.offset()))?;
        states.push(st);
    }
    if !cur.is_empty() {
        return Err(format!(
            "{} trailing bytes after RAPID state",
            cur.remaining()
        ));
    }
    Ok(states)
}

/// Appends one node's checkpointable belief state. All sparse maps iterate
/// in ascending peer/slot order, so a save of a restored instance is
/// byte-identical.
fn encode_node_state(out: &mut Vec<u8>, st: &NodeState) {
    st.meetings.encode(out);

    // Replica beliefs, in slot (first-heard) order so restore reproduces
    // the interner's slot assignment exactly.
    let beliefs: Vec<_> = st.meta.iter_live().collect();
    write_varint(out, beliefs.len() as u64);
    for (id, belief) in beliefs {
        write_varint(out, id.0 as u64);
        write_varint(out, belief.changed_at.0);
        write_varint(out, belief.entries.len() as u64);
        for e in &belief.entries {
            write_varint(out, e.holder.0 as u64);
            put_f64(out, e.delay_secs);
            write_varint(out, e.stamp.0);
        }
    }

    write_varint(out, st.acks.len() as u64);
    for id in st.acks.iter() {
        write_varint(out, id.0 as u64);
    }

    let sent = || st.last_sent.iter().filter(|e| e.1 != Time::ZERO);
    write_varint(out, sent().count() as u64);
    for &(p, at) in sent() {
        write_varint(out, p as u64);
        write_varint(out, at.0);
    }

    let (mean, count) = st.avg_opp.state();
    put_f64(out, mean);
    write_varint(out, count);

    let heard = || {
        let all = (0..st.believed_opp.len()).map(|p| (p, st.believed_opp.get(p)));
        all.filter(|&(_, belief)| belief != (0.0, Time::ZERO))
    };
    write_varint(out, heard().count() as u64);
    for (p, (size, stamp)) in heard() {
        write_varint(out, p as u64);
        put_f64(out, size);
        write_varint(out, stamp.0);
    }
}

/// Restores one node's belief state onto a fresh [`NodeState`]. Inverse of
/// [`encode_node_state`]; every index is validated against `n`.
fn decode_node_state(cur: &mut ByteCursor<'_>, st: &mut NodeState, n: usize) -> Result<(), String> {
    st.meetings.decode(cur)?;

    let beliefs = take_varint(cur)?;
    for _ in 0..beliefs {
        let id = PacketId(u32::try_from(take_varint(cur)?).map_err(|_| "packet id overflow")?);
        let changed_at = Time(take_varint(cur)?);
        let entries_len = take_varint(cur)?;
        let mut entries = Vec::with_capacity(entries_len.min(1 << 16) as usize);
        for _ in 0..entries_len {
            let holder = NodeId(take_index(cur, n)? as u32);
            let delay_secs = take_f64(cur)?;
            let stamp = Time(take_varint(cur)?);
            entries.push(HolderEntry {
                holder,
                delay_secs,
                stamp,
            });
        }
        if !entries.windows(2).all(|w| w[0].holder < w[1].holder) {
            return Err(format!("belief entries for packet {} not sorted", id.0));
        }
        st.meta.restore_belief(
            id,
            PacketBelief {
                entries,
                changed_at,
            },
        );
    }

    let acks = take_varint(cur)?;
    let mut prev: Option<u32> = None;
    for _ in 0..acks {
        let id = u32::try_from(take_varint(cur)?).map_err(|_| "ack id overflow")?;
        if prev.is_some_and(|p| p >= id) {
            return Err("ack ids not strictly ascending".into());
        }
        prev = Some(id);
        st.acks.insert(PacketId(id));
    }

    let mut prev = None;
    for _ in 0..take_varint(cur)? {
        let p = take_ascending(cur, n, &mut prev, "last-sent peer")?;
        st.set_last_sent(NodeId(p as u32), Time(take_varint(cur)?));
    }

    let mean = take_f64(cur)?;
    let count = take_varint(cur)?;
    st.avg_opp = dtn_stats::RunningMean::from_state(mean, count);

    let mut prev = None;
    for _ in 0..take_varint(cur)? {
        let p = take_ascending(cur, n, &mut prev, "believed-opportunity node")?;
        let size = take_f64(cur)?;
        let stamp = Time(take_varint(cur)?);
        st.believed_opp.set(p, size, stamp);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fleet(n: usize) -> Vec<NodeState> {
        (0..n)
            .map(|i| NodeState::new(NodeId(i as u32), n))
            .collect()
    }

    /// Runs `f` on a `Pair` lease of nodes 1 and 3 out of a fleet of 5.
    fn with_pair<R>(f: impl FnOnce(&mut StatePair<'_>) -> R) -> R {
        f(&mut StatePair::pair_in(
            0,
            &mut fleet(5),
            NodeId(1),
            NodeId(3),
        ))
    }

    /// Runs `f` on a `Solo` lease of node 2 out of a fleet of 5.
    fn with_solo<R>(f: impl FnOnce(&mut StatePair<'_>) -> R) -> R {
        f(&mut StatePair::solo_in(0, &mut fleet(5), NodeId(2)))
    }

    #[test]
    fn leases_address_their_own_nodes_in_either_order() {
        with_pair(|p| {
            assert_eq!(p.state(NodeId(1)).meetings.me(), NodeId(1));
            assert_eq!(p.state_mut(NodeId(3)).meetings.me(), NodeId(3));
            let (x, y) = p.two(NodeId(3), NodeId(1));
            assert_eq!((x.meetings.me(), y.meetings.me()), (NodeId(3), NodeId(1)));
        });
        with_solo(|s| {
            assert_eq!(s.state(NodeId(2)).meetings.me(), NodeId(2));
            assert_eq!(s.state_mut(NodeId(2)).meetings.me(), NodeId(2));
        });
        let mut states = fleet(5);
        let mut full = StatePair::Full(&mut states);
        assert_eq!(full.all().len(), 5);
        let (x, y) = full.two(NodeId(4), NodeId(0));
        assert_eq!((x.meetings.me(), y.meetings.me()), (NodeId(4), NodeId(0)));
    }

    #[test]
    #[should_panic(expected = "outside this contact's state pair")]
    fn pair_panics_on_a_third_node_from_state() {
        with_pair(|p| p.state(NodeId(2)).acks.len());
    }

    #[test]
    #[should_panic(expected = "outside this contact's state pair")]
    fn pair_panics_on_a_third_node_from_state_mut() {
        with_pair(|p| p.state_mut(NodeId(0)).acks.len());
    }

    #[test]
    #[should_panic(expected = "is not this contact's state pair")]
    fn pair_panics_on_a_third_node_from_two() {
        with_pair(|p| p.two(NodeId(1), NodeId(2)).0.acks.len());
    }

    #[test]
    #[should_panic(expected = "is not this contact's state pair")]
    fn pair_panics_on_the_same_node_twice_from_two() {
        with_pair(|p| p.two(NodeId(1), NodeId(1)).0.acks.len());
    }

    #[test]
    #[should_panic(expected = "requested from a solo state lease")]
    fn solo_panics_on_two() {
        with_solo(|s| s.two(NodeId(2), NodeId(3)).0.acks.len());
    }

    #[test]
    #[should_panic(expected = "outside this solo state lease")]
    fn solo_panics_on_any_other_node_from_state() {
        with_solo(|s| s.state(NodeId(3)).acks.len());
    }

    #[test]
    #[should_panic(expected = "outside this solo state lease")]
    fn solo_panics_on_any_other_node_from_state_mut() {
        with_solo(|s| s.state_mut(NodeId(1)).acks.len());
    }

    #[test]
    #[should_panic(expected = "global-knowledge paths run on the full slice only")]
    fn all_is_unreachable_from_a_pair() {
        with_pair(|p| p.all().len());
    }

    #[test]
    #[should_panic(expected = "global-knowledge paths run on the full slice only")]
    fn all_is_unreachable_from_a_solo() {
        with_solo(|s| s.all().len());
    }

    /// A shard owning nodes 2..4 of a fleet of 6 leases exactly those.
    #[test]
    fn a_run_rebases_global_ids_onto_its_states() {
        let mut states = fleet(6);
        let run = &mut states[2..4];
        assert_eq!(
            StatePair::solo_in(2, run, NodeId(3))
                .state(NodeId(3))
                .meetings
                .me(),
            NodeId(3)
        );
        let mut pair = StatePair::pair_in(2, run, NodeId(3), NodeId(2));
        let (x, y) = pair.two(NodeId(2), NodeId(3));
        assert_eq!((x.meetings.me(), y.meetings.me()), (NodeId(2), NodeId(3)));
    }

    #[test]
    #[should_panic(expected = "n4 is outside this shard's node range 2..4")]
    fn a_run_panics_for_a_node_past_its_end() {
        StatePair::solo_in(2, &mut fleet(6)[2..4], NodeId(4));
    }

    #[test]
    #[should_panic(expected = "n1 is outside this shard's node range 2..4")]
    fn a_run_panics_for_a_contact_reaching_below_its_base() {
        StatePair::pair_in(2, &mut fleet(6)[2..4], NodeId(3), NodeId(1));
    }
}
