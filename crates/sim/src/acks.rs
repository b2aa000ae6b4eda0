//! Delivery-acknowledgment knowledge tables.
//!
//! §4.2: RAPID "uses an in-band control channel to exchange acknowledgments
//! for delivered packets"; Burgess et al. showed ack flooding "improves
//! delivery rates by removing useless packets from the network", which the
//! paper isolates as the *Random with acks* component (§6.2.6, Fig. 14).
//! Several protocols therefore share this utility: a per-node bitset of
//! packet ids known to be delivered, merged whenever two nodes meet.

use crate::ids::IndexSet;
use crate::types::{NodeId, PacketId};

/// A growable bitset keyed by [`PacketId`]: an [`IndexSet`] over the ids.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PacketSet(IndexSet);

fn packet(idx: usize) -> PacketId {
    PacketId(idx as u32)
}

impl PacketSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts `id`; returns `true` if it was newly inserted.
    pub fn insert(&mut self, id: PacketId) -> bool {
        self.0.insert(id.index())
    }

    /// Membership test.
    pub fn contains(&self, id: PacketId) -> bool {
        self.0.contains(id.index())
    }

    /// Number of ids in the set.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Iterates the ids in the set in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = PacketId> + '_ {
        self.0.iter().map(packet)
    }

    /// Iterates the ids in this set and not in `other`, ascending.
    pub fn difference<'a>(&'a self, other: &'a PacketSet) -> impl Iterator<Item = PacketId> + 'a {
        self.0.difference(&other.0).map(packet)
    }

    /// Union with another set; returns how many ids were newly added here.
    pub fn union_from(&mut self, other: &PacketSet) -> usize {
        self.0.union_from(&other.0)
    }
}

/// Per-node delivery knowledge: `table.node(x)` is the set of packets node
/// `x` believes have been delivered.
#[derive(Debug, Clone, Default)]
pub struct AckTable {
    per_node: Vec<PacketSet>,
}

impl AckTable {
    /// Creates a table for `nodes` nodes.
    pub fn new(nodes: usize) -> Self {
        Self {
            per_node: vec![PacketSet::new(); nodes],
        }
    }

    /// Records that `node` learned `packet` was delivered.
    pub fn learn(&mut self, node: NodeId, packet: PacketId) -> bool {
        self.per_node[node.index()].insert(packet)
    }

    /// Whether `node` knows `packet` was delivered.
    pub fn knows(&self, node: NodeId, packet: PacketId) -> bool {
        self.per_node[node.index()].contains(packet)
    }

    /// Two-way merge when `a` and `b` meet; returns `(new_to_a, new_to_b)` —
    /// the ack counts that crossed the link, which the caller charges to the
    /// control channel.
    pub fn exchange(&mut self, a: NodeId, b: NodeId) -> (usize, usize) {
        assert_ne!(a, b, "cannot exchange acks with self");
        let [set_a, set_b] = self
            .per_node
            .get_disjoint_mut([a.index(), b.index()])
            .expect("both nodes in the table");
        let to_a = set_a.union_from(set_b);
        let to_b = set_b.union_from(set_a);
        (to_a, to_b)
    }

    /// The set for one node.
    pub fn node(&self, node: NodeId) -> &PacketSet {
        &self.per_node[node.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_contains() {
        let mut s = PacketSet::new();
        assert!(!s.contains(PacketId(3)));
        assert!(s.insert(PacketId(3)));
        assert!(!s.insert(PacketId(3)), "reinsert");
        assert!(s.contains(PacketId(3)));
        assert!(s.insert(PacketId(200)));
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
    }

    #[test]
    fn iter_yields_ascending_ids() {
        let mut s = PacketSet::new();
        for id in [130u32, 3, 64, 65, 0] {
            s.insert(PacketId(id));
        }
        let got: Vec<u32> = s.iter().map(|p| p.0).collect();
        assert_eq!(got, vec![0, 3, 64, 65, 130]);
        assert_eq!(PacketSet::new().iter().count(), 0);
    }

    #[test]
    fn union_counts_new_bits() {
        let mut a = PacketSet::new();
        let mut b = PacketSet::new();
        a.insert(PacketId(1));
        a.insert(PacketId(64));
        b.insert(PacketId(64));
        b.insert(PacketId(130));
        let added = a.union_from(&b);
        assert_eq!(added, 1);
        assert_eq!(a.len(), 3);
        assert!(a.contains(PacketId(130)));
    }

    #[test]
    fn ack_exchange_is_symmetric_union() {
        let mut t = AckTable::new(3);
        t.learn(NodeId(0), PacketId(1));
        t.learn(NodeId(0), PacketId(2));
        t.learn(NodeId(2), PacketId(7));
        let (to_a, to_b) = t.exchange(NodeId(0), NodeId(2));
        assert_eq!(to_a, 1); // node 0 learned p7
        assert_eq!(to_b, 2); // node 2 learned p1, p2
        assert!(t.knows(NodeId(0), PacketId(7)));
        assert!(t.knows(NodeId(2), PacketId(1)));
        assert!(!t.knows(NodeId(1), PacketId(1)));
        // Exchanging again moves nothing.
        assert_eq!(t.exchange(NodeId(0), NodeId(2)), (0, 0));
    }

    #[test]
    fn exchange_lower_index_second_node() {
        let mut t = AckTable::new(2);
        t.learn(NodeId(1), PacketId(9));
        let (to_a, to_b) = t.exchange(NodeId(1), NodeId(0));
        assert_eq!((to_a, to_b), (0, 1));
        assert!(t.knows(NodeId(0), PacketId(9)));
    }

    #[test]
    #[should_panic(expected = "self")]
    fn self_exchange_panics() {
        let mut t = AckTable::new(2);
        let _ = t.exchange(NodeId(1), NodeId(1));
    }
}
