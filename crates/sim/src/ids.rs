//! Dense handles and stable interners for the simulator's identifier
//! spaces.
//!
//! [`PacketId`] and [`NodeId`] are *identities*: stable names that travel
//! through schedules, workloads and protocol beliefs. Hot-path state wants
//! *indices*: contiguous `Vec` slots with O(1) access and no hashing. The
//! types here bridge the two:
//!
//! * [`PacketIdx`] / [`NodeIdx`] are dense handles — plain array positions
//!   with a type each, so a packet slot cannot be confused with a node slot.
//! * [`PacketInterner`] / [`NodeInterner`] assign handles stably in
//!   first-seen order: interning the same id always yields the same handle,
//!   and handles are never reused or compacted, so `Vec`s indexed by a
//!   handle stay valid for the lifetime of the interner.
//! * [`IndexSet`] is a growable bitset over dense indices — O(1)
//!   membership, ascending-order iteration — the membership structure the
//!   arena-indexed containers ([`crate::buffer::NodeBuffer`], the
//!   control-plane tables in `rapid-core`) share.
//!
//! The engine already allocates `PacketId`s densely (creation order) and
//! `NodeId`s are `0..nodes`, so interning those is the identity mapping;
//! the interner is the contract that keeps dense-indexed state correct for
//! id spaces that are *not* born dense (trace-derived ids, subsets of
//! destinations actually seen by one buffer).

use crate::types::{NodeId, PacketId};
use std::fmt;

/// Dense handle for an interned [`PacketId`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PacketIdx(pub u32);

/// Dense handle for an interned [`NodeId`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeIdx(pub u32);

impl PacketIdx {
    /// The handle as an array index.
    pub fn index(&self) -> usize {
        self.0 as usize
    }
}

impl NodeIdx {
    /// The handle as an array index.
    pub fn index(&self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PacketIdx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pi{}", self.0)
    }
}

impl fmt::Display for NodeIdx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ni{}", self.0)
    }
}

/// Sparse-to-dense id mapping: raw u32 keys to dense indices assigned in
/// first-seen order. `sparse[raw]` holds `idx + 1` (0 = never seen).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct RawInterner {
    sparse: Vec<u32>,
    dense: Vec<u32>,
}

impl RawInterner {
    fn intern(&mut self, raw: u32) -> u32 {
        let slot = raw as usize;
        if slot >= self.sparse.len() {
            self.sparse.resize(slot + 1, 0);
        }
        if self.sparse[slot] == 0 {
            self.dense.push(raw);
            self.sparse[slot] = self.dense.len() as u32;
        }
        self.sparse[slot] - 1
    }

    fn get(&self, raw: u32) -> Option<u32> {
        match self.sparse.get(raw as usize) {
            Some(&v) if v > 0 => Some(v - 1),
            _ => None,
        }
    }

    fn raw(&self, idx: u32) -> u32 {
        self.dense[idx as usize]
    }

    fn len(&self) -> usize {
        self.dense.len()
    }

    fn clear(&mut self) {
        self.sparse.fill(0);
        self.dense.clear();
    }
}

/// Stable interner from [`PacketId`] to [`PacketIdx`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PacketInterner(RawInterner);

impl PacketInterner {
    /// An empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// The handle for `id`, assigning the next dense slot on first sight.
    pub fn intern(&mut self, id: PacketId) -> PacketIdx {
        PacketIdx(self.0.intern(id.0))
    }

    /// The handle for `id` if it has been interned.
    pub fn get(&self, id: PacketId) -> Option<PacketIdx> {
        self.0.get(id.0).map(PacketIdx)
    }

    /// The id a handle was assigned to.
    pub fn id(&self, idx: PacketIdx) -> PacketId {
        PacketId(self.0.raw(idx.0))
    }

    /// Number of distinct ids interned.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.0.len() == 0
    }

    /// Forgets every id, keeping allocations for reuse. Handles assigned
    /// before the clear are invalidated.
    pub fn clear(&mut self) {
        self.0.clear();
    }
}

/// Stable interner from [`NodeId`] to [`NodeIdx`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeInterner(RawInterner);

impl NodeInterner {
    /// An empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// The handle for `id`, assigning the next dense slot on first sight.
    pub fn intern(&mut self, id: NodeId) -> NodeIdx {
        NodeIdx(self.0.intern(id.0))
    }

    /// The handle for `id` if it has been interned.
    pub fn get(&self, id: NodeId) -> Option<NodeIdx> {
        self.0.get(id.0).map(NodeIdx)
    }

    /// The id a handle was assigned to.
    pub fn id(&self, idx: NodeIdx) -> NodeId {
        NodeId(self.0.raw(idx.0))
    }

    /// Number of distinct ids interned.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.0.len() == 0
    }

    /// Forgets every id, keeping allocations for reuse. Handles assigned
    /// before the clear are invalidated.
    pub fn clear(&mut self) {
        self.0.clear();
    }
}

/// A growable bitset over dense indices: O(1) insert/remove/contains,
/// iteration in ascending index order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IndexSet {
    words: Vec<u64>,
    count: usize,
}

impl IndexSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts `idx`; returns `true` if it was newly inserted.
    pub fn insert(&mut self, idx: usize) -> bool {
        let (w, bit) = (idx / 64, idx % 64);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let mask = 1u64 << bit;
        if self.words[w] & mask == 0 {
            self.words[w] |= mask;
            self.count += 1;
            true
        } else {
            false
        }
    }

    /// Removes `idx`; returns `true` if it was present.
    pub fn remove(&mut self, idx: usize) -> bool {
        let (w, bit) = (idx / 64, idx % 64);
        let mask = 1u64 << bit;
        match self.words.get_mut(w) {
            Some(word) if *word & mask != 0 => {
                *word &= !mask;
                self.count -= 1;
                true
            }
            _ => false,
        }
    }

    /// Membership test.
    pub fn contains(&self, idx: usize) -> bool {
        let (w, bit) = (idx / 64, idx % 64);
        self.words.get(w).is_some_and(|word| word & (1 << bit) != 0)
    }

    /// Number of indices in the set.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Iterates the indices in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        let words = self.words.iter().enumerate();
        words.flat_map(|(w, &word)| set_bits(w, word))
    }

    /// Iterates the indices in `self` and not in `other`, ascending — one
    /// and-not per word; the sets may differ in word count.
    pub fn difference<'a>(&'a self, other: &'a IndexSet) -> impl Iterator<Item = usize> + 'a {
        let words = self.words.iter().enumerate();
        words.flat_map(|(w, &word)| set_bits(w, word & !other.words.get(w).copied().unwrap_or(0)))
    }

    /// Union with another set; returns how many indices were newly added
    /// here.
    pub fn union_from(&mut self, other: &IndexSet) -> usize {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        let mut added = 0;
        for (mine, &theirs) in self.words.iter_mut().zip(&other.words) {
            added += (theirs & !*mine).count_ones() as usize;
            *mine |= theirs;
        }
        self.count += added;
        added
    }
}

/// The set bits of word `w` of a bitset as indices, ascending.
fn set_bits(w: usize, mut bits: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (bits != 0).then(|| {
            let b = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            w * 64 + b
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interner_is_stable_first_seen_order() {
        let mut i = NodeInterner::new();
        assert!(i.is_empty());
        let a = i.intern(NodeId(7));
        let b = i.intern(NodeId(2));
        let a2 = i.intern(NodeId(7));
        assert_eq!(a, NodeIdx(0));
        assert_eq!(b, NodeIdx(1));
        assert_eq!(a, a2, "re-interning yields the same handle");
        assert_eq!(i.len(), 2);
        assert_eq!(i.id(a), NodeId(7));
        assert_eq!(i.id(b), NodeId(2));
        assert_eq!(i.get(NodeId(2)), Some(NodeIdx(1)));
        assert_eq!(i.get(NodeId(9)), None);
    }

    #[test]
    fn packet_interner_roundtrip() {
        let mut i = PacketInterner::new();
        let h = i.intern(PacketId(1000));
        assert_eq!(h, PacketIdx(0));
        assert_eq!(i.id(h), PacketId(1000));
        assert_eq!(i.get(PacketId(0)), None);
        assert_eq!(i.intern(PacketId(0)), PacketIdx(1));
    }

    #[test]
    fn index_set_insert_remove_iterate() {
        let mut s = IndexSet::new();
        for idx in [130usize, 3, 64, 65, 0] {
            assert!(s.insert(idx));
        }
        assert!(!s.insert(64), "reinsert");
        assert_eq!(s.len(), 5);
        assert!(s.remove(64));
        assert!(!s.remove(64), "double remove");
        assert!(!s.contains(64));
        assert!(s.contains(65));
        let got: Vec<usize> = s.iter().collect();
        assert_eq!(got, vec![0, 3, 65, 130]);
        assert!(!s.remove(100_000), "out of range is absent");
    }

    #[test]
    fn display_forms() {
        assert_eq!(PacketIdx(3).to_string(), "pi3");
        assert_eq!(NodeIdx(4).to_string(), "ni4");
    }
}
