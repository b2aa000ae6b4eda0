//! Core identifiers and the packet type (the paper's §3.1 system model).

use crate::time::Time;
use std::fmt;

/// Identifier of a DTN node (a bus, in DieselNet terms).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The id as an array index.
    pub fn index(&self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of a packet; an index into the simulator's packet arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PacketId(pub u32);

impl PacketId {
    /// The id as an array index.
    pub fn index(&self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PacketId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// A packet: the workload tuple `(u_i, v_i, s_i, t_i)` of §3.1.
///
/// Packets may not be fragmented (§3.1); a transfer either moves the whole
/// `size_bytes` within the remaining opportunity or does not happen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packet {
    /// Arena id.
    pub id: PacketId,
    /// Source node (creator).
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Size in bytes.
    pub size_bytes: u64,
    /// Creation time at the source.
    pub created_at: Time,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(NodeId(3).to_string(), "n3");
        assert_eq!(PacketId(9).to_string(), "p9");
    }
}
