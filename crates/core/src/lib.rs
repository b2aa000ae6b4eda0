//! RAPID — the Resource Allocation Protocol for Intentional DTN routing,
//! from *DTN Routing as a Resource Allocation Problem* (Balasubramanian,
//! Levine, Venkataramani; SIGCOMM 2007).
//!
//! RAPID treats DTN routing as a utility-driven resource allocation
//! problem: an administrator-specified routing metric (average delay,
//! missed deadlines, or maximum delay — [`config::RoutingMetric`]) is
//! translated into per-packet utilities, and at every transfer opportunity
//! the packet whose replication buys the most utility per byte is sent
//! first.
//!
//! Crate layout, mapped to the paper:
//!
//! | module | paper | contents |
//! |--------|-------|----------|
//! | [`config`] | §3.5, §6 | metrics, channel modes, tuning |
//! | [`protocol`] | §3.3–3.4, §4.2 | Protocol RAPID, one private module per decision: `state`, `exchange`, `select`, `storage`, and [`Rapid`] over them |
//! | [`estimate`] | §4.1 | Estimate Delay: Eqs. 4–9 |
//! | [`meetings`] | §4.1.2 | meeting-time learning, h-hop estimates |
//! | [`control`] | §4.2 | the in-band control channel's replica tables |
//! | [`mod@dag_delay`] | Appendix C | the idealized dependency-graph estimator |
//!
//! State is dense-indexed end to end (PR 3): packet/node identities are
//! interned onto dense handles (`dtn_sim::ids`), and [`control::MetaTable`]
//! and [`estimate::QueueSnapshot`] are `Vec`-keyed rather than hashed.
//! Storage decisions (§3.4) keep no state between calls: each scores the
//! node's delivery queues from scratch — one batched Eq. 4–5 row per queue,
//! one sort — through the single scorer `make_room` and in-contact eviction
//! share, and every debug-build `make_room` is asserted against a scalar
//! per-packet reference. Every [`dtn_sim::Routing`] hook that touches node
//! state runs through one view over a run of nodes — the whole fleet
//! serially, a partition range per shard — under a lease of exactly the
//! nodes the hook names (see [`protocol`], "Execution model").
//!
//! ```
//! use rapid_core::{Rapid, RapidConfig};
//! use dtn_sim::{Simulation, SimConfig, Schedule, Contact, NodeId, Time};
//! use dtn_sim::workload::{Workload, PacketSpec};
//!
//! let config = SimConfig { nodes: 2, horizon: Time::from_secs(60), ..SimConfig::default() };
//! let schedule = Schedule::new(vec![Contact::new(Time::from_secs(30), NodeId(0), NodeId(1), 4096)]);
//! let workload = Workload::new(vec![PacketSpec {
//!     time: Time::from_secs(1), src: NodeId(0), dst: NodeId(1), size_bytes: 1024,
//! }]);
//! let report = Simulation::new(config, schedule, workload)
//!     .run(&mut Rapid::new(RapidConfig::avg_delay()));
//! assert_eq!(report.delivered(), 1);
//! ```
//!
//! `unsafe` is denied crate-wide; each of the three `Kernel::Avx2` arms
//! (row, rate, §4.2 merge) allows it on its own function.

#![deny(unsafe_code)]

pub mod config;
pub mod control;
pub mod dag_delay;
pub mod estimate;
pub mod meetings;
pub mod protocol;

pub use config::{ChannelMode, RapidConfig, RoutingMetric};
pub use control::{HolderEntry, MetaTable, PacketBelief};
pub use dag_delay::{dag_delay, delay_of, estimate_delay_reference, QueueState};
pub use estimate::{
    combined_rate, delay_from_rate, expected_remaining_delay, meetings_needed,
    prob_delivered_within, prob_within_from_rate, replica_delay, Kernel, QueueSnapshot, RateBatch,
};
pub use meetings::{expected_meeting_times_from, HopEstimates, MeetingView};
pub use protocol::Rapid;
