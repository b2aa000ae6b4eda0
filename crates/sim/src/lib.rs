//! Deterministic discrete-event DTN simulator.
//!
//! This crate is the substrate beneath the RAPID reproduction: the §3.1
//! system model of *DTN Routing as a Resource Allocation Problem*
//! (Balasubramanian, Levine, Venkataramani; SIGCOMM 2007) executed as a
//! typed discrete-event simulation.
//!
//! * Identifiers are split into *identities* and *indices*: [`types::PacketId`]
//!   and [`types::NodeId`] name things; the [`ids`] module provides dense
//!   handles ([`ids::PacketIdx`], [`ids::NodeIdx`]), stable interners and
//!   an index bitset so hot-path state is `Vec`-indexed rather than hashed.
//!   [`buffer::NodeBuffer`] keeps every structure sized by what it
//!   *stores* (sorted-index membership, slab metadata, per-destination
//!   delivery-order queues with prefix byte sums — O(log n)
//!   `bytes_ahead`, the `b(i)` input to RAPID's Estimate Delay), so
//!   100 000 near-empty buffers cost what they hold, not the id space.
//! * A DTN is a set of nodes, a [`contact::Schedule`] of transfer
//!   opportunities, and a [`workload::Workload`] of packets `(u, v, s, t)`.
//!   Opportunities are durative [`contact::ContactWindow`]s — open over
//!   `[start, end]` with a per-direction link rate, in the style of
//!   contact-graph routing — of which the paper's instantaneous meeting
//!   `(t_e, s_e)` is the degenerate zero-duration case (a lump opportunity).
//! * The [`event`] module is the event core: a [`event::SimEvent`] enum
//!   (contact start/end, packet creation, TTL expiry, node up/down) drained
//!   from a deterministic binary-heap [`event::EventQueue`] with a
//!   documented same-instant tie-break order.
//! * A [`routing::Routing`] implementation decides, at every driven
//!   opportunity, which packets to replicate or deliver — through a
//!   [`driver::ContactDriver`] that enforces feasibility: per-direction
//!   bytes bounded by the window's accrued budget, no fragmentation, buffer
//!   capacities respected, control metadata charged in-band. Optional
//!   lifecycle hooks ([`routing::Routing::on_contact_end`],
//!   `on_packet_expired`, `on_node_up`/`on_node_down`) surface the richer
//!   event kinds to protocols that want them.
//! * Scenarios are *pulled*, never pushed: [`engine::run_streaming`]
//!   merges a [`source::ContactSource`] and a [`source::WorkloadSource`]
//!   against the event queue in the documented tie-break order, so a
//!   run's memory is bounded by its open state, not its contact-plan
//!   size. That merge is the one [`scan`] both runtimes share — the
//!   serial engine and the sharded runtime ([`shard`], the one parallel
//!   executor, on a [`par::ContactPool`]) differ only in the executor it
//!   hands each action to.
//!   [`engine::Simulation`] is the materialized convenience wrapper
//!   — including node churn ([`event::NodeEvent`]) that interrupts active
//!   windows mid-accrual and per-packet TTL
//!   ([`routing::SimConfig::ttl`]) — and produces a
//!   [`report::SimReport`] with every metric the paper's evaluation uses.
//!
//! Design notes (following the networking guides for this workspace): the
//! simulator is synchronous and single-threaded — simulation is CPU-bound
//! work, so there is no async runtime; experiment harnesses parallelize at
//! the granularity of whole runs with OS threads. All event ordering is
//! integer microseconds ([`time::Time`]), giving bit-for-bit reproducible
//! results for a given seed; instantaneous schedules reproduce the seed
//! engine's two-stream merge byte-for-byte.
//!
//! `unsafe` is denied crate-wide: every parallel split is a borrow the
//! compiler checks, and the one exception is [`par::ContactPool`]'s
//! lifetime erasure of its task, allowed item by item.

#![deny(unsafe_code)]

pub mod acks;
pub mod buffer;
pub mod checkpoint;
pub mod contact;
pub mod diag;
pub mod driver;
pub mod engine;
pub mod env;
pub mod event;
pub mod fault;
pub mod ids;
pub mod noise;
pub mod par;
pub mod plan;
pub mod report;
pub mod routing;
pub mod scan;
pub mod shard;
pub mod source;
pub mod time;
pub mod types;
pub mod workload;

pub use acks::{AckTable, PacketSet};
pub use buffer::{NodeBuffer, QueueEntry, StoredMeta};
pub use checkpoint::{
    config_digest, load_latest, Checkpointer, LoadedSnapshot, RunHooks, Snapshot,
};
pub use contact::{Contact, ContactWindow, Schedule};
pub use driver::{ContactDriver, ContactLedger, GlobalView};
pub use engine::{run_streaming, run_streaming_hooked, Simulation};
pub use env::{from_env_or, jobs_from_env, shards_from_env};
pub use event::{EventQueue, NodeEvent, SimEvent};
pub use fault::{corrupt_bytes, corrupt_file, CorruptMode, Fault, FaultPlan};
pub use ids::{IndexSet, NodeIdx, NodeInterner, PacketIdx, PacketInterner};
pub use noise::NoiseModel;
pub use par::{intra_jobs_from_env, ContactPool, Lookahead};
pub use plan::{CompiledPlan, PlanAtom, PlanStream};
pub use report::{PacketOutcome, SimReport};
pub use routing::{ContactConcurrency, PacketStore, Routing, SimConfig, TransferOutcome};
pub use shard::{
    clamp_shards, run_sharded, run_sharded_hooked, run_sharded_with_stats, Partition, ShardStats,
};
pub use source::{ContactSource, ScheduleStream, WorkloadSource, WorkloadStream};
pub use time::{Time, TimeDelta};
pub use types::{NodeId, Packet, PacketId};
