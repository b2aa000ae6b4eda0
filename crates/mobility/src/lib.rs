//! Mobility models for the RAPID DTN reproduction.
//!
//! Three contact-generation substrates, matching §6 of the paper:
//!
//! * [`exponential::UniformExponential`] — every pair of nodes meets with
//!   i.i.d. exponential inter-meeting times (§4.1.1's analytical model and
//!   the §6.3.3 synthetic experiments).
//! * [`powerlaw::PowerLaw`] — exponential pairwise meetings whose means are
//!   skewed by node popularity (§6.3: "two nodes meet with an exponential
//!   inter-meeting time, but the mean ... is determined by the popularity of
//!   the nodes").
//! * [`dieselnet::DieselNet`] — the synthetic substitute for the DieselNet
//!   vehicular testbed traces (§5): 40 buses on overlapping routes, a
//!   rotating subset scheduled each day, 19-hour days, heavy-tailed
//!   per-meeting transfer opportunities, and bus pairs that never meet
//!   directly (which §4.1.2's h-hop meeting-time estimation exists for).
//!
//! All generators are deterministic functions of their seed.
//!
//! The trace and scale substrates also exist in *streaming* form
//! ([`dieselnet::DayWindowStream`] and the [`scale`] module's sparse
//! [`scale::ScaleFleet`] / [`scale::RegionalFleet`]): contact windows
//! pulled lazily in start order from per-run RNG substreams, so the engine
//! never materializes a schedule. The §6.3 exponential and power-law
//! models are materialized only — the paper's 20-node synthetic figures
//! replay them bit-exactly, and fleets past pairwise enumeration use the
//! scale generators and their compressed plans.

#![forbid(unsafe_code)]

pub mod dieselnet;
pub mod exponential;
pub mod powerlaw;
pub mod scale;

pub use dieselnet::{DayTrace, DayWindowStream, DieselNet, DieselNetConfig};
pub use exponential::UniformExponential;
pub use powerlaw::PowerLaw;
pub use scale::{RegionalFleet, ScaleFleet};
