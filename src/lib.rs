//! Facade crate re-exporting the whole RAPID reproduction workspace.

#![forbid(unsafe_code)]

pub use dtn_mobility as mobility;
pub use dtn_optimal as optimal;
pub use dtn_protocols as protocols;
pub use dtn_sim as sim;
pub use dtn_stats as stats;
pub use dtn_trace as trace;
pub use rapid_core as rapid;
