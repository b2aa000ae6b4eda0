//! Optimal DTN routing and the paper's hardness constructions.
//!
//! Three pieces back the paper's theory-side claims:
//!
//! * [`journeys`] — time-respecting paths over a contact schedule:
//!   uncapacitated earliest-arrival (a per-packet lower bound on delay) and
//!   bounded journey enumeration.
//! * [`exact`] — an exact branch-and-bound solver equivalent to the
//!   Appendix-D ILP for unit-size packets: minimizes total delay (with
//!   undelivered packets charged their time in the system) subject to
//!   per-contact capacities. Used for the Fig. 13 Optimal line. Exponential
//!   in the worst case — as Theorem 2 proves any exact method must be — so
//!   [`optimal::solve_bounded`] additionally provides a scalable
//!   lower-bound / feasible-upper-bound pair whose gap is reported.
//! * [`adversary`] / [`edp`] — executable versions of the Appendix-A
//!   competitive-hardness constructions (Theorems 1a, 1b) and the
//!   Appendix-B reduction from edge-disjoint paths (Theorem 2).
//!
//! The solver works offline on `(Schedule, Workload)` — it is the
//! omniscient comparator, not a [`dtn_sim::Routing`] implementation.
//! Replication cannot help an omniscient scheduler under this objective
//! (any delivery achieved by a replica is achieved by routing the single
//! copy along the successful journey), so the optimum over forwarding
//! schedules — which is what the Appendix-D ILP encodes with its
//! conservation constraint — equals the optimum over replication schedules.

#![forbid(unsafe_code)]

pub mod adversary;
pub mod edp;
pub mod exact;
pub mod journeys;
pub mod optimal;

pub use adversary::{alg_deliveries, generate_y, theorem1a_instance, BasicGadget, GadgetChoice};
pub use edp::{reduce_edp_to_dtn, DagEdp};
pub use exact::{solve_exact, ExactLimits, ExactSolution};
pub use journeys::{earliest_arrivals, enumerate_journeys, Journey};
pub use optimal::{solve_bounded, OptimalReport};
