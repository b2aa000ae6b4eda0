//! Baseline DTN routing protocols the paper compares RAPID against (§6.1):
//!
//! * [`maxprop::MaxProp`] — Burgess et al., the second-best performer and
//!   the only other protocol designed for finite storage *and* bandwidth.
//! * [`spray_wait::SprayAndWait`] — binary Spray and Wait with `L = 12`
//!   (the paper sets `L` "based on consultation with authors and using
//!   LEMMA 4.3 ... with a = 4").
//! * [`prophet::Prophet`] — probabilistic routing with
//!   `P_init = 0.75, β = 0.25, γ = 0.98` (the paper's parameters).
//! * [`random::Random`] — replicates randomly chosen packets for the whole
//!   opportunity; optionally with flooded delivery acknowledgments
//!   (the "Random with acks" component of §6.2.6).
//! * [`epidemic::Epidemic`] — unbounded flooding (P1 in Table 1), kept as a
//!   sanity baseline.
//!
//! Per the paper's methodology, the control traffic of these baselines is
//! *not* charged against the data channel ("In all experiments, we include
//! the cost of **rapid's** in-band control channel") — acks are the one
//! exception, charged for Random-with-acks so Fig. 14 is honest about its
//! cost. All protocols perform direct delivery before replication; none
//! fragments packets.

#![forbid(unsafe_code)]

pub mod common;
pub mod epidemic;
pub mod maxprop;
pub mod prophet;
pub mod random;
pub mod spray_wait;

pub use epidemic::Epidemic;
pub use maxprop::MaxProp;
pub use prophet::Prophet;
pub use random::Random;
pub use spray_wait::SprayAndWait;
