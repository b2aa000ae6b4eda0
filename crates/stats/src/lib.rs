//! Statistics substrate for the RAPID DTN reproduction.
//!
//! The paper's evaluation machinery needs a small but complete statistics
//! toolkit: exponential / gamma / Poisson sampling for mobility and workload
//! generation (§4.1.1, §5.1), running means for meeting-time and
//! transfer-size estimation (§4.1.2), confidence intervals for the simulator
//! validation (§5.3, Fig. 3), Jain's fairness index (§6.2.5, Fig. 15), a
//! paired t-test for protocol comparison (§6.2.1), and a discretized
//! distribution calculus (convolution `⊕` and pointwise `min`) for the
//! Appendix-C `dag_delay` reference algorithm.
//!
//! Everything here is implemented from scratch on top of [`rand`]'s uniform
//! source so that the workspace needs no external statistics crates and the
//! numeric behaviour is fully deterministic given a seed.

#![forbid(unsafe_code)]

pub mod dist;
pub mod ewma;
pub mod fairness;
pub mod htest;
pub mod rng;
pub mod sample;
pub mod special;
pub mod summary;

pub use dist::DiscreteDist;
pub use ewma::{Ewma, RunningMean};
pub use fairness::jain_index;
pub use htest::{paired_t_test, student_t_cdf, TTestResult};
pub use rng::{stream, SeedStream};
pub use sample::{Exponential, Gamma, LogNormal, Normal, Pareto, Poisson};
pub use summary::{mean_ci95, percentile, Summary};
