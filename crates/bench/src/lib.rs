//! Experiment harness: regenerates every table and figure in the paper's
//! evaluation (§5–§6), plus the beyond-paper churn and scale families.
//!
//! Every experiment is an entry in the declarative [`registry`]
//! (id → sweep axes → TSV schema → run function, bodies in
//! [`experiments`]); `fig_all <id>...` is the one CLI over it and runs
//! the selected plans in-process
//! (`--list` prints it, `--jobs N` pins the worker pool). Output is TSV
//! on stdout, mirrored to `results/<id>.tsv`; see EXPERIMENTS.md for
//! calibration notes and paper-vs-measured results.
//!
//! Scenario data streams through [`runner::ContactsSpec`] /
//! [`runner::PacketsSpec`] — `Arc`-shared when materialized, generated
//! per run otherwise — and sweep aggregation folds reports into
//! mergeable accumulators in run order ([`runner::parallel_reduce`]),
//! so neither scenarios nor report sets are ever cloned or collected.
//!
//! Environment knobs (all optional):
//!
//! * `RAPID_DAYS` — trace days averaged per data point (default 8;
//!   the deployment experiments always use 58).
//! * `RAPID_RUNS` — synthetic-mobility runs per data point (default 5).
//! * `RAPID_SEED` — root experiment seed (default 7).
//! * `RAPID_JOBS` — worker threads (default: available parallelism;
//!   `fig_all --jobs N` is the CLI face of the same knob and wins over
//!   the environment).
//! * `RAPID_SCALE_*` — scale-family shape and its peak-RSS bound (see
//!   [`scale`]).

pub mod churn;
pub mod experiments;
pub mod families;
pub mod kbench;
pub mod proto;
pub mod registry;
pub mod runner;
pub mod scale;
pub mod scenarios;
pub mod synth;
pub mod trace_exp;
pub mod tsv;

pub use churn::ChurnLab;
pub use proto::Proto;
pub use registry::ExperimentPlan;
pub use runner::{parallel_map, parallel_reduce, run_spec, ContactsSpec, PacketsSpec, RunSpec};
pub use scale::ScaleLab;
pub use synth::{Mobility, SynthLab};
pub use trace_exp::TraceLab;

/// Reads an environment knob with a default, through the workspace's
/// strict parser (`dtn_sim::env`): unset yields the default, a malformed
/// value aborts with a message naming the knob — a typo'd knob must not
/// silently run the default experiment shape.
pub fn env_u64(name: &str, default: u64) -> u64 {
    dtn_sim::env::u64_from_env(name, default)
}

/// Trace days per data point (deployment experiments override this).
pub fn days_per_point() -> u32 {
    env_u64("RAPID_DAYS", 8) as u32
}

/// Synthetic runs per data point.
pub fn runs_per_point() -> u32 {
    env_u64("RAPID_RUNS", 5) as u32
}

/// Root experiment seed.
pub fn root_seed() -> u64 {
    env_u64("RAPID_SEED", 7)
}

#[cfg(test)]
mod tests {
    #[test]
    fn env_defaults() {
        assert_eq!(super::env_u64("RAPID_THIS_IS_UNSET_XYZ", 42), 42);
    }
}
