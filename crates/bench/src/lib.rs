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
//! per run otherwise — and sweep aggregation pushes reports into
//! streaming accumulators in run order ([`runner::parallel_reduce`]),
//! so neither scenarios nor report sets are ever cloned or collected.
//!
//! Environment knobs are all optional and all `RAPID_*`: [`knobs::KNOBS`]
//! lists the names (README.md's knob table says what each does), and
//! `fig_all` exits 2 on a `RAPID_*` variable that is not among them.

#![forbid(unsafe_code)]

pub mod churn;
pub mod experiments;
pub mod families;
pub mod kbench;
pub mod knobs;
pub mod proto;
pub mod registry;
pub mod runner;
pub mod scale;
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

/// Parses a count knob that sizes an average — days or runs per data
/// point: a positive integer, nothing else. `0` is an error, not "no
/// data": a zero-sample point would print NaN rows or index an empty
/// sample.
fn parse_count(name: &str, value: &str) -> Result<u32, String> {
    match value.trim().parse::<u32>() {
        Ok(v) if v >= 1 => Ok(v),
        _ => Err(format!(
            "invalid {name} value {value:?}: expected a positive integer"
        )),
    }
}

/// Reads a count knob through [`parse_count`]; unset yields `default`,
/// anything else aborts naming the knob.
fn count_from_env(name: &str, default: u32) -> u32 {
    dtn_sim::from_env_or(name, default, |v| parse_count(name, v))
}

/// Trace days per data point (`RAPID_DAYS`; the deployment experiments
/// use their own day counts).
pub fn days_per_point() -> u32 {
    count_from_env("RAPID_DAYS", 8)
}

/// Synthetic runs per data point (`RAPID_RUNS`).
pub fn runs_per_point() -> u32 {
    count_from_env("RAPID_RUNS", 5)
}

/// Days of the Fig. 3 validation series (`RAPID_FIG3_DAYS`).
pub fn fig3_days() -> u32 {
    count_from_env("RAPID_FIG3_DAYS", 20)
}

/// Root experiment seed.
pub fn root_seed() -> u64 {
    env_u64("RAPID_SEED", 7)
}

#[cfg(test)]
mod tests {
    use super::parse_count;

    #[test]
    fn env_defaults() {
        assert_eq!(super::env_u64("RAPID_THIS_IS_UNSET_XYZ", 42), 42);
    }

    /// Process-env mutation races the parallel test runner, so each knob
    /// is checked through the pure parser its reader delegates to.
    fn rejects_zero_and_garbage(knob: &str) {
        assert_eq!(parse_count(knob, "1"), Ok(1));
        assert_eq!(parse_count(knob, " 58 "), Ok(58));
        for bad in ["0", "", "-1", "1.5", "two", "4294967296"] {
            let err = parse_count(knob, bad).expect_err(bad);
            assert!(
                err.contains(knob) && err.contains("positive integer"),
                "{bad:?}: {err}"
            );
        }
    }

    #[test]
    fn rapid_days_must_be_positive() {
        rejects_zero_and_garbage("RAPID_DAYS");
    }

    #[test]
    fn rapid_runs_must_be_positive() {
        rejects_zero_and_garbage("RAPID_RUNS");
    }

    #[test]
    fn rapid_fig3_days_must_be_positive() {
        rejects_zero_and_garbage("RAPID_FIG3_DAYS");
    }
}
