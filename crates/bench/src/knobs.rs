//! The one list of `RAPID_*` environment knobs the workspace reads.
//!
//! A knob no code reads is otherwise ignored silently — a script still
//! exporting a retired name, or a typo of a live one, would run the
//! default experiment and look like a result. `fig_all` checks the
//! environment against this list once at start and refuses to run with a
//! stranger in it. CI's `lint` job diffs the list three ways: against the
//! names read under `crates/*/src` (this file excluded) and against
//! README.md's knob table.

/// Every `RAPID_*` name some crate reads.
pub const KNOBS: [&str; 16] = [
    "RAPID_CKPT_DIR",
    "RAPID_CKPT_EVERY_S",
    "RAPID_DAYS",
    "RAPID_FAULT_CRASH_S",
    "RAPID_FIG3_DAYS",
    "RAPID_JOBS",
    "RAPID_KERNEL",
    "RAPID_RUNS",
    "RAPID_SCALE_HORIZON_S",
    "RAPID_SCALE_MAX_RSS_MB",
    "RAPID_SCALE_NODES",
    "RAPID_SCALE_PACKETS",
    "RAPID_SCALE_PROTO",
    "RAPID_SCALE_WINDOWS",
    "RAPID_SEED",
    "RAPID_SHARDS",
];

/// The `RAPID_`-prefixed names among `names` that are not in [`KNOBS`],
/// sorted; names without the prefix are none of this workspace's business.
pub fn unknown<S: AsRef<str>>(names: impl IntoIterator<Item = S>) -> Vec<String> {
    let mut strangers: Vec<String> = names
        .into_iter()
        .filter(|n| n.as_ref().starts_with("RAPID_") && !KNOBS.contains(&n.as_ref()))
        .map(|n| n.as_ref().to_string())
        .collect();
    strangers.sort();
    strangers
}

#[cfg(test)]
mod tests {
    use super::{unknown, KNOBS};

    #[test]
    fn only_prefixed_names_outside_the_list_are_strangers() {
        assert!(unknown(KNOBS).is_empty());
        assert!(unknown(["PATH", "CARGO_RAPID_DAYS", "rapid_days"]).is_empty());
        // Retired knobs, a typo of a live one, the bare prefix.
        let env = [
            "RAPID_SEED",
            "RAPID_SCALE_ROUTES",
            "RAPID_SYNTH_LOADS",
            "PATH",
            "RAPID_JOB",
            "RAPID_",
        ];
        assert_eq!(
            unknown(env),
            [
                "RAPID_",
                "RAPID_JOB",
                "RAPID_SCALE_ROUTES",
                "RAPID_SYNTH_LOADS"
            ]
        );
    }

    #[test]
    fn the_batch_scheduler_knobs_are_strangers() {
        let env = ["RAPID_INTRA_JOBS", "RAPID_LOOKAHEAD", "RAPID_SHARDS"];
        assert_eq!(unknown(env), ["RAPID_INTRA_JOBS", "RAPID_LOOKAHEAD"]);
    }
}
